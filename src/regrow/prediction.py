"""Prediction tasks: future reference similarity and restoration strategy.

Features are assembled in a fixed column order (covariates, spectral,
embeddings), targets come from the similarity trajectories or the strategy
label, and evaluation runs spatial k-fold cross-validation with all
standardization/imputation statistics computed on training folds only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .cluster import FoldAssignment
from .core import CovariateSet, SiteRecord, cosine_similarity
from .errors import FoldTooSmallError, InvalidValueError, MissingFeatureError
from .forest import train_random_forest
from .linear_models import train_linear, train_logistic
from .pool import iter_jobs
from .references import ReferenceSet

log = logging.getLogger("regrow.prediction")

N_COVARIATE_COLUMNS = len(CovariateSet.FIELD_NAMES)
N_SPECTRAL_COLUMNS = 2


class Task(Enum):
    FUTURE_SIMILARITY = "future_similarity"
    STRATEGY = "strategy"


class ModelKind(Enum):
    LINEAR = "linear"
    LOGISTIC = "logistic"
    RANDOM_FOREST = "random_forest"


class FeatureSet(Enum):
    """Feature blocks, concatenated in the fixed order cov, spectral, emb."""

    COVARIATES = "covariates"
    SPECTRAL = "spectral"
    COVARIATES_SPECTRAL = "covariates_spectral"
    EMBEDDINGS = "embeddings"
    EMBEDDINGS_COVARIATES = "embeddings_covariates"
    ALL = "all"


_BLOCKS = {
    FeatureSet.COVARIATES: ("cov",),
    FeatureSet.SPECTRAL: ("spec",),
    FeatureSet.COVARIATES_SPECTRAL: ("cov", "spec"),
    FeatureSet.EMBEDDINGS: ("emb",),
    FeatureSet.EMBEDDINGS_COVARIATES: ("cov", "emb"),
    FeatureSet.ALL: ("cov", "spec", "emb"),
}


def build_features(
    site: SiteRecord,
    feature_set: FeatureSet,
    at_year: int,
    dim: int,
    allow_missing: bool = False,
) -> np.ndarray:
    """Assemble one site's feature row for ``at_year``.

    Missing blocks raise MissingFeatureError unless ``allow_missing`` is
    set, in which case they are emitted as NaN for downstream train-fold
    mean imputation.
    """
    blocks = {
        "cov": (site.covariates, N_COVARIATE_COLUMNS, "covariates"),
        "spec": (site.spectral, N_SPECTRAL_COLUMNS, "spectral indices"),
        "emb": (site.embeddings, dim, "embedding"),
    }
    parts: list[np.ndarray] = []
    for block in _BLOCKS[feature_set]:
        years, width, what = blocks[block]
        if at_year in years:
            parts.append(years.row(at_year))
        elif allow_missing:
            parts.append(np.full(width, np.nan))
        else:
            raise MissingFeatureError(f"site {site.site_id}: no {what} for year {at_year}")
    return np.concatenate(parts)


def make_targets(
    sites: Sequence[SiteRecord],
    refset: ReferenceSet,
    task: Task,
    horizon: int = 3,
    t0: int = 0,
) -> tuple[dict[str, float] | dict[str, str], list[str]]:
    """Targets per site_id, plus the ids excluded for a missing horizon year.

    Future similarity: global-reference similarity at delta_t = t0 +
    horizon (features are taken at delta_t = t0). Strategy: the five-way
    strategy label; nothing is excluded.
    """
    if task is Task.STRATEGY:
        return {s.site_id: s.strategy.value for s in sites}, []
    targets: dict[str, float] = {}
    excluded: list[str] = []
    for site in sites:
        year = site.start_year + t0 + horizon
        emb = site.embeddings.get(year)
        if emb is None:
            excluded.append(site.site_id)
            continue
        targets[site.site_id] = cosine_similarity(emb, refset.global_reference(year))
    if excluded:
        log.info(
            "%d site(s) excluded from %s: missing delta_t=%+d year",
            len(excluded), task.value, t0 + horizon,
        )
    return targets, sorted(excluded)


def r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 - SSE/SST with SST taken against the test-fold mean.

    A constant truth vector yields 1.0 for an exact prediction, else 0.0.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    sse = float(((y_true - y_pred) ** 2).sum())
    sst = float(((y_true - y_true.mean()) ** 2).sum())
    if sst == 0.0:
        return 1.0 if sse == 0.0 else 0.0
    return 1.0 - sse / sst


def mean_absolute_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.abs(np.asarray(y_true) - np.asarray(y_pred)).mean())


def accuracy(y_true: Sequence[str], y_pred: Sequence[str]) -> float:
    return float(np.mean([t == p for t, p in zip(y_true, y_pred)]))


def macro_f1(y_true: Sequence[str], y_pred: Sequence[str], labels: Sequence[str]) -> float:
    """Unweighted mean of per-class F1 over ``labels``; absent classes score 0."""
    scores = []
    for label in labels:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == label and p == label)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != label and p == label)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == label and p != label)
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


@dataclass(frozen=True)
class FoldMetrics:
    fold: int
    n_train: int
    n_test: int
    metrics: Mapping[str, float]


@dataclass(frozen=True)
class PredictionTaskResult:
    task: Task
    model: ModelKind
    feature_set: FeatureSet
    per_fold: tuple[FoldMetrics, ...]
    aggregate: Mapping[str, tuple[float, float]]  # metric -> (mean, sd)
    skipped_folds: tuple[int, ...]
    excluded_sites: tuple[str, ...]


def assemble_design(
    sites: Sequence[SiteRecord],
    targets: Mapping[str, float] | Mapping[str, str],
    feature_set: FeatureSet,
    t0: int = 0,
    allow_missing: bool = True,
) -> tuple[list[str], np.ndarray, list]:
    """Feature matrix and target vector for the sites with a target.

    Returns (site ids sorted, X, y). Rows follow the sorted id order, so
    the assembly is input-order independent.
    """
    usable = [s for s in sorted(sites, key=lambda s: s.site_id) if s.site_id in targets]
    if not usable:
        return [], np.zeros((0, 0)), []
    dim = usable[0].embeddings.matrix.shape[1]
    X = np.stack(
        [
            build_features(s, feature_set, s.start_year + t0, dim, allow_missing=allow_missing)
            for s in usable
        ]
    )
    y = [targets[s.site_id] for s in usable]
    return [s.site_id for s in usable], X, y


_VALID_MODELS = {
    Task.FUTURE_SIMILARITY: (ModelKind.LINEAR, ModelKind.RANDOM_FOREST),
    Task.STRATEGY: (ModelKind.LOGISTIC, ModelKind.RANDOM_FOREST),
}


def models_for_task(task: Task, requested: Sequence[ModelKind]) -> list[ModelKind]:
    """Drop models that cannot target the task (linear needs a real-valued
    target, logistic a categorical one); order is preserved."""
    return [m for m in requested if m in _VALID_MODELS[task]]


def _fit_predict(
    model: ModelKind,
    task: Task,
    X_train: np.ndarray,
    y_train,
    X_test: np.ndarray,
    seed: int,
    n_trees: int,
):
    if model is ModelKind.LINEAR:
        return train_linear(X_train, np.asarray(y_train)).predict(X_test)
    if model is ModelKind.LOGISTIC:
        return train_logistic(X_train, list(y_train)).predict(X_test)
    mode = "regression" if task is Task.FUTURE_SIMILARITY else "classification"
    forest = train_random_forest(
        X_train, y_train, n_trees=n_trees, mode=mode, seed=seed
    )
    return forest.predict(X_test)


def evaluate(
    sites: Sequence[SiteRecord],
    refset: ReferenceSet,
    task: Task,
    models: Sequence[ModelKind],
    feature_sets: Sequence[FeatureSet],
    folds: FoldAssignment,
    seed: int = 0,
    horizon: int = 3,
    t0: int = 0,
    mean_impute: bool = True,
    n_trees: int = 100,
    threads: int | None = None,
) -> list[PredictionTaskResult]:
    """Spatial cross-validation over every (model, feature_set) pair.

    For each fold: train on the other folds, test on the held-out fold.
    Imputation means come from training rows only. Each feature set's design
    and imputed folds are built once and shared by every model. Test folds
    left with no usable site are skipped and warned about once; if every
    fold is skipped the run fails with FoldTooSmallError.

    Each fit has its own seed and shares nothing with the others, so the
    fits run on up to ``threads`` worker processes (None: every available
    core) and the results do not depend on the worker count.
    """
    for model in models:
        if model not in _VALID_MODELS[task]:
            raise InvalidValueError(f"model {model.value} cannot target task {task.value}")
    if folds.k < 2:
        raise FoldTooSmallError("cross-validation needs at least 2 folds")
    if not models or not feature_sets:
        return []

    # Once per task: the rows, targets and folds, which no feature set changes.
    regression = task is Task.FUTURE_SIMILARITY
    targets, excluded = make_targets(sites, refset, task, horizon=horizon, t0=t0)
    designs = [
        assemble_design(sites, targets, fs, t0=t0, allow_missing=mean_impute)
        for fs in feature_sets
    ]
    ids, _, y_all = designs[0]
    keep = [i for i, sid in enumerate(ids) if sid in folds.assignment]
    if not keep:
        raise FoldTooSmallError("no usable sites after target exclusion")
    y = np.array([y_all[i] for i in keep], dtype=object)  # .tolist() gives back each target
    fold_of = np.array([folds.assignment[ids[i]] for i in keep])
    label_alphabet = [] if regression else sorted(set(y))
    splits = []  # (fold, train rows, test rows) of each fold with rows on both sides
    skipped: list[int] = []
    for fold in range(folds.k):
        test = fold_of == fold
        if test.any() and not test.all():
            splits.append((fold, np.flatnonzero(~test), np.flatnonzero(test)))
        else:
            skipped.append(fold)
    if not splits:
        raise FoldTooSmallError(f"every fold was skipped for {task.value}")
    if skipped:
        log.warning("skipped fold(s) %s for %s", skipped, task.value)

    # Once per feature set: each fold's train and test rows, imputed.
    fold_inputs = []
    for _, X_all, _ in designs:
        X = X_all[keep]
        fold_inputs.append([
            _impute(X[train], X[test]) if mean_impute else (X[train], X[test])
            for _, train, test in splits
        ])

    # Per model: a fit of each (feature set, fold), with its own seed.
    jobs = []
    for model in models:
        for fs, inputs in zip(feature_sets, fold_inputs):
            for (fold, train, _), (X_train, X_test) in zip(splits, inputs):
                key = (list(Task).index(task), list(ModelKind).index(model),
                       list(FeatureSet).index(fs), fold)
                child_seed = int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])
                jobs.append((model, task, X_train, y[train].tolist(), X_test, child_seed, n_trees))
    # Random-forest fits (the slow ones) go to the pool first.
    order = sorted(range(len(jobs)), key=lambda i: jobs[i][0] is not ModelKind.RANDOM_FOREST)
    predictions = iter_jobs(_fit_predict, jobs, threads, order)
    results = []
    for model in models:
        for fs in feature_sets:
            per_fold: list[FoldMetrics] = []
            for fold, train, test in splits:
                y_pred, y_test = next(predictions), y[test].tolist()
                if regression:
                    metrics = {"r2": r_squared(y_test, y_pred),
                               "mae": mean_absolute_error(y_test, y_pred)}
                else:
                    metrics = {"accuracy": accuracy(y_test, y_pred),
                               "macro_f1": macro_f1(y_test, y_pred, label_alphabet)}
                per_fold.append(FoldMetrics(fold, len(train), len(test), metrics))
            aggregate = {}
            for name in per_fold[0].metrics:
                vals = np.array([fm.metrics[name] for fm in per_fold])
                aggregate[name] = (float(vals.mean()), float(vals.std()))
            results.append(
                PredictionTaskResult(
                    task=task,
                    model=model,
                    feature_set=fs,
                    per_fold=tuple(per_fold),
                    aggregate=aggregate,
                    skipped_folds=tuple(skipped),
                    excluded_sites=tuple(excluded),
                )
            )
    return results


def _impute(X_train: np.ndarray, X_test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Replace NaNs with training-fold column means (0 for all-NaN columns)."""
    X_train = X_train.copy()
    X_test = X_test.copy()
    # nanmean's own arithmetic (a sum with NaNs as 0, over the count), without
    # its "Mean of empty slice" warning for an all-NaN column.
    missing = np.isnan(X_train)
    count = (~missing).sum(axis=0)
    total = np.where(missing, 0.0, X_train).sum(axis=0)
    means = np.divide(total, count, out=np.zeros(len(total)), where=count > 0)
    means = np.where(np.isfinite(means), means, 0.0)
    for X in (X_train, X_test):
        nan_rows, nan_cols = np.nonzero(np.isnan(X))
        X[nan_rows, nan_cols] = means[nan_cols]
    return X_train, X_test
