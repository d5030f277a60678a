"""Command-line entry point.

Subcommands: synth, validate, references (classify|build|outliers),
trajectories, project, predict, report. Configuration is a flat
``key = value`` text file; command-line flags override file values. One
table, ``_SETTINGS``, parses and checks both, and makes the flags: each
action offers the flags of the settings that change its outputs, and
accepts every key in a config file, so one file serves every step. Every
run writes a manifest (config hash, seed, input checksums, artifact
hashes) so outputs are reproducible from the manifest alone. On any
module error, and on SIGINT or SIGTERM, the command removes its partial
outputs, prints a JSON error record to stderr, and exits nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import signal
import sys
import traceback
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable

from . import ingest
from .cluster import spatial_kfold
from .core import Strategy
from .csvio import write_csv
from .errors import DegenerateDataError, InvalidValueError, RegrowError
from .prediction import (
    FeatureSet,
    ModelKind,
    Task,
    evaluate,
    models_for_task,
)
from .projection import fit_projection, silhouette_score, trajectory_paths_2d
from .references import (
    ReferenceYearPolicy,
    build_reference_set,
    classify_points,
    detect_outliers,
)
from .synthetic import CLASS_ORDER, SynthConfig, generate_world, write_world
from .trajectories import (
    GroupBy,
    ReferenceKind,
    aggregate_trajectories,
    build_trajectory,
    compute_baselines,
    spectral_trajectory,
)

_INPUT_KEYS = ("embeddings", "sites", "spectral", "covariates", "reference_points", "lulc_codes")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError("must be an integer") from None


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError("must be a number") from None
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _bool(text: str) -> bool:
    value = text.strip().lower()
    if value not in ("true", "false"):
        raise ValueError("must be true or false")
    return value == "true"


def _at_least(low):
    def check(value):
        if value < low:
            raise ValueError(f"must be at least {low}")
    return check


def _between(low, high):
    def check(value):
        if not low <= value <= high:
            raise ValueError(f"must be between {low} and {high}")
    return check


def _one_of(*choices: str):
    def check(value):
        if value not in choices:
            raise ValueError(f"must be one of {', '.join(map(repr, choices))}")
    return check


def _parse_enum_list(text: str, enum: type[Enum]) -> list:
    """Members of ``enum`` named in the comma-separated ``text``."""
    members = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            members.append(enum(token))
        except ValueError:
            valid = ", ".join(m.value for m in enum)
            raise ValueError(f"names unknown value {token!r} (valid: {valid})") from None
    if not members:
        raise ValueError("selects nothing")
    return members


def _names_of(enum: type[Enum]):
    return lambda value: _parse_enum_list(value, enum)


@dataclass(frozen=True)
class _Key:
    """One setting: its default, the parser of its text (a flag value or a
    config line), the check of the parsed value, and the actions (``synth``,
    ``references build``, ...) whose outputs it changes, which offer it as a
    flag, ``--key-name`` unless ``flag`` names another."""

    default: object
    parse: Callable[[str], object] = str
    check: Callable[[object], object] = lambda value: None
    commands: tuple[str, ...] = ()
    flag: str | None = None
    help: str | None = None


#: The actions that read the input tables: all but synth.
_READERS = ("validate", "references classify", "references build", "references outliers",
            "trajectories", "project", "predict", "report")
#: The actions that score sites against the reference set.
_SCORES = ("trajectories", "predict")
_SYNTH = ("synth",)

#: Every setting. A key with no actions is set in the config file only.
_SETTINGS = {
    **{key: _Key(None, commands=_READERS, help=f"path to {key}.csv") for key in _INPUT_KEYS},
    "seed": _Key(0, _int, _at_least(0), ("synth", "predict")),
    "threads": _Key(None, _int, _at_least(1), ("synth", *_READERS), help=(
        "cap on worker processes (default: every available core; "
        "results do not depend on it)")),
    "first_year": _Key(2017, _int, commands=_SYNTH),
    "last_year": _Key(2024, _int, commands=_SYNTH),
    "lulc_first_year": _Key(2015, _int),
    "lulc_last_year": _Key(2024, _int),
    "min_stable_years": _Key(10, _int, _at_least(1)),
    "stability_end_year": _Key(2024, _int),
    "change_from_first": _Key(2017, _int),
    "change_from_last": _Key(2020, _int),
    "change_to_first": _Key(2021, _int),
    "change_to_last": _Key(2024, _int),
    "reference_policy": _Key("fixed", check=_one_of("fixed", "per_year"), commands=_SCORES),
    "reference_year": _Key(2024, _int, commands=(
        "references build", "references outliers", "project", *_SCORES)),
    "outlier_metric": _Key("cosine", check=_one_of("cosine", "euclidean"),
                           commands=("references outliers",)),
    "outlier_top_k": _Key(10, _int, _at_least(0), ("references outliers",)),
    "min_area_ha": _Key(1.0, _float, commands=("validate",)),
    "start_year_min": _Key(2017, _int, commands=("validate",)),
    "start_year_max": _Key(2024, _int, commands=("validate",)),
    "reference_kind": _Key("global", check=_one_of("global", "local", "both"),
                           commands=("trajectories",), flag="--reference"),
    # "" means no aggregation.
    "aggregate": _Key("", check=_one_of("", *(g.value for g in GroupBy)),
                      commands=("trajectories",)),
    "baselines": _Key(True, _bool, commands=("trajectories",), flag="--no-baselines"),
    "folds": _Key(5, _int, _at_least(2), ("predict",)),
    "horizon": _Key(3, _int, _at_least(0), ("predict",)),
    "t0": _Key(0, _int, commands=("predict",)),
    "feature_sets": _Key("covariates,covariates_spectral,embeddings",
                         check=_names_of(FeatureSet), commands=("predict",)),
    "models": _Key("linear,logistic,random_forest", check=_names_of(ModelKind),
                   commands=("predict",)),
    "n_trees": _Key(100, _int, _at_least(1), ("predict",)),
    "impute": _Key(True, _bool, commands=("predict",), flag="--no-impute"),
    "n_sites": _Key(200, _int, _at_least(0), _SYNTH),
    "points_per_class": _Key(200, _int, _at_least(0), _SYNTH),
    "n_classes": _Key(5, _int, _between(2, len(CLASS_ORDER)), _SYNTH),
    "dim": _Key(64, _int, _at_least(2), _SYNTH),
    "noise_sigma": _Key(0.05, _float, _at_least(0), _SYNTH),
    "start_year_spread": _Key(2, _int, _at_least(0), _SYNTH),
    "points_per_transition": _Key(40, _int, _at_least(0), _SYNTH),
    "equal_rate": _Key(None, _float, _between(0, 1), _SYNTH,
                       help="use one recovery rate for all strategies"),
    "covariate_strategy_signal": _Key(0.0, _float, _at_least(0), _SYNTH),
}

#: Year windows as (first, last) settings; first must not be after last.
_WINDOWS = (
    ("first_year", "last_year"),
    ("lulc_first_year", "lulc_last_year"),
    ("start_year_min", "start_year_max"),
    ("change_from_first", "change_from_last"),
    ("change_to_first", "change_to_last"),
)

#: synth's other cross-key rules: (keys, test, message).
_SYNTH_RULES = (
    (("first_year", "last_year", "start_year_spread"),
     lambda s: s["first_year"] + s["start_year_spread"] <= s["last_year"],
     "start_year_spread ({start_year_spread}) exceeds the year window "
     "{first_year}-{last_year}"),
    (("n_sites", "n_classes"),
     lambda s: s["n_sites"] == 0 or s["n_classes"] >= 3,
     "generating sites requires n_classes >= 3, got {n_classes}"),
    (("first_year", "last_year", "lulc_first_year", "lulc_last_year"),
     lambda s: s["lulc_first_year"] <= s["first_year"] and s["last_year"] <= s["lulc_last_year"],
     "the LULC years {lulc_first_year}-{lulc_last_year} must cover the embedding "
     "years {first_year}-{last_year}"),
)


def _config_lines(path: str | Path):
    """(key, value text, 1-based line) of each setting in a config file."""
    # Lines end where the CSV tables' rows end, at \n, \r\n or \r; not at the
    # other breaks that str.splitlines knows, such as a form feed.
    source, starts, ends = ingest.read_lines(path, InvalidValueError)
    with source:
        lines = [data[a:b].decode() for data, a, b in ingest.line_spans(source, starts, ends)]
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidValueError(
                f"expected key = value, got {raw!r}", file=str(path), line=lineno
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SETTINGS:
            raise InvalidValueError(
                f"unknown config key {key!r}", file=str(path), line=lineno
            )
        yield key, value.strip(), lineno


def _resolve_settings(args: argparse.Namespace) -> dict[str, object]:
    """Every setting, parsed and checked before any input is read.

    Config lines, in file order, then flags go through their key's parser
    and check. A bad value is an ``invalid_value`` error at its config line,
    or naming its flag when a flag set it; so is a broken cross-key rule,
    blamed on the key set last, and an input path that names no file.
    """
    settings = {key: row.default for key, row in _SETTINGS.items()}
    # Where each key not left at its default was set: its config line, or
    # inf for a flag, which overrides the file.
    set_at: dict[str, float] = {}

    def invalid(key: str, message: str) -> InvalidValueError:
        line = set_at.get(key, math.inf)
        if line == math.inf:
            return InvalidValueError(message)
        return InvalidValueError(message, file=str(args.config), line=int(line))

    def assign(key: str, text: str, where: float):
        set_at[key] = where
        row = _SETTINGS[key]
        try:
            settings[key] = row.parse(text)
            row.check(settings[key])
        except ValueError as exc:
            raise invalid(key, f"{key} {exc}, got {text!r}") from None

    if args.config:
        for key, text, lineno in _config_lines(args.config):
            assign(key, text, lineno)
    inputs_dir = getattr(args, "inputs_dir", None)
    if inputs_dir:
        for key in _INPUT_KEYS:
            if settings[key] is None:
                candidate = Path(inputs_dir) / f"{key}.csv"
                if candidate.exists():
                    settings[key] = str(candidate)
    for key in _SETTINGS:
        text = getattr(args, key, None)
        if text is not None:
            assign(key, text, math.inf)

    def last_set(keys) -> str:
        return max(keys, key=lambda k: set_at.get(k, -1))

    for first, last in _WINDOWS:
        if settings[first] > settings[last]:
            raise invalid(
                last_set((last, first)),
                f"{first} ({settings[first]}) is after {last} ({settings[last]})",
            )
    if args.subcommand == "synth":
        for keys, holds, message in _SYNTH_RULES:
            if not holds(settings):
                raise invalid(last_set(keys), message.format(**settings))
    else:
        for key in _INPUT_KEYS:
            if settings[key] and not Path(settings[key]).is_file():
                raise invalid(key, f"{key} names no file: {settings[key]!r}")
    return settings


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class RunOutputs:
    """Tracks files written by one run so failures can clean them up."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.paths: list[Path] = []
        #: The input files the run read, hashed into its manifest.
        self.inputs: list[str] = []

    def add(self, path: Path) -> Path:
        self.paths.append(path)
        return path

    def write_csv(self, name: str, header, rows) -> Path:
        return self.add(write_csv(self.out_dir / name, header, rows))

    def discard(self):
        for path in self.paths:
            path.unlink(missing_ok=True)

    def write_manifest(self, subcommand: str, settings: dict):
        # The worker cap changes how a run executes, never what it writes.
        settings = {k: v for k, v in settings.items() if k != "threads"}
        config_text = "\n".join(
            f"{k}={settings[k]}" for k in sorted(settings) if settings[k] is not None
        )
        manifest = {
            "subcommand": subcommand,
            "config": {k: str(v) for k, v in sorted(settings.items()) if v is not None},
            "config_hash": hashlib.sha256(config_text.encode()).hexdigest(),
            "seed": settings.get("seed"),
            "inputs": {p: _sha256_file(Path(p)) for p in sorted(self.inputs)},
            "artifacts": {
                str(p.relative_to(self.out_dir)): _sha256_file(p)
                for p in sorted(self.paths)
            },
        }
        path = self.out_dir / f"manifest_{subcommand}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _load_dataset(settings: dict, outputs: RunOutputs):
    """The dataset and the sites it skipped; ``outputs`` records each input file read."""
    missing = [k for k in ("embeddings", "sites", "reference_points") if not settings[k]]
    if missing:
        raise InvalidValueError(
            f"missing required input path(s): {', '.join(missing)} "
            "(set via config file, flags, or --inputs-dir)"
        )
    outputs.inputs = [settings[k] for k in _INPUT_KEYS if settings[k]]
    dataset, skipped = ingest.load_dataset(
        embeddings_path=settings["embeddings"],
        sites_path=settings["sites"],
        reference_points_path=settings["reference_points"],
        spectral_path=settings["spectral"],
        covariates_path=settings["covariates"],
        lulc_codes_path=settings["lulc_codes"],
        window=(settings["first_year"], settings["last_year"]),
        lulc_years=(settings["lulc_first_year"], settings["lulc_last_year"]),
        threads=settings["threads"],
    )
    return dataset, skipped


def _classify_kwargs(settings: dict) -> dict:
    return {
        "min_stable_years": settings["min_stable_years"],
        "end_year": settings["stability_end_year"],
        "change_from": (settings["change_from_first"], settings["change_from_last"]),
        "change_to": (settings["change_to_first"], settings["change_to_last"]),
    }


def _classified_references(dataset, settings):
    return classify_points(list(dataset.references), **_classify_kwargs(settings))


def _references(settings: dict, outputs: RunOutputs):
    """The dataset, its classified reference points and their reference set."""
    dataset, _ = _load_dataset(settings, outputs)
    points = _classified_references(dataset, settings)
    policy = ReferenceYearPolicy(settings["reference_policy"], settings["reference_year"])
    return dataset, points, build_reference_set(points, policy)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_synth(args, settings, outputs: RunOutputs) -> None:
    """generate a synthetic world with ground truth"""
    knobs = {key: settings[key] for key in (
        "seed", "dim", "n_classes", "points_per_class", "n_sites", "noise_sigma",
        "start_year_spread", "points_per_transition", "covariate_strategy_signal",
    )}
    if settings["equal_rate"] is not None:
        knobs["recovery_rate_by_strategy"] = {s: settings["equal_rate"] for s in Strategy}
    config = SynthConfig(
        years=(settings["first_year"], settings["last_year"]),
        lulc_years=(settings["lulc_first_year"], settings["lulc_last_year"]),
        **knobs,
    )
    dataset, truth = generate_world(config)
    write_world(
        dataset, truth, outputs.out_dir, on_write=outputs.add, threads=settings["threads"]
    )


def _cmd_validate(args, settings, outputs: RunOutputs) -> None:
    """ingest inputs and report the drop funnel"""
    dataset, skipped = _load_dataset(settings, outputs)
    kept, report = ingest.filter_sites(
        list(dataset.sites),
        min_area_ha=settings["min_area_ha"],
        start_year_range=(settings["start_year_min"], settings["start_year_max"]),
    )
    rows = [("input", 0, report.n_input)]
    rows.extend(report.stages)
    outputs.write_csv("funnel.csv", ["stage", "dropped", "remaining"], rows)
    outputs.write_csv(
        "load_report.csv",
        ["issue", "id"],
        [("no_embedding_years", sid) for sid in skipped],
    )
    print(f"validate: {report.n_input} sites in, {len(kept)} kept")


def _cmd_classify(args, settings, outputs: RunOutputs) -> None:
    """classify stability"""
    dataset, _ = _load_dataset(settings, outputs)
    rows = []
    for p in _classified_references(dataset, settings):
        st = p.stability
        class_from, class_to = st.stable_class or st.from_class, st.to_class
        rows.append((p.point_id, st.kind.value, class_from.label if class_from else "",
                     class_to.label if class_to else ""))
    outputs.write_csv("stability.csv", ["point_id", "stability", "class_from", "class_to"], rows)


def _cmd_build(args, settings, outputs: RunOutputs) -> None:
    """build references"""
    _, _, refset = _references(settings, outputs)
    outputs.write_csv(
        "global_reference.csv",
        ["index", "value"],
        enumerate(refset.global_ref.values),
    )
    outputs.write_csv(
        "centroids.csv",
        ["class", "index", "value"],
        (
            (cls.label, i, v)
            for cls in sorted(refset.centroids, key=lambda c: c.label)
            for i, v in enumerate(refset.centroids[cls].values)
        ),
    )
    outputs.write_csv(
        "secondary_points.csv",
        ["point_id", "lon", "lat"],
        ((p.point_id, p.lon, p.lat) for p in refset.secondary_points),
    )


def _cmd_outliers(args, settings, outputs: RunOutputs) -> None:
    """rank outliers"""
    _, points, refset = _references(settings, outputs)
    rows = []
    for cls in sorted(refset.centroids, key=lambda c: c.label):
        report = detect_outliers(
            points, cls, refset,
            top_k=settings["outlier_top_k"],
            metric=str(settings["outlier_metric"]),
        )
        rows.extend(
            (cls.label, rank, pid, dist)
            for rank, (pid, dist) in enumerate(report.ranked, start=1)
        )
    outputs.write_csv("outliers.csv", ["class", "rank", "point_id", "distance"], rows)


def _cmd_trajectories(args, settings, outputs: RunOutputs) -> None:
    """similarity trajectories, aggregates, baselines"""
    dataset, points, refset = _references(settings, outputs)

    kinds = {
        "global": [ReferenceKind.GLOBAL],
        "local": [ReferenceKind.LOCAL],
        "both": [ReferenceKind.GLOBAL, ReferenceKind.LOCAL],
    }[str(settings["reference_kind"])]

    sample_rows = []
    improvement_rows = []
    trajs_by_kind = {}
    for kind in kinds:
        trajs = [build_trajectory(s, refset, kind) for s in dataset.sites]
        trajs_by_kind[kind] = trajs
        for t in trajs:
            sample_rows.extend(
                (t.site_id, t.reference_label, s.year, s.delta_t, s.similarity)
                for s in t.samples
            )
            improvement_rows.append((t.site_id, t.reference_label, t.improvement, t.degenerate))
    outputs.write_csv(
        "trajectories.csv",
        ["site_id", "reference", "year", "delta_t", "similarity"],
        sample_rows,
    )
    outputs.write_csv(
        "improvements.csv",
        ["site_id", "reference", "improvement", "degenerate"],
        improvement_rows,
    )
    outputs.write_csv(
        "spectral_trajectories.csv",
        ["site_id", "delta_t", "ndvi", "evi"],
        (
            (s.site_id, dt, ndvi, evi)
            for s in dataset.sites
            for dt, ndvi, evi in spectral_trajectory(s)
        ),
    )

    group_key = str(settings["aggregate"])
    if group_key:
        group_by = GroupBy(group_key)
        rows = aggregate_trajectories(
            trajs_by_kind[kinds[0]], list(dataset.sites), group_by
        )
        outputs.write_csv(
            f"aggregate_{group_by.value}.csv",
            ["group", "delta_t", "mean", "sd", "n"],
            ((r.group, r.delta_t, r.mean, r.sd, r.n) for r in rows),
        )

    if settings["baselines"]:
        band = compute_baselines(points, refset)
        outputs.write_csv(
            "baselines.csv", ["band", "value"],
            [("upper", band.upper), ("lower", band.lower)],
        )


def _cmd_project(args, settings, outputs: RunOutputs) -> None:
    """2D projection tables and silhouette score"""
    dataset, _ = _load_dataset(settings, outputs)
    points = _classified_references(dataset, settings)
    year = settings["reference_year"]

    stable = [
        p for p in points
        if p.stability.kind.value == "stable" and year in p.embeddings
    ]
    if len(stable) < 3:
        raise DegenerateDataError(f"need at least 3 stable reference points with an "
                                  f"embedding for year {year}, got {len(stable)}")
    model = fit_projection([p.embeddings[year] for p in stable])
    outputs.write_csv(
        "projection_model.csv",
        ["component", "index", "value"],
        [("mean", i, v) for i, v in enumerate(model.mean.values)]
        + [("pc1", i, v) for i, v in enumerate(model.components[0].values)]
        + [("pc2", i, v) for i, v in enumerate(model.components[1].values)]
        + [("variance", i, v) for i, v in enumerate(model.explained_variance)],
    )

    labels = {p.point_id: p.stability.label for p in points}
    labels.update({s.site_id: s.strategy.value for s in dataset.sites})
    rows = trajectory_paths_2d(list(points) + list(dataset.sites), model)
    outputs.write_csv(
        "projections.csv",
        ["id", "label", "year", "x", "y"],
        ((rid, labels.get(rid, ""), y, px, py) for rid, y, px, py in rows),
    )

    score = silhouette_score(
        [p.embeddings[year] for p in stable],
        [p.stability.stable_class.label for p in stable],
    )
    outputs.write_csv("silhouette.csv", ["metric", "value"], [("cosine_silhouette", score)])


def _cmd_predict(args, settings, outputs: RunOutputs) -> None:
    """run the prediction tasks under spatial CV"""
    dataset, _, refset = _references(settings, outputs)
    feature_sets = _parse_enum_list(settings["feature_sets"], FeatureSet)
    requested_models = _parse_enum_list(settings["models"], ModelKind)

    folds = spatial_kfold(list(dataset.sites), k=settings["folds"], seed=settings["seed"])
    outputs.write_csv(
        "folds.csv", ["site_id", "fold"], sorted(folds.assignment.items())
    )

    fold_rows = []
    agg_rows = []
    excluded_rows = []
    for task in Task:
        models = models_for_task(task, requested_models)
        if not models:
            continue
        results = evaluate(
            list(dataset.sites), refset, task, models, feature_sets, folds,
            seed=settings["seed"],
            horizon=settings["horizon"],
            t0=settings["t0"],
            mean_impute=bool(settings["impute"]),
            n_trees=settings["n_trees"],
            threads=settings["threads"],
        )
        for res in results:
            for fm in res.per_fold:
                for metric, value in sorted(fm.metrics.items()):
                    fold_rows.append(
                        (task.value, res.model.value, res.feature_set.value, fm.fold, metric, value)
                    )
            for metric, (mean, sd) in sorted(res.aggregate.items()):
                agg_rows.append(
                    (task.value, res.model.value, res.feature_set.value, metric, mean, sd)
                )
        if results:
            excluded_rows.extend((task.value, sid) for sid in results[0].excluded_sites)
    outputs.write_csv(
        "predictions_folds.csv",
        ["task", "model", "feature_set", "fold", "metric", "value"],
        fold_rows,
    )
    outputs.write_csv(
        "predictions_aggregate.csv",
        ["task", "model", "feature_set", "metric", "mean", "sd"],
        agg_rows,
    )
    outputs.write_csv("excluded_sites.csv", ["task", "site_id"], sorted(set(excluded_rows)))


_AREA_BIN_EDGES = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, float("inf"))


def _cmd_report(args, settings, outputs: RunOutputs) -> None:
    """metadata distribution tables"""
    dataset, _ = _load_dataset(settings, outputs)
    sites = dataset.sites

    strategies = Counter(site.strategy.value for site in sites)
    outputs.write_csv(
        "strategy_counts.csv", ["strategy", "count"],
        sorted((s.value, strategies[s.value]) for s in Strategy),
    )
    years = Counter(site.start_year for site in sites)
    outputs.write_csv("start_year_counts.csv", ["start_year", "count"], sorted(years.items()))
    # Bin i holds the areas in [edge i, edge i + 1).
    bins = Counter(bisect_right(_AREA_BIN_EDGES, site.area_ha) - 1 for site in sites)
    outputs.write_csv(
        "area_histogram.csv",
        ["bin_low", "bin_high", "count"],
        [(lo, hi, bins[i]) for i, (lo, hi) in enumerate(zip(_AREA_BIN_EDGES, _AREA_BIN_EDGES[1:]))],
    )


_HANDLERS = {
    "synth": _cmd_synth,
    "validate": _cmd_validate,
    "references classify": _cmd_classify,
    "references build": _cmd_build,
    "references outliers": _cmd_outliers,
    "trajectories": _cmd_trajectories,
    "project": _cmd_project,
    "predict": _cmd_predict,
    "report": _cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regrow",
        description="Restoration-progress analytics from annual embedding vectors",
    )
    commands = parser.add_subparsers(dest="subcommand", required=True)
    actions = {}  # a command with actions -> the sub-parsers of its actions
    for name, handler in _HANDLERS.items():
        command, _, action = name.partition(" ")
        if action and command not in actions:
            docs = [h.__doc__ for n, h in _HANDLERS.items() if n.startswith(f"{command} ")]
            actions[command] = commands.add_parser(
                command, help=", ".join(docs)).add_subparsers(required=True)
        p = (actions[command] if action else commands).add_parser(
            action or name, help=handler.__doc__)
        p.set_defaults(action=name)  # the key of its handler
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--output-dir", required=True)
        if name in _READERS:
            p.add_argument("--inputs-dir",
                           help="directory holding the standard input CSV filenames")
        # Flags take text: _resolve_settings parses and checks it as it
        # does a config value.
        for key, row in _SETTINGS.items():
            if name not in row.commands:
                continue
            flag = row.flag or f"--{key.replace('_', '-')}"
            if row.parse is _bool:
                # Every boolean defaults to true; its flag switches it off.
                p.add_argument(flag, dest=key, action="store_const", const="false",
                               help=row.help)
            else:
                p.add_argument(flag, dest=key, help=row.help)
    return parser


def _interrupt(signum, frame):
    """SIGTERM ends a command as SIGINT does, with a KeyboardInterrupt."""
    raise KeyboardInterrupt(signal.Signals(signum).name)


def _error_record(exc: BaseException) -> dict:
    """The JSON record of a run that ``exc`` ended."""
    if isinstance(exc, RegrowError):
        return {"error": exc.code, "message": str(exc), "file": exc.file, "line": exc.line}
    if isinstance(exc, OSError):
        file = None if exc.filename is None else str(exc.filename)
        return {"error": "io_error", "message": str(exc), "file": file, "line": None}
    if isinstance(exc, KeyboardInterrupt):
        name = exc.args[0] if exc.args else "SIGINT"
        return {"error": "interrupted", "message": f"interrupted by {name}",
                "file": None, "line": None}
    # A fault in regrow itself: keep the traceback.
    return {"error": "internal_error", "message": f"{type(exc).__name__}: {exc}",
            "traceback": "".join(traceback.format_exception(exc))}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    outputs = RunOutputs(Path(args.output_dir))
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        settings = _resolve_settings(args)
        _HANDLERS[args.action](args, settings, outputs)
        outputs.write_manifest(args.subcommand, settings)
    except (Exception, KeyboardInterrupt) as exc:
        outputs.discard()
        print(json.dumps(_error_record(exc)), file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
