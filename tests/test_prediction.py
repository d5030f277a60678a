from __future__ import annotations

import hashlib
import logging
from collections import Counter

import numpy as np
import pytest

from regrow import prediction
from regrow.cluster import FoldAssignment, spatial_kfold
from regrow.core import (
    CovariateSet,
    EmbeddingVector,
    SECONDARY_FOREST,
    SpectralIndices,
    Strategy,
)
from regrow.errors import FoldTooSmallError, InvalidValueError, MissingFeatureError
from regrow.linear_models import train_linear
from regrow.prediction import (
    FeatureSet,
    ModelKind,
    Task,
    accuracy,
    assemble_design,
    build_features,
    evaluate,
    macro_f1,
    make_targets,
    mean_absolute_error,
    models_for_task,
    r_squared,
)
from regrow.references import ReferenceSet, ReferenceYearPolicy

from conftest import make_site, vec


def cov(elevation=500.0):
    return CovariateSet(
        precip_mm=1200.0, tmin_c=10.0, tmax_c=28.0, et_mm=900.0,
        elevation_m=elevation, slope_deg=5.0, aspect_deg=90.0,
        forest_cover_2km=0.4, road_density_5km=1.0,
    )


def refset_with_global(u: np.ndarray) -> ReferenceSet:
    ref = EmbeddingVector(u)
    return ReferenceSet(
        policy=ReferenceYearPolicy.fixed(2024),
        secondary_points=(),
        centroids_by_year={2024: {SECONDARY_FOREST: ref}},
    )


class TestBuildFeatures:
    def test_spectral_set_has_two_columns(self):
        site = make_site(
            embeddings={2020: vec(1.0, 0.0)},
            spectral={2020: SpectralIndices(0.5, 0.4)},
        )
        row = build_features(site, FeatureSet.SPECTRAL, 2020, dim=2)
        assert row.shape == (2,)
        assert list(row) == [0.5, 0.4]

    def test_all_set_is_75_columns_for_64_dims(self):
        site = make_site(
            embeddings={2020: EmbeddingVector(np.arange(64, dtype=float))},
            spectral={2020: SpectralIndices(0.5, 0.4)},
            covariates={2020: cov()},
        )
        row = build_features(site, FeatureSet.ALL, 2020, dim=64)
        assert row.shape == (75,)

    def test_missing_feature_raises_without_imputation(self):
        site = make_site(embeddings={2020: vec(1.0, 0.0)})
        with pytest.raises(MissingFeatureError):
            build_features(site, FeatureSet.SPECTRAL, 2020, dim=2)

    def test_missing_feature_allowed_as_nan(self):
        site = make_site(embeddings={2020: vec(1.0, 0.0)})
        row = build_features(site, FeatureSet.SPECTRAL, 2020, dim=2, allow_missing=True)
        assert np.isnan(row).all()


class TestMakeTargets:
    def test_future_similarity_target(self):
        u = np.array([1.0, 0.0])
        site = make_site(
            start_year=2020,
            embeddings={2020: vec(1.0, 0.0), 2023: vec(1.0, 1.0)},
        )
        targets, excluded = make_targets([site], refset_with_global(u), Task.FUTURE_SIMILARITY)
        assert targets["s1"] == pytest.approx(1.0 / np.sqrt(2.0))
        assert excluded == []

    def test_missing_horizon_year_excluded(self):
        site = make_site(start_year=2020, embeddings={2020: vec(1.0, 0.0)})
        targets, excluded = make_targets([site], refset_with_global(np.array([1.0, 0.0])), Task.FUTURE_SIMILARITY)
        assert targets == {}
        assert excluded == ["s1"]

    def test_strategy_targets_keep_not_identified(self):
        site = make_site(strategy=Strategy.NOT_IDENTIFIED, embeddings={2020: vec(1.0, 0.0)})
        targets, excluded = make_targets([site], refset_with_global(np.array([1.0, 0.0])), Task.STRATEGY)
        assert targets == {"s1": "NotIdentified"}
        assert excluded == []


class TestMetrics:
    def test_perfect_predictor(self):
        y = np.array([0.1, 0.5, 0.9])
        assert r_squared(y, y) == 1.0
        assert mean_absolute_error(y, y) == 0.0
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0
        assert macro_f1(["a", "b"], ["a", "b"], ["a", "b"]) == 1.0

    def test_train_mean_predictor_r2_non_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            train = rng.normal(size=30)
            test = rng.normal(size=20)
            pred = np.full(20, train.mean())
            assert r_squared(test, pred) <= 0.0 + 1e-12

    def test_macro_f1_counts_absent_classes_as_zero(self):
        # Class "c" never appears: contributes 0 to the macro average.
        score = macro_f1(["a", "b"], ["a", "b"], ["a", "b", "c"])
        assert score == pytest.approx(2.0 / 3.0)


def linear_world(n=120, dim=16, seed=0):
    """Sites whose future similarity is a noiseless linear function of the
    first three embedding coordinates."""
    rng = np.random.default_rng(seed)
    u = np.zeros(dim)
    u[0] = 1.0
    v = np.zeros(dim)
    v[1] = 1.0
    sites = []
    for i in range(n):
        x = rng.uniform(-1.0, 1.0, size=dim)
        g = 0.5 + 0.1 * x[0] + 0.2 * x[1] - 0.15 * x[2]
        e3 = g * u + np.sqrt(1.0 - g * g) * v
        sites.append(
            make_site(
                f"s{i:03d}",
                start_year=2017,
                embeddings={2017: EmbeddingVector(x), 2020: EmbeddingVector(e3)},
                covariates={2017: cov(elevation=float(rng.uniform(100, 900)))},
                centroid_lon=float(rng.uniform(-50, -45)),
                centroid_lat=float(rng.uniform(-24, -20)),
            )
        )
    return sites, refset_with_global(u)


class TestEvaluate:
    def test_embeddings_beat_covariates_on_linear_world(self):
        sites, refset = linear_world()
        folds = spatial_kfold(sites, k=5, seed=1)
        results = evaluate(
            sites, refset, Task.FUTURE_SIMILARITY,
            [ModelKind.LINEAR],
            [FeatureSet.EMBEDDINGS, FeatureSet.COVARIATES],
            folds, seed=1,
        )
        r2 = {res.feature_set: res.aggregate["r2"][0] for res in results}
        assert r2[FeatureSet.EMBEDDINGS] >= 0.99
        assert r2[FeatureSet.COVARIATES] <= 0.1

    def test_invalid_model_task_pair_rejected(self):
        sites, refset = linear_world(n=20)
        folds = spatial_kfold(sites, k=2, seed=0)
        with pytest.raises(InvalidValueError):
            evaluate(sites, refset, Task.FUTURE_SIMILARITY, [ModelKind.LOGISTIC],
                     [FeatureSet.EMBEDDINGS], folds, seed=0)

    def test_models_for_task_filtering(self):
        requested = [ModelKind.LINEAR, ModelKind.LOGISTIC, ModelKind.RANDOM_FOREST]
        assert models_for_task(Task.FUTURE_SIMILARITY, requested) == [
            ModelKind.LINEAR, ModelKind.RANDOM_FOREST,
        ]
        assert models_for_task(Task.STRATEGY, requested) == [
            ModelKind.LOGISTIC, ModelKind.RANDOM_FOREST,
        ]

    def test_fold_with_no_usable_sites_is_skipped(self, caplog):
        sites, refset = linear_world(n=30)
        # Give fold 2 only sites whose horizon year is missing.
        victims = {s.site_id for s in sites[:6]}
        pruned = [
            make_site(
                s.site_id, start_year=s.start_year,
                embeddings={2017: s.embeddings[2017]},
                covariates=s.covariates,
                centroid_lon=s.centroid_lon, centroid_lat=s.centroid_lat,
            ) if s.site_id in victims else s
            for s in sites
        ]
        assignment = {
            s.site_id: (2 if s.site_id in victims else i % 2)
            for i, s in enumerate(pruned)
        }
        folds = FoldAssignment(k=3, assignment=assignment, centroids=((0, 0), (1, 1), (2, 2)))
        with caplog.at_level(logging.WARNING, logger="regrow.prediction"):
            results = evaluate(
                pruned, refset, Task.FUTURE_SIMILARITY, [ModelKind.LINEAR, ModelKind.RANDOM_FOREST],
                [FeatureSet.EMBEDDINGS, FeatureSet.COVARIATES], folds, seed=0, n_trees=3,
                threads=1,
            )
        assert len(results) == 4
        assert all(res.skipped_folds == (2,) and len(res.per_fold) == 2 for res in results)
        # The folds are the task's, so they are warned about once.
        assert [r.getMessage() for r in caplog.records] == [
            "skipped fold(s) [2] for future_similarity"
        ]

    def test_each_design_and_imputation_is_built_once(self, monkeypatch):
        sites, refset = linear_world(n=40)
        folds = spatial_kfold(sites, k=3, seed=0)
        calls = Counter()

        def counted(name):
            fn = getattr(prediction, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in ("make_targets", "assemble_design", "_impute"):
            monkeypatch.setattr(prediction, name, counted(name))
        feature_sets = [FeatureSet.EMBEDDINGS, FeatureSet.COVARIATES,
                        FeatureSet.EMBEDDINGS_COVARIATES]
        results = evaluate(
            sites, refset, Task.FUTURE_SIMILARITY, [ModelKind.LINEAR, ModelKind.RANDOM_FOREST],
            feature_sets, folds, seed=0, n_trees=3, threads=1,
        )
        assert len(results) == 6 and all(len(res.per_fold) == 3 for res in results)
        assert calls == {"make_targets": 1, "assemble_design": 3, "_impute": 3 * 3}

    @pytest.mark.parametrize("models, feature_sets", [
        ([], [FeatureSet.EMBEDDINGS]), ([ModelKind.LINEAR], []),
    ])
    def test_nothing_to_fit_returns_nothing(self, monkeypatch, models, feature_sets):
        sites, refset = linear_world(n=20)
        folds = spatial_kfold(sites, k=2, seed=0)
        monkeypatch.setattr(prediction, "assemble_design", None)  # must not be called
        assert evaluate(sites, refset, Task.FUTURE_SIMILARITY, models, feature_sets,
                        folds, seed=0) == []

    def test_all_folds_empty_raises(self):
        sites, refset = linear_world(n=10)
        no_targets = [
            make_site(
                s.site_id, start_year=2017, embeddings={2017: s.embeddings[2017]},
                centroid_lon=s.centroid_lon, centroid_lat=s.centroid_lat,
            )
            for s in sites
        ]
        folds = FoldAssignment(
            k=2, assignment={s.site_id: i % 2 for i, s in enumerate(no_targets)},
            centroids=((0, 0), (1, 1)),
        )
        with pytest.raises(FoldTooSmallError):
            evaluate(no_targets, refset, Task.FUTURE_SIMILARITY, [ModelKind.LINEAR],
                     [FeatureSet.EMBEDDINGS], folds, seed=0)


class TestNoLeakage:
    def test_training_artifacts_ignore_test_fold_targets(self):
        sites, refset = linear_world(n=60, seed=3)
        folds = spatial_kfold(sites, k=4, seed=3)
        test_fold = 0
        test_ids = {sid for sid, f in folds.assignment.items() if f == test_fold}

        # Deleting test-fold targets: drop those sites' horizon years so
        # make_targets excludes them entirely.
        without_targets = [
            make_site(
                s.site_id, start_year=s.start_year,
                embeddings={2017: s.embeddings[2017]},
                covariates=s.covariates,
                centroid_lon=s.centroid_lon, centroid_lat=s.centroid_lat,
            ) if s.site_id in test_ids else s
            for s in sites
        ]

        def train_fold_checksum(site_list):
            targets, _ = make_targets(site_list, refset, Task.FUTURE_SIMILARITY)
            ids, X, y = assemble_design(site_list, targets, FeatureSet.EMBEDDINGS)
            mask = [sid not in test_ids for sid in ids]
            X_train = X[mask]
            y_train = np.asarray([t for t, m in zip(y, mask) if m])
            model = train_linear(X_train, y_train)
            payload = model.coefficients.tobytes() + np.float64(model.intercept).tobytes()
            return hashlib.sha256(payload).hexdigest()

        assert train_fold_checksum(sites) == train_fold_checksum(without_targets)


class TestImputation:
    def test_imputed_from_train_means_only(self):
        from regrow.prediction import _impute

        X_train = np.array([[1.0, np.nan], [3.0, 4.0], [np.nan, 8.0]])
        X_test = np.array([[np.nan, np.nan]])
        imp_train, imp_test = _impute(X_train, X_test)
        assert imp_train[0, 1] == pytest.approx(6.0)  # mean of train column 1
        assert imp_test[0, 0] == pytest.approx(2.0)  # mean of train column 0
        assert imp_test[0, 1] == pytest.approx(6.0)

        # Changing test values must not change train imputation.
        X_test2 = np.array([[100.0, np.nan]])
        imp_train2, _ = _impute(X_train, X_test2)
        assert imp_train2.tobytes() == imp_train.tobytes()
