"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single [PASS] line when its criterion holds, so a
verbose run reads as a checklist. Synthetic worlds with known ground
truth stand in for the external production data.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from regrow.cluster import kmeans, spatial_kfold
from regrow.core import (
    EmbeddingVector,
    FOREST_FORMATION,
    PASTURE,
    ReferencePoint,
    StabilityKind,
    Strategy,
    URBAN,
    cosine_similarity,
)
from regrow.forest import train_random_forest
from regrow.linear_models import train_linear, train_logistic
from regrow.prediction import FeatureSet, ModelKind, Task, evaluate
from regrow.projection import fit_projection, silhouette_score
from regrow.references import (
    build_reference_set,
    classify_points,
    classify_stability,
    detect_outliers,
)
from regrow.synthetic import SynthConfig, generate_world
from regrow.trajectories import (
    GroupBy,
    aggregate_trajectories,
    build_trajectory,
    classify_trajectory,
    compute_baselines,
)
from regrow.cli import main as cli_main

from conftest import oracle_similarity


def equal_rates(rate):
    return {s: rate for s in Strategy}


def world_and_refset(config):
    dataset, truth = generate_world(config)
    points = classify_points(list(dataset.references))
    refset = build_reference_set(points)
    return dataset, truth, points, refset


@pytest.fixture(scope="module")
def recovery_world():
    # 200 recovering sites, sigma 0.05, 8 years of data.
    config = SynthConfig(
        seed=23, n_sites=200, points_per_class=200, points_per_transition=0,
        noise_sigma=0.05, years=(2017, 2024), start_year_spread=0,
    )
    return world_and_refset(config)


def test_criterion_01_similarity_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        a = rng.normal(size=64)
        b = rng.normal(size=64)
        engine = cosine_similarity(EmbeddingVector(a), EmbeddingVector(b))
        oracle = oracle_similarity(a, b)
        worst = max(worst, abs(engine - oracle))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 1: cosine matches naive oracle on 1000 pairs "
          f"(max diff {worst:.2e}, {elapsed:.2f}s)")


def _oracle_stability(series, classes):
    """Independent window-scanning re-implementation of the stability rule."""
    years = sorted(series)
    # Stable: walk backwards from 2024 counting the trailing equal run.
    run = 1
    for y in range(2023, years[0] - 1, -1):
        if series[y] == series[2024]:
            run += 1
        else:
            break
    if run >= 10:
        return ("stable", series[2024])
    from_labels = {series[y] for y in (2017, 2018, 2019, 2020)}
    to_labels = {series[y] for y in (2021, 2022, 2023, 2024)}
    if len(from_labels) == 1 and len(to_labels) == 1 and from_labels != to_labels:
        return ("changing", next(iter(from_labels)), next(iter(to_labels)))
    return ("neither",)


def test_criterion_02_stability_rule_exhaustive():
    classes = (PASTURE, FOREST_FORMATION, URBAN)
    years = list(range(2015, 2025))
    start = time.perf_counter()
    checked = 0
    for combo in itertools.product(classes, repeat=10):
        series = dict(zip(years, combo))
        got = classify_stability(series)
        want = _oracle_stability(series, classes)
        if want[0] == "stable":
            assert got.kind is StabilityKind.STABLE and got.stable_class == want[1]
        elif want[0] == "changing":
            assert got.kind is StabilityKind.CHANGING
            assert (got.from_class, got.to_class) == (want[1], want[2])
        else:
            assert got.kind is StabilityKind.NEITHER
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 3**10 == 59049
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 2: stability rule matches brute force on all "
          f"{checked} series ({elapsed:.1f}s)")


def test_criterion_03_recovery_trajectories(recovery_world):
    dataset, _, _, refset = recovery_world
    start = time.perf_counter()
    trajs = [build_trajectory(site, refset) for site in dataset.sites]
    positive = sum(1 for t in trajs if t.improvement > 0.0)
    share = positive / len(trajs)
    rows = aggregate_trajectories(trajs, list(dataset.sites), GroupBy.START_YEAR)
    curve = [r.mean for r in sorted(rows, key=lambda r: r.delta_t)]
    non_decreasing = all(b >= a - 0.01 for a, b in zip(curve, curve[1:]))
    elapsed = time.perf_counter() - start
    assert share >= 0.95
    assert non_decreasing
    assert elapsed < 30.0
    print(f"\n[PASS] criterion 3: {share:.1%} of 200 recovering sites improve; "
          f"mean curve non-decreasing within 0.01 ({elapsed:.1f}s)")


def test_criterion_04_baseline_ordering(recovery_world):
    dataset, _, points, refset = recovery_world
    band = compute_baselines(points, refset)
    assert band.upper - band.lower >= 0.2
    print(f"\n[PASS] criterion 4: primary-forest band {band.upper:.3f} exceeds "
          f"pasture band {band.lower:.3f} by >= 0.2")


def test_criterion_05_outlier_detection():
    precisions = []
    for seed in range(20):
        config = SynthConfig(
            seed=1000 + seed, n_sites=0, n_classes=5, points_per_class=1000,
            points_per_transition=0, noise_sigma=0.05,
            years=(2024, 2024), lulc_years=(2015, 2024),
        )
        dataset, _ = generate_world(config)
        by_class = {}
        for p in dataset.references:
            by_class.setdefault(p.lulc_series[2024], []).append(p)
        # Relabel 10 urban-distribution points as forest formation.
        impostors = [
            ReferencePoint(
                point_id=f"bad_{i:02d}", lon=p.lon, lat=p.lat,
                lulc_series={y: FOREST_FORMATION for y in range(2015, 2025)},
                embeddings=p.embeddings,
            )
            for i, p in enumerate(by_class[URBAN][:10])
        ]
        points = classify_points(impostors + list(dataset.references))
        refset = build_reference_set(points)
        report = detect_outliers(points, FOREST_FORMATION, refset, top_k=10)
        hits = sum(1 for pid, _ in report.ranked if pid.startswith("bad_"))
        precisions.append(hits / 10.0)
    mean_precision = float(np.mean(precisions))
    assert mean_precision >= 0.9
    print(f"\n[PASS] criterion 5: outlier precision@10 = {mean_precision:.2f} "
          f"over 20 seeds")


def test_criterion_06_change_detection():
    config = SynthConfig(
        seed=29, n_sites=200, points_per_class=150, points_per_transition=0,
        noise_sigma=0.05, recovery_rate_by_strategy=equal_rates(0.125),
        start_year_spread=0,
    )
    dataset, truth, _, refset = world_and_refset(config)
    good = 0
    for site in dataset.sites:
        ct = classify_trajectory(site, refset)
        expected_year = truth.records[site.site_id].transition_year
        if len(ct.transitions) == 1 and abs(ct.transitions[0][0] - expected_year) <= 1.0:
            good += 1
    share = good / len(dataset.sites)
    assert share >= 0.9
    print(f"\n[PASS] criterion 6: {share:.1%} of 200 transition sites yield "
          f"exactly one transition within +/-1 year")


def test_criterion_07_spatial_cv():
    # (a) objective is non-increasing on 100 seeded random datasets
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(rng.integers(30, 80), 2))
        result = kmeans(X, k=int(rng.integers(2, 6)), seed=seed)
        hist = result.objective_history
        assert all(b <= a for a, b in zip(hist, hist[1:])), f"objective rose (seed {seed})"

    # (b) fixed seed reproduces the fold assignment bit-exactly
    rng = np.random.default_rng(7)
    from conftest import make_site, vec

    sites = [
        make_site(
            f"s{i:03d}", embeddings={2020: vec(1.0, 0.0)},
            centroid_lon=float(rng.uniform(-50, -45)),
            centroid_lat=float(rng.uniform(-24, -20)),
        )
        for i in range(60)
    ]
    a = spatial_kfold(sites, k=5, seed=99)
    b = spatial_kfold(sites, k=5, seed=99)
    assert a.assignment == b.assignment
    assert all(
        x1.hex() == x2.hex() and y1.hex() == y2.hex()
        for (x1, y1), (x2, y2) in zip(a.centroids, b.centroids)
    )

    # (c) five separated blobs map to pure folds
    angles = 2.0 * np.pi * np.arange(5) / 5.0
    blob_sites = []
    truth = {}
    i = 0
    for b_idx, (cx, cy) in enumerate(zip(np.cos(angles), np.sin(angles))):
        rng_b = np.random.default_rng(200 + b_idx)
        for _ in range(15):
            sid = f"b{i:03d}"
            blob_sites.append(
                make_site(
                    sid, embeddings={2020: vec(1.0, 0.0)},
                    centroid_lon=float(cx + rng_b.normal(0, 0.01)),
                    centroid_lat=float(cy + rng_b.normal(0, 0.01)),
                )
            )
            truth[sid] = b_idx
            i += 1
    folds = spatial_kfold(blob_sites, k=5, seed=5)
    for b_idx in range(5):
        fold_ids = {folds.assignment[sid] for sid, t in truth.items() if t == b_idx}
        assert len(fold_ids) == 1
    assert len(set(folds.assignment.values())) == 5
    print("\n[PASS] criterion 7: k-means monotone on 100 seeds; folds "
          "reproducible; blob purity 100%")


def test_criterion_08_models():
    start = time.perf_counter()

    # Logistic on separable blobs.
    rng = np.random.default_rng(31)
    X = np.vstack([rng.normal(0, 1, (150, 2)), rng.normal(7, 1, (150, 2))])
    y = ["a"] * 150 + ["b"] * 150
    model = train_logistic(X, y)
    train_acc = float(np.mean([p == t for p, t in zip(model.predict(X), y)]))
    assert train_acc >= 0.99

    # Random forest on 2-D XOR (4 clusters, 400 points).
    rng = np.random.default_rng(37)
    centers = [(0, 0, "a"), (1, 1, "a"), (0, 1, "b"), (1, 0, "b")]
    Xs, ys = [], []
    for cx, cy, lab in centers:
        Xs.append(rng.normal((cx, cy), 0.1, size=(100, 2)))
        ys.extend([lab] * 100)
    Xx = np.vstack(Xs)
    order = rng.permutation(400)
    Xx, yx = Xx[order], [ys[i] for i in order]
    forest = train_random_forest(Xx[:200], yx[:200], n_trees=100,
                                 mode="classification", seed=2)
    test_acc = float(np.mean([p == t for p, t in zip(forest.predict(Xx[200:]), yx[200:])]))
    assert test_acc >= 0.9

    # Ridge recovers y = 2x + 1.
    x = np.linspace(-5.0, 5.0, 60).reshape(-1, 1)
    ridge = train_linear(x, 2.0 * x[:, 0] + 1.0)
    assert ridge.coefficients[0] == pytest.approx(2.0, abs=1e-6)
    assert ridge.intercept == pytest.approx(1.0, abs=1e-6)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 8: logistic {train_acc:.1%} train acc; forest "
          f"{test_acc:.1%} XOR test acc; ridge exact ({elapsed:.1f}s)")


def test_criterion_09_feature_set_claims():
    # (a) future similarity is a function of embedding state: the
    # embeddings feature set must beat covariates-only by >= 0.1 R^2.
    config = SynthConfig(
        seed=11, n_sites=240, points_per_class=150, points_per_transition=0,
        noise_sigma=0.05, start_year_spread=0,
    )
    dataset, _, _, refset = world_and_refset(config)
    folds = spatial_kfold(list(dataset.sites), k=5, seed=11)
    results = evaluate(
        list(dataset.sites), refset, Task.FUTURE_SIMILARITY,
        [ModelKind.LINEAR], [FeatureSet.EMBEDDINGS, FeatureSet.COVARIATES],
        folds, seed=11, t0=2, horizon=3,
    )
    r2 = {res.feature_set: res.aggregate["r2"][0] for res in results}
    gap = r2[FeatureSet.EMBEDDINGS] - r2[FeatureSet.COVARIATES]
    assert gap >= 0.1

    # (b) strategy labels independent of embeddings (equal rates): the
    # embeddings set must NOT beat covariates+spectral macro-F1 by > 0.05.
    config_b = SynthConfig(
        seed=19, n_sites=240, points_per_class=150, points_per_transition=0,
        noise_sigma=0.05, recovery_rate_by_strategy=equal_rates(0.08),
        covariate_strategy_signal=1.0, start_year_spread=0,
    )
    dataset_b, _, _, refset_b = world_and_refset(config_b)
    folds_b = spatial_kfold(list(dataset_b.sites), k=5, seed=19)
    results_b = evaluate(
        list(dataset_b.sites), refset_b, Task.STRATEGY,
        [ModelKind.LOGISTIC],
        [FeatureSet.EMBEDDINGS, FeatureSet.COVARIATES_SPECTRAL],
        folds_b, seed=19,
    )
    f1 = {res.feature_set: res.aggregate["macro_f1"][0] for res in results_b}
    f1_gap = f1[FeatureSet.EMBEDDINGS] - f1[FeatureSet.COVARIATES_SPECTRAL]
    assert f1_gap <= 0.05
    print(f"\n[PASS] criterion 9: embeddings R2 gap {gap:+.3f} >= 0.1; "
          f"strategy macro-F1 gap {f1_gap:+.3f} <= 0.05")


def test_criterion_10_projection(recovery_world):
    _, _, points, refset = recovery_world
    stable = [p.embeddings[2024] for p in points
              if p.stability.kind is StabilityKind.STABLE and 2024 in p.embeddings]
    model = fit_projection(stable)
    c1, c2 = model.components
    assert abs(np.linalg.norm(c1.values) - 1.0) < 1e-8
    assert abs(np.linalg.norm(c2.values) - 1.0) < 1e-8
    assert abs(float(np.dot(c1.values, c2.values))) < 1e-8
    assert model.explained_variance[0] >= model.explained_variance[1] >= 0.0

    rng = np.random.default_rng(41)
    a = rng.normal(size=32)
    a /= np.linalg.norm(a)
    b = rng.normal(size=32)
    b -= np.dot(b, a) * a
    b /= np.linalg.norm(b)
    cloud = [EmbeddingVector(c + rng.normal(0, 0.01, 32)) for c in [a] * 60 + [b] * 60]
    score = silhouette_score(cloud, ["a"] * 60 + ["b"] * 60)
    assert score > 0.9
    print(f"\n[PASS] criterion 10: components orthonormal within 1e-8; "
          f"silhouette {score:.3f} > 0.9 on separated clusters")


def _run_pipeline(base: Path, seed: int):
    world = base / "world"
    steps = [
        ["synth", "--output-dir", str(world), "--seed", str(seed)],
        ["references", "classify", "--inputs-dir", str(world),
         "--output-dir", str(base / "refs"), "--seed", str(seed)],
        ["references", "build", "--inputs-dir", str(world),
         "--output-dir", str(base / "refs"), "--seed", str(seed)],
        ["references", "outliers", "--inputs-dir", str(world),
         "--output-dir", str(base / "refs"), "--seed", str(seed)],
        ["trajectories", "--inputs-dir", str(world),
         "--output-dir", str(base / "traj"), "--aggregate", "strategy",
         "--seed", str(seed)],
        ["project", "--inputs-dir", str(world),
         "--output-dir", str(base / "proj"), "--seed", str(seed)],
        ["predict", "--inputs-dir", str(world),
         "--output-dir", str(base / "pred"), "--seed", str(seed), "--t0", "1"],
    ]
    for step in steps:
        assert cli_main(step) == 0, f"pipeline step failed: {step[0]}"


def test_criterion_11_end_to_end_determinism(tmp_path, monkeypatch):
    start = time.perf_counter()
    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    for base in (run_a, run_b):
        base.mkdir()
        monkeypatch.chdir(base)
        _run_pipeline(Path("."), seed=7)
    monkeypatch.chdir(tmp_path)

    files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\n[PASS] criterion 11: two pipeline runs byte-identical across "
          f"{len(files_a)} files ({elapsed:.0f}s for both)")
