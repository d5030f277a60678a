from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regrow.core import (
    EmbeddingVector,
    PASTURE,
    PRIMARY_FOREST,
    SECONDARY_FOREST,
    SpectralIndices,
    Stability,
    cosine_similarity,
)
from regrow.errors import (
    MissingBaselineClassError,
    NoEmbeddingsError,
    TooFewCentroidsError,
)
from regrow.references import build_reference_set
from regrow.trajectories import (
    GroupBy,
    ReferenceKind,
    SimilarityTrajectory,
    TrajectorySample,
    aggregate_trajectories,
    build_trajectory,
    classify_trajectory,
    compute_baselines,
    improvement_score,
    spectral_trajectory,
)
from regrow.core import ReferencePoint

from conftest import make_site, vec


def constant_series(cls, first=2015, last=2024):
    return {y: cls for y in range(first, last + 1)}


def stable_point(pid, cls, emb, lon=0.0, lat=0.0):
    return ReferencePoint(
        point_id=pid, lon=lon, lat=lat,
        lulc_series=constant_series(cls),
        embeddings={y: emb for y in range(2017, 2025)},
        stability=Stability.stable(cls),
    )


@pytest.fixture()
def simple_refset():
    # Global reference is the x-axis unit vector in R^3.
    return build_reference_set([stable_point("sec", SECONDARY_FOREST, vec(1.0, 0.0, 0.0))])


class TestCosineProperties:
    @given(
        st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=12),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=80, deadline=None)
    def test_scale_invariance(self, values, lam, mu):
        arr = np.array(values)
        if np.linalg.norm(arr) == 0.0:
            return
        rng = np.random.default_rng(1)
        other = rng.normal(size=len(values))
        a, b = EmbeddingVector(arr), EmbeddingVector(other)
        base = cosine_similarity(a, b)
        scaled = cosine_similarity(
            EmbeddingVector(arr * lam), EmbeddingVector(other * mu)
        )
        assert scaled == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e160, 1e300])
    @pytest.mark.filterwarnings("ignore:overflow encountered in vecdot:RuntimeWarning")
    def test_extreme_magnitudes_keep_the_cosine(self, scale):
        # Squared norms of these vectors underflow or overflow a double;
        # numpy warns of the overflow before the kernel rescales the rows.
        arr = np.array([0.0, 0.0, 1.0])
        other = np.random.default_rng(1).normal(size=3)
        expected = cosine_similarity(EmbeddingVector(arr), EmbeddingVector(other))
        scaled = cosine_similarity(EmbeddingVector(arr * scale), EmbeddingVector(other))
        assert scaled == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            a = EmbeddingVector(rng.normal(size=16))
            b = EmbeddingVector(rng.normal(size=16))
            s_ab = cosine_similarity(a, b)
            assert s_ab == cosine_similarity(b, a)
            assert -1.0 - 1e-12 <= s_ab <= 1.0 + 1e-12


class TestBuildTrajectory:
    def test_delta_t_spans_negative_years(self, simple_refset):
        embeddings = {y: vec(1.0, 0.0, 0.0) for y in range(2017, 2025)}
        site = make_site(start_year=2020, embeddings=embeddings)
        traj = build_trajectory(site, simple_refset)
        assert [s.delta_t for s in traj.samples] == list(range(-3, 5))
        assert len(traj.samples) == 8

    def test_single_start_year_sample_is_degenerate(self, simple_refset):
        site = make_site(start_year=2020, embeddings={2020: vec(1.0, 1.0, 0.0)})
        traj = build_trajectory(site, simple_refset)
        assert len(traj.samples) == 1
        assert traj.improvement == 0.0
        assert traj.degenerate

    def test_site_equal_to_reference_scores_one(self, simple_refset):
        embeddings = {y: vec(1.0, 0.0, 0.0) for y in range(2020, 2025)}
        site = make_site(start_year=2020, embeddings=embeddings)
        traj = build_trajectory(site, simple_refset)
        assert all(s.similarity == pytest.approx(1.0, abs=1e-12) for s in traj.samples)
        assert traj.improvement == pytest.approx(0.0, abs=1e-12)
        assert not traj.degenerate

    def test_no_embeddings(self, simple_refset):
        site = make_site(embeddings={2020: vec(1.0, 0.0, 0.0)})
        object.__setattr__(site, "embeddings", {})
        with pytest.raises(NoEmbeddingsError):
            build_trajectory(site, simple_refset)

    def test_local_reference_uses_nearest_point(self):
        refset = build_reference_set(
            [
                stable_point("near", SECONDARY_FOREST, vec(1.0, 0.0, 0.0), lon=0.0, lat=0.0),
                stable_point("far", SECONDARY_FOREST, vec(0.0, 1.0, 0.0), lon=0.0, lat=5.0),
            ]
        )
        site = make_site(
            start_year=2020,
            embeddings={2020: vec(1.0, 0.0, 0.0)},
            centroid_lon=0.0, centroid_lat=0.1,
        )
        traj = build_trajectory(site, refset, ReferenceKind.LOCAL)
        assert traj.reference_point_id == "near"
        assert traj.reference_label == "local:near"
        assert traj.samples[0].similarity == pytest.approx(1.0)

    def test_order_of_processing_is_irrelevant(self, simple_refset):
        sites = [
            make_site(f"s{i}", start_year=2020, embeddings={2020: vec(1.0, float(i), 0.0)})
            for i in range(5)
        ]
        one = [build_trajectory(s, simple_refset) for s in sites]
        other = [build_trajectory(s, simple_refset) for s in reversed(sites)]
        assert one == list(reversed(other))


def traj(site_id, samples):
    improvement, degenerate = 0.0, False
    nonneg = [s for s in samples if s[1] >= 0]
    if nonneg:
        degenerate = nonneg[0][1] != 0 or len(nonneg) == 1
        if len(nonneg) > 1:
            improvement = nonneg[-1][2] - nonneg[0][2]
    else:
        degenerate = True
    return SimilarityTrajectory(
        site_id=site_id,
        reference=ReferenceKind.GLOBAL,
        reference_point_id=None,
        samples=tuple(TrajectorySample(*s) for s in samples),
        improvement=improvement,
        degenerate=degenerate,
    )


class TestImprovementScore:
    def test_plain_difference(self):
        t = traj("s1", [(2017, 0, 0.40), (2024, 7, 0.80)])
        assert improvement_score(t) == pytest.approx(0.40)

    def test_constant_trajectory(self):
        t = traj("s1", [(2017, 0, 0.5), (2020, 3, 0.5), (2024, 7, 0.5)])
        assert improvement_score(t) == 0.0
        assert not t.degenerate

    def test_only_negative_delta_t(self):
        t = traj("s1", [(2017, -3, 0.2), (2018, -2, 0.3)])
        assert improvement_score(t) == 0.0
        assert t.degenerate

    def test_missing_start_year_falls_back(self):
        t = traj("s1", [(2021, 1, 0.3), (2024, 4, 0.6)])
        assert improvement_score(t) == pytest.approx(0.3)
        assert t.degenerate

    def test_monotone_increase_is_positive(self):
        rng = np.random.default_rng(4)
        sims = np.sort(rng.uniform(-0.2, 0.9, size=6))
        t = traj("s1", [(2017 + i, i, float(s)) for i, s in enumerate(sims)])
        if sims[-1] > sims[0]:
            assert improvement_score(t) > 0.0


class TestBaselines:
    def test_primary_equal_to_reference_gives_one(self):
        ref = vec(1.0, 0.0, 0.0)
        points = [
            stable_point("sec", SECONDARY_FOREST, ref),
            stable_point("pf", PRIMARY_FOREST, ref),
            stable_point("pa", PASTURE, vec(0.0, 1.0, 0.0)),
        ]
        refset = build_reference_set(points)
        band = compute_baselines(points, refset)
        assert band.upper == pytest.approx(1.0, abs=1e-12)
        assert band.lower == pytest.approx(0.0, abs=1e-12)

    def test_missing_baseline_class(self):
        points = [stable_point("sec", SECONDARY_FOREST, vec(1.0, 0.0, 0.0))]
        refset = build_reference_set(points)
        with pytest.raises(MissingBaselineClassError):
            compute_baselines(points, refset)

    def test_separated_world_orders_bands(self, small_refs, small_refset):
        band = compute_baselines(small_refs, small_refset)
        assert band.upper > band.lower


class TestAggregate:
    def test_single_trajectory_mean_sd(self):
        site = make_site("s1", start_year=2020, embeddings={2020: vec(1.0, 0.0)})
        t = traj("s1", [(2020, 0, 0.2), (2021, 1, 0.4)])
        rows = aggregate_trajectories([t], [site], GroupBy.STRATEGY)
        assert [(r.group, r.delta_t, r.mean, r.sd, r.n) for r in rows] == [
            ("FullAreaPlanting", 0, 0.2, 0.0, 1),
            ("FullAreaPlanting", 1, 0.4, 0.0, 1),
        ]

    def test_two_trajectories_average(self):
        sites = [
            make_site("s1", start_year=2020, embeddings={2020: vec(1.0, 0.0)}),
            make_site("s2", start_year=2020, embeddings={2020: vec(1.0, 0.0)}),
        ]
        ts = [traj("s1", [(2021, 1, 0.2)]), traj("s2", [(2021, 1, 0.4)])]
        rows = aggregate_trajectories(ts, sites, GroupBy.START_YEAR)
        assert rows[0].group == "2020"
        assert rows[0].mean == pytest.approx(0.3)
        assert rows[0].n == 2

    def test_empty_input(self):
        assert aggregate_trajectories([], [], GroupBy.STRATEGY) == []

    def test_identical_trajectories_mean_equals_each(self):
        sites = [
            make_site(f"s{i}", start_year=2020, embeddings={2020: vec(1.0, 0.0)})
            for i in range(3)
        ]
        ts = [traj(f"s{i}", [(2020, 0, 0.37), (2021, 1, 0.41)]) for i in range(3)]
        rows = aggregate_trajectories(ts, sites, GroupBy.STRATEGY)
        assert [r.mean for r in rows] == [0.37, 0.41]
        assert all(r.sd == 0.0 for r in rows)

    def test_sites_without_start_lulc_are_omitted(self):
        sites = [
            make_site("s1", start_year=2020, embeddings={2020: vec(1.0, 0.0)}, start_lulc=PASTURE),
            make_site("s2", start_year=2020, embeddings={2020: vec(1.0, 0.0)}),
        ]
        ts = [traj("s1", [(2020, 0, 0.2)]), traj("s2", [(2020, 0, 0.9)])]
        rows = aggregate_trajectories(ts, sites, GroupBy.START_LULC)
        assert [(r.group, r.n) for r in rows] == [("Pasture", 1)]


class TestSpectral:
    def test_alignment(self):
        site = make_site(
            start_year=2020,
            embeddings={2020: vec(1.0, 0.0)},
            spectral={2020: SpectralIndices(0.5, 0.4), 2021: SpectralIndices(0.6, 0.5)},
        )
        assert spectral_trajectory(site) == [(0, 0.5, 0.4), (1, 0.6, 0.5)]

    def test_empty(self):
        site = make_site(embeddings={2020: vec(1.0, 0.0)})
        assert spectral_trajectory(site) == []


class TestClassifyTrajectory:
    @pytest.fixture()
    def two_class_refset(self):
        pasture = vec(1.0, 0.0, 0.0)
        secondary = vec(0.0, 1.0, 0.0)
        return build_reference_set(
            [
                stable_point("sec", SECONDARY_FOREST, secondary),
                stable_point("pas", PASTURE, pasture),
            ]
        )

    def test_single_transition_at_switch_year(self, two_class_refset):
        embeddings = {y: vec(1.0, 0.0, 0.0) for y in (2018, 2019, 2020)}
        embeddings.update({y: vec(0.0, 1.0, 0.0) for y in (2021, 2022)})
        site = make_site(start_year=2018, embeddings=embeddings)
        ct = classify_trajectory(site, two_class_refset)
        assert ct.transitions == ((2021, PASTURE, SECONDARY_FOREST),)

    def test_constant_embeddings_no_transitions(self, two_class_refset):
        embeddings = {y: vec(1.0, 0.0, 0.0) for y in range(2018, 2023)}
        site = make_site(start_year=2018, embeddings=embeddings)
        ct = classify_trajectory(site, two_class_refset)
        assert ct.transitions == ()
        assert all(m == pytest.approx(0.0, abs=1e-12) for _, m in ct.change_magnitudes)

    def test_too_few_centroids(self, simple_refset):
        site = make_site(embeddings={2020: vec(1.0, 0.0, 0.0)})
        with pytest.raises(TooFewCentroidsError):
            classify_trajectory(site, simple_refset)

    def test_transition_count_matches_brute_force(self, two_class_refset):
        rng = np.random.default_rng(9)
        for _ in range(25):
            years = range(2017, 2017 + int(rng.integers(2, 9)))
            embeddings = {
                y: vec(*np.abs(rng.normal(size=3)) + 0.01) for y in years
            }
            site = make_site(start_year=2017, embeddings=embeddings)
            ct = classify_trajectory(site, two_class_refset)
            labels = [cls for _, cls, _ in ct.samples]
            brute = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
            assert len(ct.transitions) == brute
