from __future__ import annotations

import math

import numpy as np
import pytest

from regrow.core import (
    FOREST_FORMATION,
    PASTURE,
    ReferencePoint,
    SECONDARY_FOREST,
    Stability,
    StabilityKind,
    URBAN,
    EmbeddingVector,
)
from regrow.errors import (
    InsufficientSeriesError,
    InvalidValueError,
    NoCentroidForClassError,
    NoSecondaryForestPointsError,
)
from regrow.geo import EARTH_RADIUS_KM, haversine_km_many
from regrow.references import (
    ReferenceSet,
    ReferenceYearPolicy,
    build_reference_set,
    classify_stability,
    detect_outliers,
    find_local_reference,
)
from regrow.synthetic import SynthConfig, generate_world

from conftest import make_site, vec


def series(mapping):
    return {year: cls for year, cls in mapping.items()}


def constant_series(cls, first=2015, last=2024):
    return {y: cls for y in range(first, last + 1)}


class TestClassifyStability:
    def test_all_pasture_is_stable(self):
        st = classify_stability(constant_series(PASTURE))
        assert st.kind is StabilityKind.STABLE
        assert st.stable_class == PASTURE

    def test_forest_to_pasture_is_changing(self):
        s = constant_series(FOREST_FORMATION, 2015, 2020)
        s.update({y: PASTURE for y in range(2021, 2025)})
        st = classify_stability(s)
        assert st.kind is StabilityKind.CHANGING
        assert (st.from_class, st.to_class) == (FOREST_FORMATION, PASTURE)

    def test_nine_year_run_is_neither(self):
        s = constant_series(PASTURE, 2016, 2024)
        s[2015] = URBAN
        assert classify_stability(s).kind is StabilityKind.NEITHER

    def test_alternating_is_neither(self):
        s = {y: (PASTURE if y % 2 else URBAN) for y in range(2015, 2025)}
        assert classify_stability(s).kind is StabilityKind.NEITHER

    def test_insufficient_series(self):
        with pytest.raises(InsufficientSeriesError):
            classify_stability(constant_series(PASTURE, 2018, 2024))

    @pytest.mark.parametrize("change_from, change_to, missing", [
        ((2017, 2020), (2030, 2031), [2030, 2031]),
        ((1990, 1991), (2021, 2024), [1990, 1991]),
    ])
    def test_change_windows_outside_the_stable_window(self, change_from, change_to, missing):
        with pytest.raises(InsufficientSeriesError, match=str(missing).replace("[", r"\[")):
            classify_stability(constant_series(PASTURE), change_from=change_from,
                               change_to=change_to)

    @pytest.mark.parametrize("years", [0, -1])
    def test_stable_window_of_no_years_is_invalid(self, years):
        with pytest.raises(InvalidValueError, match="min_stable_years"):
            classify_stability(constant_series(PASTURE), min_stable_years=years)

    def test_stable_takes_precedence(self):
        # 10+ equal years ending 2024 also satisfies neither-changing via a==b.
        st = classify_stability(constant_series(PASTURE, 2014, 2024))
        assert st.kind is StabilityKind.STABLE


def secondary_point(pid, emb, lon=0.0, lat=0.0, year=2024):
    return ReferencePoint(
        point_id=pid, lon=lon, lat=lat,
        lulc_series=constant_series(SECONDARY_FOREST),
        embeddings={year: emb},
        stability=Stability.stable(SECONDARY_FOREST),
    )


class TestBuildReferenceSet:
    def test_mean_of_two(self):
        refset = build_reference_set(
            [secondary_point("a", vec(1.0, 0.0)), secondary_point("b", vec(0.0, 1.0))]
        )
        assert refset.global_ref == vec(0.5, 0.5)
        assert SECONDARY_FOREST in refset.centroids

    def test_single_point_identity(self):
        refset = build_reference_set([secondary_point("a", vec(0.2, 0.8))])
        assert refset.global_ref == vec(0.2, 0.8)

    def test_no_secondary_points(self):
        pasture = ReferencePoint(
            point_id="p", lon=0.0, lat=0.0,
            lulc_series=constant_series(PASTURE),
            embeddings={2024: vec(1.0, 0.0)},
            stability=Stability.stable(PASTURE),
        )
        with pytest.raises(NoSecondaryForestPointsError):
            build_reference_set([pasture])

    def test_mean_is_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(3)
        points = [
            secondary_point(f"p{i:03d}", EmbeddingVector(rng.normal(size=16)))
            for i in range(50)
        ]
        forward = build_reference_set(points).global_ref
        backward = build_reference_set(points[::-1]).global_ref
        assert forward.values.tobytes() == backward.values.tobytes()

    def test_per_year_policy_tables(self):
        points = [
            ReferencePoint(
                point_id=f"p{i}", lon=0.0, lat=float(i),
                lulc_series=constant_series(SECONDARY_FOREST),
                embeddings={2023: vec(1.0, 0.0), 2024: vec(0.0, 1.0)},
                stability=Stability.stable(SECONDARY_FOREST),
            )
            for i in range(2)
        ]
        refset = build_reference_set(points, ReferenceYearPolicy.per_year(2024))
        assert refset.global_reference(2023) == vec(1.0, 0.0)
        assert refset.global_reference(2024) == vec(0.0, 1.0)


class TestFindLocalReference:
    def test_zero_distance_at_same_coords(self):
        refset = build_reference_set([secondary_point("a", vec(1.0, 0.0), lon=-47.0, lat=-22.0)])
        site = make_site(embeddings={2020: vec(1.0, 0.0)}, centroid_lon=-47.0, centroid_lat=-22.0)
        assert find_local_reference(site, refset) == ("a", 0.0)

    def test_nearest_by_haversine(self):
        refset = build_reference_set(
            [
                secondary_point("near", vec(1.0, 0.0), lon=0.0, lat=0.0),
                secondary_point("far", vec(1.0, 0.0), lon=0.0, lat=1.0),
            ]
        )
        site = make_site(embeddings={2020: vec(1.0, 0.0)}, centroid_lon=0.0, centroid_lat=0.4)
        pid, dist = find_local_reference(site, refset)
        assert pid == "near"
        # 0.4 degrees of latitude; arc length 0.4 * (2*pi*R/360)
        assert dist == pytest.approx(0.4 * 111.1949266, abs=1e-4)

    def test_tie_breaks_to_smallest_id(self):
        refset = build_reference_set(
            [
                secondary_point("b", vec(1.0, 0.0), lon=1.0, lat=1.0),
                secondary_point("a", vec(0.0, 1.0), lon=1.0, lat=1.0),
            ]
        )
        site = make_site(embeddings={2020: vec(1.0, 0.0)}, centroid_lon=1.0, centroid_lat=1.0)
        assert find_local_reference(site, refset)[0] == "a"

    def test_lookups_ignore_point_order(self):
        # Built by hand, so the points are not sorted by id.
        points = (
            secondary_point("c", vec(0.0, 1.0), lon=1.0, lat=1.5),
            secondary_point("b", vec(1.0, 1.0), lon=1.0, lat=1.0),
            secondary_point("a", vec(1.0, 0.0), lon=1.0, lat=1.0),
        )
        refset = ReferenceSet(
            policy=ReferenceYearPolicy.fixed(),
            secondary_points=points,
            centroids_by_year={2024: {SECONDARY_FOREST: vec(1.0, 0.0)}},
        )
        site = make_site(embeddings={2020: vec(1.0, 0.0)}, centroid_lon=1.0, centroid_lat=1.0)
        assert find_local_reference(site, refset) == ("a", 0.0)
        assert refset.secondary_embedding("b") == vec(1.0, 1.0)
        with pytest.raises(NoSecondaryForestPointsError):
            refset.secondary_embedding("z")


def haversine_km(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Oracle: the scalar great-circle distance in km, one point pair at a time."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


class TestHaversine:
    def test_symmetric_and_zero_on_coincidence(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            lon1, lon2 = rng.uniform(-179.0, 179.0, 2)
            lat1, lat2 = rng.uniform(-89.0, 89.0, 2)
            d12 = haversine_km(lon1, lat1, lon2, lat2)
            d21 = haversine_km(lon2, lat2, lon1, lat1)
            assert d12 == pytest.approx(d21, abs=1e-9)
            assert d12 > 0.0 or (lon1 == lon2 and lat1 == lat2)
        assert haversine_km(10.0, -5.0, 10.0, -5.0) == 0.0

    def test_many_matches_the_scalar_oracle(self):
        rng = np.random.default_rng(12)
        lons = rng.uniform(-179.0, 179.0, 300)
        lats = rng.uniform(-89.0, 89.0, 300)
        for lon, lat in [(0.0, 0.0), (-47.0, -22.0), (lons[5], lats[5])]:
            want = [haversine_km(lon, lat, x, y) for x, y in zip(lons, lats)]
            assert haversine_km_many(lon, lat, lons, lats) == pytest.approx(want, rel=1e-12, abs=1e-9)


def stable_point(pid, cls, emb, year=2024):
    return ReferencePoint(
        point_id=pid, lon=0.0, lat=0.0,
        lulc_series=constant_series(cls),
        embeddings={year: emb},
        stability=Stability.stable(cls),
    )


class TestDetectOutliers:
    def build(self, points):
        # detect_outliers needs a secondary centroid to exist in the set.
        return build_reference_set(points + [secondary_point("zz_sec", vec(0.0, 0.0, 1.0))])

    def test_displaced_point_ranks_first(self):
        centroid = vec(1.0, 0.0, 0.0)
        points = [stable_point(f"p{i}", PASTURE, centroid) for i in range(5)]
        points.append(stable_point("odd", PASTURE, vec(0.0, 1.0, 0.0)))
        refset = self.build(points)
        report = detect_outliers(points, PASTURE, refset, top_k=3)
        assert report.ranked[0][0] == "odd"
        assert report.ranked[0][1] > report.ranked[1][1]

    def test_top_k_capped_at_n(self):
        points = [stable_point(f"p{i}", PASTURE, vec(1.0, float(i), 0.0)) for i in range(3)]
        refset = self.build(points)
        report = detect_outliers(points, PASTURE, refset, top_k=10)
        assert len(report.ranked) == 3

    def test_missing_centroid(self):
        points = [stable_point("p0", PASTURE, vec(1.0, 0.0, 0.0))]
        refset = self.build(points)
        with pytest.raises(NoCentroidForClassError):
            detect_outliers(points, URBAN, refset, top_k=5)

    def test_cosine_metric_invariant_to_rescaling(self):
        rng = np.random.default_rng(7)
        points = [
            stable_point(f"p{i:02d}", PASTURE, EmbeddingVector(rng.normal(size=8)))
            for i in range(20)
        ]
        refset = self.build(points)
        before = detect_outliers(points, PASTURE, refset, top_k=20)
        scaled = list(points)
        target = scaled[4]
        scaled[4] = stable_point(target.point_id, PASTURE, EmbeddingVector(target.embeddings[2024].values * 37.5))
        after = detect_outliers(scaled, PASTURE, refset, top_k=20)
        assert [pid for pid, _ in before.ranked] == [pid for pid, _ in after.ranked]
        assert np.allclose(
            [d for _, d in before.ranked], [d for _, d in after.ranked], atol=1e-12
        )

    def test_injected_mislabels_dominate_top_ranks(self):
        # 1,000 forest-formation points plus 10 relabeled urban draws.
        config = SynthConfig(
            seed=17, n_sites=0, n_classes=5, points_per_class=1000,
            points_per_transition=0,
        )
        dataset, _ = generate_world(config)
        by_class = {}
        for p in dataset.references:
            by_class.setdefault(p.lulc_series[2024], []).append(p)
        injected = {
            f"bad_{i:02d}": p
            for i, p in enumerate(by_class[URBAN][:10])
        }
        points = [
            ReferencePoint(
                point_id=pid, lon=p.lon, lat=p.lat,
                lulc_series=constant_series(FOREST_FORMATION),
                embeddings=p.embeddings,
            )
            for pid, p in injected.items()
        ] + by_class[FOREST_FORMATION]
        from regrow.references import classify_points

        points = classify_points(points)
        refset = build_reference_set(
            points + [secondary_point("zz_sec", vec(*np.ones(64)))]
        )
        report = detect_outliers(points, FOREST_FORMATION, refset, top_k=10)
        hits = sum(1 for pid, _ in report.ranked if pid.startswith("bad_"))
        assert hits >= 9
