"""Cross-cutting checks: reference-year policies, metric flags, thread flag."""

from __future__ import annotations

import numpy as np
import pytest

from regrow.cli import main
from regrow.core import (
    PASTURE,
    ReferencePoint,
    SECONDARY_FOREST,
    Stability,
)
from regrow.errors import NoSecondaryForestPointsError, ZeroVectorError
from regrow.prediction import FeatureSet, build_features
from regrow.references import (
    ReferenceYearPolicy,
    build_reference_set,
    detect_outliers,
)
from regrow.trajectories import ReferenceKind, build_trajectory

from conftest import make_site, vec


def constant_series(cls, first=2015, last=2024):
    return {y: cls for y in range(first, last + 1)}


def point(pid, cls, embeddings, lon=0.0, lat=0.0):
    return ReferencePoint(
        point_id=pid, lon=lon, lat=lat,
        lulc_series=constant_series(cls),
        embeddings=embeddings,
        stability=Stability.stable(cls),
    )


class TestPerYearPolicy:
    def test_local_trajectory_tracks_matching_year(self):
        neighbor = point(
            "sp", SECONDARY_FOREST,
            {2020: vec(1.0, 0.0), 2021: vec(0.0, 1.0), 2024: vec(1.0, 1.0)},
        )
        refset = build_reference_set([neighbor], ReferenceYearPolicy.per_year(2024))
        site = make_site(
            start_year=2020,
            embeddings={2020: vec(1.0, 0.0), 2021: vec(1.0, 0.0)},
        )
        traj = build_trajectory(site, refset, ReferenceKind.LOCAL)
        sims = {s.year: s.similarity for s in traj.samples}
        assert sims[2020] == pytest.approx(1.0)
        assert sims[2021] == pytest.approx(0.0)

    def test_fixed_policy_pins_the_reference(self):
        neighbor = point(
            "sp", SECONDARY_FOREST,
            {2020: vec(1.0, 0.0), 2021: vec(0.0, 1.0), 2024: vec(1.0, 0.0)},
        )
        refset = build_reference_set([neighbor], ReferenceYearPolicy.fixed(2024))
        site = make_site(
            start_year=2020,
            embeddings={2020: vec(1.0, 0.0), 2021: vec(1.0, 0.0)},
        )
        traj = build_trajectory(site, refset, ReferenceKind.LOCAL)
        assert all(s.similarity == pytest.approx(1.0) for s in traj.samples)

    def test_missing_per_year_reference_raises(self):
        neighbor = point("sp", SECONDARY_FOREST, {2024: vec(1.0, 0.0)})
        refset = build_reference_set([neighbor], ReferenceYearPolicy.per_year(2024))
        site = make_site(start_year=2020, embeddings={2019: vec(1.0, 0.0)})
        with pytest.raises(NoSecondaryForestPointsError):
            build_trajectory(site, refset, ReferenceKind.GLOBAL)

    def test_nearest_point_without_the_year_raises(self):
        # 2021 has a reference, but not from the site's nearest point.
        near = point("near", SECONDARY_FOREST, {2020: vec(1.0, 0.0), 2024: vec(1.0, 0.0)})
        far = point(
            "far", SECONDARY_FOREST,
            {2020: vec(1.0, 0.0), 2021: vec(0.0, 1.0), 2024: vec(1.0, 0.0)}, lat=1.0,
        )
        refset = build_reference_set([near, far], ReferenceYearPolicy.per_year(2024))
        assert refset.global_reference(2021) == vec(0.0, 1.0)
        site = make_site(
            start_year=2020, embeddings={2020: vec(1.0, 0.0), 2021: vec(1.0, 0.0)},
            centroid_lon=0.0, centroid_lat=0.0,
        )
        with pytest.raises(NoSecondaryForestPointsError,
                           match="'near' has no embedding for year 2021"):
            build_trajectory(site, refset, ReferenceKind.LOCAL)


class TestEuclideanOutliers:
    def test_euclidean_ranks_by_norm_distance(self):
        # Cosine sees p_far as perfectly aligned; euclidean must flag it.
        members = [
            point(f"p{i}", PASTURE, {2024: vec(1.0, 0.0, 0.0)}) for i in range(4)
        ]
        members.append(point("p_far", PASTURE, {2024: vec(9.0, 0.0, 0.0)}))
        refset = build_reference_set(
            members + [point("zz", SECONDARY_FOREST, {2024: vec(0.0, 0.0, 1.0)})]
        )
        euclid = detect_outliers(members, PASTURE, refset, top_k=5, metric="euclidean")
        assert euclid.ranked[0][0] == "p_far"
        cosine = detect_outliers(members, PASTURE, refset, top_k=5, metric="cosine")
        assert cosine.ranked[-1][1] == pytest.approx(cosine.ranked[0][1], abs=1e-9)


class TestZeroVectorPropagation:
    def test_zero_site_embedding_fails_loudly(self):
        refset = build_reference_set(
            [point("sp", SECONDARY_FOREST, {2024: vec(1.0, 0.0)})]
        )
        site = make_site(start_year=2020, embeddings={2020: vec(0.0, 0.0)})
        with pytest.raises(ZeroVectorError):
            build_trajectory(site, refset)


class TestFeatureColumns:
    @pytest.mark.parametrize(
        "feature_set,count",
        [
            (FeatureSet.COVARIATES, 9),
            (FeatureSet.SPECTRAL, 2),
            (FeatureSet.COVARIATES_SPECTRAL, 11),
            (FeatureSet.EMBEDDINGS, 64),
            (FeatureSet.EMBEDDINGS_COVARIATES, 73),
            (FeatureSet.ALL, 75),
        ],
    )
    def test_declared_layout(self, small_world, feature_set, count):
        site = small_world[0].sites[0]
        year = site.start_year
        row = build_features(site, feature_set, year, dim=64)
        assert row.shape == (count,)
        # Fixed concatenation order: covariates, spectral, embeddings.
        if feature_set is FeatureSet.ALL:
            spec = site.spectral[year]
            assert np.array_equal(row[:9], site.covariates[year].as_array())
            assert np.array_equal(row[9:11], [spec.ndvi, spec.evi])
            assert np.array_equal(row[11:], site.embeddings[year].values)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    out = tmp_path_factory.mktemp("flag_world")
    assert main([
        "synth", "--output-dir", str(out), "--seed", "13",
        "--n-sites", "12", "--points-per-class", "12",
        "--points-per-transition", "0",
    ]) == 0
    return out


class TestCliPolicyAndThreads:
    def test_per_year_policy_through_cli(self, world, tmp_path):
        out = tmp_path / "traj"
        assert main([
            "trajectories", "--inputs-dir", str(world), "--output-dir", str(out),
            "--reference-policy", "per_year",
        ]) == 0
        assert (out / "trajectories.csv").exists()

    def test_thread_flag_is_result_invariant(self, world, tmp_path):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}"
            # The setting is read from a config file as from its flag.
            cfg = tmp_path / f"t{threads}.cfg"
            cfg.write_text(f"threads = {threads}\n")
            assert main([
                "references", "outliers", "--inputs-dir", str(world),
                "--output-dir", str(out), "--config", str(cfg),
            ]) == 0
            outs.append((out / "outliers.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_bad_policy_name_rejected(self, world, tmp_path, capsys):
        code = main([
            "trajectories", "--inputs-dir", str(world),
            "--output-dir", str(tmp_path / "x"),
            "--reference-policy", "sometimes",
        ])
        assert code == 1
        assert "reference_policy" in capsys.readouterr().err
