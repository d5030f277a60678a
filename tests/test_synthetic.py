from __future__ import annotations

import numpy as np
import pytest

from regrow.core import (
    PASTURE,
    SECONDARY_FOREST,
    StabilityKind,
    Strategy,
    cosine_similarity,
)
from regrow.errors import InvalidValueError, SeparationInfeasibleError, ZeroVectorError
from regrow.references import classify_stability
from regrow.synthetic import (
    SynthConfig,
    generate_world,
    write_world,
)

from conftest import oracle_similarity, vec


def equal_rates(rate):
    return {s: rate for s in Strategy}


class TestOracleSimilarity:
    def test_agrees_with_engine_on_random_pairs(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(200):
            a = rng.normal(size=64)
            b = rng.normal(size=64)
            worst = max(worst, abs(oracle_similarity(a, b) - cosine_similarity(vec(*a), vec(*b))))
        assert worst < 1e-12

    def test_equal_vectors(self):
        assert oracle_similarity([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_basis(self):
        assert oracle_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            oracle_similarity([0.0, 0.0], [1.0, 0.0])


class TestConfigValidation:
    def test_bad_n_classes(self):
        with pytest.raises(InvalidValueError):
            SynthConfig(n_classes=1)
        with pytest.raises(InvalidValueError):
            SynthConfig(n_classes=2, n_sites=10)

    def test_bad_rate(self):
        with pytest.raises(InvalidValueError):
            SynthConfig(recovery_rate_by_strategy=equal_rates(1.5))

    def test_missing_strategy_rate(self):
        rates = equal_rates(0.1)
        del rates[Strategy.AGROFORESTRY]
        with pytest.raises(InvalidValueError):
            SynthConfig(recovery_rate_by_strategy=rates)

    def test_spread_must_fit_window(self):
        with pytest.raises(InvalidValueError):
            SynthConfig(start_year_spread=20)

    def test_separation_infeasible_in_low_dimension(self):
        config = SynthConfig(
            dim=2, n_classes=6, n_sites=0, points_per_class=1, points_per_transition=0
        )
        with pytest.raises(SeparationInfeasibleError):
            generate_world(config)


@pytest.fixture(scope="module")
def world():
    config = SynthConfig(
        seed=5, n_sites=10, points_per_class=8, points_per_transition=4,
        noise_sigma=0.0, years=(2016, 2024), lulc_years=(2015, 2024),
        recovery_rate_by_strategy=equal_rates(0.125), start_year_spread=0,
    )
    return generate_world(config)


class TestNoiseFreeWorld:
    def test_stable_points_sit_on_their_centroid(self, world):
        dataset, truth = world
        point = next(p for p in dataset.references if p.point_id.startswith("ref_Pasture"))
        assert np.allclose(point.embeddings[2020].values, truth.centroids[PASTURE], atol=0)

    def test_recovering_site_reaches_reference(self, world):
        dataset, truth = world
        site = dataset.sites[0]
        # rate 1/8 over 8 years: the final embedding equals the target class
        # centroid, so similarity to the reference is 1.
        final = site.embeddings[2024]
        assert np.allclose(final.values, truth.centroids[SECONDARY_FOREST], atol=1e-12)
        assert oracle_similarity(final, vec(*truth.centroids[SECONDARY_FOREST])) == pytest.approx(1.0, abs=1e-12)

    def test_classify_stability_recovers_every_label(self, world):
        dataset, truth = world
        for point in dataset.references:
            st = classify_stability(point.lulc_series)
            rec = truth.records[point.point_id]
            if rec.kind == "stable":
                assert st.kind is StabilityKind.STABLE
                assert st.stable_class.label == rec.true_class
            else:
                assert st.kind is StabilityKind.CHANGING
                assert st.from_class.label == rec.from_class
                assert st.to_class.label == rec.to_class

    def test_expected_similarity_non_decreasing(self, world):
        dataset, truth = world
        for site in dataset.sites:
            curve = [truth.expected_similarity[site.site_id][y] for y in sorted(site.embeddings)]
            assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))

    def test_ground_truth_transition_year(self, world):
        _, truth = world
        site_records = [r for r in truth.records.values() if r.kind == "site"]
        assert all(r.transition_year == pytest.approx(2016 + 4.0) for r in site_records)


class TestDeterminism:
    def test_same_seed_produces_byte_identical_files(self, tmp_path):
        config = SynthConfig(seed=9, n_sites=6, points_per_class=5, points_per_transition=3)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            dataset, truth = generate_world(config)
            write_world(dataset, truth, out)
        for name in (
            "embeddings.csv", "sites.csv", "spectral.csv", "covariates.csv",
            "reference_points.csv", "lulc_codes.csv", "ground_truth.csv",
        ):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, _ = generate_world(SynthConfig(seed=1, n_sites=4, points_per_class=4, points_per_transition=0))
        b, _ = generate_world(SynthConfig(seed=2, n_sites=4, points_per_class=4, points_per_transition=0))
        assert a.sites[0].embeddings[2020] != b.sites[0].embeddings[2020]


class TestCentroidStructure:
    def test_separation_constraint_holds(self, small_world):
        _, truth = small_world
        labels = sorted(truth.centroids, key=lambda c: c.label)
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                cos = float(np.dot(truth.centroids[a], truth.centroids[b]))
                assert cos <= 1.0 - 0.2 + 1e-9

    def test_forest_family_closer_than_pasture(self, small_world):
        _, truth = small_world
        sec = truth.centroids[SECONDARY_FOREST]
        from regrow.core import PRIMARY_FOREST

        assert float(np.dot(truth.centroids[PRIMARY_FOREST], sec)) > float(
            np.dot(truth.centroids[PASTURE], sec)
        )
