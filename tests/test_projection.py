from __future__ import annotations

import numpy as np
import pytest

from regrow import projection
from regrow.core import EmbeddingVector, ReferencePoint
from regrow.errors import DegenerateDataError, SingleClusterError, WrongDimensionError
from regrow.projection import (
    fit_projection,
    project,
    silhouette_score,
    trajectory_paths_2d,
)

from conftest import make_site, vec


def embed(rows):
    return [EmbeddingVector(np.asarray(r, dtype=float)) for r in rows]


class TestFitProjection:
    def test_line_explains_all_variance(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=64)
        points = embed([t * u for t in (1.0, 2.0, 3.0, 4.5, -1.0)])
        model = fit_projection(points)
        total = sum(model.explained_variance)
        assert model.explained_variance[0] / total >= 1.0 - 1e-8

    def test_isotropic_pairs_align_with_axes(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=16)
        u /= np.linalg.norm(u)
        v = rng.normal(size=16)
        v -= np.dot(v, u) * u
        v /= np.linalg.norm(v)
        big, small = 2.0 * u, 1.0 * v
        model = fit_projection(embed([big, -big, small, -small]))
        c1, c2 = model.components
        assert abs(np.dot(c1.values, u)) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.dot(c2.values, v)) == pytest.approx(1.0, abs=1e-10)
        # Covariance eigenvalues are 2|u|^2/3 and 2|v|^2/3: ratio 4.
        assert model.explained_variance[0] / model.explained_variance[1] == pytest.approx(4.0)

    def test_all_identical_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_projection(embed([[1.0, 2.0]] * 5))

    def test_too_few_vectors(self):
        with pytest.raises(DegenerateDataError):
            fit_projection(embed([[1.0, 2.0], [2.0, 1.0]]))

    def test_orthonormal_components(self):
        rng = np.random.default_rng(2)
        model = fit_projection(embed(rng.normal(size=(40, 16))))
        c1, c2 = model.components
        assert np.linalg.norm(c1.values) == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.norm(c2.values) == pytest.approx(1.0, abs=1e-8)
        assert np.dot(c1.values, c2.values) == pytest.approx(0.0, abs=1e-8)
        assert model.explained_variance[0] >= model.explained_variance[1] >= 0.0

    def test_deterministic_with_sign_convention(self):
        rng = np.random.default_rng(3)
        data = embed(rng.normal(size=(30, 8)))
        m1 = fit_projection(data)
        m2 = fit_projection(data)
        for a, b in zip(m1.components, m2.components):
            assert a.values.tobytes() == b.values.tobytes()
            assert b.values[int(np.argmax(np.abs(b.values)))] > 0

    def test_affine_equivariance(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(25, 12))
        shift = rng.normal(size=12) * 80.0
        base = fit_projection(embed(data))
        shifted = fit_projection(embed(data + shift))
        for row in data[:5]:
            x0, y0 = project(base, EmbeddingVector(row))
            x1, y1 = project(shifted, EmbeddingVector(row + shift))
            assert x1 == pytest.approx(x0, abs=1e-8)
            assert y1 == pytest.approx(y0, abs=1e-8)


class TestProject:
    @pytest.fixture()
    def model(self):
        rng = np.random.default_rng(5)
        return fit_projection(embed(rng.normal(size=(20, 10))))

    def test_mean_maps_to_origin(self, model):
        assert project(model, model.mean) == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_component_directions(self, model):
        e1 = EmbeddingVector(model.mean.values + model.components[0].values)
        assert project(model, e1) == pytest.approx((1.0, 0.0), abs=1e-10)
        e2 = EmbeddingVector(model.mean.values + 2.0 * model.components[1].values)
        assert project(model, e2) == pytest.approx((0.0, 2.0), abs=1e-10)

    def test_dimension_mismatch(self, model):
        with pytest.raises(WrongDimensionError):
            project(model, vec(1.0, 2.0))


def _secondary_embeddings(refset):
    return [refset.secondary_embedding(p.point_id) for p in refset.secondary_points]


class TestTrajectoryPaths:
    def test_constant_point_projects_identically(self, small_refset, small_refs):
        model = fit_projection(_secondary_embeddings(small_refset))
        e = small_refset.secondary_embedding(small_refset.secondary_points[0].point_id)
        site = make_site(embeddings={2020: e, 2021: e, 2022: e})
        rows = trajectory_paths_2d([site], model)
        assert len(rows) == 3
        assert len({(x, y) for _, _, x, y in rows}) == 1

    def test_rows_sorted_by_id_year(self, small_world, small_refset):
        dataset, _ = small_world
        model = fit_projection(_secondary_embeddings(small_refset))
        rows = trajectory_paths_2d(list(dataset.sites[:3]), model)
        assert rows == sorted(rows, key=lambda r: (r[0], r[1]))

    def test_changing_point_endpoints_near_their_classes(self):
        # Four orthogonal class centroids; a changing point interpolates
        # from centroid 0 to centroid 2. Its projected path endpoints must
        # be nearest the projected source/target centroids.
        rng = np.random.default_rng(9)
        dim = 16
        centroids = np.eye(dim)[:4]
        cloud = []
        for c in centroids:
            for _ in range(30):
                p = c + rng.normal(0, 0.05, dim)
                cloud.append(EmbeddingVector(p / np.linalg.norm(p)))
        model = fit_projection(cloud)
        centroids_2d = [project(model, EmbeddingVector(c)) for c in centroids]

        years = list(range(2017, 2025))
        path = []
        for i, year in enumerate(years):
            alpha = i / (len(years) - 1)
            base = (1 - alpha) * centroids[0] + alpha * centroids[2]
            base /= np.linalg.norm(base)
            noisy = base + rng.normal(0, 0.05, dim)
            path.append(project(model, EmbeddingVector(noisy / np.linalg.norm(noisy))))

        def nearest(pt):
            return int(
                np.argmin([np.hypot(pt[0] - cx, pt[1] - cy) for cx, cy in centroids_2d])
            )

        assert nearest(path[0]) == 0
        assert nearest(path[-1]) == 2


def _paths_in_one_stack(records, model):
    """The paths as one concatenation of every record's rows, projected at once."""
    ids, years, blocks = [], [], []
    for rec in (r for r in records if r.embeddings):
        rec_id = rec.point_id if isinstance(rec, ReferencePoint) else rec.site_id
        ids += [rec_id] * len(rec.embeddings)
        years += rec.embeddings.years
        blocks.append(rec.embeddings.matrix)
    if not blocks:
        return []
    centered = np.concatenate(blocks)
    centered -= model.mean.values
    xs = np.vecdot(centered, model.components[0].values).tolist()
    ys = np.vecdot(centered, model.components[1].values).tolist()
    return sorted(zip(ids, years, xs, ys), key=lambda r: (r[0], r[1]))


class TestTrajectoryPathChunks:
    """Rows projected a chunk at a time equal one stacked projection bit for bit."""

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(10)
        dim = 24
        model = fit_projection(embed(rng.normal(size=(40, dim)) * 3.0 + 1.5))
        records = []
        for i in range(60):
            n_years = int(rng.integers(0, 10))  # 0-9 rows a record
            first = 2017 + int(rng.integers(0, 10 - n_years)) if n_years < 10 else 2017
            rows = rng.normal(size=(n_years, dim)) * rng.uniform(0.1, 50.0)
            embeddings = {first + k: EmbeddingVector(r) for k, r in enumerate(rows)}
            if i % 3:
                records.append(make_site(site_id=f"s{i:03d}", embeddings=embeddings))
            else:
                records.append(ReferencePoint(point_id=f"p{i:03d}", lon=-47.0, lat=-22.0,
                                              embeddings=embeddings))
        order = rng.permutation(len(records))  # neither sorted nor points-first
        records = [records[k] for k in order]
        return records, model, sum(len(r.embeddings) for r in records)

    @pytest.mark.parametrize("rows", [1, 7, 31, "all"])
    def test_rows_equal_one_stack_bit_for_bit(self, case, monkeypatch, rows):
        records, model, total = case
        assert 0 < total
        monkeypatch.setattr(projection, "_PATH_ROWS", total + 1 if rows == "all" else rows)
        got = trajectory_paths_2d(records, model)
        want = _paths_in_one_stack(records, model)
        assert [r[:2] for r in got] == [r[:2] for r in want]
        assert np.array([r[2:] for r in got]).tobytes() == np.array([r[2:] for r in want]).tobytes()

    def test_records_keep_their_rows(self, case, monkeypatch):
        # Each chunk is centred in place; the records' own rows stay as they were.
        records, model, _ = case
        before = [r.embeddings.matrix.tobytes() for r in records]
        monkeypatch.setattr(projection, "_PATH_ROWS", 7)
        trajectory_paths_2d(records, model)
        assert [r.embeddings.matrix.tobytes() for r in records] == before

    def test_no_rows_give_no_paths(self, case):
        _, model, _ = case
        assert trajectory_paths_2d([make_site(site_id="empty")], model) == []


class TestSilhouette:
    def test_separated_clusters_score_high(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=64)
        a /= np.linalg.norm(a)
        b = rng.normal(size=64)
        b -= np.dot(b, a) * a
        b /= np.linalg.norm(b)
        points = embed(
            [a + rng.normal(0, 0.01, 64) for _ in range(50)]
            + [b + rng.normal(0, 0.01, 64) for _ in range(50)]
        )
        labels = ["a"] * 50 + ["b"] * 50
        assert silhouette_score(points, labels) > 0.9

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(7)
        points = embed(rng.normal(size=(1000, 16)))
        labels = list(rng.choice(["a", "b"], size=1000))
        assert abs(silhouette_score(points, labels)) < 0.1

    def test_single_cluster_error(self):
        rng = np.random.default_rng(8)
        points = embed(rng.normal(size=(5, 4)))
        with pytest.raises(SingleClusterError):
            silhouette_score(points, ["same"] * 5)
