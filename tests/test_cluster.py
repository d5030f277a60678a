from __future__ import annotations

import numpy as np
import pytest

from regrow.cluster import kmeans, spatial_kfold
from regrow.errors import TooFewPointsError

from conftest import make_site, vec


def blobs(centers, n_per, sigma, seed):
    rng = np.random.default_rng(seed)
    points = []
    labels = []
    for i, c in enumerate(centers):
        points.append(rng.normal(0.0, sigma, size=(n_per, 2)) + np.asarray(c))
        labels.extend([i] * n_per)
    return np.vstack(points), np.array(labels)


class TestKMeans:
    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 2))
        result = kmeans(X, k=1, seed=3)
        assert np.allclose(result.centroids[0], X.mean(axis=0), atol=1e-12)
        assert set(result.assignment) == {0}

    def test_k_equals_n_distinct_points(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        result = kmeans(X, k=4, seed=1)
        assert result.inertia == pytest.approx(0.0, abs=1e-20)
        assert sorted(result.assignment) == [0, 1, 2, 3]

    def test_pentagon_blobs_perfect_purity(self):
        angles = 2.0 * np.pi * np.arange(5) / 5.0
        centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        X, truth = blobs(centers, 40, 0.01, seed=2)
        result = kmeans(X, k=5, seed=9)
        # Every blob maps onto exactly one cluster.
        for lab in range(5):
            assert len(set(result.assignment[truth == lab])) == 1
        assert len(set(result.assignment)) == 5

    def test_objective_non_increasing(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.uniform(size=(60, 2))
            result = kmeans(X, k=4, seed=seed)
            hist = result.objective_history
            assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            kmeans(np.zeros((2, 2)), k=3, seed=0)
        with pytest.raises(TooFewPointsError):
            kmeans(np.zeros((2, 2)), k=0, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(50, 2))
        a = kmeans(X, k=3, seed=5)
        b = kmeans(X, k=3, seed=5)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert np.array_equal(a.assignment, b.assignment)


def blob_sites(seed=3):
    centers = [(-50.0, -23.0), (-48.0, -21.0), (-46.0, -23.5), (-49.0, -19.0), (-45.0, -20.5)]
    rng = np.random.default_rng(seed)
    sites = []
    truth = {}
    i = 0
    for b, (lon, lat) in enumerate(centers):
        for _ in range(12):
            sid = f"s{i:03d}"
            sites.append(
                make_site(
                    sid,
                    embeddings={2020: vec(1.0, 0.0)},
                    centroid_lon=lon + rng.normal(0, 0.02),
                    centroid_lat=lat + rng.normal(0, 0.02),
                )
            )
            truth[sid] = b
            i += 1
    return sites, truth


class TestSpatialKFold:
    def test_single_fold(self):
        sites, _ = blob_sites()
        folds = spatial_kfold(sites, k=1, seed=0)
        assert set(folds.assignment.values()) == {0}

    def test_blobs_map_to_folds(self):
        sites, truth = blob_sites()
        folds = spatial_kfold(sites, k=5, seed=4)
        by_blob = {}
        for sid, fold in folds.assignment.items():
            by_blob.setdefault(truth[sid], set()).add(fold)
        assert all(len(fs) == 1 for fs in by_blob.values())
        assert len({next(iter(fs)) for fs in by_blob.values()}) == 5

    def test_same_seed_identical(self):
        sites, _ = blob_sites()
        a = spatial_kfold(sites, k=5, seed=11)
        b = spatial_kfold(sites, k=5, seed=11)
        assert a == b

    def test_every_site_assigned_once_and_folds_nonempty(self):
        sites, _ = blob_sites()
        folds = spatial_kfold(sites, k=5, seed=2)
        assert sorted(folds.assignment) == sorted(s.site_id for s in sites)
        assert set(folds.assignment.values()) == set(range(folds.k))

    def test_too_few_sites(self):
        sites, _ = blob_sites()
        with pytest.raises(TooFewPointsError):
            spatial_kfold(sites[:3], k=5, seed=0)
