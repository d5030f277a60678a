"""Lloyd's k-means with k-means++ seeding, and spatial fold assignment.

Spatial cross-validation folds are the k-means cluster indices of the
site coordinates, so folds are geographically separated and may be
unbalanced by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import SiteRecord
from .errors import TooFewPointsError

__all__ = ["KMeansResult", "kmeans", "FoldAssignment", "spatial_kfold"]

#: Lloyd iterations after which ``kmeans`` stops.
_MAX_ITER = 300
#: ``kmeans`` stops once no centroid moves farther than this.
_TOL = 1e-6


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray  # (k, dim)
    assignment: np.ndarray  # (n,) cluster index per point
    inertia: float
    n_iter: int
    #: Objective after each assignment step; non-increasing by construction.
    objective_history: tuple[float, ...]


def _plus_plus_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = X[first]
    closest_sq = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            # All remaining points coincide with chosen centroids.
            idx = int(rng.integers(n))
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest_sq), r, side="right"))
            idx = min(idx, n - 1)
        centroids[j] = X[idx]
        closest_sq = np.minimum(closest_sq, ((X - centroids[j]) ** 2).sum(axis=1))
    return centroids


def kmeans(
    points: Sequence[tuple[float, float]] | np.ndarray,
    k: int,
    seed: int,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ initialization seeded by ``seed``.

    Terminates when the largest centroid shift drops below ``_TOL`` (1e-6)
    or after ``_MAX_ITER`` (300) iterations. Empty clusters are repaired by
    reseeding to the point farthest from its assigned centroid.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2:
        raise TooFewPointsError(f"expected an (n, dim) array, got shape {X.shape}")
    n = X.shape[0]
    if k < 1 or n < k:
        raise TooFewPointsError(f"need n >= k >= 1, got n={n}, k={k}")

    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(X, k, rng)
    assignment = np.zeros(n, dtype=np.int64)
    history: list[float] = []
    n_iter = 0
    for n_iter in range(1, _MAX_ITER + 1):
        sq = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assignment = sq.argmin(axis=1)
        dist_own = sq[np.arange(n), assignment]

        # Repair empty clusters before the update step.
        counts = np.bincount(assignment, minlength=k)
        taken: set[int] = set()
        for j in np.flatnonzero(counts == 0):
            order = np.argsort(-dist_own, kind="stable")
            far = next(int(i) for i in order if int(i) not in taken)
            taken.add(far)
            assignment[far] = j
            dist_own[far] = 0.0
            centroids[j] = X[far]

        history.append(float(dist_own.sum()))

        new_centroids = centroids.copy()
        for j in range(k):
            members = X[assignment == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < _TOL:
            break

    sq = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assignment = sq.argmin(axis=1)
    inertia = float(sq[np.arange(n), assignment].sum())
    return KMeansResult(
        centroids=centroids,
        assignment=assignment,
        inertia=inertia,
        n_iter=n_iter,
        objective_history=tuple(history),
    )


@dataclass(frozen=True)
class FoldAssignment:
    """Spatial fold per site: the k-means cluster index of its centroid."""

    k: int
    assignment: Mapping[str, int]
    centroids: tuple[tuple[float, float], ...]


def spatial_kfold(sites: Sequence[SiteRecord], k: int = 5, seed: int = 0) -> FoldAssignment:
    """Assign each site to a geographic fold by k-means on (lon, lat)."""
    ordered = sorted(sites, key=lambda s: s.site_id)
    if len(ordered) < k:
        raise TooFewPointsError(f"need at least k={k} sites, got {len(ordered)}")
    coords = np.array([(s.centroid_lon, s.centroid_lat) for s in ordered])
    result = kmeans(coords, k=k, seed=seed)
    assignment = {
        s.site_id: int(f) for s, f in zip(ordered, result.assignment)
    }
    centroids = tuple((float(x), float(y)) for x, y in result.centroids)
    return FoldAssignment(k=k, assignment=assignment, centroids=centroids)
