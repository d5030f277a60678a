"""Reference engine: stability classification, reference embeddings, outliers.

Builds the global secondary-forest reference vector (mean embedding of all
stable secondary-forest points), per-class centroids, nearest-reference
lookup for local similarity, and centroid-distance outlier ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Mapping, Sequence

import numpy as np

from .core import (
    EmbeddingVector,
    LULCClass,
    ReferencePoint,
    SECONDARY_FOREST,
    SiteRecord,
    Stability,
    StabilityKind,
    cosine_similarities,
)
from .errors import (
    InsufficientSeriesError,
    InvalidValueError,
    NoCentroidForClassError,
    NoSecondaryForestPointsError,
)
from .geo import haversine_km_many

OutlierMetric = Literal["cosine", "euclidean"]


def classify_stability(
    series: Mapping[int, LULCClass],
    min_stable_years: int = 10,
    end_year: int = 2024,
    change_from: tuple[int, int] = (2017, 2020),
    change_to: tuple[int, int] = (2021, 2024),
) -> Stability:
    """Classify an annual label series as Stable, Changing, or Neither.

    Stable(c): the last ``min_stable_years`` consecutive years ending at
    ``end_year`` all carry class c. Changing(a, b): every year of the
    ``change_from`` window carries a, every year of ``change_to`` carries
    b, and a != b. Stable takes precedence. The series must cover the
    stable window and both change windows, else InsufficientSeriesError.
    """
    if min_stable_years < 1:
        raise InvalidValueError(f"min_stable_years must be at least 1, got {min_stable_years}")
    stable_first = end_year - min_stable_years + 1
    windows = ((stable_first, end_year), change_from, change_to)
    missing = sorted({y for first, last in windows for y in range(first, last + 1)} - series.keys())
    if missing:
        raise InsufficientSeriesError(f"series missing required years {missing}")

    def one_class(first: int, last: int) -> LULCClass | None:
        """The class every year of first..last carries, or None."""
        cls = series[first]
        return cls if all(series[y] == cls for y in range(first + 1, last + 1)) else None

    stable = one_class(stable_first, end_year)
    if stable is not None:
        return Stability.stable(stable)
    from_cls, to_cls = one_class(*change_from), one_class(*change_to)
    if from_cls is not None and to_cls is not None and from_cls != to_cls:
        return Stability.changing(from_cls, to_cls)
    return Stability.neither()


def classify_points(points: Sequence[ReferencePoint], **kwargs) -> list[ReferencePoint]:
    """Return points (sorted by id) with their stability fields filled in."""
    return [
        p.with_stability(classify_stability(p.lulc_series, **kwargs))
        for p in sorted(points, key=lambda p: p.point_id)
    ]


@dataclass(frozen=True)
class ReferenceYearPolicy:
    """Which year's embeddings form the reference vectors.

    ``fixed``: the single configured year for every trajectory year.
    ``per_year``: references recomputed from that year's embeddings for
    each trajectory year; ``year`` then acts as the anchor used for the
    headline fields (and baselines).
    """

    kind: Literal["fixed", "per_year"]
    year: int

    def __post_init__(self):
        if self.kind not in ("fixed", "per_year"):
            raise InvalidValueError(f"unknown reference-year policy {self.kind!r}")

    @classmethod
    def fixed(cls, year: int = 2024) -> "ReferenceYearPolicy":
        return cls("fixed", year)

    @classmethod
    def per_year(cls, anchor_year: int = 2024) -> "ReferenceYearPolicy":
        return cls("per_year", anchor_year)


@dataclass(frozen=True)
class ReferenceSet:
    """The secondary points of the policy year, and the class centroids of
    each year the policy serves.

    ``secondary_points`` are the policy year's stable secondary-forest
    points, sorted by id. ``centroids_by_year`` holds only the policy year
    under the fixed policy, and every year with a stable secondary-forest
    point under the per-year policy.
    """

    policy: ReferenceYearPolicy
    secondary_points: tuple[ReferencePoint, ...]
    centroids_by_year: Mapping[int, Mapping[LULCClass, EmbeddingVector]]

    def reference_year(self, year: int | None = None) -> int:
        """The year whose references serve a sample of ``year`` (None: the policy year)."""
        if self.policy.kind == "fixed" or year is None:
            return self.policy.year
        return year

    def global_reference(self, year: int | None = None) -> EmbeddingVector:
        ref = self.class_centroids(year).get(SECONDARY_FOREST)
        if ref is None:
            raise NoSecondaryForestPointsError(
                f"no stable secondary-forest embeddings for year {self.reference_year(year)}"
            )
        return ref

    def class_centroids(self, year: int | None = None) -> Mapping[LULCClass, EmbeddingVector]:
        return self.centroids_by_year.get(self.reference_year(year), {})

    # The policy year's global reference and class centroids.
    global_ref = property(global_reference)
    centroids = property(class_centroids)

    @cached_property
    def _secondary_coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(point_id, lon, lat) columns of the secondary points."""
        pts = self.secondary_points
        return (
            np.array([p.point_id for p in pts]),
            np.array([p.lon for p in pts]),
            np.array([p.lat for p in pts]),
        )

    @cached_property
    def _secondary_by_id(self) -> dict[str, ReferencePoint]:
        return {p.point_id: p for p in self.secondary_points}

    def secondary_embedding(self, point_id: str, year: int | None = None) -> EmbeddingVector:
        point = self._secondary_by_id.get(point_id)
        ref_year = self.reference_year(year)
        if point is None or ref_year not in point.embeddings:
            raise NoSecondaryForestPointsError(
                f"secondary point {point_id!r} has no embedding for year {ref_year}"
            )
        return point.embeddings[ref_year]


@dataclass(frozen=True)
class OutlierReport:
    """Ranked centroid-distance outliers for one class (descending distance)."""

    lulc: LULCClass
    metric: str
    ranked: tuple[tuple[str, float], ...]

    def __post_init__(self):
        distances = [d for _, d in self.ranked]
        if any(b > a for a, b in zip(distances, distances[1:])):
            raise InvalidValueError("outlier distances must be non-increasing")


def stable_members_by_class(
    points: Sequence[ReferencePoint], year: int
) -> dict[LULCClass, list[ReferencePoint]]:
    """The stable points with a ``year`` embedding, by class, each list
    sorted by point_id: the fixed order of every reduction over them."""
    out: dict[LULCClass, list[ReferencePoint]] = {}
    for p in sorted(points, key=lambda p: p.point_id):
        if p.stability.kind is StabilityKind.STABLE and year in p.embeddings:
            out.setdefault(p.stability.stable_class, []).append(p)
    return out


def build_reference_set(
    points: Sequence[ReferencePoint],
    policy: ReferenceYearPolicy | None = None,
) -> ReferenceSet:
    """Build the reference set from stability-classified points.

    Each year's global reference is the componentwise mean embedding of the
    stable secondary-forest members at that year; class centroids are built
    the same way for every stable class with at least one member.
    """
    policy = policy or ReferenceYearPolicy.fixed()
    if policy.kind == "fixed":
        years = [policy.year]
    else:
        years = sorted({y for p in points for y in p.embeddings})
    centroids_by_year: dict[int, dict[LULCClass, EmbeddingVector]] = {}
    secondary_points: tuple[ReferencePoint, ...] = ()
    for year in years:
        members = stable_members_by_class(points, year)
        if SECONDARY_FOREST not in members:
            continue
        centroids_by_year[year] = {
            cls: EmbeddingVector(np.array([p.embeddings.row(year) for p in pts]).mean(axis=0))
            for cls, pts in members.items()
        }
        if year == policy.year:
            secondary_points = tuple(members[SECONDARY_FOREST])
    if policy.year not in centroids_by_year:
        raise NoSecondaryForestPointsError(
            f"no stable secondary-forest point with an embedding for year {policy.year}"
        )
    return ReferenceSet(
        policy=policy, secondary_points=secondary_points, centroids_by_year=centroids_by_year
    )


def find_local_reference(site: SiteRecord, refset: ReferenceSet) -> tuple[str, float]:
    """Nearest stable secondary-forest point by great-circle distance.

    Ties are broken by lexicographically smallest point_id.
    """
    pts = refset.secondary_points
    if not pts:
        raise NoSecondaryForestPointsError("reference set has no secondary points")
    ids, lons, lats = refset._secondary_coords
    dists = haversine_km_many(site.centroid_lon, site.centroid_lat, lons, lats)
    best = int(dists.argmin())
    tied = np.flatnonzero(dists == dists[best])
    if len(tied) > 1:
        best = int(tied[ids[tied].argmin()])
    return pts[best].point_id, float(dists[best])


def detect_outliers(
    points: Sequence[ReferencePoint],
    lulc: LULCClass,
    refset: ReferenceSet,
    top_k: int = 10,
    metric: OutlierMetric = "cosine",
) -> OutlierReport:
    """Rank stable members of ``lulc`` by distance from the class centroid.

    Cosine distance (1 - cosine similarity) by default, matching the
    similarity geometry used elsewhere; Euclidean by flag. Returns the
    min(top_k, n) farthest members, distances non-increasing.
    """
    centroid = refset.centroids.get(lulc)
    if centroid is None:
        raise NoCentroidForClassError(f"no centroid for class {lulc.label}")
    year = refset.policy.year
    if metric not in ("cosine", "euclidean"):
        raise InvalidValueError(f"unknown outlier metric {metric!r}")
    members = stable_members_by_class(points, year).get(lulc, [])
    if not members:
        return OutlierReport(lulc=lulc, metric=metric, ranked=())
    emb = np.stack([p.embeddings.row(year) for p in members])
    if metric == "cosine":
        dists = 1.0 - cosine_similarities(emb, centroid.values)
    else:
        diff = emb - centroid.values
        # Row norms as sqrt(vecdot), which rounds as np.linalg.norm of each row.
        dists = np.sqrt(np.vecdot(diff, diff))
    scored = sorted(
        zip([p.point_id for p in members], dists.tolist()),
        key=lambda item: (-item[1], item[0]),
    )
    return OutlierReport(lulc=lulc, metric=metric, ranked=tuple(scored[: max(top_k, 0)]))
