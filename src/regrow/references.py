"""Reference engine: stability classification, reference embeddings, outliers.

Builds the global secondary-forest reference vector (mean embedding of all
stable secondary-forest points), per-class centroids, nearest-reference
lookup for local similarity, and centroid-distance outlier ranking.
"""

from __future__ import annotations

import logging
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

log = logging.getLogger("regrow.references")

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
    # Every year of the three windows, which may reach past end_year.
    missing = [
        y
        for y in range(
            min(stable_first, change_from[0], change_to[0]),
            max(end_year, change_from[1], change_to[1]) + 1,
        )
        if y not in series
        and (stable_first <= y <= end_year
             or change_from[0] <= y <= change_from[1]
             or change_to[0] <= y <= change_to[1])
    ]
    if missing:
        raise InsufficientSeriesError(f"series missing required years {missing}")

    tail = series[stable_first]
    if all(series[y] == tail for y in range(stable_first + 1, end_year + 1)):
        return Stability.stable(tail)

    from_cls = series[change_from[0]]
    to_cls = series[change_to[0]]
    if (
        all(series[y] == from_cls for y in range(change_from[0], change_from[1] + 1))
        and all(series[y] == to_cls for y in range(change_to[0], change_to[1] + 1))
        and from_cls != to_cls
    ):
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
class SecondaryPoint:
    """Where a stable secondary point lies; ``ReferenceSet.secondary_embedding`` has its vectors."""
    point_id: str
    lon: float
    lat: float


@dataclass(frozen=True)
class ReferenceTable:
    """One year's class centroids and secondary-forest embeddings by point id."""

    centroids: Mapping[LULCClass, EmbeddingVector]
    secondary: Mapping[str, EmbeddingVector]


_NO_TABLE = ReferenceTable({}, {})


@dataclass(frozen=True)
class ReferenceSet:
    """The secondary points of the policy year, and a reference table for
    each year the policy serves.

    ``tables`` holds only the policy year under the fixed policy, and every
    year with a stable secondary-forest point under the per-year policy.
    """

    policy: ReferenceYearPolicy
    secondary_points: tuple[SecondaryPoint, ...]
    tables: Mapping[int, ReferenceTable]

    def reference_year(self, year: int | None = None) -> int:
        """The year whose table serves a sample of ``year`` (None: the policy year)."""
        if self.policy.kind == "fixed" or year is None:
            return self.policy.year
        return year

    def _table(self, year: int | None) -> ReferenceTable:
        return self.tables.get(self.reference_year(year), _NO_TABLE)

    def global_reference(self, year: int | None = None) -> EmbeddingVector:
        ref = self._table(year).centroids.get(SECONDARY_FOREST)
        if ref is None:
            raise NoSecondaryForestPointsError(
                f"no stable secondary-forest embeddings for year {self.reference_year(year)}"
            )
        return ref

    def class_centroids(self, year: int | None = None) -> Mapping[LULCClass, EmbeddingVector]:
        return self._table(year).centroids

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

    def secondary_embedding(self, point_id: str, year: int | None = None) -> EmbeddingVector:
        emb = self._table(year).secondary.get(point_id)
        if emb is None:
            raise NoSecondaryForestPointsError(
                f"secondary point {point_id!r} has no embedding for year "
                f"{self.reference_year(year)}"
            )
        return emb


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


def _mean_embedding(members: Sequence[tuple[str, ReferencePoint]], year: int) -> EmbeddingVector:
    # Fixed summation order (sorted point_id) for bit-reproducibility.
    ordered = sorted(members, key=lambda m: m[0])
    return EmbeddingVector(np.stack([p.embeddings.row(year) for _, p in ordered]).mean(axis=0))


def stable_members_by_class(
    points: Sequence[ReferencePoint], year: int
) -> dict[LULCClass, list[tuple[str, ReferencePoint]]]:
    """(point_id, point) of each stable point with a ``year`` embedding, by class."""
    out: dict[LULCClass, list[tuple[str, ReferencePoint]]] = {}
    for p in points:
        if p.stability.kind is StabilityKind.STABLE and year in p.embeddings:
            out.setdefault(p.stability.stable_class, []).append((p.point_id, p))
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
    tables: dict[int, ReferenceTable] = {}
    secondary_points: tuple[SecondaryPoint, ...] = ()
    for year in years:
        members = stable_members_by_class(points, year)
        if SECONDARY_FOREST not in members:
            continue
        secondary = sorted(members[SECONDARY_FOREST])
        tables[year] = ReferenceTable(
            centroids={
                cls: _mean_embedding(pts, year) for cls, pts in members.items()
            },
            secondary={pid: p.embeddings[year] for pid, p in secondary},
        )
        if year == policy.year:
            secondary_points = tuple(
                SecondaryPoint(pid, p.lon, p.lat) for pid, p in secondary
            )
    if policy.year not in tables:
        raise NoSecondaryForestPointsError(
            f"no stable secondary-forest point with an embedding for year {policy.year}"
        )
    return ReferenceSet(policy=policy, secondary_points=secondary_points, tables=tables)


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
    emb = np.stack([p.embeddings.row(year) for _, p in members])
    if metric == "cosine":
        dists = 1.0 - cosine_similarities(emb, centroid.values)
    else:
        diff = emb - centroid.values
        # Row norms as sqrt(vecdot), which rounds as np.linalg.norm of each row.
        dists = np.sqrt(np.vecdot(diff, diff))
    scored = sorted(
        zip([pid for pid, _ in members], dists.tolist()),
        key=lambda item: (-item[1], item[0]),
    )
    return OutlierReport(lulc=lulc, metric=metric, ranked=tuple(scored[: max(top_k, 0)]))
