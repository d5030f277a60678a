"""Similarity trajectories against secondary-forest references.

Computes per-site cosine-similarity time series (global and local
reference), delta-t alignment to the restoration start year, improvement
scores, stable-class baseline bands, grouped mean curves, spectral-index
alignment, and per-year nearest-class change detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Sequence

import numpy as np

from .core import (
    LULCClass,
    PASTURE,
    PRIMARY_FOREST,
    ReferencePoint,
    SiteRecord,
    cosine_similarities,
    cosine_similarity,
)
from .errors import (
    InvalidValueError,
    MissingBaselineClassError,
    NoEmbeddingsError,
    TooFewCentroidsError,
)
from .references import ReferenceSet, stable_members_by_class, find_local_reference

__all__ = [
    "cosine_similarity",
    "ReferenceKind",
    "TrajectorySample",
    "SimilarityTrajectory",
    "BaselineBand",
    "ClassTrajectory",
    "GroupBy",
    "AggregateRow",
    "build_trajectory",
    "improvement_score",
    "compute_baselines",
    "aggregate_trajectories",
    "spectral_trajectory",
    "classify_trajectory",
]


class ReferenceKind(Enum):
    GLOBAL = "global"
    LOCAL = "local"


@dataclass(frozen=True)
class TrajectorySample:
    year: int
    delta_t: int
    similarity: float


@dataclass(frozen=True)
class SimilarityTrajectory:
    """Per-site similarity time series plus its improvement score.

    Samples are sorted by year and include years before the start year
    (negative delta_t) when embeddings exist for them; those are kept for
    pre-restoration context but excluded from improvement scoring.
    ``degenerate`` flags trajectories whose improvement could not be
    anchored at delta_t = 0 with a later sample.
    """

    site_id: str
    reference: ReferenceKind
    reference_point_id: str | None
    samples: tuple[TrajectorySample, ...]
    improvement: float
    degenerate: bool

    def __post_init__(self):
        years = [s.year for s in self.samples]
        if years != sorted(years):
            raise InvalidValueError("samples must be sorted by year")
        for s in self.samples:
            if not -1.0 <= s.similarity <= 1.0:
                raise InvalidValueError(f"similarity out of [-1, 1]: {s.similarity}")

    @property
    def reference_label(self) -> str:
        if self.reference is ReferenceKind.GLOBAL:
            return "global"
        return f"local:{self.reference_point_id}"


@dataclass(frozen=True)
class BaselineBand:
    """Mean similarity of stable primary-forest (upper) and pasture (lower)
    points to the secondary-forest reference."""

    upper: float
    lower: float

    def __post_init__(self):
        for v in (self.upper, self.lower):
            if not -1.0 <= v <= 1.0:
                raise InvalidValueError(f"baseline out of [-1, 1]: {v}")


def _score_improvement(samples: Sequence[TrajectorySample]) -> tuple[float, bool]:
    nonneg = [s for s in samples if s.delta_t >= 0]
    if not nonneg:
        return 0.0, True
    base = nonneg[0]
    end = nonneg[-1]
    degenerate = base.delta_t != 0 or base is end
    if base is end:
        return 0.0, True
    return end.similarity - base.similarity, degenerate


def improvement_score(traj: SimilarityTrajectory) -> float:
    """Similarity at the largest nonnegative delta_t minus at delta_t = 0.

    Falls back to the earliest nonnegative sample when delta_t = 0 is
    missing (flagged degenerate on the trajectory itself). Returns 0.0
    for trajectories with no usable pair.
    """
    value, _ = _score_improvement(traj.samples)
    return value


def build_trajectory(
    site: SiteRecord,
    refset: ReferenceSet,
    kind: ReferenceKind = ReferenceKind.GLOBAL,
) -> SimilarityTrajectory:
    """One similarity sample per available embedding year.

    Global uses the mean secondary-forest reference; Local uses the
    geographically nearest secondary point (its policy-year embedding
    under the fixed-year policy, the matching year's under per-year).
    """
    years = site.embedding_years()
    if not years:
        raise NoEmbeddingsError(f"site {site.site_id} has no embedding years")

    point_id: str | None = None
    reference = refset.global_reference
    if kind is ReferenceKind.LOCAL:
        point_id, _ = find_local_reference(site, refset)
        reference = partial(refset.secondary_embedding, point_id)

    # One lookup per reference year: a single one under the fixed policy.
    ref_years = [refset.reference_year(year) for year in years]
    refs = {y: reference(y).values for y in dict.fromkeys(ref_years)}
    sims = cosine_similarities(site.embeddings.matrix, np.array([refs[y] for y in ref_years]))
    samples = tuple(
        TrajectorySample(year=year, delta_t=site.delta_t(year), similarity=_clamp(s))
        for year, s in zip(years, sims.tolist())
    )
    improvement, degenerate = _score_improvement(samples)
    return SimilarityTrajectory(
        site_id=site.site_id,
        reference=kind,
        reference_point_id=point_id,
        samples=samples,
        improvement=improvement,
        degenerate=degenerate,
    )


def _clamp(s: float) -> float:
    return min(1.0, max(-1.0, s))


def compute_baselines(
    points: Sequence[ReferencePoint], refset: ReferenceSet
) -> BaselineBand:
    """Upper/lower context band from stable primary-forest and pasture points.

    Similarities are taken at the policy (anchor) year against the global
    secondary-forest reference.
    """
    year = refset.policy.year
    ref = refset.global_ref
    members = stable_members_by_class(points, year)

    def band(target: LULCClass) -> float:
        if target not in members:
            raise MissingBaselineClassError(
                f"no stable {target.label} point with an embedding for year {year}"
            )
        embs = np.array([p.embeddings.row(year) for p in members[target]])
        return _clamp(float(cosine_similarities(embs, ref.values).mean()))

    return BaselineBand(upper=band(PRIMARY_FOREST), lower=band(PASTURE))


class GroupBy(Enum):
    START_LULC = "start_lulc"
    STRATEGY = "strategy"
    START_YEAR = "start_year"


@dataclass(frozen=True)
class AggregateRow:
    group: str
    delta_t: int
    mean: float
    sd: float
    n: int


def aggregate_trajectories(
    trajs: Sequence[SimilarityTrajectory],
    sites: Sequence[SiteRecord],
    group_by: GroupBy,
) -> list[AggregateRow]:
    """Pointwise mean/sd of similarity per (group, delta_t).

    Sites missing the grouping attribute (e.g. no start LULC) are omitted.
    The sd is the population standard deviation, so a single-member cell
    reports sd = 0. Reduction order is fixed (sorted group, then site_id)
    for bit-reproducibility.
    """
    by_id = {s.site_id: s for s in sites}

    def group_label(site: SiteRecord) -> str | None:
        if group_by is GroupBy.START_LULC:
            return site.start_lulc.label if site.start_lulc is not None else None
        if group_by is GroupBy.STRATEGY:
            return site.strategy.value
        return str(site.start_year)

    cells: dict[tuple[str, int], list[tuple[str, float]]] = {}
    for traj in trajs:
        site = by_id.get(traj.site_id)
        if site is None:
            continue
        label = group_label(site)
        if label is None:
            continue
        for s in traj.samples:
            cells.setdefault((label, s.delta_t), []).append((traj.site_id, s.similarity))

    rows = []
    for (label, delta_t), members in sorted(cells.items()):
        values = np.array([v for _, v in sorted(members)])
        # Anchor the mean at the first value so identical inputs reduce to
        # exactly that value (no drift from sum-then-divide rounding).
        mean = float(values[0] + (values - values[0]).mean())
        sd = float(np.sqrt(((values - mean) ** 2).mean()))
        rows.append(
            AggregateRow(group=label, delta_t=delta_t, mean=mean, sd=sd, n=len(values))
        )
    return rows


def spectral_trajectory(site: SiteRecord) -> list[tuple[int, float, float]]:
    """(delta_t, ndvi, evi) rows aligned like the similarity trajectory.

    Years without spectral data are omitted.
    """
    return [
        (site.delta_t(year), ndvi, evi)
        for year, (ndvi, evi) in zip(site.spectral.years, site.spectral.matrix.tolist())
    ]


@dataclass(frozen=True)
class ClassTrajectory:
    """Per-year nearest class-centroid assignment and detected transitions.

    A transition is recorded at year y when the nearest class at y differs
    from the nearest class at the previous available year. Change
    magnitudes are 1 - cos(e_t, e_prev) between consecutive samples.
    """

    site_id: str
    samples: tuple[tuple[int, LULCClass, float], ...]
    transitions: tuple[tuple[int, LULCClass, LULCClass], ...]
    change_magnitudes: tuple[tuple[int, float], ...]


def classify_trajectory(site: SiteRecord, refset: ReferenceSet) -> ClassTrajectory:
    """Assign each embedding year to its nearest class centroid by cosine
    similarity (ties broken by class label order) and record transitions."""
    years = site.embedding_years()
    if not years:
        raise NoEmbeddingsError(f"site {site.site_id} has no embedding years")
    if len(refset.centroids) < 2:
        raise TooFewCentroidsError(
            f"need at least 2 class centroids, have {len(refset.centroids)}"
        )

    # One (years x classes) call per reference year: a single call under
    # the fixed policy, one per year under the per-year policy.
    groups: dict[int, list[int]] = {}
    for i, year in enumerate(years):
        groups.setdefault(refset.reference_year(year), []).append(i)
    emb = site.embeddings.matrix
    samples: list[tuple[int, LULCClass, float]] = [None] * len(years)
    for ref_year, rows in groups.items():
        table = refset.class_centroids(ref_year)
        if len(table) < 2:
            raise TooFewCentroidsError(f"fewer than 2 class centroids for year {ref_year}")
        classes = sorted(table, key=lambda c: c.label)
        sims = cosine_similarities(emb[rows, None, :], np.array([table[c].values for c in classes]))
        # argmax keeps the first of equal maxima: ties go to the smaller label.
        for i, j, sim in zip(rows, sims.argmax(axis=1).tolist(), sims.max(axis=1).tolist()):
            samples[i] = (years[i], classes[j], _clamp(sim))

    transitions = [
        (curr[0], prev[1], curr[1])
        for prev, curr in zip(samples, samples[1:])
        if curr[1] != prev[1]
    ]
    steps = (1.0 - cosine_similarities(emb[:-1], emb[1:])).tolist()
    magnitudes = [(curr, max(0.0, step)) for curr, step in zip(years[1:], steps)]
    return ClassTrajectory(
        site_id=site.site_id,
        samples=tuple(samples),
        transitions=tuple(transitions),
        change_magnitudes=tuple(magnitudes),
    )
