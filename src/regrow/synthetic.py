"""Synthetic worlds with known ground truth.

Generates class centroids on the unit sphere, stable and changing
reference points, and recovering restoration sites that drift from the
pasture centroid toward the secondary-forest centroid at a per-strategy
rate. Every derived quantity (true class, transition year, noise-free
similarity curve) is recorded so downstream claims can be checked against
an oracle. Forest-family centroids are placed at fixed cosine offsets
from the secondary-forest centroid and all other classes are kept away
from the forest family, so the primary-forest band sits above the pasture
band by construction. No two centroids have a cosine above
1 - ``_CENTROID_MIN_SEPARATION`` (0.8), and the changing reference points
follow the class pairs of ``_TRANSITIONS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import (
    COFFEE,
    EmbeddingVector,
    FOREST_FORMATION,
    FOREST_PLANTATION,
    GRASSLAND,
    LULCClass,
    PASTURE,
    PRIMARY_FOREST,
    ReferencePoint,
    SECONDARY_FOREST,
    SiteRecord,
    SpectralIndices,
    Strategy,
    SUGAR_CANE,
    URBAN,
    WETLAND,
    CovariateSet,
    YearMap,
    stack_rows,
)
from .csvio import write_csv
from .errors import (
    InvalidValueError,
    NonFiniteError,
    SeparationInfeasibleError,
)
from .ingest import DEFAULT_LULC_CODES, Dataset

#: Classes are drawn from this list in order; the first three are required
#: whenever sites are generated (reference, baseline, and start classes).
CLASS_ORDER = (
    SECONDARY_FOREST,
    PRIMARY_FOREST,
    PASTURE,
    FOREST_FORMATION,
    URBAN,
    GRASSLAND,
    SUGAR_CANE,
    COFFEE,
    WETLAND,
    FOREST_PLANTATION,
)

#: Least cosine distance, 1 - cosine, between any two class centroids.
_CENTROID_MIN_SEPARATION = 0.2
#: Cosine similarity of forest-family centroids to the secondary-forest
#: centroid (capped at 1 - _CENTROID_MIN_SEPARATION at generation time).
_FOREST_COSINES = {
    PRIMARY_FOREST: 0.75,
    FOREST_FORMATION: 0.80,
    FOREST_PLANTATION: 0.70,
}
#: Max |cosine| between non-forest centroids and the forest family.
_NON_FOREST_MAX_COS = 0.35

_DEFAULT_RATES = {
    Strategy.NATURAL_REGEN_MGMT: 0.06,
    Strategy.NATURAL_REGEN_NO_MGMT: 0.08,
    Strategy.FULL_AREA_PLANTING: 0.10,
    Strategy.AGROFORESTRY: 0.12,
    Strategy.NOT_IDENTIFIED: 0.04,
}

#: (from, to) classes of the changing reference points, each pair kept
#: only when the world has both classes.
_TRANSITIONS = (
    (FOREST_FORMATION, PASTURE),
    (PASTURE, FOREST_FORMATION),
    (FOREST_FORMATION, URBAN),
)

_BBOX = (-50.0, -24.0, -45.0, -20.0)  # lon_min, lat_min, lon_max, lat_max

_REJECTION_BUDGET = 2000


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for one synthetic world.

    ``recovery_rate_by_strategy`` should hold distinct rates when strategy
    labels are meant to be recoverable from embeddings; equal rates make
    the labels independent of embedding state.
    ``covariate_strategy_signal`` > 0 injects a strategy-dependent offset
    into elevation so environmental features can carry a label signal that
    embeddings do not. ``points_per_transition`` changing points are made
    for each pair of ``_TRANSITIONS``; that pair list and the centroids'
    ``_CENTROID_MIN_SEPARATION`` are constants of this module.
    """

    seed: int = 7
    dim: int = 64
    n_classes: int = 5
    points_per_class: int = 200
    n_sites: int = 200
    noise_sigma: float = 0.05
    years: tuple[int, int] = (2017, 2024)
    lulc_years: tuple[int, int] = (2015, 2024)
    recovery_rate_by_strategy: Mapping[Strategy, float] = field(
        default_factory=lambda: dict(_DEFAULT_RATES)
    )
    start_year_spread: int = 0
    points_per_transition: int = 40
    covariate_strategy_signal: float = 0.0

    def __post_init__(self):
        if self.dim < 2:
            raise InvalidValueError("dim must be >= 2")
        if not 2 <= self.n_classes <= len(CLASS_ORDER):
            raise InvalidValueError(f"n_classes must be in [2, {len(CLASS_ORDER)}]")
        if self.n_sites > 0 and self.n_classes < 3:
            raise InvalidValueError("generating sites requires n_classes >= 3")
        if self.noise_sigma < 0:
            raise InvalidValueError("noise_sigma must be >= 0")
        first, last = self.years
        if first > last:
            raise InvalidValueError("empty year window")
        if self.lulc_years[0] > self.years[0] or self.lulc_years[1] < self.years[1]:
            raise InvalidValueError("lulc_years must cover the embedding years")
        if self.start_year_spread < 0 or first + self.start_year_spread > last:
            raise InvalidValueError("start_year_spread exceeds the year window")
        for strategy in Strategy:
            rate = self.recovery_rate_by_strategy.get(strategy)
            if rate is None or not 0.0 <= rate <= 1.0:
                raise InvalidValueError(f"recovery rate for {strategy.value} must be in [0, 1]")

    @property
    def classes(self) -> tuple[LULCClass, ...]:
        return CLASS_ORDER[: self.n_classes]


@dataclass(frozen=True)
class GroundTruthRecord:
    record_id: str
    kind: str  # "site" | "stable" | "changing"
    true_class: str
    from_class: str
    to_class: str
    transition_year: float | None
    rate: float | None


@dataclass(frozen=True)
class GroundTruth:
    records: Mapping[str, GroundTruthRecord]
    centroids: Mapping[LULCClass, np.ndarray]
    #: Noise-free similarity of each site to the true secondary-forest
    #: centroid, per year.
    expected_similarity: Mapping[str, Mapping[int, float]]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of ``rows`` over its norm; bit-equal to ``_unit`` per row."""
    return rows / np.sqrt(np.vecdot(rows, rows))[:, None]


def _noisy_embeddings(
    years: range, bases: np.ndarray, sigma: float, rng: np.random.Generator
) -> YearMap:
    """One record's embeddings: each year's unit ``bases`` row plus noise.

    The noise of every year comes from one ``(years, dim)`` draw, in the
    order one draw per year would take it. The rows are one read-only
    matrix whose finiteness is checked once.
    """
    if sigma == 0.0:
        rows = np.array(bases, dtype=np.float64)
    else:
        rows = _unit_rows(bases + rng.normal(0.0, sigma, size=bases.shape))
    if not EmbeddingVector.rows_pass(rows):
        raise NonFiniteError("embedding contains NaN or Inf")
    rows.flags.writeable = False
    return YearMap(tuple(years), rows, EmbeddingVector)


def _orthogonal_unit(anchor: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    w = rng.normal(size=anchor.shape)
    w -= np.dot(w, anchor) * anchor
    return _unit(w)


def _sample_centroids(config: SynthConfig, rng: np.random.Generator) -> dict[LULCClass, np.ndarray]:
    max_cos = 1.0 - _CENTROID_MIN_SEPARATION
    centroids: dict[LULCClass, np.ndarray] = {}
    forest_family = [SECONDARY_FOREST]

    secondary = _unit(rng.normal(size=config.dim))
    centroids[SECONDARY_FOREST] = secondary

    for cls in config.classes:
        if cls is SECONDARY_FOREST:
            continue
        if cls in _FOREST_COSINES:
            target = min(_FOREST_COSINES[cls], max_cos)
            w = _orthogonal_unit(secondary, rng)
            centroids[cls] = _unit(target * secondary + math.sqrt(1 - target**2) * w)
            forest_family.append(cls)
            continue
        for _ in range(_REJECTION_BUDGET):
            cand = _unit(rng.normal(size=config.dim))
            cos_all = [float(np.dot(cand, c)) for c in centroids.values()]
            cos_forest = [float(np.dot(cand, centroids[f])) for f in forest_family]
            if max(cos_all) <= max_cos and max(abs(c) for c in cos_forest) <= _NON_FOREST_MAX_COS:
                centroids[cls] = cand
                break
        else:
            raise SeparationInfeasibleError(
                f"could not place centroid for {cls.label} within the retry budget"
            )

    pairs = list(centroids.items())
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if float(np.dot(pairs[i][1], pairs[j][1])) > max_cos + 1e-9:
                raise SeparationInfeasibleError(
                    f"centroids {pairs[i][0].label} and {pairs[j][0].label} violate separation"
                )
    return centroids


def generate_world(config: SynthConfig) -> tuple[Dataset, GroundTruth]:
    """Generate a complete synthetic dataset plus its ground truth.

    Generation is single-threaded and consumes the seeded generator in a
    fixed order (centroids, stable points, changing points, sites), so a
    given config is fully reproducible.
    """
    rng = np.random.default_rng(config.seed)
    centroids = _sample_centroids(config, rng)
    first, last = config.years
    years = range(first, last + 1)
    year_array = np.arange(first, last + 1)
    lulc_span = range(config.lulc_years[0], config.lulc_years[1] + 1)
    lon0, lat0, lon1, lat1 = _BBOX

    records: dict[str, GroundTruthRecord] = {}
    references: list[ReferencePoint] = []

    def random_coords() -> tuple[float, float]:
        return float(rng.uniform(lon0, lon1)), float(rng.uniform(lat0, lat1))

    for cls in config.classes:
        stable_bases = np.broadcast_to(centroids[cls], (len(years), config.dim))
        for i in range(config.points_per_class):
            pid = f"ref_{cls.label}_{i:04d}"
            lon, lat = random_coords()
            embeddings = _noisy_embeddings(years, stable_bases, config.noise_sigma, rng)
            references.append(
                ReferencePoint(
                    point_id=pid,
                    lon=lon,
                    lat=lat,
                    lulc_series={y: cls for y in lulc_span},
                    embeddings=embeddings,
                )
            )
            records[pid] = GroundTruthRecord(
                record_id=pid, kind="stable", true_class=cls.label,
                from_class="", to_class="", transition_year=None, rate=None,
            )

    change_year = 2021  # first year carrying the target class label
    available = set(config.classes)
    for a, b in _TRANSITIONS:
        if a not in available or b not in available:
            continue
        alpha = ((year_array - first) / max(1, last - first))[:, None]
        bases = _unit_rows((1 - alpha) * centroids[a] + alpha * centroids[b])
        for i in range(config.points_per_transition):
            pid = f"chg_{a.label}_{b.label}_{i:04d}"
            lon, lat = random_coords()
            embeddings = _noisy_embeddings(years, bases, config.noise_sigma, rng)
            series = {y: (a if y < change_year else b) for y in lulc_span}
            references.append(
                ReferencePoint(
                    point_id=pid, lon=lon, lat=lat,
                    lulc_series=series, embeddings=embeddings,
                )
            )
            records[pid] = GroundTruthRecord(
                record_id=pid, kind="changing", true_class="",
                from_class=a.label, to_class=b.label,
                transition_year=float(change_year), rate=None,
            )

    strategies = list(Strategy)
    sites: list[SiteRecord] = []
    expected_similarity: dict[str, dict[int, float]] = {}
    pasture = centroids.get(PASTURE)
    secondary = centroids[SECONDARY_FOREST]
    for i in range(config.n_sites):
        sid = f"site_{i:04d}"
        lon, lat = random_coords()
        area = float(rng.uniform(1.0, 50.0))
        start = first + int(rng.integers(0, config.start_year_spread + 1))
        strategy = strategies[int(rng.integers(len(strategies)))]
        rate = float(config.recovery_rate_by_strategy[strategy])

        alpha = np.minimum(1.0, rate * np.maximum(0, year_array - start))
        bases = _unit_rows((1 - alpha)[:, None] * pasture + alpha[:, None] * secondary)
        embeddings = _noisy_embeddings(years, bases, config.noise_sigma, rng)
        expected = dict(zip(years, np.vecdot(bases, secondary).tolist()))

        # Each year draws its NDVI noise, then its EVI noise.
        noise = rng.normal(0.0, 0.02, size=(len(years), 2))
        ndvi = np.clip(0.25 + 0.55 * alpha + noise[:, 0], -1.0, 1.0)
        evi = 0.15 + 0.45 * alpha + noise[:, 1]
        spectral = YearMap(tuple(years), stack_rows(np.column_stack([ndvi, evi])), SpectralIndices)

        strategy_idx = strategies.index(strategy)
        if config.covariate_strategy_signal > 0:
            elevation = float(
                200.0
                + strategy_idx * 150.0 * config.covariate_strategy_signal
                + rng.normal(0.0, 40.0)
            )
        else:
            elevation = float(rng.uniform(100.0, 900.0))
        tmin = float(rng.uniform(8.0, 16.0))
        cov = CovariateSet(
            precip_mm=float(rng.uniform(900.0, 1800.0)),
            tmin_c=tmin,
            tmax_c=tmin + float(rng.uniform(8.0, 18.0)),
            et_mm=float(rng.uniform(600.0, 1200.0)),
            elevation_m=elevation,
            slope_deg=float(rng.uniform(0.0, 30.0)),
            aspect_deg=float(rng.uniform(0.0, 359.9)),
            forest_cover_2km=float(rng.uniform(0.0, 1.0)),
            road_density_5km=float(rng.uniform(0.0, 4.0)),
        )
        covariates = YearMap(tuple(years), stack_rows(np.tile(cov.as_array(), (len(years), 1))),
                             CovariateSet)

        sites.append(
            SiteRecord(
                site_id=sid,
                centroid_lon=lon,
                centroid_lat=lat,
                area_ha=area,
                start_year=start,
                strategy=strategy,
                embeddings=embeddings,
                spectral=spectral,
                covariates=covariates,
                start_lulc=PASTURE,
            )
        )
        crossing = start + 0.5 / rate if rate > 0 else None
        if crossing is not None and crossing > last:
            crossing = None
        records[sid] = GroundTruthRecord(
            record_id=sid, kind="site", true_class="",
            from_class=PASTURE.label, to_class=SECONDARY_FOREST.label,
            transition_year=crossing, rate=rate,
        )
        expected_similarity[sid] = expected

    references.sort(key=lambda p: p.point_id)
    sites.sort(key=lambda s: s.site_id)
    dataset = Dataset(
        sites=tuple(sites), references=tuple(references), window=config.years
    )
    truth = GroundTruth(
        records=records,
        centroids=centroids,
        expected_similarity=expected_similarity,
    )
    return dataset, truth


def write_world(
    dataset: Dataset,
    truth: GroundTruth,
    out_dir: str | Path,
    on_write=None,
    threads: int | None = None,
) -> list[Path]:
    """Write the world in the exact ingest CSV formats plus ground_truth.csv.

    ``on_write`` is called with each path as soon as the file lands, so a
    caller can track partial output even if a later write fails.
    ``threads`` caps the worker processes that format the large tables
    (None: every available core); the files do not depend on it.
    """
    out = Path(out_dir)
    paths: list[Path] = []

    def write(name: str, header, rows) -> None:
        path = write_csv(out / name, header, rows, threads)
        paths.append(path)
        if on_write is not None:
            on_write(path)

    emb_rows = [
        (record_id, year, row)
        for records in (
            ((s.site_id, s.embeddings) for s in dataset.sites),
            ((p.point_id, p.embeddings) for p in dataset.references),
        )
        for record_id, embeddings in records
        for year, row in zip(embeddings.years, embeddings.matrix)
    ]
    emb_rows.sort(key=itemgetter(0, 1))
    dim = emb_rows[-1][2].size if emb_rows else 0
    write(
        "embeddings.csv",
        ["id", "year"] + [f"A{i:02d}" for i in range(dim)],
        emb_rows,
    )
    write(
        "sites.csv",
        ["site_id", "lon", "lat", "area_ha", "start_year", "strategy", "start_lulc"],
        (
            (
                s.site_id, s.centroid_lon, s.centroid_lat, s.area_ha,
                s.start_year, s.strategy.value,
                s.start_lulc.label if s.start_lulc else "",
            )
            for s in dataset.sites
        ),
    )
    write(
        "spectral.csv",
        ["id", "year", "ndvi", "evi"],
        (
            (s.site_id, year, row)
            for s in dataset.sites
            for year, row in zip(s.spectral.years, s.spectral.matrix)
        ),
    )
    write(
        "covariates.csv",
        ["id", "year", *CovariateSet.FIELD_NAMES],
        (
            (s.site_id, year, row)
            for s in dataset.sites
            for year, row in zip(s.covariates.years, s.covariates.matrix)
        ),
    )

    lulc_years = sorted({y for p in dataset.references for y in p.lulc_series})
    name_to_code = {cls.name: code for code, cls in DEFAULT_LULC_CODES.entries()}
    write(
        "reference_points.csv",
        ["point_id", "lon", "lat"] + [f"lulc_{y}" for y in lulc_years],
        (
            (
                p.point_id, p.lon, p.lat,
                *(name_to_code[p.lulc_series[y].name] for y in lulc_years),
            )
            for p in dataset.references
        ),
    )
    write(
        "lulc_codes.csv",
        ["code", "name"],
        ((code, cls.name) for code, cls in DEFAULT_LULC_CODES.entries()),
    )
    write(
        "ground_truth.csv",
        ["id", "kind", "true_class", "from", "to", "transition_year", "rate"],
        (
            (
                r.record_id, r.kind, r.true_class, r.from_class, r.to_class,
                r.transition_year, r.rate,
            )
            for r in sorted(truth.records.values(), key=lambda r: r.record_id)
        ),
    )
    return paths
