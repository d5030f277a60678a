"""Shared domain types for the restoration analytics engine.

All types are immutable value objects: invariants are checked at
construction time and instances are safe to share between threads.
Per-year maps are stored sorted by year so iteration order (and therefore
any reduction over them) is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InvalidValueError,
    NonFiniteError,
    WrongDimensionError,
    ZeroVectorError,
)

DEFAULT_EMBEDDING_DIM = 64
DEFAULT_YEAR_WINDOW = (2017, 2024)

#: Class names the engine knows about. Anything else is Other(code).
KNOWN_LULC_NAMES = (
    "PrimaryForest",
    "SecondaryForest",
    "ForestFormation",
    "ForestPlantation",
    "Wetland",
    "SugarCane",
    "Coffee",
    "Grassland",
    "Pasture",
    "Urban",
)


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """A fixed-dimension real embedding vector for one site/point and year.

    Entries must be finite; unit norm is not required (cosine similarity
    normalizes internally). The wrapped array is float64 and read-only.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise WrongDimensionError(
                f"embedding must be a non-empty 1-D vector, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("embedding contains NaN or Inf")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def _trusted(cls, row: np.ndarray) -> "EmbeddingVector":
        """Wrap ``row`` without copying or checking it.

        For ingest only: ``row`` is a read-only 1-D float64 view of a matrix
        whose shape and finiteness the caller checked once as a whole.
        """
        vec = object.__new__(cls)
        object.__setattr__(vec, "values", row)
        return vec

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingVector):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.all(self.values == other.values)
        )

    def __hash__(self):
        return hash((self.values.shape[0], self.values.tobytes()))

    def __repr__(self) -> str:
        return f"EmbeddingVector(dim={self.dim})"


def validate_embedding(values: Sequence[float] | np.ndarray, dim: int) -> EmbeddingVector:
    """Validate raw values against the dataset-wide dimension ``dim``.

    Raises WrongDimensionError on a length mismatch and NonFiniteError if
    any entry is NaN or Inf.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise WrongDimensionError(
            f"expected {dim} values, got {arr.shape[0] if arr.ndim == 1 else arr.shape}"
        )
    return EmbeddingVector(arr)


@dataclass(frozen=True, eq=False)
class LULCClass:
    """A land-use/land-cover class.

    ``name`` is one of KNOWN_LULC_NAMES or the literal "Other"; unknown
    source-map codes are preserved as Other(code) rather than dropped so
    outlier audits can still report them. Identity for known classes is
    the name alone (the numeric code is per-configuration metadata);
    Other classes are distinguished by code.
    """

    name: str
    code: int | None = None

    def __post_init__(self):
        if self.name == "Other":
            if self.code is None:
                raise InvalidValueError("Other LULC class requires a code")
        elif self.name not in KNOWN_LULC_NAMES:
            raise InvalidValueError(f"unknown LULC class name: {self.name!r}")

    @property
    def is_other(self) -> bool:
        return self.name == "Other"

    @property
    def label(self) -> str:
        """Stable display/CSV label, e.g. "Pasture" or "Other(99)"."""
        return f"Other({self.code})" if self.is_other else self.name

    def _key(self):
        return ("Other", self.code) if self.is_other else self.name

    def __eq__(self, other) -> bool:
        if not isinstance(other, LULCClass):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return f"LULCClass({self.label})"


PRIMARY_FOREST = LULCClass("PrimaryForest")
SECONDARY_FOREST = LULCClass("SecondaryForest")
FOREST_FORMATION = LULCClass("ForestFormation")
FOREST_PLANTATION = LULCClass("ForestPlantation")
WETLAND = LULCClass("Wetland")
SUGAR_CANE = LULCClass("SugarCane")
COFFEE = LULCClass("Coffee")
GRASSLAND = LULCClass("Grassland")
PASTURE = LULCClass("Pasture")
URBAN = LULCClass("Urban")


class StabilityKind(Enum):
    STABLE = "stable"
    CHANGING = "changing"
    NEITHER = "neither"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class Stability:
    """Stable/changing classification of a reference point's label series.

    Use the ``stable`` / ``changing`` / ``neither`` constructors. Points
    come out of ingest as ``unclassified`` until the reference engine runs.
    """

    kind: StabilityKind
    stable_class: LULCClass | None = None
    from_class: LULCClass | None = None
    to_class: LULCClass | None = None

    def __post_init__(self):
        if self.kind is StabilityKind.STABLE and self.stable_class is None:
            raise InvalidValueError("Stable requires a class")
        if self.kind is StabilityKind.CHANGING:
            if self.from_class is None or self.to_class is None:
                raise InvalidValueError("Changing requires from and to classes")
            if self.from_class == self.to_class:
                raise InvalidValueError("Changing requires from != to")

    @classmethod
    def stable(cls, lulc: LULCClass) -> "Stability":
        return cls(StabilityKind.STABLE, stable_class=lulc)

    @classmethod
    def changing(cls, from_class: LULCClass, to_class: LULCClass) -> "Stability":
        return cls(StabilityKind.CHANGING, from_class=from_class, to_class=to_class)

    @classmethod
    def neither(cls) -> "Stability":
        return cls(StabilityKind.NEITHER)

    @classmethod
    def unclassified(cls) -> "Stability":
        return cls(StabilityKind.UNCLASSIFIED)

    @property
    def label(self) -> str:
        if self.kind is StabilityKind.STABLE:
            return f"Stable({self.stable_class.label})"
        if self.kind is StabilityKind.CHANGING:
            return f"Changing({self.from_class.label}->{self.to_class.label})"
        return self.kind.value.capitalize()


class Strategy(Enum):
    """The five restoration strategy categories."""

    NATURAL_REGEN_MGMT = "NaturalRegenMgmt"
    NATURAL_REGEN_NO_MGMT = "NaturalRegenNoMgmt"
    FULL_AREA_PLANTING = "FullAreaPlanting"
    AGROFORESTRY = "Agroforestry"
    NOT_IDENTIFIED = "NotIdentified"


_STRATEGY_ALIASES = {
    "natural generation with management": Strategy.NATURAL_REGEN_MGMT,
    "natural regeneration with management": Strategy.NATURAL_REGEN_MGMT,
    "natural generation without management": Strategy.NATURAL_REGEN_NO_MGMT,
    "natural regeneration without management": Strategy.NATURAL_REGEN_NO_MGMT,
    "full-area planting": Strategy.FULL_AREA_PLANTING,
    "full area planting": Strategy.FULL_AREA_PLANTING,
    "agroforestry systems": Strategy.AGROFORESTRY,
    "agroforestry": Strategy.AGROFORESTRY,
    "not identified": Strategy.NOT_IDENTIFIED,
}
_STRATEGY_ALIASES.update({s.value.lower(): s for s in Strategy})
_STRATEGY_ALIASES.update({s.name.lower(): s for s in Strategy})


def parse_strategy(text: str) -> Strategy:
    """Map a source string onto a Strategy. Empty strings mean NotIdentified.

    Raises UnknownStrategyError for a non-empty string outside the five
    categories.
    """
    from .errors import UnknownStrategyError

    cleaned = " ".join(text.split()).lower()
    if not cleaned:
        return Strategy.NOT_IDENTIFIED
    try:
        return _STRATEGY_ALIASES[cleaned]
    except KeyError:
        raise UnknownStrategyError(f"unknown restoration strategy: {text!r}") from None


@dataclass(frozen=True)
class CovariateSet:
    """Environmental covariates for one site and year."""

    precip_mm: float
    tmin_c: float
    tmax_c: float
    et_mm: float
    elevation_m: float
    slope_deg: float
    aspect_deg: float
    forest_cover_2km: float
    road_density_5km: float

    #: Field order used everywhere a covariate feature block is built.
    FIELD_NAMES = (
        "precip_mm",
        "tmin_c",
        "tmax_c",
        "et_mm",
        "elevation_m",
        "slope_deg",
        "aspect_deg",
        "forest_cover_2km",
        "road_density_5km",
    )

    def __post_init__(self):
        checks = [
            (self.precip_mm >= 0, "precip_mm must be >= 0"),
            (self.et_mm >= 0, "et_mm must be >= 0"),
            (self.tmin_c <= self.tmax_c, "tmin_c must be <= tmax_c"),
            (0 <= self.slope_deg <= 90, "slope_deg must be in [0, 90]"),
            (0 <= self.aspect_deg < 360, "aspect_deg must be in [0, 360)"),
            (0 <= self.forest_cover_2km <= 1, "forest_cover_2km must be in [0, 1]"),
            (self.road_density_5km >= 0, "road_density_5km must be >= 0"),
        ]
        for ok, msg in checks:
            if not ok:
                raise InvalidValueError(msg)

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in self.FIELD_NAMES], dtype=np.float64)


@dataclass(frozen=True)
class SpectralIndices:
    """Annual NDVI/EVI composite values for one site and year."""

    ndvi: float
    evi: float

    def __post_init__(self):
        if not -1.0 <= self.ndvi <= 1.0:
            raise InvalidValueError(f"ndvi must be in [-1, 1], got {self.ndvi}")


def _sorted_year_map(mapping: Mapping[int, object]) -> dict:
    return {int(y): mapping[y] for y in sorted(mapping)}


@dataclass(frozen=True)
class SiteRecord:
    """One restoration polygon: metadata plus per-year measurements.

    The per-year maps are sparse; a missing year simply means the upstream
    export had no value. ``start_lulc`` is the land-cover class of the site
    at its start year and may be absent.
    """

    site_id: str
    centroid_lon: float
    centroid_lat: float
    area_ha: float
    start_year: int
    strategy: Strategy
    embeddings: Mapping[int, EmbeddingVector] = field(default_factory=dict)
    spectral: Mapping[int, SpectralIndices] = field(default_factory=dict)
    covariates: Mapping[int, CovariateSet] = field(default_factory=dict)
    start_lulc: LULCClass | None = None

    def __post_init__(self):
        if not self.site_id:
            raise InvalidValueError("site_id must be non-empty")
        _check_coordinates(self.centroid_lon, self.centroid_lat)
        if not self.area_ha > 0:
            raise InvalidValueError(f"area_ha must be > 0, got {self.area_ha}")
        if not isinstance(self.strategy, Strategy):
            raise InvalidValueError("strategy must be a Strategy value")
        for name in ("embeddings", "spectral", "covariates"):
            object.__setattr__(self, name, _sorted_year_map(getattr(self, name)))

    def embedding_years(self) -> tuple[int, ...]:
        return tuple(self.embeddings)

    def delta_t(self, year: int) -> int:
        return year - self.start_year


@dataclass(frozen=True)
class ReferencePoint:
    """A sampled reference pixel with its annual label series and embeddings."""

    point_id: str
    lon: float
    lat: float
    lulc_series: Mapping[int, LULCClass] = field(default_factory=dict)
    embeddings: Mapping[int, EmbeddingVector] = field(default_factory=dict)
    stability: Stability = field(default_factory=Stability.unclassified)

    def __post_init__(self):
        if not self.point_id:
            raise InvalidValueError("point_id must be non-empty")
        _check_coordinates(self.lon, self.lat)
        series = _sorted_year_map(self.lulc_series)
        years = list(series)
        if years and years != list(range(years[0], years[-1] + 1)):
            raise InvalidValueError(
                f"lulc_series must cover a contiguous year range, got {years}"
            )
        object.__setattr__(self, "lulc_series", series)
        object.__setattr__(self, "embeddings", _sorted_year_map(self.embeddings))

    def with_stability(self, stability: Stability) -> "ReferencePoint":
        return ReferencePoint(
            point_id=self.point_id,
            lon=self.lon,
            lat=self.lat,
            lulc_series=self.lulc_series,
            embeddings=self.embeddings,
            stability=stability,
        )


def _check_coordinates(lon: float, lat: float):
    if not -180.0 <= lon <= 180.0:
        raise InvalidValueError(f"longitude out of range: {lon}")
    if not -90.0 <= lat <= 90.0:
        raise InvalidValueError(f"latitude out of range: {lat}")


def cosine_similarities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity (a.b)/(|a||b|) over the last axis, broadcasting the rest.

    ``a`` of shape (..., d) and ``b`` of shape (..., d) give an array of the
    broadcast shape of ``a.shape[:-1]`` and ``b.shape[:-1]``. Each entry is
    bitwise equal to ``cosine_similarity`` of the same two vectors: on
    C-contiguous rows ``np.vecdot`` and ``sqrt(np.vecdot(x, x))`` round as
    ``np.dot`` and ``np.linalg.norm`` do (``a @ b`` and ``einsum`` do not).
    Raises ZeroVectorError if any vector has zero norm and
    WrongDimensionError if the last axes differ.
    """
    # Strided rows would reach BLAS with a stride and sum in another order.
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape[-1] != b.shape[-1]:
        raise WrongDimensionError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    norm_a = np.sqrt(np.vecdot(a, a))
    norm_b = np.sqrt(np.vecdot(b, b))
    if not (norm_a.all() and norm_b.all()):
        raise ZeroVectorError("cosine similarity undefined for a zero vector")
    return np.vecdot(a, b) / (norm_a * norm_b)


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine similarity (a.b)/(|a||b|) of two same-dimension vectors.

    The result lies in [-1, 1] up to floating-point rounding. Raises
    ZeroVectorError if either vector has zero norm and WrongDimensionError
    on a dimension mismatch.
    """
    return float(cosine_similarities(a.values, b.values))
