"""Shared domain types for the restoration analytics engine.

All types are immutable value objects: invariants are checked at
construction time and instances are safe to share between threads.
Per-year maps are read-only ``YearMap``s: one matrix row per year, sorted
by year, so iteration order (and therefore any reduction over them) is
deterministic.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InvalidValueError,
    NonFiniteError,
    WrongDimensionError,
    ZeroVectorError,
)

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
        if not self.rows_pass(arr):
            raise NonFiniteError("embedding contains NaN or Inf")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @staticmethod
    def rows_pass(matrix: np.ndarray) -> bool:
        """Whether every entry is finite, the one rule of an embedding."""
        return bool(np.isfinite(matrix).all())

    @classmethod
    def _trusted(cls, row: np.ndarray) -> "EmbeddingVector":
        """Wrap ``row`` without copying or checking it.

        For ``YearMap`` only: ``row`` is a read-only 1-D float64 view of a
        matrix whose shape and finiteness were checked once as a whole.
        """
        vec = object.__new__(cls)
        object.__setattr__(vec, "values", row)
        return vec

    def as_array(self) -> np.ndarray:
        return self.values

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
    any entry is NaN or Inf. Nothing in the package calls it: it is public
    for callers that build vectors from their own rows, and the ingest
    tests' cell-by-cell oracle builds its expected vectors with it.
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
        if self is other:  # a code map gives out one instance per code
            return True
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


class _Fields:
    """A row of named floats, ``FIELD_NAMES`` in declared order (the column
    order of every table and feature block), that ``RULES`` constrain.

    A rule is (message, predicate). A predicate reads the fields as
    attributes, with ``&`` for "and", so it checks one value at construction
    and, in ``rows_pass``, every row of a table's matrix at once.
    """

    def __init_subclass__(cls):
        cls.FIELD_NAMES = tuple(cls.__annotations__)

    def __post_init__(self):
        for message, ok in self.RULES:
            if not ok(self):
                raise InvalidValueError(message.format(**vars(self)))

    @classmethod
    def rows_pass(cls, matrix: np.ndarray) -> bool:
        """Whether every row of ``matrix`` keeps every rule."""
        columns = SimpleNamespace(**dict(zip(cls.FIELD_NAMES, matrix.T)))
        return all(np.all(ok(columns)) for _, ok in cls.RULES)

    @classmethod
    def _trusted(cls, row: np.ndarray):
        """A value of ``row``'s fields as Python floats, not checked again (see ``YearMap``)."""
        value = object.__new__(cls)
        value.__dict__.update(zip(cls.FIELD_NAMES, row.tolist()))
        return value

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in self.FIELD_NAMES], dtype=np.float64)


@dataclass(frozen=True)
class CovariateSet(_Fields):
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

    RULES = (
        ("precip_mm must be >= 0", lambda c: c.precip_mm >= 0),
        ("et_mm must be >= 0", lambda c: c.et_mm >= 0),
        ("tmin_c must be <= tmax_c", lambda c: c.tmin_c <= c.tmax_c),
        ("slope_deg must be in [0, 90]", lambda c: (0 <= c.slope_deg) & (c.slope_deg <= 90)),
        ("aspect_deg must be in [0, 360)", lambda c: (0 <= c.aspect_deg) & (c.aspect_deg < 360)),
        ("forest_cover_2km must be in [0, 1]",
         lambda c: (0 <= c.forest_cover_2km) & (c.forest_cover_2km <= 1)),
        ("road_density_5km must be >= 0", lambda c: c.road_density_5km >= 0),
    )


@dataclass(frozen=True)
class SpectralIndices(_Fields):
    """Annual NDVI/EVI composite values for one site and year."""

    ndvi: float
    evi: float

    RULES = (("ndvi must be in [-1, 1], got {ndvi}", lambda s: (-1.0 <= s.ndvi) & (s.ndvi <= 1.0)),)


def stack_rows(rows: Sequence) -> np.ndarray:
    """``rows`` as one read-only float64 matrix; (0, 0) when there are none."""
    matrix = np.array(rows, dtype=np.float64) if len(rows) else np.empty((0, 0))
    matrix.flags.writeable = False
    return matrix


def design_matrix(features) -> np.ndarray:
    """``features`` as the float64 matrix a model fits: two-dimensional with
    one or more columns (else WrongDimensionError), every value finite (else
    InvalidValueError)."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0:
        raise WrongDimensionError(
            f"a model takes a design of one or more columns, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise InvalidValueError("model features must be finite (impute NaNs first)")
    return X


class YearMap(Mapping):
    """A read-only ``{year: value}`` map: ``years``, a sorted tuple, and
    ``matrix``, their read-only C-contiguous float64 rows, often a view of a
    whole table. ``kind`` (EmbeddingVector, SpectralIndices or CovariateSet)
    wraps a row, checked with the whole matrix, only when it is read.
    """

    __slots__ = ("years", "matrix", "kind")

    def __init__(self, years: tuple[int, ...], matrix: np.ndarray, kind: type):
        self.years, self.matrix, self.kind = years, matrix, kind

    @classmethod
    def from_mapping(cls, mapping: Mapping, kind: type) -> "YearMap":
        """``mapping`` itself if it is a YearMap, else its values' rows sorted by year."""
        if isinstance(mapping, YearMap):
            return mapping
        years = sorted(mapping)
        return cls(tuple(map(int, years)), stack_rows([mapping[y].as_array() for y in years]), kind)

    def row(self, year: int) -> np.ndarray:
        """The matrix row of ``year``; KeyError if there is none."""
        if year not in self.years:
            raise KeyError(year)
        return self.matrix[self.years.index(year)]

    def __getitem__(self, year: int):
        return self.kind._trusted(self.row(year))

    def __contains__(self, year) -> bool:
        return year in self.years

    def __iter__(self):
        return iter(self.years)

    def __len__(self) -> int:
        return len(self.years)

    def __repr__(self) -> str:
        return f"YearMap({self.kind.__name__}, years={self.years})"


_YEAR_MAPS = (("embeddings", EmbeddingVector), ("spectral", SpectralIndices),
              ("covariates", CovariateSet))


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
        for name, kind in _YEAR_MAPS:
            object.__setattr__(self, name, YearMap.from_mapping(getattr(self, name), kind))

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
        series = {int(y): self.lulc_series[y] for y in sorted(self.lulc_series)}
        years = list(series)
        if years and years != list(range(years[0], years[-1] + 1)):
            raise InvalidValueError(
                f"lulc_series must cover a contiguous year range, got {years}"
            )
        object.__setattr__(self, "lulc_series", series)
        embeddings = YearMap.from_mapping(self.embeddings, EmbeddingVector)
        object.__setattr__(self, "embeddings", embeddings)

    def with_stability(self, stability: Stability) -> "ReferencePoint":
        """This point with ``stability``; its maps, already checked, are shared as they are."""
        point = copy.copy(self)
        object.__setattr__(point, "stability", stability)
        return point


def _check_coordinates(lon: float, lat: float):
    if not -180.0 <= lon <= 180.0:
        raise InvalidValueError(f"longitude out of range: {lon}")
    if not -90.0 <= lat <= 90.0:
        raise InvalidValueError(f"latitude out of range: {lat}")


# Squared norms in [2**-800, 2**800] keep every norm, product of norms and
# dot product that the cosine needs clear of underflow and overflow.
_SAFE_SQUARED_NORMS = (2.0**-800, 2.0**800)


def _in_safe_range(squared: np.ndarray) -> bool:
    lo, hi = _SAFE_SQUARED_NORMS
    return bool(((squared >= lo) & (squared <= hi)).all())


def _rescaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` with each row scaled by the power of two that brings its largest
    entry into [0.5, 1), and the squared row norms of the result.

    A power-of-two scale is exact and cancels in the cosine; a tiny row such
    as (0, 0, 1e-160) no longer loses its squared norm to subnormal rounding.
    """
    _, exponent = np.frexp(np.abs(x).max(axis=-1, keepdims=True))
    x = np.ldexp(x, -exponent)
    return x, np.vecdot(x, x)


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
    squared_a = np.vecdot(a, a)
    squared_b = np.vecdot(b, b)
    # Zero is outside the safe range, so the zero check costs nothing more
    # where every norm is in range; rescaling keeps the bits of those rows.
    # A squared norm that overflows still draws numpy's RuntimeWarning.
    if not (_in_safe_range(squared_a) and _in_safe_range(squared_b)):
        a, squared_a = _rescaled(a)
        b, squared_b = _rescaled(b)
        if not (squared_a.all() and squared_b.all()):
            raise ZeroVectorError("cosine similarity undefined for a zero vector")
    return np.vecdot(a, b) / (np.sqrt(squared_a) * np.sqrt(squared_b))


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine similarity (a.b)/(|a||b|) of two same-dimension vectors.

    The result lies in [-1, 1] up to floating-point rounding. Raises
    ZeroVectorError if either vector has zero norm and WrongDimensionError
    on a dimension mismatch.
    """
    return float(cosine_similarities(a.values, b.values))
