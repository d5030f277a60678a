"""Exception hierarchy for the regrow engine.

Every error carries a short machine-readable ``code`` so the CLI can emit a
structured error record. Input errors additionally carry the file they were
found in and the 1-based line number of the offending CSV row (line 1 is the
header).
"""

from __future__ import annotations


class RegrowError(Exception):
    """Base class for all engine errors."""

    code = "error"

    def __init__(self, message: str, *, line: int | None = None, file: str | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.file = file

    def locate(self, file, line: int | None) -> "RegrowError":
        """Fill in the file and line this error was found at, where not yet known."""
        if self.file is None:
            self.file = str(file)
        if self.line is None:
            self.line = line
        return self

    def __str__(self) -> str:
        where = [self.file] if self.file is not None else []
        if self.line is not None:
            where.append(f"line {self.line}")
        return ": ".join([*where, self.message])


class InvalidValueError(RegrowError):
    """A domain value violates one of its declared invariants."""

    code = "invalid_value"


class WrongDimensionError(RegrowError):
    code = "wrong_dimension"


class NonFiniteError(RegrowError):
    code = "non_finite"


class CsvParseError(RegrowError):
    code = "parse_error"


class MissingColumnError(RegrowError):
    code = "missing_column"


class DuplicateKeyError(RegrowError):
    code = "duplicate_key"


class UnknownStrategyError(RegrowError):
    code = "unknown_strategy"


class MissingMetadataFieldError(RegrowError):
    code = "missing_metadata_field"


class MissingYearColumnError(RegrowError):
    code = "missing_year_column"


class InsufficientSeriesError(RegrowError):
    code = "insufficient_series"


class NoSecondaryForestPointsError(RegrowError):
    code = "no_secondary_forest_points"


class NoCentroidForClassError(RegrowError):
    code = "no_centroid_for_class"


class ZeroVectorError(RegrowError):
    code = "zero_vector"


class NoEmbeddingsError(RegrowError):
    code = "no_embeddings"


class TooFewCentroidsError(RegrowError):
    code = "too_few_centroids"


class MissingBaselineClassError(RegrowError):
    code = "missing_baseline_class"


class DegenerateDataError(RegrowError):
    code = "degenerate_data"


class SingleClusterError(RegrowError):
    code = "single_cluster"


class TooFewPointsError(RegrowError):
    code = "too_few_points"


class MissingFeatureError(RegrowError):
    code = "missing_feature"


class SingularSystemError(RegrowError):
    code = "singular_system"


class SingleClassError(RegrowError):
    code = "single_class"


class FoldTooSmallError(RegrowError):
    code = "fold_too_small"


class SeparationInfeasibleError(RegrowError):
    code = "separation_infeasible"
