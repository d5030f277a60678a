"""Parse, validate, join, and filter the input tables.

File formats (UTF-8 CSV with a header row, `.` decimal point):

- embeddings.csv        id,year,A00,...  (dimension = number of A-columns)
- sites.csv             site_id,lon,lat,area_ha,start_year,strategy,start_lulc
- spectral.csv          id,year,ndvi,evi
- covariates.csv        id,year,precip_mm,tmin_c,tmax_c,et_mm,elevation_m,
                        slope_deg,aspect_deg,forest_cover_2km,road_density_5km
- reference_points.csv  point_id,lon,lat,lulc_<Y> for each configured year Y
- lulc_codes.csv        code,name

Parse contract:

- A numeric cell parses exactly as Python ``float()`` parses it and must be
  finite: NaN or Inf anywhere raises NonFiniteError. Years and LULC codes
  parse as ``int()``.
- Quoting and line ends follow the ``csv`` module: a quoted file, CRLF and
  lone-CR line ends read the same as the plain file. Blank lines are skipped
  but counted.
- Every ingest error names its file and the 1-based line of the row at
  fault (line 1 is the header). An error about a table as a whole, such as
  a duplicate class name in lulc_codes.csv, names the file only.

Each file is read once. A table's numeric columns are parsed in one
``np.fromstring`` call, which rounds as ``float()`` does. If that pass meets
anything unusual (a quoted file, a wrong field count, a cell numpy cannot
read, blanks in a cell, a non-finite value) the table is parsed again cell
by cell, which raises at the right line or accepts what ``float()`` accepts
and numpy does not, such as ``1_0``. Files that ``regrow synth`` writes
never take that path.

Loading is order-independent: outputs are keyed or sorted by id, so a
shuffled input yields an identical Dataset.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import (
    CovariateSet,
    EmbeddingVector,
    LULCClass,
    ReferencePoint,
    SiteRecord,
    SpectralIndices,
    parse_strategy,
    validate_embedding,
)
from .errors import (
    CsvParseError,
    DuplicateKeyError,
    InvalidValueError,
    MissingColumnError,
    MissingMetadataFieldError,
    MissingYearColumnError,
    NonFiniteError,
    RegrowError,
)

log = logging.getLogger("regrow.ingest")

DEFAULT_LULC_YEARS = (2015, 2024)


class LULCCodeMap:
    """Bijective code<->name mapping for known classes.

    Unknown codes are mapped to Other(code) and a warning is logged; they
    are never dropped silently.
    """

    def __init__(self, entries: Mapping[int, str]):
        self._by_code: dict[int, LULCClass] = {}
        self._by_name: dict[str, LULCClass] = {}
        for code, name in sorted(entries.items()):
            if name in self._by_name:
                raise InvalidValueError(f"duplicate LULC name in code table: {name!r}")
            cls = LULCClass(name, code)
            self._by_code[code] = cls
            self._by_name[name] = cls

    def class_for_code(self, code: int) -> LULCClass:
        cls = self._by_code.get(code)
        if cls is None:
            log.warning("unmapped LULC code %d kept as Other(%d)", code, code)
            cls = LULCClass("Other", code)
        return cls

    def class_for_name(self, name: str) -> LULCClass:
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidValueError(f"unknown LULC class label: {name!r}") from None

    def entries(self) -> list[tuple[int, LULCClass]]:
        return sorted(self._by_code.items())


#: Placeholder defaults used by the synthetic generator and tests; real data
#: supplies its own lulc_codes.csv.
DEFAULT_LULC_CODES = LULCCodeMap(
    {
        1: "PrimaryForest",
        2: "SecondaryForest",
        3: "ForestFormation",
        4: "ForestPlantation",
        5: "Wetland",
        6: "SugarCane",
        7: "Coffee",
        8: "Grassland",
        9: "Pasture",
        10: "Urban",
    }
)


@dataclass(frozen=True)
class Dataset:
    """The joined study dataset: sites plus reference points."""

    sites: tuple[SiteRecord, ...]
    references: tuple[ReferencePoint, ...]
    window: tuple[int, int]

    def __post_init__(self):
        first, last = self.window
        if first > last:
            raise InvalidValueError(f"empty year window: {self.window}")
        site_ids = [s.site_id for s in self.sites]
        if len(set(site_ids)) != len(site_ids):
            raise InvalidValueError("duplicate site_id in dataset")
        point_ids = [p.point_id for p in self.references]
        if len(set(point_ids)) != len(point_ids):
            raise InvalidValueError("duplicate point_id in dataset")


@dataclass(frozen=True)
class FilterReport:
    """Drop funnel for filter_sites: sequential per-reason counts."""

    n_input: int
    stages: tuple[tuple[str, int, int], ...]  # (reason, dropped, remaining)


class _Table:
    """One input CSV, read once: its stripped header and its non-blank data rows.

    Use it as a context manager: a RegrowError raised inside the ``with``
    block is located at this file and, unless it names its own line, at the
    line being read (1 while the header is checked, then each row's line in
    turn, none once every row has been read).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.line: int | None = 1
        data = self.path.read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise CsvParseError(f"not UTF-8 ({exc.reason})", line=line, file=str(self.path)) from None
        del data
        self._quoted = '"' in text
        if self._quoted:
            # Quoted fields may hold commas and line breaks: csv splits them.
            records = list(csv.reader(io.StringIO(text, newline="")))
        else:
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            records = text.split("\n")
            if records[-1] == "":
                records.pop()
        del text
        if not records:
            raise CsvParseError("file is empty (no header row)", line=1, file=str(self.path))
        header = records[0]
        if isinstance(header, str):
            header = header.split(",") if header else []
        self.header = [h.strip() for h in header]
        # (line, record): the record's text, or its fields for a quoted file.
        # Blank records are skipped but keep their line numbers, as csv does.
        self._records = [(i, rec) for i, rec in enumerate(records[1:], start=2) if rec]

    def __enter__(self) -> "_Table":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if isinstance(exc, RegrowError):
            exc.locate(self.path, self.line)
        return False

    def rows(self, first: int, count: int, width: int, *, exact: bool = True):
        """Yield ``(line, fields, cells)`` for each data row, in file order.

        ``cells`` are the ``count`` numeric columns starting at column
        ``first`` and ``fields`` the row's other columns, in order. A row
        must have ``width`` fields (at least ``width`` if not ``exact``), else
        MissingColumnError. ``cells`` is a read-only float64 row of one
        matrix when the bulk parse of the whole table succeeded, else the
        text of each cell, which ``_floats`` parses in the loader's order of
        checks.
        """
        bulk = self._parse_bulk(first, count, width) if count else None
        if bulk is not None:
            fields, matrix = bulk
            for (line, other), cells in zip(fields, matrix):
                self.line = line
                yield line, other, cells
        else:
            for line, rec in self._records:
                self.line = line
                row = rec.split(",") if isinstance(rec, str) else rec
                if (len(row) != width) if exact else (len(row) < width):
                    raise MissingColumnError(f"expected {width} fields, got {len(row)}", line=line)
                yield line, row[:first] + row[first + count:], row[first:first + count]
        self.line = None

    def _parse_bulk(self, first: int, count: int, width: int):
        """Parse the numeric cells of every row in one call, or None on any anomaly.

        Returns ([(line, other fields), ...], read-only (rows, count) matrix).
        An anomaly is a quoted file, a row without exactly ``width`` fields, a
        cell numpy cannot parse, or a non-finite value; the caller then reads
        the table cell by cell, which raises at the right line or accepts
        what ``float()`` accepts and numpy does not (such as ``1_0``).
        """
        if self._quoted:
            return None
        n_after = width - first - count
        fields, blocks = [], []
        for line, rec in self._records:
            if rec.count(",") != width - 1:
                return None
            other = rec.split(",", first)
            block = other.pop()
            if n_after:
                tail = block.rsplit(",", n_after)
                block = tail.pop(0)
                other += tail
            fields.append((line, other))
            blocks.append(block)
        joined = ",".join(blocks)
        del blocks
        # numpy, like float(), skips blanks around a number, but it reads a
        # blank cell as -1; cells with blanks are left to the cell-by-cell path.
        if any(blank in joined for blank in " \t\v\f"):
            return None
        try:
            values = np.fromstring(joined, sep=",")
        except ValueError:
            return None
        if values.size != len(fields) * count or not np.isfinite(values).all():
            return None
        matrix = values.reshape(len(fields), count)
        matrix.flags.writeable = False
        return fields, matrix


def _parse_float(text: str, what: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CsvParseError(f"bad {what}: {text!r}", line=line) from None
    if not math.isfinite(value):
        raise NonFiniteError(f"non-finite {what}: {text!r}", line=line)
    return value


def _parse_int(text: str, what: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise CsvParseError(f"bad {what}: {text!r}", line=line) from None


def _floats(cells, names: Sequence[str], line: int) -> list[float]:
    """A row's numeric cells as floats: bulk-parsed as they are, text one cell at a time."""
    if isinstance(cells, np.ndarray):
        return cells.tolist()
    return [_parse_float(text, name, line) for text, name in zip(cells, names)]


def load_lulc_codes(path: str | Path) -> LULCCodeMap:
    with _Table(path) as table:
        if table.header[:2] != ["code", "name"]:
            raise MissingColumnError(f"expected header code,name, got {table.header}")
        entries: dict[int, str] = {}
        for line, (code_text, name), _ in table.rows(0, 0, 2):
            code = _parse_int(code_text, "code", line)
            if code in entries:
                raise DuplicateKeyError(f"duplicate LULC code {code}", line=line)
            entries[code] = name.strip()
        return LULCCodeMap(entries)


def load_embeddings(path: str | Path) -> dict[tuple[str, int], EmbeddingVector]:
    """Load per-(id, year) embedding vectors.

    The dimension is inferred from the header (number of A-columns) and
    must be constant; a row with a different field count raises
    MissingColumnError with its line number. The vectors of a file are
    read-only rows of one float64 matrix.
    """
    with _Table(path) as table:
        header = table.header
        if len(header) < 3 or header[0] != "id" or header[1] != "year":
            raise MissingColumnError(f"expected header id,year,A00,..., got {header[:3]}")
        bad = [c for c in header[2:] if not c.startswith("A")]
        if bad:
            raise MissingColumnError(f"non-embedding columns after id,year: {bad}")
        dim = len(header) - 2
        names = ["embedding value"] * dim
        out: dict[tuple[str, int], EmbeddingVector] = {}
        for line, (rid, year), cells in table.rows(2, dim, len(header)):
            key = (rid, _parse_int(year, "year", line))
            if key in out:
                raise DuplicateKeyError(f"duplicate embedding key {key}", line=line)
            if isinstance(cells, np.ndarray):
                out[key] = EmbeddingVector._trusted(cells)
            else:
                out[key] = validate_embedding(_floats(cells, names, line), dim)
    return out


def _load_spectral(path: str | Path) -> dict[tuple[str, int], SpectralIndices]:
    with _Table(path) as table:
        if table.header[:4] != ["id", "year", "ndvi", "evi"]:
            raise MissingColumnError(f"expected header id,year,ndvi,evi, got {table.header}")
        out: dict[tuple[str, int], SpectralIndices] = {}
        for line, (rid, year, *_), cells in table.rows(2, 2, 4, exact=False):
            key = (rid, _parse_int(year, "year", line))
            if key in out:
                raise DuplicateKeyError(f"duplicate spectral key {key}", line=line)
            ndvi, evi = _floats(cells, ("ndvi", "evi"), line)
            try:
                out[key] = SpectralIndices(ndvi=ndvi, evi=evi)
            except InvalidValueError as exc:
                raise CsvParseError(str(exc), line=line) from None
    return out


def _load_covariates(path: str | Path) -> dict[tuple[str, int], CovariateSet]:
    with _Table(path) as table:
        expected = ["id", "year", *CovariateSet.FIELD_NAMES]
        if table.header != expected:
            raise MissingColumnError(f"expected header {expected}, got {table.header}")
        out: dict[tuple[str, int], CovariateSet] = {}
        for line, (rid, year), cells in table.rows(2, len(CovariateSet.FIELD_NAMES), len(expected)):
            key = (rid, _parse_int(year, "year", line))
            if key in out:
                raise DuplicateKeyError(f"duplicate covariate key {key}", line=line)
            values = _floats(cells, CovariateSet.FIELD_NAMES, line)
            try:
                out[key] = CovariateSet(*values)
            except InvalidValueError as exc:
                raise CsvParseError(str(exc), line=line) from None
    return out


def load_sites(
    meta_path: str | Path,
    embeddings: Mapping[tuple[str, int], EmbeddingVector],
    spectral_path: str | Path | None = None,
    covariates_path: str | Path | None = None,
    *,
    window: tuple[int, int] = (2017, 2024),
    lulc_codes: LULCCodeMap = DEFAULT_LULC_CODES,
) -> tuple[list[SiteRecord], list[str]]:
    """Join site metadata with the per-year tables.

    Returns (sites sorted by site_id, ids of sites that had no embedding
    years). The latter are excluded from the result rather than kept
    silently; callers should surface them.
    """
    with _Table(meta_path) as table:
        expected = ["site_id", "lon", "lat", "area_ha", "start_year", "strategy", "start_lulc"]
        if table.header != expected:
            raise MissingColumnError(f"expected header {expected}, got {table.header}")
        spectral = _load_spectral(spectral_path) if spectral_path else {}
        covariates = _load_covariates(covariates_path) if covariates_path else {}

        # Regroup per-year tables by id up front; scanning per site is quadratic.
        emb_by_id: dict[str, dict[int, EmbeddingVector]] = {}
        first, last = window
        for (rid, year), vec in embeddings.items():
            emb_by_id.setdefault(rid, {})[year] = vec
        spec_by_id: dict[str, dict[int, SpectralIndices]] = {}
        for (rid, year), val in spectral.items():
            if first <= year <= last:
                spec_by_id.setdefault(rid, {})[year] = val
        cov_by_id: dict[str, dict[int, CovariateSet]] = {}
        for (rid, year), val in covariates.items():
            if first <= year <= last:
                cov_by_id.setdefault(rid, {})[year] = val

        sites: list[SiteRecord] = []
        no_embeddings: list[str] = []
        seen: set[str] = set()
        numeric = ("lon", "lat", "area_ha")
        for line, (site_id, start_year, strategy, start_lulc), cells in table.rows(1, 3, 7):
            site_id = site_id.strip()
            if not site_id:
                raise MissingMetadataFieldError("empty site_id", line=line)
            if site_id in seen:
                raise DuplicateKeyError(f"duplicate site_id {site_id!r}", line=line)
            seen.add(site_id)
            # Bulk-parsed cells are numbers, so only text cells can be blank.
            for name, text in (*zip(numeric, cells), ("start_year", start_year)):
                if isinstance(text, str) and not text.strip():
                    raise MissingMetadataFieldError(f"missing {name} for {site_id}", line=line)
            site_embeddings = {
                y: v for y, v in emb_by_id.get(site_id, {}).items() if first <= y <= last
            }
            if not site_embeddings:
                no_embeddings.append(site_id)
                continue
            lon, lat, area_ha = _floats(cells, numeric, line)
            start_lulc_text = start_lulc.strip()
            try:
                site = SiteRecord(
                    site_id=site_id,
                    centroid_lon=lon,
                    centroid_lat=lat,
                    area_ha=area_ha,
                    start_year=_parse_int(start_year, "start_year", line),
                    strategy=parse_strategy(strategy),
                    embeddings=site_embeddings,
                    spectral=spec_by_id.get(site_id, {}),
                    covariates=cov_by_id.get(site_id, {}),
                    start_lulc=lulc_codes.class_for_name(start_lulc_text) if start_lulc_text else None,
                )
            except InvalidValueError as exc:
                raise CsvParseError(str(exc), line=line) from None
            sites.append(site)
    if no_embeddings:
        log.warning(
            "%d site(s) had no embedding years and were excluded: %s",
            len(no_embeddings),
            ", ".join(sorted(no_embeddings)[:10]),
        )
    sites.sort(key=lambda s: s.site_id)
    return sites, sorted(no_embeddings)


def load_reference_points(
    meta_path: str | Path,
    embeddings: Mapping[tuple[str, int], EmbeddingVector],
    *,
    lulc_years: tuple[int, int] = DEFAULT_LULC_YEARS,
    window: tuple[int, int] = (2017, 2024),
    lulc_codes: LULCCodeMap = DEFAULT_LULC_CODES,
) -> list[ReferencePoint]:
    """Load reference points; stability is left unclassified.

    The header must contain lulc_<Y> for every year in ``lulc_years``;
    otherwise MissingYearColumnError is raised.
    """
    with _Table(meta_path) as table:
        header = table.header
        if header[:3] != ["point_id", "lon", "lat"]:
            raise MissingColumnError(
                f"expected header point_id,lon,lat,lulc_<Y>..., got {header[:3]}"
            )
        # year -> index of its code among a row's non-numeric fields (after point_id)
        year_cols: dict[int, int] = {}
        for idx, name in enumerate(header[3:], start=1):
            if not name.startswith("lulc_"):
                raise MissingColumnError(f"unexpected column {name!r}")
            year_cols[_parse_int(name[len("lulc_"):], f"year in column {name!r}", 1)] = idx
        for year in range(lulc_years[0], lulc_years[1] + 1):
            if year not in year_cols:
                raise MissingYearColumnError(f"missing column lulc_{year}")

        emb_by_id: dict[str, dict[int, EmbeddingVector]] = {}
        first, last = window
        for (rid, year), vec in embeddings.items():
            if first <= year <= last:
                emb_by_id.setdefault(rid, {})[year] = vec

        points: list[ReferencePoint] = []
        seen: set[str] = set()
        for line, fields, cells in table.rows(1, 2, len(header)):
            point_id = fields[0].strip()
            if not point_id:
                raise MissingMetadataFieldError("empty point_id", line=line)
            if point_id in seen:
                raise DuplicateKeyError(f"duplicate point_id {point_id!r}", line=line)
            seen.add(point_id)
            series = {
                year: lulc_codes.class_for_code(_parse_int(fields[idx], f"lulc_{year}", line))
                for year, idx in year_cols.items()
            }
            lon, lat = _floats(cells, ("lon", "lat"), line)
            try:
                points.append(
                    ReferencePoint(
                        point_id=point_id,
                        lon=lon,
                        lat=lat,
                        lulc_series=series,
                        embeddings=emb_by_id.get(point_id, {}),
                    )
                )
            except InvalidValueError as exc:
                raise CsvParseError(str(exc), line=line) from None
    points.sort(key=lambda p: p.point_id)
    return points


def filter_sites(
    sites: Sequence[SiteRecord],
    min_area_ha: float = 1.0,
    start_year_range: tuple[int, int] = (2017, 2024),
) -> tuple[list[SiteRecord], FilterReport]:
    """Apply the study-selection funnel: area first, then start year.

    Both bounds are inclusive ("at least 1 hectare"; "between 2017 and
    2024"). Filtering is total and idempotent.
    """
    n_input = len(sites)
    after_area = [s for s in sites if s.area_ha >= min_area_ha]
    lo, hi = start_year_range
    kept = [s for s in after_area if lo <= s.start_year <= hi]
    report = FilterReport(
        n_input=n_input,
        stages=(
            ("area", n_input - len(after_area), len(after_area)),
            ("start_year", len(after_area) - len(kept), len(kept)),
        ),
    )
    return kept, report


def load_dataset(
    embeddings_path: str | Path,
    sites_path: str | Path,
    reference_points_path: str | Path,
    spectral_path: str | Path | None = None,
    covariates_path: str | Path | None = None,
    lulc_codes_path: str | Path | None = None,
    *,
    window: tuple[int, int] = (2017, 2024),
    lulc_years: tuple[int, int] = DEFAULT_LULC_YEARS,
) -> tuple[Dataset, list[str]]:
    """Convenience joiner used by the CLI. Returns (dataset, zero-embedding site ids)."""
    codes = load_lulc_codes(lulc_codes_path) if lulc_codes_path else DEFAULT_LULC_CODES
    embeddings = load_embeddings(embeddings_path)
    sites, skipped = load_sites(
        sites_path,
        embeddings,
        spectral_path,
        covariates_path,
        window=window,
        lulc_codes=codes,
    )
    references = load_reference_points(
        reference_points_path,
        embeddings,
        lulc_years=lulc_years,
        window=window,
        lulc_codes=codes,
    )
    return Dataset(sites=tuple(sites), references=tuple(references), window=window), skipped
