"""The bulk ingest parser against the previous cell-by-cell loaders.

The oracle below is the ingest code as it was before a table's numeric
columns were parsed in one bulk pass: ``csv.reader`` splits every row and
``float()`` parses every cell. It has one deliberate change: a numeric cell
that parses to NaN or Inf raises NonFiniteError at its line, where the old
loaders accepted it silently or failed later with another error.

Cells of a small synthetic world are mutated into spellings on which
``np.fromstring`` and ``float()`` disagree, and rows and files are reshaped
(quoting, CRLF and lone-CR line ends, blank lines, duplicated and shuffled
rows, missing and extra fields). The new loaders must return a bitwise-equal
Dataset, or raise the same error class at the same line and name the file
the oracle failed in.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
import random
import struct
import tempfile
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regrow.core import (
    CovariateSet,
    EmbeddingVector,
    ReferencePoint,
    SiteRecord,
    SpectralIndices,
    parse_strategy,
    validate_embedding,
)
from regrow.errors import (
    CsvParseError,
    DuplicateKeyError,
    InvalidValueError,
    MissingColumnError,
    MissingMetadataFieldError,
    MissingYearColumnError,
    NonFiniteError,
    RegrowError,
)
from regrow.ingest import DEFAULT_LULC_CODES, DEFAULT_LULC_YEARS, Dataset, LULCCodeMap, load_dataset
from regrow.synthetic import SynthConfig, generate_world, write_world

log = logging.getLogger("regrow.ingest")

FILES = (
    "embeddings.csv", "sites.csv", "spectral.csv",
    "covariates.csv", "reference_points.csv", "lulc_codes.csv",
)


def _blame(loader):
    """Record on an error which file the oracle loader was reading."""

    @functools.wraps(loader)
    def wrapped(path, *args, **kwargs):
        try:
            return loader(path, *args, **kwargs)
        except RegrowError as exc:
            if getattr(exc, "oracle_file", None) is None:
                exc.oracle_file = Path(path).name
            raise

    return wrapped


# ---- oracle: the cell-by-cell loaders --------------------------------------

def _oracle_read_rows(path: str | Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Read a CSV into (header, [(line_number, fields), ...])."""
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path}: file is empty (no header row)") from None
        rows = [(i, row) for i, row in enumerate(reader, start=2) if row]
    return [h.strip() for h in header], rows


def _oracle_parse_float(text: str, what: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CsvParseError(f"bad {what}: {text!r}", line=line) from None
    # The one deliberate change: NaN and Inf are rejected at their line.
    if not math.isfinite(value):
        raise NonFiniteError(f"non-finite {what}: {text!r}", line=line)
    return value


def _oracle_parse_int(text: str, what: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise CsvParseError(f"bad {what}: {text!r}", line=line) from None


@_blame
def _oracle_load_lulc_codes(path: str | Path) -> LULCCodeMap:
    header, rows = _oracle_read_rows(path)
    if header[:2] != ["code", "name"]:
        raise MissingColumnError(f"{path}: expected header code,name, got {header}")
    entries: dict[int, str] = {}
    for line, row in rows:
        if len(row) != 2:
            raise MissingColumnError("expected 2 fields", line=line)
        code = _oracle_parse_int(row[0], "code", line)
        if code in entries:
            raise DuplicateKeyError(f"duplicate LULC code {code}", line=line)
        entries[code] = row[1].strip()
    return LULCCodeMap(entries)


@_blame
def _oracle_load_embeddings(path: str | Path) -> dict[tuple[str, int], EmbeddingVector]:
    """Load per-(id, year) embedding vectors.

    The dimension is inferred from the header (number of A-columns) and
    must be constant; a row with a different field count raises
    MissingColumnError with its line number.
    """
    header, rows = _oracle_read_rows(path)
    if len(header) < 3 or header[0] != "id" or header[1] != "year":
        raise MissingColumnError(f"{path}: expected header id,year,A00,..., got {header[:3]}")
    a_cols = header[2:]
    bad = [c for c in a_cols if not c.startswith("A")]
    if bad:
        raise MissingColumnError(f"{path}: non-embedding columns after id,year: {bad}")
    dim = len(a_cols)
    out: dict[tuple[str, int], EmbeddingVector] = {}
    for line, row in rows:
        if len(row) != len(header):
            raise MissingColumnError(
                f"expected {len(header)} fields, got {len(row)}", line=line
            )
        key = (row[0], _oracle_parse_int(row[1], "year", line))
        if key in out:
            raise DuplicateKeyError(f"duplicate embedding key {key}", line=line)
        values = [_oracle_parse_float(v, "embedding value", line) for v in row[2:]]
        out[key] = validate_embedding(values, dim)
    return out


@_blame
def _oracle_load_spectral(path: str | Path) -> dict[tuple[str, int], SpectralIndices]:
    header, rows = _oracle_read_rows(path)
    if header[:4] != ["id", "year", "ndvi", "evi"]:
        raise MissingColumnError(f"{path}: expected header id,year,ndvi,evi, got {header}")
    out: dict[tuple[str, int], SpectralIndices] = {}
    for line, row in rows:
        if len(row) < 4:
            raise MissingColumnError("expected 4 fields", line=line)
        key = (row[0], _oracle_parse_int(row[1], "year", line))
        if key in out:
            raise DuplicateKeyError(f"duplicate spectral key {key}", line=line)
        try:
            out[key] = SpectralIndices(
                ndvi=_oracle_parse_float(row[2], "ndvi", line),
                evi=_oracle_parse_float(row[3], "evi", line),
            )
        except InvalidValueError as exc:
            raise CsvParseError(str(exc), line=line) from None
    return out


@_blame
def _oracle_load_covariates(path: str | Path) -> dict[tuple[str, int], CovariateSet]:
    header, rows = _oracle_read_rows(path)
    expected = ["id", "year", *CovariateSet.FIELD_NAMES]
    if header != expected:
        raise MissingColumnError(f"{path}: expected header {expected}, got {header}")
    out: dict[tuple[str, int], CovariateSet] = {}
    for line, row in rows:
        if len(row) != len(expected):
            raise MissingColumnError(
                f"expected {len(expected)} fields, got {len(row)}", line=line
            )
        key = (row[0], _oracle_parse_int(row[1], "year", line))
        if key in out:
            raise DuplicateKeyError(f"duplicate covariate key {key}", line=line)
        values = [
            _oracle_parse_float(v, name, line)
            for v, name in zip(row[2:], CovariateSet.FIELD_NAMES)
        ]
        try:
            out[key] = CovariateSet(*values)
        except InvalidValueError as exc:
            raise CsvParseError(str(exc), line=line) from None
    return out


@_blame
def _oracle_load_sites(
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
    header, rows = _oracle_read_rows(meta_path)
    expected = ["site_id", "lon", "lat", "area_ha", "start_year", "strategy", "start_lulc"]
    if header != expected:
        raise MissingColumnError(f"{meta_path}: expected header {expected}, got {header}")
    spectral = _oracle_load_spectral(spectral_path) if spectral_path else {}
    covariates = _oracle_load_covariates(covariates_path) if covariates_path else {}

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
    for line, row in rows:
        if len(row) != len(expected):
            raise MissingColumnError(f"expected {len(expected)} fields, got {len(row)}", line=line)
        site_id = row[0].strip()
        if not site_id:
            raise MissingMetadataFieldError("empty site_id", line=line)
        if site_id in seen:
            raise DuplicateKeyError(f"duplicate site_id {site_id!r}", line=line)
        seen.add(site_id)
        for idx, name in ((1, "lon"), (2, "lat"), (3, "area_ha"), (4, "start_year")):
            if not row[idx].strip():
                raise MissingMetadataFieldError(f"missing {name} for {site_id}", line=line)
        site_embeddings = {
            y: v for y, v in emb_by_id.get(site_id, {}).items() if first <= y <= last
        }
        if not site_embeddings:
            no_embeddings.append(site_id)
            continue
        start_lulc_text = row[6].strip()
        try:
            site = SiteRecord(
                site_id=site_id,
                centroid_lon=_oracle_parse_float(row[1], "lon", line),
                centroid_lat=_oracle_parse_float(row[2], "lat", line),
                area_ha=_oracle_parse_float(row[3], "area_ha", line),
                start_year=_oracle_parse_int(row[4], "start_year", line),
                strategy=parse_strategy(row[5]),
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


@_blame
def _oracle_load_reference_points(
    meta_path: str | Path,
    embeddings: Mapping[tuple[str, int], EmbeddingVector],
    *,
    lulc_years: tuple[int, int] = DEFAULT_LULC_YEARS,
    window: tuple[int, int] = (2017, 2024),
    lulc_codes: LULCCodeMap = DEFAULT_LULC_CODES,
    site_ids: frozenset[str] = frozenset(),
) -> list[ReferencePoint]:
    """Load reference points; stability is left unclassified.

    The header must contain lulc_<Y> for every year in ``lulc_years``;
    otherwise MissingYearColumnError is raised.
    """
    header, rows = _oracle_read_rows(meta_path)
    if header[:3] != ["point_id", "lon", "lat"]:
        raise MissingColumnError(
            f"{meta_path}: expected header point_id,lon,lat,lulc_<Y>..., got {header[:3]}"
        )
    year_cols: dict[int, int] = {}
    for idx, name in enumerate(header[3:], start=3):
        if not name.startswith("lulc_"):
            raise MissingColumnError(f"{meta_path}: unexpected column {name!r}")
        year_cols[int(name[len("lulc_"):])] = idx
    for year in range(lulc_years[0], lulc_years[1] + 1):
        if year not in year_cols:
            raise MissingYearColumnError(f"{meta_path}: missing column lulc_{year}")

    emb_by_id: dict[str, dict[int, EmbeddingVector]] = {}
    first, last = window
    for (rid, year), vec in embeddings.items():
        if first <= year <= last:
            emb_by_id.setdefault(rid, {})[year] = vec

    points: list[ReferencePoint] = []
    seen: set[str] = set()
    for line, row in rows:
        if len(row) != len(header):
            raise MissingColumnError(f"expected {len(header)} fields, got {len(row)}", line=line)
        point_id = row[0].strip()
        if not point_id:
            raise MissingMetadataFieldError("empty point_id", line=line)
        if point_id in seen:
            raise DuplicateKeyError(f"duplicate point_id {point_id!r}", line=line)
        if point_id in site_ids:
            raise DuplicateKeyError(f"point_id {point_id!r} is also a site_id", line=line)
        seen.add(point_id)
        series = {
            year: lulc_codes.class_for_code(_oracle_parse_int(row[idx], f"lulc_{year}", line))
            for year, idx in year_cols.items()
        }
        try:
            points.append(
                ReferencePoint(
                    point_id=point_id,
                    lon=_oracle_parse_float(row[1], "lon", line),
                    lat=_oracle_parse_float(row[2], "lat", line),
                    lulc_series=series,
                    embeddings=emb_by_id.get(point_id, {}),
                )
            )
        except InvalidValueError as exc:
            raise CsvParseError(str(exc), line=line) from None
    points.sort(key=lambda p: p.point_id)
    return points


def _oracle_load_dataset(
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
    codes = _oracle_load_lulc_codes(lulc_codes_path) if lulc_codes_path else DEFAULT_LULC_CODES
    embeddings = _oracle_load_embeddings(embeddings_path)
    sites, skipped = _oracle_load_sites(
        sites_path,
        embeddings,
        spectral_path,
        covariates_path,
        window=window,
        lulc_codes=codes,
    )
    references = _oracle_load_reference_points(
        reference_points_path,
        embeddings,
        lulc_years=lulc_years,
        window=window,
        lulc_codes=codes,
        site_ids=frozenset([s.site_id for s in sites] + skipped),
    )
    return Dataset(sites=tuple(sites), references=tuple(references), window=window), skipped


# ---- comparison -------------------------------------------------------------


def _bits(x) -> bytes:
    assert type(x) is float, type(x)
    return struct.pack("<d", x)


def _fingerprint(dataset: Dataset) -> tuple:
    """Every value of a Dataset, floats as their bits."""
    sites = tuple(
        (
            s.site_id, _bits(s.centroid_lon), _bits(s.centroid_lat), _bits(s.area_ha),
            s.start_year, s.strategy, s.start_lulc,
            tuple((y, e.values.dtype.str, e.values.tobytes()) for y, e in s.embeddings.items()),
            tuple((y, _bits(v.ndvi), _bits(v.evi)) for y, v in s.spectral.items()),
            tuple(
                (y, tuple(_bits(getattr(c, f)) for f in CovariateSet.FIELD_NAMES))
                for y, c in s.covariates.items()
            ),
        )
        for s in dataset.sites
    )
    points = tuple(
        (
            p.point_id, _bits(p.lon), _bits(p.lat), tuple(p.lulc_series.items()), p.stability,
            tuple((y, e.values.dtype.str, e.values.tobytes()) for y, e in p.embeddings.items()),
        )
        for p in dataset.references
    )
    return sites, points, dataset.window


def _outcome(load, world: Path):
    paths = [world / name for name in FILES]
    try:
        dataset, skipped = load(paths[0], paths[1], paths[4], paths[2], paths[3], paths[5])
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return exc
    return _fingerprint(dataset), skipped


def assert_same_outcome(texts: Mapping[str, str]):
    with tempfile.TemporaryDirectory() as tmp:
        world = Path(tmp)
        for name, text in texts.items():
            (world / name).write_text(text, encoding="utf-8", newline="")
        expected = _outcome(_oracle_load_dataset, world)
        actual = _outcome(load_dataset, world)
    if not isinstance(expected, Exception):
        assert not isinstance(actual, Exception), f"new loader raised {actual!r}"
        assert actual == expected
        return
    assert type(actual) is type(expected), f"{actual!r} != {expected!r}"
    if isinstance(expected, RegrowError):
        if expected.line is None:
            # The old loaders raised some errors without a line; the new ones
            # locate them at the row being read, if any.
            assert actual.line is None or actual.line >= 2
        else:
            assert actual.line == expected.line, f"{actual} != {expected}"
        assert Path(actual.file).name == expected.oracle_file, f"{actual} vs {expected}"


# ---- mutations --------------------------------------------------------------

#: Cell spellings on which np.fromstring and float() disagree, or which are
#: bad for both, plus a few values that break a domain check.
SPELLINGS = (
    "1_0", "nan(1)", "١", "", "0x10", " 1.5", "+1", "infinity", "1.5e",
    "nan", "-inf", "1e400", "1e-400", " ", "  ", "\t0.5", "0.5 ", "\u00a00.5", "\u2003",
    "-0", ".5", "5.", "1e5", "-", "e5", "1,5", '"0.25"', "abc", "0.5", "2", "-1", "200", "2020",
)


def _rows(text: str) -> list[str]:
    return text.split("\n")[:-1]


def apply_mutations(base: Mapping[str, str], mutations) -> dict[str, str]:
    """Apply ``mutations`` to the world's files; indices wrap around the table."""
    lines = {name: _rows(text) for name, text in base.items()}
    ending = {name: "\n" for name in base}
    final = {name: True for name in base}
    for kind, name, a, b, spelling in mutations:
        table = lines[name]
        data = len(table) - 1
        r = 1 + a % data
        if kind == "cell":
            fields = table[r].split(",")
            fields[b % len(fields)] = spelling
            table[r] = ",".join(fields)
        elif kind == "quote":
            # A blank row, which csv reads as no fields, becomes one empty quoted field.
            fields = next(csv.reader([table[r]])) or [""]
            fields[b % len(fields)] = '"' + fields[b % len(fields)].replace('"', '""') + '"'
            table[r] = ",".join(fields)
        elif kind == "drop":
            table[r] = table[r].rsplit(",", 1)[0]
        elif kind == "extra":
            table[r] += ","
        elif kind == "duplicate":
            table.insert(r, table[r])
        elif kind == "blank":
            table.insert(r, "")
        elif kind == "shuffle":
            body = table[1:]
            random.Random(a).shuffle(body)
            table[1:] = body
        elif kind == "crlf":
            ending[name] = "\r\n"
        elif kind == "cr":
            ending[name] = "\r"
        elif kind == "no_final_newline":
            final[name] = False
    return {
        name: ending[name].join(table) + (ending[name] if final[name] else "")
        for name, table in lines.items()
    }


@pytest.fixture(scope="module")
def base_world(tmp_path_factory) -> dict[str, str]:
    config = SynthConfig(
        seed=11, dim=8, n_sites=6, points_per_class=4, points_per_transition=2,
        start_year_spread=2,
    )
    out = tmp_path_factory.mktemp("oracle_world")
    write_world(*generate_world(config), out)
    return {name: (out / name).read_text(encoding="utf-8") for name in FILES}


NUMERIC_COLUMN = {
    "embeddings.csv": 2, "sites.csv": 1, "spectral.csv": 3,
    "covariates.csv": 6, "reference_points.csv": 2,
}


def test_unmutated_world_matches(base_world):
    assert_same_outcome(base_world)


@pytest.mark.parametrize("name", sorted(NUMERIC_COLUMN))
@pytest.mark.parametrize("spelling", SPELLINGS)
def test_each_spelling_in_each_numeric_table(base_world, name, spelling):
    mutation = ("cell", name, 2, NUMERIC_COLUMN[name], spelling)
    assert_same_outcome(apply_mutations(base_world, [mutation]))


#: Text cells after a table's numeric columns, which the bulk path cuts from
#: a row's text, as (table, column). synth leaves none of them empty.
TRAILING_TEXT = {
    "strategy": ("sites.csv", 5), "start_lulc": ("sites.csv", 6),
    "last_lulc": ("reference_points.csv", -1),
}


@pytest.mark.parametrize("field", sorted(TRAILING_TEXT))
def test_an_empty_text_cell_after_the_numeric_columns(base_world, field):
    name, column = TRAILING_TEXT[field]
    assert_same_outcome(apply_mutations(base_world, [("cell", name, -1, column, "")]))


@pytest.mark.parametrize("row", [3, -1])
@pytest.mark.parametrize(
    "kind", ["quote", "drop", "extra", "duplicate", "blank", "shuffle", "crlf", "cr",
             "no_final_newline"],
)
@pytest.mark.parametrize("name", FILES)
def test_each_reshaping_of_each_table(base_world, name, kind, row):
    assert_same_outcome(apply_mutations(base_world, [(kind, name, row, 2, "")]))


@pytest.mark.parametrize("name", sorted(NUMERIC_COLUMN))
def test_rows_short_and_long_by_one_field(base_world, name):
    # The table still holds rows x columns values, misaligned.
    mutations = [("drop", name, 2, 0, ""), ("cell", name, 4, NUMERIC_COLUMN[name], "1,5")]
    assert_same_outcome(apply_mutations(base_world, mutations))


mutation = st.tuples(
    st.sampled_from(
        ["cell"] * 6 + ["quote", "drop", "extra", "duplicate", "blank", "shuffle", "crlf", "cr",
                        "no_final_newline"]
    ),
    st.sampled_from(FILES),
    st.integers(0, 10_000),
    st.integers(0, 100),
    st.sampled_from(SPELLINGS),
)


@settings(max_examples=150, deadline=None)
@given(mutations=st.lists(mutation, min_size=1, max_size=4))
def test_mutated_worlds_match_the_oracle(base_world, mutations):
    assert_same_outcome(apply_mutations(base_world, mutations))


#: A value that breaks each CovariateSet and SpectralIndices rule, by the
#: rule's message: (class, field, value).
RULE_BREAKS = {
    "precip_mm must be >= 0": (CovariateSet, "precip_mm", "-1"),
    "et_mm must be >= 0": (CovariateSet, "et_mm", "-0.5"),
    "tmin_c must be <= tmax_c": (CovariateSet, "tmin_c", "99"),
    "slope_deg must be in [0, 90]": (CovariateSet, "slope_deg", "90.5"),
    "aspect_deg must be in [0, 360)": (CovariateSet, "aspect_deg", "360"),
    "forest_cover_2km must be in [0, 1]": (CovariateSet, "forest_cover_2km", "1.5"),
    "road_density_5km must be >= 0": (CovariateSet, "road_density_5km", "-2"),
    "ndvi must be in [-1, 1], got {ndvi}": (SpectralIndices, "ndvi", "-1.5"),
}
TABLE_OF = {CovariateSet: "covariates.csv", SpectralIndices: "spectral.csv"}


def test_rule_breaks_cover_every_rule():
    assert set(RULE_BREAKS) == {m for cls in TABLE_OF for m, _ in cls.RULES}


@pytest.mark.parametrize("duplicate_first", [False, True], ids=["rule_first", "duplicate_first"])
@pytest.mark.parametrize("rule", sorted(RULE_BREAKS))
def test_a_broken_rule_and_a_duplicate_key_raise_in_file_order(base_world, rule,
                                                              duplicate_first):
    cls, field, value = RULE_BREAKS[rule]
    name = TABLE_OF[cls]
    table = _rows(base_world[name])
    fields = table[3].split(",")
    fields[2 + cls.FIELD_NAMES.index(field)] = value
    table[3] = ",".join(fields)
    table.insert(6, table[1])  # a later row with the key of data row 1
    if duplicate_first:
        table[3], table[6] = table[6], table[3]
    texts = {**base_world, name: "\n".join(table) + "\n"}
    with tempfile.TemporaryDirectory() as tmp:
        for file, text in texts.items():
            (Path(tmp) / file).write_text(text, encoding="utf-8", newline="")
        expected = _outcome(_oracle_load_dataset, Path(tmp))
    # The first of the two rows in file order, line 4, is the one at fault.
    assert type(expected) is (DuplicateKeyError if duplicate_first else CsvParseError)
    assert expected.line == 4 and expected.oracle_file == name
    assert_same_outcome(texts)
