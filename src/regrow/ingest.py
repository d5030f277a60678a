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

Each file is read once, as bytes, by ``read_lines``, which finds its line
ends and checks that it is UTF-8 without decoding it whole; an ASCII file is
not decoded at all. The three ``id,year,...`` tables hold nearly all of the
input's bytes; their numbers are parsed in bulk, from the file's bytes into
one read-only matrix, ``_PARSE_CELLS`` cells of rows at a time. A cell
``-?digits[.digits]`` is read as an integer significand M < 10**18 and k <= 27
digits after its dot, and its value is M / 10**k, divided as x87 long
doubles. Both operands are exact in their 64-bit significand, so the
quotient is rounded once, and rounding it on to a double gives the double
nearest the decimal, as ``float()`` does, unless it lies on the midpoint of
two doubles. Such a cell, every other cell, and every cell where
``np.longdouble`` is not the x87 type are parsed by ``np.fromstring``, which
also rounds as ``float()`` does. Each row block is one job of
``pool.iter_jobs``, on the worker pool for a table of more than
``_POOL_CELLS`` cells (``threads`` caps it, as everywhere), each worker
reading its rows from the bytes it inherits and writing them to one shared
matrix. A parse holds the file's bytes, the matrix, and one block's bytes
and temporaries (~2 MB) per worker: no decoded copy of the file and no
string per row. Such a table is read keys first: one pass cuts each row's
id and year from its head, and their sort gives each row its place in the
matrix, so the rows come out in (id, year) order and each id's years are one
``YearMap`` view; each block's rows are checked against the ``CovariateSet``
and ``SpectralIndices`` rules as they are parsed. No row is wrapped in an
object.
Anything unusual (a quoted file, a bad year, a repeated key, a wrong field
count, a cell numpy cannot read, blanks in a cell, a non-finite value, a
broken rule) sends the table cell by cell, in file order, which raises the
first error at its line or accepts what ``float()`` accepts and numpy does
not, such as ``1_0``. Files that ``regrow synth`` writes never take that
path. The matrix depends neither on the number of workers nor on the row
order. Every other table (sites, reference points, LULC codes) is small and
is always read cell by cell: ``float()`` and ``int()``, in its loader's
order of checks.

Loading is order-independent: outputs are keyed or sorted by id, so a
shuffled input yields an identical Dataset.
"""

from __future__ import annotations

import codecs
import csv
import io
import logging
import math
import mmap
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import (
    KNOWN_LULC_NAMES,
    CovariateSet,
    EmbeddingVector,
    LULCClass,
    ReferencePoint,
    SiteRecord,
    SpectralIndices,
    YearMap,
    parse_strategy,
    stack_rows,
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
from . import x87
from .pool import iter_jobs

log = logging.getLogger("regrow.ingest")

DEFAULT_LULC_YEARS = (2015, 2024)

#: Numeric cells of a table above which its row blocks are parsed on the
#: pool. Measured on 2 cores with row prefixes of the seed-7 and 5x
#: embeddings.csv, each load in a fresh process (median of 9-15): up to 1M
#: cells the pool, multiprocessing's import included, costs about what it
#: saves (-0.029 to +0.007 s from 256k to 1M cells; -0.016 s of ~0.17 s on
#: the whole seed-7 file, 676k); it saved 0.026 s at 1.5M and 0.087 s at
#: 2M, and parses the 5x world's 3.9M cells in ~0.76 s instead of ~0.96 s.
#: The threshold stays below the seed-7 file for memory: in process, the
#: parent holds the file's bytes, the matrix and a block at once, and
#: ``regrow predict`` on the seed-7 world peaked at 57.3 MB RSS, against
#: 51.4 MB when the workers fill the matrix (median of 3).
_POOL_CELLS = 300_000

#: Numeric cells of one row block, the unit of a bulk parse and one job of
#: the pool: 256 rows of 64 embedding values, ~330 kB of text. Measured on
#: 2 cores, in process, the 5x world's tables (median of 7-15 alternating
#: passes, ns a cell at 4k/8k/16k/32k/64k cells): embeddings.csv
#: 195/167/179/210/250, covariates.csv 157/140/138/143/205, spectral.csv
#: 368/313/334/398/478. A block's temporaries are ~113 bytes a cell (1.9 MB
#: at 16k cells; the ``np.fromstring`` parse held 2.95 MB at 64k); a
#: ``threads=1`` load of the 5x embeddings.csv peaked at 149 MB RSS with
#: 8k-16k cells, 155 MB with 64k and 180 MB with 256k.
_PARSE_CELLS = 16_384

#: Bytes of a file that one step of a scan reads: the search for its line
#: ends and, in a file that is not ASCII, its UTF-8 check. Each step's
#: temporaries are a few times this size.
_SCAN_BYTES = 1 << 20

#: Characters of a cell that an error message echoes.
_ECHO_CHARS = 200

_COMMA, _MINUS, _DOT, _SLASH, _ZERO, _NINE = b",-./09"

class LULCCodeMap:
    """Bijective code<->name mapping for known classes.

    Unknown codes are mapped to Other(code), never dropped silently;
    ``load_reference_points`` logs one warning per unknown code it read.
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

    def __contains__(self, code: int) -> bool:
        return code in self._by_code

    def class_for_code(self, code: int) -> LULCClass:
        cls = self._by_code.get(code)
        return LULCClass("Other", code) if cls is None else cls

    def class_for_name(self, name: str) -> LULCClass:
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidValueError(f"unknown LULC class label: {name!r}") from None

    def entries(self) -> list[tuple[int, LULCClass]]:
        return sorted(self._by_code.items())


#: Placeholder defaults used by the synthetic generator and tests, the known
#: classes numbered from 1; real data supplies its own lulc_codes.csv.
DEFAULT_LULC_CODES = LULCCodeMap(dict(enumerate(KNOWN_LULC_NAMES, start=1)))


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


def _offsets(u: np.ndarray, byte: int) -> np.ndarray:
    """The offsets of ``byte`` in the uint8 array ``u``, ``_SCAN_BYTES`` at a time."""
    return np.concatenate([np.flatnonzero(u[a:a + _SCAN_BYTES] == byte) + a
                           for a in range(0, len(u), _SCAN_BYTES)] + [np.empty(0, np.intp)])


def _line_bounds(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends): the offsets of each line of ``data``, its line end
    excluded. A line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in
    ``csv``; a line end at the end of the data starts no further line."""
    u = np.frombuffer(data, np.uint8)
    ends = _offsets(u, ord("\n"))
    width = np.ones_like(ends)  # bytes of each line end
    if b"\r" in data:
        cr, lf = _offsets(u, ord("\r")), ends
        lone = lf[~np.isin(lf - 1, cr)]  # each \n that is not the end of a \r\n
        ends = np.concatenate([cr, lone])
        width = np.concatenate([1 + np.isin(cr + 1, lf), np.ones_like(lone)])
        order = np.argsort(ends)
        ends, width = ends[order], width[order]
    starts = np.concatenate([[0], ends + width])
    ends = np.append(ends, len(data))
    if starts[-1] == len(data):
        starts, ends = starts[:-1], ends[:-1]
    return starts, ends


def _utf8_error(data: bytes) -> UnicodeDecodeError | None:
    """The first UTF-8 error of ``data``, its ``start`` an offset in ``data``;
    None if there is none. ASCII data is not decoded at all, any other is
    decoded ``_SCAN_BYTES`` at a time, and nothing decoded is kept."""
    if data.isascii():
        return None
    decoder = codecs.getincrementaldecoder("utf-8")()
    for a in range(0, len(data), _SCAN_BYTES):
        try:
            decoder.decode(data[a:a + _SCAN_BYTES], a + _SCAN_BYTES >= len(data))
        except UnicodeDecodeError as exc:
            # The decoder held back the bytes of a character cut at ``a``.
            exc.start += a - len(decoder.buffer)
            return exc
    return None


def read_lines(path: str | Path, error: type[RegrowError]) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The bytes of a UTF-8 file and the offsets of its lines, as
    ``_line_bounds`` finds them: line ``i + 1`` is ``data[starts[i]:ends[i]]``.

    The whole file is never decoded. A byte that is not UTF-8 raises
    ``error`` at the file and the line of the byte.
    """
    data = Path(path).read_bytes()
    starts, ends = _line_bounds(data)
    exc = _utf8_error(data)
    if exc is not None:
        line = int(np.searchsorted(starts, exc.start, side="right"))
        raise error(f"not UTF-8 ({exc.reason})", line=line, file=str(path))
    return data, starts, ends


class _Table:
    """One input CSV, read once: its stripped header and its non-blank data rows.

    An unquoted file is kept as its bytes and the offsets of its rows; a row
    is decoded only when ``rows`` yields it. A quoted file is read by
    ``csv``. Use the table as a context manager: a RegrowError raised inside
    the ``with`` block is located at this file and, unless it names its own
    line, at the line being read (1 while the header is checked, then each
    row's line in turn, none once every row has been read). The file's bytes
    are let go when the block ends.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.line: int | None = 1
        data, starts, ends = read_lines(self.path, CsvParseError)
        if not len(starts):
            raise CsvParseError("file is empty (no header row)", line=1, file=str(self.path))
        self._quoted = b'"' in data
        if self._quoted:
            # Quoted fields may hold commas and line breaks: csv splits them.
            reader = csv.reader(io.StringIO(data.decode(), newline=""))
            try:
                header, *records = reader  # a quote makes one row at least
            except csv.Error as exc:  # e.g. an unclosed quote past the field limit
                raise CsvParseError(str(exc), line=reader.line_num, file=str(self.path)) from None
            # Blank records are skipped but keep their line numbers, as csv does.
            self._records = [(i, rec) for i, rec in enumerate(records, start=2) if rec]
        else:
            header = data[starts[0]:ends[0]].decode().split(",") if ends[0] > starts[0] else []
            rows = np.flatnonzero(ends[1:] > starts[1:]) + 1  # blank rows keep their lines
            self._data, self._lines = data, rows + 1
            self._starts, self._ends = starts[rows], ends[rows]
        self.header = [h.strip() for h in header]

    def __enter__(self) -> "_Table":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._data = self._records = None
        if isinstance(exc, RegrowError):
            exc.locate(self.path, self.line)
        return False

    def rows(self, width: int, *, exact: bool = True):
        """Yield the fields of each data row, in file order: the row's text
        fields, or a quoted file's fields as ``csv`` reads them.

        A row must have ``width`` fields (at least ``width`` if not
        ``exact``), else MissingColumnError.
        """
        if self._quoted:
            records = self._records
        else:
            data = self._data
            records = ((line, data[a:b].decode().split(","))
                       for line, a, b in zip(self._lines.tolist(), self._starts.tolist(),
                                             self._ends.tolist()))
        for line, row in records:
            self.line = line
            if (len(row) != width) if exact else (len(row) < width):
                raise MissingColumnError(f"expected {width} fields, got {len(row)}")
            yield row
        self.line = None

    def sorted_keys(self):
        """(ids, years, row of each record) of an ``id,year,...`` table with
        its rows in (id, year) order; None for a quoted file, a missing or bad
        year, or a repeated key.
        """
        if self._quoted:
            return None
        # Only the two head fields of a row are cut, never its numbers.
        data, n = self._data, len(self._starts)
        first: dict[bytes, int] = {}  # each id, numbered in order of first sight
        codes, years = np.empty(n, np.int64), np.empty(n, np.int64)
        for i, (a, b) in enumerate(zip(self._starts.tolist(), self._ends.tolist())):
            comma = data.find(b",", a, b)
            if comma < 0:
                return None
            end = data.find(b",", comma + 1, b)
            codes[i] = first.setdefault(data[a:comma], len(first))
            try:
                years[i] = int(data[comma + 1:b if end < 0 else end].decode())
            except (ValueError, OverflowError):
                return None
        names = [name.decode() for name in first]
        unique = sorted(names)
        rank = dict(zip(unique, range(len(unique))))
        codes = np.array([rank[name] for name in names], np.int64)[codes]
        order = np.lexsort((years, codes))  # records in (id, year) order
        codes, years = codes[order], years[order]
        if ((codes[1:] == codes[:-1]) & (years[1:] == years[:-1])).any():
            return None
        slots = np.empty_like(order)
        slots[order] = np.arange(len(order))
        return tuple(map(unique.__getitem__, codes.tolist())), tuple(years.tolist()), slots

    def _parse_bulk(self, count: int, kind: type, threads: int | None, slots: np.ndarray):
        """The ``count`` numbers after the id and year of every row parsed in
        bulk into a read-only (rows, count) matrix, record i at row
        ``slots[i]``, or None on any anomaly or a row that breaks a rule of
        ``kind``.

        The rows are cut into blocks of ``_PARSE_CELLS`` cells, one job each
        (see ``_parse_block``). A table of more than ``_POOL_CELLS`` cells
        hands them to the pool: its matrix is an anonymous mapping made
        before the workers fork, and the workers read their rows from the
        file's bytes they inherit, so only each block's flag comes back
        through a pipe. The first block with an anomaly ends the parse, and
        the table goes cell by cell.
        """
        n = len(self._starts)
        if n * count > _POOL_CELLS:
            matrix = np.frombuffer(mmap.mmap(-1, n * count * 8)).reshape(n, count)
        else:
            matrix = np.empty((n, count))
            # In process; min keeps a cap below 1, which the pool rejects.
            threads = 1 if threads is None else min(threads, 1)
        step = max(1, _PARSE_CELLS // count)
        blocks = [(self, a, min(a + step, n), count, kind, matrix, slots)
                  for a in range(0, n, step)]
        if not all(iter_jobs(_parse_block, blocks, threads)):
            return None
        matrix.flags.writeable = False
        return matrix


def _parse_block(table: _Table, a: int, b: int, count: int, kind: type, out, slots) -> bool:
    """Parse the ``count`` numbers after the id and year of each of the rows
    ``a:b`` of an unquoted ``table`` into their rows ``slots[a:b]`` of ``out``.

    Returns whether the block was clean: False on a row without exactly
    ``count + 2`` fields, an empty cell, a cell numpy cannot parse or that
    holds blanks, a non-finite value, or a row that breaks a rule of ``kind``.
    """
    data, starts, ends = table._data, table._starts[a:b], table._ends[a:b]
    if (starts[1:] == ends[:-1] + 1).all():
        # The rows are one run of the file's bytes, one line-end byte apart.
        base = int(starts[0])
    else:
        # A blank line or a \r\n between rows: the rows are joined by \n.
        data = b"\n".join(map(data.__getitem__, map(slice, starts.tolist(), ends.tolist())))
        base, ends = 0, np.cumsum(ends - starts + 1) - 1
        starts = np.concatenate([[0], ends[:-1] + 1])
    values = _parse_rows(data, base, starts - base, ends - base, count)
    # An embedding's one rule, finiteness, holds for every parsed value.
    if values is None or (kind is not EmbeddingVector and not kind.rows_pass(values)):
        return False
    out[slots[a:b]] = values
    return True


def _spans(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The offsets of the spans ``starts[i]:ends[i]``, in order."""
    lengths = ends - starts
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _parse_rows(data: bytes, base: int, starts: np.ndarray, ends: np.ndarray,
                count: int) -> np.ndarray | None:
    """The ``count`` numbers after the id and year of each row
    ``data[base + starts[i]:base + ends[i]]``, the rows one line-end byte
    apart, as a (rows, count) matrix; None on a row without ``count + 2``
    fields, an empty cell, or a cell that ``np.fromstring`` cannot read,
    that holds blanks or that is not finite.

    ``_exact_cells`` parses the cells it can; the rest, or every cell where
    ``np.longdouble`` is not the x87 type, go through one ``np.fromstring``.
    """
    rows, size = len(starts), int(ends[-1])
    # A NUL after the cells ends the last one: numpy reads an integer on past
    # the end of the array it is given.
    u = np.zeros(size + 1, np.uint8)[:size]
    u[:] = np.frombuffer(data, np.uint8, size, base)
    commas = np.flatnonzero(u == _COMMA)
    # Dealt out count + 1 a row, in order, the commas all fall in their own
    # rows iff every row has count + 1 of them.
    if len(commas) != rows * (count + 1):
        return None
    commas = commas.reshape(rows, count + 1)
    if (commas[:, 0] < starts).any() or (commas[:, -1] >= ends).any():
        return None
    cell_starts = (commas[:, 1:] + 1).ravel()
    cell_ends = np.concatenate([commas[:, 2:], ends[:, None]], axis=1).ravel()
    if (cell_ends == cell_starts).any():
        return None  # an empty cell
    if x87.X87:
        # Line ends become commas, and each row's id and year, with the two
        # commas after them, become leading zeros of its first cell.
        u[ends[:-1]] = _COMMA
        u[_spans(starts, cell_starts[::count])] = _ZERO
        values, left = _exact_cells(u, cell_starts, cell_ends)
        left = np.flatnonzero(left)
        spans = cell_starts[left], cell_ends[left]
    else:
        values, left, spans = np.empty(len(cell_starts)), slice(None), (cell_starts[::count], ends)
    if len(spans[0]):
        text = b",".join(map(data.__getitem__, map(slice, (spans[0] + base).tolist(),
                                                     (spans[1] + base).tolist())))
        # numpy, like float(), skips blanks around a number, but it reads a
        # blank cell as -1; cells with blanks are left to the cell-by-cell path.
        if any(blank in text for blank in b" \t\v\f"):
            return None
        try:
            parsed = np.fromstring(text, sep=",")
        except ValueError:
            return None
        if parsed.size != values[left].size or not np.isfinite(parsed).all():
            return None
        values[left] = parsed
    return values.reshape(rows, count)


def _exact_cells(u: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """(values, left): the cells ``u[starts[i]:ends[i]]`` parsed as
    ``float()`` parses them, and a mask of the cells left unparsed, whose
    values are garbage.

    ``u`` holds the cells, none empty, separated by commas, with at most
    some zeros between a comma and the next cell, and is overwritten. A NUL
    byte must follow it in memory (see ``_parse_rows``).

    A cell ``-?digits[.digits]`` whose digits, the dot read as a 0, are
    S < 10**18 and that has k <= 27 digits after its dot is the decimal
    M / 10**k, M = (S - S % 10**k) // 10 + S % 10**k (M = S without a dot),
    and M and 10**k are exact in the 64-bit significand of an x87 long
    double. Their quotient is rounded once, to 64 bits, and then to a
    double: that second rounding is the one of the exact decimal unless the
    quotient lies on the midpoint of two doubles, a cell left unparsed, like
    every other cell.
    """
    n = len(starts)
    left = np.zeros(n, bool)
    odd = u < _COMMA
    odd |= u > _NINE
    odd |= u == _SLASH
    left[np.searchsorted(ends, np.flatnonzero(odd))] = True
    del odd
    if left.any():  # such a cell becomes 0...0. for the integer parse, a dot at its end
        u[_spans(starts[left], ends[left])] = _ZERO
        u[ends[left] - 1] = _DOT
    negative = u[starts] == _MINUS
    if np.count_nonzero(u == _MINUS) != np.count_nonzero(negative):  # a minus inside a cell
        minus = np.flatnonzero(u == _MINUS)
        cell = np.searchsorted(ends, minus)
        left[cell[minus != starts[cell]]] = True
        u[minus] = _ZERO
    else:
        u[starts[negative]] = _ZERO
    dots = np.flatnonzero(u == _DOT)
    if len(dots) == n and ((dots >= starts) & (dots < ends)).all():
        point, k = np.ones(n, bool), ends - dots - 1  # one dot in each cell
    else:
        cell = np.searchsorted(ends, dots)
        per_cell = np.bincount(cell, minlength=n)
        left |= per_cell > 1
        point, k = per_cell == 1, np.zeros(n, np.intp)
        k[cell] = ends[cell] - dots - 1
    left |= ends - starts - point - negative == 0  # no digit
    u[dots] = _ZERO
    digits = np.fromstring(u, np.int64, sep=",")
    left |= (digits >= 10**18) | (k > 27)
    low = digits % x87.POW10[np.minimum(k, 18)]
    significand = digits - low
    significand //= 10
    significand += low
    np.copyto(significand, digits, where=~point)
    del digits, low
    quotient = significand.astype(np.longdouble)
    quotient /= x87.POW10_X87[np.minimum(k, 27)]
    left |= x87.significand(quotient) & 0x7FF == 0x400
    values = quotient.astype(np.float64)
    np.negative(values, out=values, where=negative)
    return values, left


def _clip(text: str) -> str:
    """A cell as an error message echoes it, cut to ``_ECHO_CHARS`` characters:
    a header that opens an unclosed quote is one cell holding the rest of
    the file."""
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "..."


def _bad_header(expected, got: Sequence[str]) -> MissingColumnError:
    return MissingColumnError(f"expected header {expected}, got {[_clip(c) for c in got]}")


def _parse_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CsvParseError(f"bad {what}: {_clip(text)!r}") from None
    if not math.isfinite(value):
        raise NonFiniteError(f"non-finite {what}: {_clip(text)!r}")
    return value


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CsvParseError(f"bad {what}: {_clip(text)!r}") from None


def load_lulc_codes(path: str | Path) -> LULCCodeMap:
    with _Table(path) as table:
        if table.header[:2] != ["code", "name"]:
            raise _bad_header("code,name", table.header)
        entries: dict[int, str] = {}
        for code_text, name in table.rows(2):
            code = _parse_int(code_text, "code")
            if code in entries:
                raise DuplicateKeyError(f"duplicate LULC code {code}")
            entries[code] = name.strip()
        return LULCCodeMap(entries)


class YearTable(Mapping):
    """An ``id,year,...`` table as a read-only ``{(id, year): value}`` map:
    the id and year of each row, in (id, year) order, and ``matrix``, the
    rows. ``kind`` wraps a row only when it is read.
    """

    def __init__(self, ids: tuple[str, ...], years: tuple[int, ...], matrix: np.ndarray,
                 kind: type):
        self.ids, self.years, self.matrix, self.kind = ids, years, matrix, kind

    @classmethod
    def from_mapping(cls, mapping: Mapping, kind: type) -> "YearTable":
        """``mapping`` itself if it is a YearTable, else a table of its values."""
        if isinstance(mapping, YearTable):
            return mapping
        keys = sorted(mapping)
        return cls(tuple(rid for rid, _ in keys), tuple(year for _, year in keys),
                   stack_rows([mapping[key].as_array() for key in keys]), kind)

    def year_map(self, rid: str, window: tuple[int, int]) -> YearMap:
        """The rows of ``rid`` with a year in ``window``, as one YearMap view."""
        a, b = bisect_left(self.ids, rid), bisect_right(self.ids, rid)
        a, b = bisect_left(self.years, window[0], a, b), bisect_right(self.years, window[1], a, b)
        return YearMap(self.years[a:b], self.matrix[a:b], self.kind)

    def __getitem__(self, key: tuple[str, int]):
        rid, year = key
        return self.year_map(rid, (year, year))[year]

    def __iter__(self):
        return zip(self.ids, self.years)

    def __len__(self) -> int:
        return len(self.ids)


def _load_keyed(table: _Table, what: str, kind: type, names: Sequence[str], *,
                exact: bool = True, threads: int | None = None) -> YearTable:
    """An ``id,year,...`` table as a YearTable of ``kind`` values, one
    numeric column per name in ``names`` after the id and year.

    The keys come first, so the bulk parse writes each row to its sorted
    slot. An anomaly in the keys, the parse or ``kind``'s rules sends the
    table cell by cell, where a repeated key or an InvalidValueError is an
    error at the row's line.
    """
    count = len(names)
    keys = table.sorted_keys()
    if keys is not None:
        ids, years, slots = keys
        matrix = table._parse_bulk(count, kind, threads, slots)
        if matrix is not None:
            return YearTable(ids, years, matrix, kind)
    out = {}
    for rid, year, *cells in table.rows(count + 2, exact=exact):
        key = (rid, _parse_int(year, "year"))
        if key in out:
            raise DuplicateKeyError(f"duplicate {what} key {key}")
        try:
            values = [_parse_float(text, name) for text, name in zip(cells, names)]
            out[key] = kind(values) if kind is EmbeddingVector else kind(*values)
        except InvalidValueError as exc:
            raise CsvParseError(str(exc)) from None
    return YearTable.from_mapping(out, kind)


def load_embeddings(path: str | Path, *, threads: int | None = None) -> YearTable:
    """Load per-(id, year) embedding vectors as a YearTable.

    The dimension is inferred from the header (number of A-columns) and
    must be constant; a row with a different field count raises
    MissingColumnError with its line number. The table maps (id, year) to
    an EmbeddingVector, a read-only row of its one float64 matrix.
    ``threads`` caps the worker processes that parse a large file (None:
    every available core).
    """
    with _Table(path) as table:
        header = table.header
        if len(header) < 3 or header[0] != "id" or header[1] != "year":
            raise _bad_header("id,year,A00,...", header[:3])
        bad = [_clip(c) for c in header[2:] if not c.startswith("A")]
        if bad:
            raise MissingColumnError(f"non-embedding columns after id,year: {bad}")
        names = ["embedding value"] * (len(header) - 2)
        return _load_keyed(table, "embedding", EmbeddingVector, names, threads=threads)


def _load_spectral(path: str | Path, threads: int | None) -> YearTable:
    with _Table(path) as table:
        if table.header[:4] != ["id", "year", "ndvi", "evi"]:
            raise _bad_header("id,year,ndvi,evi", table.header)
        return _load_keyed(table, "spectral", SpectralIndices, SpectralIndices.FIELD_NAMES,
                           exact=False, threads=threads)


def _load_covariates(path: str | Path, threads: int | None) -> YearTable:
    with _Table(path) as table:
        expected = ["id", "year", *CovariateSet.FIELD_NAMES]
        if table.header != expected:
            raise _bad_header(expected, table.header)
        return _load_keyed(table, "covariate", CovariateSet, CovariateSet.FIELD_NAMES,
                           threads=threads)


def load_sites(
    meta_path: str | Path,
    embeddings: Mapping[tuple[str, int], EmbeddingVector],
    spectral_path: str | Path | None = None,
    covariates_path: str | Path | None = None,
    *,
    window: tuple[int, int] = (2017, 2024),
    lulc_codes: LULCCodeMap = DEFAULT_LULC_CODES,
    threads: int | None = None,
) -> tuple[list[SiteRecord], list[str]]:
    """Join site metadata with the per-year tables.

    Returns (sites sorted by site_id, ids of sites that had no embedding
    years). The latter are excluded from the result rather than kept
    silently; callers should surface them. ``threads`` caps the worker
    processes that parse a large table.
    """
    with _Table(meta_path) as table:
        expected = ["site_id", "lon", "lat", "area_ha", "start_year", "strategy", "start_lulc"]
        if table.header != expected:
            raise _bad_header(expected, table.header)
        embeddings = YearTable.from_mapping(embeddings, EmbeddingVector)
        spectral = YearTable.from_mapping(
            _load_spectral(spectral_path, threads) if spectral_path else {}, SpectralIndices)
        covariates = YearTable.from_mapping(
            _load_covariates(covariates_path, threads) if covariates_path else {}, CovariateSet)

        sites: list[SiteRecord] = []
        no_embeddings: list[str] = []
        seen: set[str] = set()
        for site_id, lon, lat, area_ha, start_year, strategy, start_lulc in table.rows(7):
            site_id = site_id.strip()
            if not site_id:
                raise MissingMetadataFieldError("empty site_id")
            if site_id in seen:
                raise DuplicateKeyError(f"duplicate site_id {site_id!r}")
            seen.add(site_id)
            for name, text in (("lon", lon), ("lat", lat), ("area_ha", area_ha),
                               ("start_year", start_year)):
                if not text.strip():
                    raise MissingMetadataFieldError(f"missing {name} for {site_id}")
            site_embeddings = embeddings.year_map(site_id, window)
            if not site_embeddings:
                no_embeddings.append(site_id)
                continue
            start_lulc_text = start_lulc.strip()
            try:
                site = SiteRecord(
                    site_id=site_id,
                    centroid_lon=_parse_float(lon, "lon"),
                    centroid_lat=_parse_float(lat, "lat"),
                    area_ha=_parse_float(area_ha, "area_ha"),
                    start_year=_parse_int(start_year, "start_year"),
                    strategy=parse_strategy(strategy),
                    embeddings=site_embeddings,
                    spectral=spectral.year_map(site_id, window),
                    covariates=covariates.year_map(site_id, window),
                    start_lulc=lulc_codes.class_for_name(start_lulc_text) if start_lulc_text else None,
                )
            except InvalidValueError as exc:
                raise CsvParseError(str(exc)) from None
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
    otherwise MissingYearColumnError is raised. A code missing from
    ``lulc_codes`` is kept as Other(code), with one warning per code and
    its cell count once the file is loaded.
    """
    with _Table(meta_path) as table:
        header = table.header
        if header[:3] != ["point_id", "lon", "lat"]:
            raise _bad_header("point_id,lon,lat,lulc_<Y>...", header[:3])
        year_cols: dict[int, int] = {}  # year -> column of its code
        for idx, name in enumerate(header[3:], start=3):
            if not name.startswith("lulc_"):
                raise MissingColumnError(f"unexpected column {_clip(name)!r}")
            year = _parse_int(name[len("lulc_"):], f"year in column {_clip(name)!r}")
            if year_cols.setdefault(year, idx) != idx:
                raise DuplicateKeyError(f"duplicate column for year {year}: {_clip(name)!r}")
        for year in range(lulc_years[0], lulc_years[1] + 1):
            if year not in year_cols:
                raise MissingYearColumnError(f"missing column lulc_{year}")

        embeddings = YearTable.from_mapping(embeddings, EmbeddingVector)
        points: list[ReferencePoint] = []
        seen: set[str] = set()
        unmapped: Counter[int] = Counter()  # unknown code -> cells
        for fields in table.rows(len(header)):
            point_id = fields[0].strip()
            if not point_id:
                raise MissingMetadataFieldError("empty point_id")
            if point_id in seen:
                raise DuplicateKeyError(f"duplicate point_id {point_id!r}")
            seen.add(point_id)
            series = {}
            for year, idx in year_cols.items():
                code = _parse_int(fields[idx], f"lulc_{year}")
                if code not in lulc_codes:
                    unmapped[code] += 1
                series[year] = lulc_codes.class_for_code(code)
            try:
                points.append(
                    ReferencePoint(
                        point_id=point_id,
                        lon=_parse_float(fields[1], "lon"),
                        lat=_parse_float(fields[2], "lat"),
                        lulc_series=series,
                        embeddings=embeddings.year_map(point_id, window),
                    )
                )
            except InvalidValueError as exc:
                raise CsvParseError(str(exc)) from None
    for code, cells in sorted(unmapped.items()):
        log.warning("unmapped LULC code %d kept as Other(%d) in %d cell(s) of %s",
                    code, code, cells, meta_path)
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
    threads: int | None = None,
) -> tuple[Dataset, list[str]]:
    """Convenience joiner used by the CLI. Returns (dataset, zero-embedding site ids).

    ``threads`` caps the worker processes that parse a large table (None:
    every available core, 1: none); the dataset does not depend on it.
    """
    codes = load_lulc_codes(lulc_codes_path) if lulc_codes_path else DEFAULT_LULC_CODES
    embeddings = load_embeddings(embeddings_path, threads=threads)
    sites, skipped = load_sites(
        sites_path,
        embeddings,
        spectral_path,
        covariates_path,
        window=window,
        lulc_codes=codes,
        threads=threads,
    )
    references = load_reference_points(
        reference_points_path,
        embeddings,
        lulc_years=lulc_years,
        window=window,
        lulc_codes=codes,
    )
    return Dataset(sites=tuple(sites), references=tuple(references), window=window), skipped
