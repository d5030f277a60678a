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
- Every ingest error names its file and the 1-based first line of the row
  at fault (line 1 is the header). An error about a table as a whole, such
  as a duplicate class name in lulc_codes.csv, names the file only.

No file is held whole. ``read_lines`` scans each one ``_SCAN_BYTES`` (1 MB)
at a time through one buffer: it finds the line ends, notes a ``"``, and
checks that the file is UTF-8 without keeping anything it decodes (an ASCII
chunk is not decoded at all). The file then stays open, and every later
step reads only the rows it needs with ``os.pread``: a run of rows of at
most ``_SCAN_BYTES``, or one row block. The three ``id,year,...`` tables
hold nearly all of the input's bytes; their numbers are parsed in bulk into
one read-only matrix, ``_PARSE_CELLS`` cells of rows at a time. A cell
``-?digits[.digits]`` is read as an integer significand M < 10**18 and k <= 27
digits after its dot, and its value is M / 10**k, divided as x87 long
doubles. Both operands are exact in their 64-bit significand, so the
quotient is rounded once, and rounding it on to a double gives the double
nearest the decimal, as ``float()`` does, unless it lies on the midpoint of
two doubles. Every cell it leaves (a midpoint, ``1e-05``, ``1_0``), and
every cell where ``np.longdouble`` is not the x87 type, is read by
``float()`` itself. Each row block is one job of
``pool.iter_jobs``, on the worker pool for a table of more than
``_POOL_CELLS`` cells (``threads`` caps it, as everywhere), each worker
reading its rows from the file descriptor it inherits and writing them to
one shared matrix. A parse holds the matrix and one block's bytes and
temporaries (~2 MB) per worker: no copy of the file and no string per row.
Such a table is read keys first: one pass cuts each row's
id and year from its head, and their sort gives each row its place in the
matrix, so the rows come out in (id, year) order and each id's years are one
``YearMap`` view; each block's rows are checked against the ``CovariateSet``
and ``SpectralIndices`` rules as they are parsed. No row is wrapped in an
object. A file whose size or modification time changes during its load is a
``parse_error``: no load mixes the bytes of two versions of a file.
A quoted file, a spectral.csv with columns past ``evi``, or a table with an
error (a bad year, a repeated key, a wrong field count, a cell ``float()``
refuses, a non-finite value, a broken rule) is read cell by cell, in file
order, which raises the first error at its line. Files that ``regrow synth``
writes never take that path. No worker count or row order changes the
matrix. The small tables (sites, reference points, LULC codes) are always
read cell by cell, in their loader's order of checks. On every route the
header and the cell-by-cell rows come from one ``csv.reader`` fed a run of
lines at a time, so a quoted file streams as a plain one does.

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
import os
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from stat import S_ISREG
from typing import Collection, Mapping, Sequence

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
#: saves; it saved 0.026 s at 1.5M and 0.087 s at 2M, and parses the 5x
#: world's 3.9M cells in ~0.76 s instead of ~0.96 s. A load holds no copy of
#: its file, so the seed-7 file (676k cells) is parsed in process: its whole
#: load took 0.182 s instead of 0.210 s on the pool (median of 30
#: alternating fresh-process loads, faster in 24), and ``regrow predict``
#: on that world peaked at 47.7 MB RSS instead of 47.0 MB (4 runs each).
_POOL_CELLS = 1_000_000

#: Numeric cells of one row block, the unit of a bulk parse and one job of
#: the pool: 256 rows of 64 embedding values, ~330 kB of text. Measured on
#: 2 cores, in process, the 5x world's tables (median of 7-15 alternating
#: passes, ns a cell at 4k/8k/16k/32k/64k cells): embeddings.csv
#: 195/167/179/210/250, covariates.csv 157/140/138/143/205, spectral.csv
#: 368/313/334/398/478. A block's temporaries are ~113 bytes a cell (1.9 MB
#: at 16k cells, 2.95 MB at 64k); a ``threads=1`` load of the 5x
#: embeddings.csv peaked at 149 MB RSS with 8k-16k cells, 155 MB with 64k
#: and 180 MB with 256k.
_PARSE_CELLS = 16_384

#: Bytes of a file that one read holds, one row block aside: a chunk of the
#: scan for its line ends and its UTF-8 check, or a run of rows. Each
#: chunk's temporaries are a few times this size.
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


class _Source(io.FileIO):
    """An input file open for reads by offset: each ``pread`` is one
    ``os.pread`` of the bytes asked for, never the whole file. A forked
    worker inherits the descriptor and reads its own rows from it.

    The file's size and modification time are taken when it is opened. A
    short read, or a size or time that differs after a read, is a
    CsvParseError at the file: a load never mixes the bytes of two versions
    of a file.
    """

    def __init__(self, path: Path):
        super().__init__(path)
        stat = os.fstat(self.fileno())
        if not S_ISREG(stat.st_mode):  # a pipe has no offsets to read at
            self.close()
            raise CsvParseError("not a regular file", file=str(path))
        self.path = path
        self.size, self._stamp = stat.st_size, (stat.st_size, stat.st_mtime_ns)
        #: Whether the file holds a ``"``; set by ``read_lines``.
        self.quoted = False

    def check(self, got: int, wanted: int) -> None:
        """Raise unless ``got`` bytes were read of ``wanted`` and the file is as it was opened."""
        stat = os.fstat(self.fileno())
        if got != wanted or (stat.st_size, stat.st_mtime_ns) != self._stamp:
            raise CsvParseError("the file changed while it was read", file=str(self.path))

    def pread(self, a: int, b: int) -> bytes:
        """The file's bytes ``a:b``."""
        data = os.pread(self.fileno(), b - a, a)
        self.check(len(data), b - a)
        return data


def _line_bounds(lf: np.ndarray, cr: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends): the offsets of each line of a file of ``size`` bytes,
    its line end excluded, from the offsets of its ``\\n`` and ``\\r``
    bytes. A line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in
    ``csv``; a line end at the end of the file starts no further line."""
    ends = lf
    width = np.ones_like(ends)  # bytes of each line end
    if len(cr):
        lone = lf[~np.isin(lf - 1, cr)]  # each \n that is not the end of a \r\n
        ends = np.concatenate([cr, lone])
        width = np.concatenate([1 + np.isin(cr + 1, lf), np.ones_like(lone)])
        order = np.argsort(ends)
        ends, width = ends[order], width[order]
    starts = np.concatenate([[0], ends + width])
    ends = np.append(ends, size)
    if starts[-1] == size:
        starts, ends = starts[:-1], ends[:-1]
    return starts, ends


def read_lines(path: str | Path, error: type[RegrowError]) -> tuple[_Source, np.ndarray, np.ndarray]:
    """A UTF-8 file, open as a ``_Source``, and the offsets of its lines:
    line ``i + 1`` is its bytes ``starts[i]:ends[i]``. The caller closes it.

    One pass reads the file ``_SCAN_BYTES`` at a time into one buffer. It
    finds the line ends, notes whether the file holds a ``"``, and feeds
    each chunk that is not ASCII to an incremental UTF-8 decoder, which
    keeps nothing it decodes. A byte that is not UTF-8 raises ``error`` at
    the file and the line of the byte.
    """
    source = _Source(Path(path))
    try:
        size = source.size
        buffer = bytearray(min(_SCAN_BYTES, size))
        view, u = memoryview(buffer), np.frombuffer(buffer, np.uint8)
        lf, cr = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        decoder = codecs.getincrementaldecoder("utf-8")()
        bad, a = None, 0
        while a < size:
            n = source.readinto(view[:min(len(buffer), size - a)])
            if not n:
                break
            lf.append(np.flatnonzero(u[:n] == ord("\n")) + a)
            if buffer.find(b"\r", 0, n) >= 0:
                cr.append(np.flatnonzero(u[:n] == ord("\r")) + a)
            source.quoted = source.quoted or buffer.find(b'"', 0, n) >= 0
            if bad is None and (decoder.buffer or u[:n].max() > 127):
                try:
                    decoder.decode(view[:n], a + n == size)
                except UnicodeDecodeError as exc:
                    # The decoder held back the bytes of a character cut at ``a``.
                    exc.start += a - len(decoder.buffer)
                    bad = exc
            a += n
        source.check(a, size)
        starts, ends = _line_bounds(np.concatenate(lf), np.concatenate(cr), size)
        if bad is not None:
            line = int(np.searchsorted(starts, bad.start, side="right"))
            raise error(f"not UTF-8 ({bad.reason})", line=line, file=str(path))
    except BaseException:
        source.close()
        raise
    return source, starts, ends


def line_spans(source: _Source, starts: np.ndarray, ends: np.ndarray):
    """Yield (data, a, b) for each line ``starts[i]:ends[i]`` of ``source``:
    the line is ``data[a:b]``. The lines are read in runs of at most
    ``_SCAN_BYTES`` bytes, or one longer line."""
    i = 0
    while i < len(starts):
        base = int(starts[i])
        j = max(i + 1, int(np.searchsorted(ends, base + _SCAN_BYTES, "right")))
        data = source.pread(base, int(ends[j - 1]))
        for a, b in zip(starts[i:j].tolist(), ends[i:j].tolist()):
            yield data, a - base, b - base
        i = j


class _Table:
    """One input CSV, read once: its stripped header and its non-blank records.

    The file stays open as a ``_Source`` with the offsets of its lines and
    is read a run of lines, or one row block, at a time; one ``csv.reader``
    reads its header and records, quoted or not. As a context manager, the
    table locates a RegrowError raised inside its ``with`` block at this
    file and, unless it names its own line, at the line being read (1 while
    the header is checked, then each record's first line, none once every
    record has been read or while the keys and numbers are read in bulk),
    and closes the file when the block ends, however it ends.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.line: int | None = 1
        self._source, starts, ends = read_lines(self.path, CsvParseError)
        try:
            if not len(starts):
                raise CsvParseError("file is empty (no header row)", line=1, file=str(self.path))
            #: The offset of each line, then the file's size: line i + 1 is
            #: ``_bounds[i]:_bounds[i + 1]`` with its line end.
            self._bounds = np.append(starts, self._source.size)
            reader = self._reader(0)
            try:
                header = next(reader)  # a file of one line or more holds a record
            except csv.Error as exc:  # e.g. an unclosed quote past the field limit
                raise CsvParseError(str(exc), line=1, file=str(self.path)) from None
            self._first = reader.line_num  # the lines the header spans
            # The non-blank lines after the header: the rows of a bulk parse.
            rows = np.flatnonzero(ends[self._first:] > starts[self._first:]) + self._first
            self._starts, self._ends = starts[rows], ends[rows]
        except BaseException:
            self._source.close()
            raise
        self.header = [h.strip() for h in header]

    def __enter__(self) -> "_Table":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._source.close()
        if isinstance(exc, RegrowError):
            exc.locate(self.path, self.line)
        return False

    def _reader(self, first: int):
        """A ``csv.reader`` of the file's lines from line ``first + 1`` on."""
        spans = line_spans(self._source, self._bounds[first:-1], self._bounds[first + 1:])
        return csv.reader(data[a:b].decode() for data, a, b in spans)

    def rows(self, width: int, *, exact: bool = True):
        """Yield the fields of each non-blank record after the header, in
        file order, as ``csv`` reads them. A record must have ``width``
        fields (at least ``width`` if not ``exact``), else MissingColumnError.
        """
        reader = self._reader(self._first)
        self.line = self._first + 1
        try:
            for row in reader:
                if row:  # blank records are skipped but keep their lines, as csv does
                    if (len(row) != width) if exact else (len(row) < width):
                        raise MissingColumnError(f"expected {width} fields, got {len(row)}")
                    yield row
                self.line = self._first + reader.line_num + 1  # the next record's first line
        except csv.Error as exc:  # e.g. an unclosed quote past the field limit
            raise CsvParseError(str(exc)) from None
        self.line = None

    def sorted_keys(self):
        """(ids, years, row of each record) of an ``id,year,...`` table with
        its rows in (id, year) order; None for a quoted file, a missing or bad
        year, or a repeated key.
        """
        if self._source.quoted:
            return None
        self.line = None
        # Only the two head fields of a row are cut, never its numbers.
        n = len(self._starts)
        first: dict[bytes, int] = {}  # each id, numbered in order of first sight
        codes, years = np.empty(n, np.int64), np.empty(n, np.int64)
        for i, (data, a, b) in enumerate(line_spans(self._source, self._starts, self._ends)):
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
        before the workers fork, and each worker reads its blocks' rows from
        the file descriptor it inherits, so only each block's flag comes
        back through a pipe. The first block with an anomaly ends the parse,
        and the table goes cell by cell.
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
    ``count + 2`` fields, a cell ``float()`` refuses, a non-finite value, or
    a row that breaks a rule of ``kind``.
    """
    starts, ends = table._starts[a:b], table._ends[a:b]
    base = int(starts[0])
    data = table._source.pread(base, int(ends[-1]))
    values = _parse_rows(data, starts - base, ends - base, count)
    # An embedding's one rule, finiteness, holds for every parsed value.
    if values is None or (kind is not EmbeddingVector and not kind.rows_pass(values)):
        return False
    out[slots[a:b]] = values
    return True


def _spans(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The offsets of the spans ``starts[i]:ends[i]``, in order."""
    lengths = ends - starts
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _parse_rows(data: bytes, starts: np.ndarray, ends: np.ndarray,
                count: int) -> np.ndarray | None:
    """The ``count`` numbers after the id and year of each row
    ``data[starts[i]:ends[i]]``, with only line-end bytes (``\\r``, ``\\n``)
    between the rows, as a (rows, count) matrix; None on a row without
    ``count + 2`` fields or a cell ``float()`` refuses or reads as non-finite.

    ``_exact_cells`` parses the cells it can. ``float()`` reads the rest, or,
    where ``np.longdouble`` is not the x87 type, each row's cells after its
    year, from one comma join of them.
    """
    rows, size = len(starts), int(ends[-1])
    # A NUL after the cells ends the last one: numpy reads an integer on past
    # the end of the array it is given.
    u = np.zeros(size + 1, np.uint8)[:size]
    u[:] = np.frombuffer(data, np.uint8, size)
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
        # The first byte after each row becomes a comma, and every byte from
        # there to the next row's first cell (the rest of its line ends, its
        # id and year and the two commas after them) a leading zero of that cell.
        u[ends[:-1]] = _COMMA
        u[_spans(np.r_[starts[:1], ends[:-1] + 1], cell_starts[::count])] = _ZERO
        values, left = _exact_cells(u, cell_starts, cell_ends)
        left = np.flatnonzero(left)
        spans = cell_starts[left], cell_ends[left]
    else:
        values, left, spans = np.empty(len(cell_starts)), slice(None), (cell_starts[::count], ends)
    if len(spans[0]):
        text = b",".join(map(data.__getitem__, map(slice, spans[0].tolist(), spans[1].tolist())))
        try:
            values[left] = parsed = np.fromiter(map(float, text.decode().split(",")), float)
        except ValueError:
            return None
        if not np.isfinite(parsed).all():
            return None
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
        entries: dict[int, tuple[str, int]] = {}  # code -> (name, line of its row)
        for code_text, name in table.rows(2):
            code = _parse_int(code_text, "code")
            if code in entries:
                raise DuplicateKeyError(f"duplicate LULC code {code}")
            entries[code] = name.strip(), table.line
        # The names are checked once every row is read, in code order, as
        # LULCCodeMap checks them: an unknown name is an error at its row, and
        # at the first repeated one LULCCodeMap raises the table's error.
        first: dict[str, int] = {}  # each name's first code
        for code, (name, line) in sorted(entries.items()):
            if first.setdefault(name, code) != code:
                break
            table.line = line
            LULCClass(name, code)
        table.line = None
        return LULCCodeMap({code: name for code, (name, _) in entries.items()})


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
    site_ids: Collection[str] = (),
) -> list[ReferencePoint]:
    """Load reference points; stability is left unclassified.

    The header must contain lulc_<Y> for every year in ``lulc_years``;
    otherwise MissingYearColumnError is raised. A code missing from
    ``lulc_codes`` is kept as Other(code), with one warning per code and
    its cell count once the file is loaded. A point_id in ``site_ids`` is
    a DuplicateKeyError: sites and points share one embeddings table.
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
            if point_id in site_ids:
                raise DuplicateKeyError(f"point_id {point_id!r} is also a site_id")
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
        site_ids={s.site_id for s in sites}.union(skipped),
    )
    return Dataset(sites=tuple(sites), references=tuple(references), window=window), skipped
