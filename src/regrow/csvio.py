r"""Deterministic CSV writing helpers.

All output tables use `\n` line endings and shortest-round-trip float
formatting (repr) so identical runs produce byte-identical files. A table
is formatted in contiguous slabs through ``pool.iter_jobs``, on the worker
pool when its caller allows it and it has two slabs or more, and written
here in order, so its bytes do not depend on the worker count.

The float cells of a slab are formatted together, as ``repr()`` writes
them, by ``_float_text``. For a double x with 1e-4 <= |x| < 1e16, which
repr writes with a dot and no exponent, S = |x| * 10**(16 - e),
e = floor(log10|x|), is a product of x87 long doubles rounded once, so it
lies within 2**-8 of the exact value (S < 2**57), and its integer part F has
17 digits. The doubles that round to x are those within H = 10**(16 - e) *
spacing(x) / 2 of x, exactly; repr writes the shortest of them, the nearest
to x: F // 10**k or one above it, times 10**k, for the largest k at which
the nearer of the two lies within H of S. Every decision is taken only
more than 2**-7 from a tie or from H, beyond the error of S. A decision
nearer than that, a power of two (its interval is lopsided), |x| outside
that range, and every cell where ``np.longdouble`` is not the x87 type go
to ``repr()``.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import x87
from .pool import iter_jobs

#: Cells (an array cell counts its entries) per slab of a table; a table
#: that fills one slab or less is one job, which runs here.
#: Measured on 2 cores with the 2500-site world in memory, at ~0.3-0.6 us a
#: cell: a pool of 2 workers costs ~0.02 s, so it lost at 50k cells (36 vs
#: 46 ms), broke even near 100k (64 vs 69 ms) and saved 13-25% from 200k
#: (117 vs 102 ms, 243 vs 181 ms at 400k). The 5x `synth` ran as fast with
#: slabs of 50k and 100k cells, peaking at 107 and 116 MB RSS; 150k and 200k
#: were no faster. The parent holds only the slabs it has not written yet.
_SLAB_CELLS = 100_000


def format_cell(value) -> str:
    """Format one cell; a 1-D float ndarray fills one column per entry."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, np.ndarray):
        # repr of each Python float, as for a scalar cell, in one pass
        return ",".join(map(repr, value.tolist()))
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    text = str(value)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _row_cells(row: Sequence) -> int:
    return sum(v.size if isinstance(v, np.ndarray) else 1 for v in row)


def _digits4() -> np.ndarray:
    """The four ASCII digits of each of 0..9999, as one uint32 each."""
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for i in range(4):  # the i-th digit varies along axis i
        digits[..., i] = np.arange(48, 58, dtype=np.uint8).reshape((-1,) + (1,) * (3 - i))
    return digits.view(np.uint32).ravel()


#: A formatted cell is a row of ``_ROW_BYTES`` bytes whose nonzero ones are its
#: text: the digits of Z (see ``_float_chunk``) at bytes 4..23, four to a
#: uint32, of which each row keeps those ``_ROW_MASK`` keeps, and the sign,
#: leading "0." and zeros, dot and separator that ``_ROW_CONST`` adds.
_ROW_BYTES = 28


def _row_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mask, const, length) of a cell's row for each key ``((newline * 2 +
    negative) * 20 + e + 4) * 17 + digits - 1``, e in -4..15, 1..17 digits;
    the last row, all zero, is that of a cell left to ``repr()``."""
    negative, e, digits = (v.reshape(-1, 1) for v in np.meshgrid(
        *(np.arange(a, b, dtype=np.int16) for a, b in ((0, 2), (-4, 16), (1, 18))),
        indexing="ij"))
    col = np.arange(_ROW_BYTES, dtype=np.int16)
    zeros = np.maximum(-1 - e, 0)  # after "0.", for e < 0
    first = 6 - negative - np.where(e < 0, 2 + zeros, 0)  # the text's first byte
    dot = np.where(e < 0, 5 - zeros, 7 + e)
    end = 6 + np.where(e < 0, digits, np.maximum(digits, e + 2) + 1)  # the separator
    const = ((col >= first) & (col < 6)) * np.uint8(ord("0"))
    const[(col == first) & (negative == 1)] = ord("-")
    const[col == dot] = ord(".")
    const[col == end] = ord(",")
    mask = ((col >= 6) & (col < end) & (col != dot)) * np.uint8(0xFF)
    none = np.zeros((1, _ROW_BYTES), np.uint8)
    const = np.vstack([const, np.where(const == ord(","), ord("\n"), const), none])
    mask = np.vstack([mask, mask, none])
    length = np.concatenate([end - first + 1] * 2 + [[[0]]]).ravel()  # first byte to separator
    return mask.view(np.uint32), const.view(np.uint32), length


_DIGITS4 = _digits4()
_ROW_MASK, _ROW_CONST, _ROW_LENGTH = _row_tables()

#: Decisions of ``_float_text`` within this of a tie or of H (in units of
#: F) go to repr(): twice the rounding error of S.
_MARGIN = 2.0**-7
#: 10**k / 2**53, exactly: half the spacing of the doubles in [1, 2), scaled.
_HALF_SPACING = 10.0 ** np.arange(23) / 2.0**53
_FRACTION_BITS, _EXPONENT_BITS = np.uint64(2**52 - 1), np.uint64(0x7FF << 52)
#: Doubles formatted at a time, so that a slab's temporaries stay ~4 MB.
#: The 5x `synth` (2 cores) with one chunk per slab instead peaked at 119.5 MB
#: in the process and 122.7 MB in its workers, against 113-114 and 110-112 MB,
#: and was no faster (2.78-3.01 s against 2.58-2.82 s, five runs each).
_FLOAT_CHUNK = 16_384


def _float_text(x: np.ndarray, newline: np.ndarray):
    """(text, lengths, left): the doubles ``x`` as ``repr()`` writes them,
    each followed by a line end where ``newline`` is set and by a comma
    elsewhere, as one uint8 array, the byte length of each cell in it, and
    the indices of the cells left out of it (length 0) for ``repr()``.
    """
    if not (x87.X87 and len(x)):
        return np.empty(0, np.uint8), np.zeros(len(x), np.intp), np.arange(len(x))
    starts = range(0, len(x), _FLOAT_CHUNK)
    parts = [_float_chunk(x[i:i + _FLOAT_CHUNK], newline[i:i + _FLOAT_CHUNK]) for i in starts]
    texts, lengths, lefts = zip(*parts)
    return (np.concatenate(texts), np.concatenate(lengths),
            np.concatenate([left + i for i, left in zip(starts, lefts)]))


def _float_chunk(x: np.ndarray, newline: np.ndarray):
    """``_float_text`` of at most ``_FLOAT_CHUNK`` doubles, ``x87.X87`` true.

    See the module docstring for why the digits are repr's.
    """
    n = len(x)
    a = np.abs(x)
    bits = a.view(np.uint64)
    ok = (a >= 1e-4) & (a < 1e16) & ((bits & _FRACTION_BITS) != 0)
    a[~ok] = 1.5  # any value in range keeps the arithmetic below in bounds
    e = np.floor(np.log10(a)).astype(np.intp)
    scale = 16 - e
    s = a.astype(np.longdouble)
    s *= x87.POW10_X87.take(scale)
    # S is its significand times 2**-shift, so F and S - F are exact.
    shift = (16383 + 63) - x87.exponent(s).astype(np.intp)
    significand, ushift = x87.significand(s), shift.astype(np.uint64)
    whole = (significand >> ushift).view(np.int64)
    fraction = np.ldexp((significand & ((1 << ushift) - 1)).astype(float), -shift)
    del s, significand
    ok &= (whole >= x87.POW10[16]) & (whole < x87.POW10[17])
    half = (bits & _EXPONENT_BITS).view(np.float64)  # 2**floor(log2|x|)
    half *= _HALF_SPACING.take(scale)  # H
    # The distance from S to F - F % p is F % p + f, to the next multiple of
    # p it is p - F % p - f; less H, they are exact where they are small.
    below, above = half - fraction, half + fraction
    # Drop the k-th last digit while the nearer multiple of 10**k lies within H.
    dropped = np.zeros(n, np.intp)
    live = None  # the cells still dropping digits (None: all)
    w, b, t = whole, below, above
    for k in range(1, 17):
        p = x87.POW10[k]
        r = w % p
        gap = r - b
        np.minimum(gap, (p - r) - t, out=gap)
        near, inside = np.abs(gap) <= _MARGIN, gap < -_MARGIN
        if live is None:
            ok &= ~near
            live = np.flatnonzero(inside & ok)
            w, b, t = whole[live], below[live], above[live]
        else:
            ok[live[near]] = False
            live = live[inside]
            w, b, t = w[inside], b[inside], t[inside]
        if not live.size:
            break
        dropped[live] = k
    # The nearer multiple of p = 10**dropped, which rounds up past 10**17 or
    # ties at the margin for repr().
    p = x87.POW10.take(dropped)
    r = whole % p
    tie = (r + r - p) + (fraction + fraction)  # (S - (F - r)) - (F - r + p - S)
    ok &= np.abs(tie) > _MARGIN
    nearest = whole - r
    nearest += (tie > 0) * p
    ok &= nearest < x87.POW10[17]
    # Z: its 17 digits with a 0 put after the integer part (after the last
    # digit for e < 0), where the dot goes; 18 digits, as 5 groups of four.
    unit = x87.POW10.take(np.where(e < 0, 0, scale))
    z = nearest // unit * 9 * unit + nearest
    groups = np.empty((5, n), np.intp)
    for i, p in enumerate(x87.POW10[[16, 12, 8, 4]]):
        np.floor_divide(z, p, out=groups[i])
        z -= groups[i] * p
    groups[4] = z
    key = newline * 2 + (x < 0)
    key *= 20
    key += e + 4
    key *= 17
    key += 16 - dropped
    key[~ok] = len(_ROW_LENGTH) - 1
    rows = _ROW_MASK.take(key, axis=0)
    for i, digits in enumerate(_DIGITS4.take(groups, mode="clip"), 1):
        rows[:, i] &= digits
    rows |= _ROW_CONST.take(key, axis=0)
    text = rows.view(np.uint8)
    return text[text != 0], _ROW_LENGTH.take(key), np.flatnonzero(~ok)


def _float_block(column: tuple) -> np.ndarray | None:
    """The cells of ``column`` as an (n, k) float64 matrix if they are all
    floats (k = 1) or all 1-D float arrays of one size k > 0, else None."""
    types = set(map(type, column))
    if all(issubclass(t, (float, np.floating)) for t in types):
        return np.array(column, np.float64).reshape(-1, 1)
    if types != {np.ndarray} or any(
            d.kind != "f" or d.itemsize > 8 for d in set(map(attrgetter("dtype"), column))):
        return None
    try:
        block = np.array(column, np.float64)
    except ValueError:  # arrays of different shapes
        return None
    return block if block.ndim == 2 and block.shape[1] else None


def _format_rows(rows: Sequence[Sequence]) -> bytes:
    """The UTF-8 lines of ``rows``, each cell as ``format_cell`` writes it.

    Rows of one length are read a column at a time. The cells of the
    columns that hold only floats, or only 1-D float arrays of one size, are
    formatted together by ``_float_text``, the cells it leaves by ``repr()``
    and spliced in; each run of other columns becomes one string a row, and
    the rows are put together from those and the runs of float text.
    Rows of mixed lengths are formatted a cell at a time.
    """
    if len({len(row) for row in rows}) != 1 or not rows[0]:
        return "".join(",".join(map(format_cell, row)) + "\n" for row in rows).encode()
    blocks, gaps = [], {}  # the float blocks; the text columns before each float cell of a row
    width, last = 0, len(rows[0]) - 1  # float cells of a row so far
    for j, column in enumerate(zip(*rows)):
        block = _float_block(column)
        if block is None:
            gaps.setdefault(width, []).append(
                (list(map(format_cell, column)), "\n" if j == last else ","))
        else:
            blocks.append(block)
            width += block.shape[1]
    values = np.hstack(blocks).ravel() if blocks else np.empty(0)
    newline = np.zeros(len(values), bool)
    if block is not None:  # the last column is a float one
        newline[width - 1::width] = True
    text, lengths, left = _float_text(values, newline)
    if len(left):  # each at the place its length 0 gives it in the text
        spliced = [repr(v) + ("\n" if end else ",")
                   for v, end in zip(values[left].tolist(), newline[left].tolist())]
        sizes = np.fromiter(map(len, spliced), np.intp, len(spliced))
        at = np.repeat(np.cumsum(lengths)[left], sizes)
        text = np.insert(text, at, np.frombuffer("".join(spliced).encode(), np.uint8))
        lengths[left] = sizes
    text = text.tobytes().decode("ascii")
    offsets = np.zeros(len(values) + 1, np.intp)
    np.cumsum(lengths, out=offsets[1:])
    # A row: the text before float cell 0, float cells 0..c1, the text
    # before float cell c1, ... the float cells up to its end, the text after.
    cuts = sorted({0, width, *gaps})
    row_starts = np.arange(0, len(values), width) if width else np.zeros(len(rows), np.intp)
    columns = []
    for a, b in zip(cuts, cuts[1:] + [None]):
        if a in gaps:
            cells, seps = zip(*gaps[a])
            form = "".join("{}" + sep for sep in seps)
            columns.append(list(map(form.format, *cells)))
        if b is not None:
            columns.append(list(map(text.__getitem__, map(
                slice, offsets[row_starts + a].tolist(), offsets[row_starts + b].tolist()))))
    return "".join(chain.from_iterable(zip(*columns))).encode()


def write_csv(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence],
    threads: int | None = 1,
) -> Path:
    """Write one table, in row order.

    The rows are all built before the file is opened, so an error while
    building them leaves no file. They are cut into slabs of at most
    ``_SLAB_CELLS`` cells (one row at least), which ``pool.iter_jobs``
    formats: here with ``threads`` 1 (the default) or a single slab, else on
    up to ``threads`` worker processes (None: every available core). Each
    slab is written as soon as it and the slabs before it are done. An error
    while a slab is formatted or written removes the file and is raised, so
    no partial table is left behind.
    """
    path = Path(path)
    rows = list(rows)
    step = max(1, _SLAB_CELLS // _row_cells(rows[0])) if rows else 1
    slabs = iter_jobs(_format_rows, [(rows[a:a + step],) for a in range(0, len(rows), step)],
                      threads)
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "wb")
    try:
        with fh:
            fh.write((",".join(header) + "\n").encode())
            fh.writelines(slabs)
    except BaseException:  # an interrupt, too, leaves no partial file
        path.unlink()
        raise
    return path
