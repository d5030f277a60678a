r"""Deterministic CSV writing helpers.

All output tables use `\n` line endings and shortest-round-trip float
formatting (repr) so identical runs produce byte-identical files. A large
table whose caller allows it is formatted in contiguous slabs on a worker
pool and written here in order, so its bytes do not depend on the worker
count.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .pool import _worker_count, iter_jobs

#: Cells (an array cell counts its entries) per slab of a table formatted
#: on the pool; a table that fills one slab or less is formatted here.
#: Measured on 2 cores with the 2500-site world in memory: a pool costs
#: ~0.03 s and formats ~1.5x as fast as one process (~1.5 us a cell), so it
#: broke even near 55k cells, was within noise at 80k (spectral.csv) and
#: saved ~0.09 s of 0.37 s at 220k (covariates.csv). Slabs of 25k and 100k
#: cells wrote that world equally fast; the parent holds only the slabs it
#: has not written yet.
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


def _format_rows(rows: Sequence[Sequence]) -> str:
    return "".join(",".join(format_cell(v) for v in row) + "\n" for row in rows)


def write_csv(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence],
    threads: int | None = 1,
) -> Path:
    """Write one table, in row order.

    With ``threads`` 1 (the default) each row is formatted here as it comes.
    A caller that passes another cap (None: every available core) hands over
    the whole table: one of more than ``_SLAB_CELLS`` cells is then cut into
    slabs of about that many, formatted on up to ``threads`` worker
    processes, and each slab is written here as soon as it and the slabs
    before it are done.
    """
    path = Path(path)
    n_slabs = 1
    if threads != 1:
        rows = list(rows)
        cells = len(rows) * _row_cells(rows[0]) if rows else 0
        n_slabs = min(len(rows), -(-cells // _SLAB_CELLS))
        # Also rejects threads < 1, whichever way the table goes.
        if _worker_count(threads, n_slabs) == 1:
            n_slabs = 1
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if n_slabs == 1:
            for row in rows:
                fh.write(",".join(format_cell(v) for v in row) + "\n")
        else:
            cuts = [len(rows) * i // n_slabs for i in range(n_slabs + 1)]
            slabs = [(rows[a:b],) for a, b in zip(cuts, cuts[1:])]
            for text in iter_jobs(_format_rows, slabs, threads):
                fh.write(text)
    return path
