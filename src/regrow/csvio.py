r"""Deterministic CSV writing helpers.

All output tables use `\n` line endings and shortest-round-trip float
formatting (repr) so identical runs produce byte-identical files. A table
is formatted in contiguous slabs through ``pool.iter_jobs``, on the worker
pool when its caller allows it and it has two slabs or more, and written
here in order, so its bytes do not depend on the worker count.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .pool import iter_jobs

#: Cells (an array cell counts its entries) per slab of a table; a table
#: that fills one slab or less is one job, which runs here.
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


def _format_rows(rows: Sequence[Sequence]) -> bytes:
    """The UTF-8 lines of ``rows``, encoded one at a time into one buffer."""
    out = io.BytesIO()
    for row in rows:
        out.write((",".join(format_cell(v) for v in row) + "\n").encode())
    return out.getvalue()


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
