"""Memory bounds of the largest temporaries: the silhouette's distances, the
bulk parse of a table's numeric text, and the load of a table's file.

``tracemalloc`` sees Python objects and the numpy buffers that numpy
allocates itself, so each traced peak below counts every array the call
allocates, except an array over an anonymous ``mmap``, such as the matrix of
a bulk parse run on the pool: its pages are never traced. Nor does it see
the forked workers of a pooled load, whose RSS a subprocess reads instead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from regrow import ingest
from regrow.core import EmbeddingVector
from regrow.projection import silhouette_score


def _traced_peak(fn) -> int:
    """Bytes allocated by ``fn()`` at its peak, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_silhouette_never_holds_the_distance_matrix():
    n = 3000
    rng = np.random.default_rng(0)
    embs = [EmbeddingVector(row) for row in rng.normal(size=(n, 64))]
    labels = [f"L{int(k)}" for k in rng.integers(0, 5, size=n)]
    # The n x n float64 matrix alone is n * n * 8 bytes (72 MB).
    assert _traced_peak(lambda: silhouette_score(embs, labels)) < n * n * 8 / 4


#: The table of the two load tests: 1.28M cells, so the matrix is an
#: untraced mmap even with one thread; its file is ~25 MB.
ROWS, DIM = 20_000, 64


@pytest.fixture(scope="module")
def embeddings_file(tmp_path_factory):
    values = np.random.default_rng(1).normal(size=(ROWS, DIM))
    path = tmp_path_factory.mktemp("memory") / "embeddings.csv"
    lines = ["id,year," + ",".join(f"A{i:02d}" for i in range(DIM))]
    lines += [f"s{i},2020," + ",".join(map(repr, row)) for i, row in enumerate(values.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_bulk_parse_holds_the_numeric_text_a_block_at_a_time(embeddings_file):
    text = embeddings_file.read_text(encoding="utf-8")
    slots = np.arange(ROWS)
    with ingest._Table(embeddings_file) as table:

        def parse():
            assert table._parse_bulk(DIM, EmbeddingVector, 1, slots) is not None  # parsed in bulk

        # The parse holds one block of text and values at a time, not the
        # numeric text once over.
        assert ROWS * DIM > ingest._POOL_CELLS
        assert _traced_peak(parse) < len(text) / 4


#: Bytes a load's traced peak may reach. Measured (Python 3.11, numpy 2.4):
#: 6.8 MB, nearly all of it the sort of the 20k keys (each id's bytes, its
#: rank and string, the slots) next to one run of rows; the scan that finds
#: the line ends peaks at 2.3 MB and the bulk parse at 2.2 MB. The 10.2 MB
#: matrix is an untraced mmap. A copy of the file alone is 25 MB.
LOAD_MARGIN = 8_000_000


def test_load_holds_no_copy_of_the_file(embeddings_file):
    # Neither the file's bytes (~25 MB), nor a decoded copy, nor a string per row.
    assert ROWS * DIM > ingest._POOL_CELLS  # the matrix is not traced
    peak = _traced_peak(lambda: ingest.load_embeddings(embeddings_file, threads=1))
    assert peak < LOAD_MARGIN


#: Bytes of RSS a load on two workers may add to the parent's pre-load
#: high-water mark beyond its matrix, in the parent and in each worker.
#: Measured (Python 3.11, numpy 2.4, 2 cores): the parent and the workers
#: peaked 7.6-7.7 MB above the parent's pre-load mark, less than the 10.2 MB
#: matrix; a load that read the file whole peaked 32.9 MB above it.
POOL_RSS_MARGIN = 4_000_000

_RSS_PROBE = """
import json, resource, sys
from regrow import ingest, pool
pool._available_cores = lambda: 2
def maxrss(who):
    return resource.getrusage(who).ru_maxrss * 1024  # kB on Linux
before = maxrss(resource.RUSAGE_SELF)
matrix = ingest.load_embeddings(sys.argv[1], threads=2).matrix
print(json.dumps([before, maxrss(resource.RUSAGE_SELF), maxrss(resource.RUSAGE_CHILDREN),
                  matrix.nbytes]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
def test_pooled_load_adds_only_the_matrix_to_any_process(embeddings_file):
    # tracemalloc sees neither the mmap matrix nor the forked workers; the
    # kernel's high-water marks see both.
    src = Path(ingest.__file__).parents[1]
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE, str(embeddings_file)],
                         env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                         text=True, timeout=120, check=True)
    before, parent, workers, matrix = json.loads(out.stdout)
    assert parent < before + matrix + POOL_RSS_MARGIN
    assert workers < before + matrix + POOL_RSS_MARGIN
