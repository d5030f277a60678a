"""Memory bounds of the largest temporaries: the silhouette's distances, the
bulk parse of a table's numeric text, and the load of a table's file.

``tracemalloc`` sees Python objects and the numpy buffers that numpy
allocates itself, so each traced peak below counts every array the call
allocates, except an array over an anonymous ``mmap``, such as the matrix of
a bulk parse run on the pool: its pages are never traced.
"""

from __future__ import annotations

import tracemalloc

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
    table = ingest._Table(embeddings_file)
    slots = np.arange(ROWS)

    def parse():
        assert table._parse_bulk(DIM, EmbeddingVector, 1, slots) is not None  # parsed in bulk

    # The parse holds one block of text and values at a time, not the
    # numeric text once over.
    assert ROWS * DIM > ingest._POOL_CELLS
    assert _traced_peak(parse) < len(text) / 4


#: Bytes a load may hold beyond its file's bytes and its matrix. Measured
#: (Python 3.11, numpy 2.4): the load peaks at the file's 25.4 MB plus
#: 6.6 MB, the keys and one block of text and values, with the 10.2 MB
#: matrix untraced.
LOAD_MARGIN = 2_000_000


def test_load_holds_the_file_bytes_and_the_matrix_only(embeddings_file):
    # No decoded copy of the file (~25 MB) and no string per row (~26 MB).
    size = embeddings_file.stat().st_size
    peak = _traced_peak(lambda: ingest.load_embeddings(embeddings_file, threads=1))
    assert peak < size + ROWS * DIM * 8 + LOAD_MARGIN
