"""Memory bounds of the two largest temporaries: the silhouette's distances
and the bulk parse of a table's numeric text.

``tracemalloc`` sees Python objects and the numpy buffers that numpy
allocates itself, so each traced peak below counts every array the call
allocates, except an array over an anonymous ``mmap``, such as the matrix of
a bulk parse run on the pool: its pages are never traced.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

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


def test_bulk_parse_holds_the_numeric_text_a_block_at_a_time(tmp_path):
    n, dim = 20_000, 64  # 1.28M cells: the matrix is an untraced mmap
    values = np.random.default_rng(1).normal(size=(n, dim))
    path = tmp_path / "embeddings.csv"
    lines = ["id,year," + ",".join(f"A{i:02d}" for i in range(dim))]
    lines += [f"s{i},2020," + ",".join(map(repr, row)) for i, row in enumerate(values.tolist())]
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    table = ingest._Table(path)
    slots = np.arange(n)

    def parse():
        assert table._parse_bulk(dim, 1, slots) is not None  # no anomaly: parsed in bulk

    # The parse holds one block of text and values at a time, not the
    # numeric text once over.
    assert n * dim > ingest._POOL_CELLS
    assert _traced_peak(parse) < len(text) / 4
