"""Memory bounds of the largest temporaries: the projection stage (the PCA's
centring, the paths' rows, the silhouette's distances and the ``project``
command that runs them), the bulk parse of a table's numeric text, and the
load of a table's file, plain or quoted.

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

from regrow import cli, ingest
from regrow.core import EmbeddingVector, SiteRecord, Strategy
from regrow.projection import fit_projection, silhouette_score, trajectory_paths_2d


def _traced_peak(fn) -> int:
    """Bytes allocated by ``fn()`` at its peak, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _traced_above_result(fn) -> int:
    """Bytes ``fn()`` allocated at its peak above what its result still holds."""
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841 - alive while the traced memory is read
        live, peak = tracemalloc.get_traced_memory()
        return peak - live
    finally:
        tracemalloc.stop()


def test_paths_hold_no_stack_of_the_rows():
    # 5,000 records of 8 rows: a 40,000 x 64 matrix of 20.5 MB. Measured
    # (Python 3.11, numpy 2.4): 1.5 MB above the returned rows, their id,
    # year and coordinate lists; one stack of every row was 24.3 MB.
    rng = np.random.default_rng(2)
    model = fit_projection([EmbeddingVector(row) for row in rng.normal(size=(50, 64))])
    sites = [
        SiteRecord(site_id=f"s{i:05d}", centroid_lon=-47.0, centroid_lat=-22.0, area_ha=2.0,
                   start_year=2020, strategy=Strategy.FULL_AREA_PLANTING,
                   embeddings={2017 + k: EmbeddingVector(r) for k, r in enumerate(rows)})
        for i, rows in enumerate(rng.normal(size=(5000, 8, 64)))
    ]
    assert _traced_above_result(lambda: trajectory_paths_2d(sites, model)) < 40_000 * 64 * 8 / 4


def test_fit_projection_centres_its_stack_in_place():
    # Measured (Python 3.11, numpy 2.4) at n=5000, dim 64: 5.16 MB, the
    # stack and the SVD's left vectors (2.56 MB each); a centred copy and
    # the np.abs temporaries made it 7.72 MB.
    n = 5000
    embs = [EmbeddingVector(row) for row in np.random.default_rng(3).normal(size=(n, 64))]
    assert _traced_peak(lambda: fit_projection(embs)) < 2.5 * n * 64 * 8


def test_silhouette_never_holds_the_distance_matrix():
    n = 3000
    rng = np.random.default_rng(0)
    embs = [EmbeddingVector(row) for row in rng.normal(size=(n, 64))]
    labels = [f"L{int(k)}" for k in rng.integers(0, 5, size=n)]
    # The n x n float64 matrix alone is n * n * 8 bytes (72 MB).
    assert _traced_peak(lambda: silhouette_score(embs, labels)) < n * n * 8 / 4


@pytest.fixture(scope="module")
def seed7_world(tmp_path_factory):
    out = tmp_path_factory.mktemp("seed7")
    assert cli.main(["synth", "--seed", "7", "--output-dir", str(out)]) == 0
    return out


#: Bytes the ``project`` command's traced peak may reach on the default
#: seed-7 world. Measured (Python 3.11, numpy 2.4): 18.1 MB, set by the
#: silhouette's one 8 MB distance block (1,000 stable points) above the
#: ~8.3 MB the dataset holds; the formatting of projections.csv peaks at
#: 16.8 MB. Scored after the paths, the block sat on them: 20.2 MB.
PROJECT_PEAK = 19_200_000


def test_project_scores_the_silhouette_before_the_paths_exist(seed7_world, tmp_path):
    argv = ["project", "--inputs-dir", str(seed7_world), "--output-dir", str(tmp_path / "proj"),
            "--threads", "1"]
    assert _traced_peak(lambda: cli.main(argv)) < PROJECT_PEAK


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


#: Bytes a load of the seed-7 embeddings.csv (14.2 MB, a 5.4 MB matrix)
#: with every id quoted may reach. Measured (Python 3.11, numpy 2.4):
#: 15.7 MB, the cell-by-cell path's row vectors and their stacked matrix
#: next to one run of lines; decoding the quoted file whole and keeping a
#: list of every record reached 127 MB.
QUOTED_LOAD_PEAK = 20_000_000


def test_a_quoted_table_streams_like_a_plain_one(seed7_world, tmp_path):
    path = tmp_path / "embeddings.csv"
    with open(seed7_world / "embeddings.csv", encoding="utf-8") as src, \
            open(path, "w", encoding="utf-8") as dst:
        dst.write(next(src))
        dst.writelines('"{}",{}'.format(*line.split(",", 1)) for line in src)
    peak = _traced_peak(lambda: ingest.load_embeddings(path, threads=1))
    assert peak < QUOTED_LOAD_PEAK


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
