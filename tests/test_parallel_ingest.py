"""The bulk parse of the (id, year) tables in row blocks, on the worker pool
when large.

``ingest._Table._parse_bulk`` cuts embeddings.csv, spectral.csv or
covariates.csv into row blocks of
``_PARSE_CELLS`` numeric cells, one job of ``pool.iter_jobs`` each; a table
of more than ``_POOL_CELLS`` cells runs them on the pool, each worker
parsing its blocks into their rows of one shared matrix. ``_available_cores``
is pinned to 2 and the thresholds lowered where a test needs the pool or
many blocks, so those paths run on any machine and on small worlds. The
result must not depend on it: the same Dataset, bit for bit, or the same
error at the same file and line.
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_pools, refuse_pools
from regrow import ingest
from regrow.cli import main
from regrow.errors import InvalidValueError, NonFiniteError
from regrow.synthetic import SynthConfig, generate_world, write_world
from test_ingest_oracle import (
    FILES,
    NUMERIC_COLUMN,
    TRAILING_TEXT,
    _fingerprint,
    apply_mutations,
    assert_same_outcome,
    mutation,
)


def run(args):
    return main([str(a) for a in args])


def _load(world, threads):
    paths = [world / name for name in FILES]
    return ingest.load_dataset(paths[0], paths[1], paths[4], paths[2], paths[3], paths[5],
                               threads=threads)


@pytest.fixture(scope="module")
def base_world(tmp_path_factory) -> dict[str, str]:
    config = SynthConfig(
        seed=11, dim=8, n_sites=8, points_per_class=5, points_per_transition=2,
        start_year_spread=2,
    )
    out = tmp_path_factory.mktemp("pool_oracle_world")
    write_world(*generate_world(config), out, threads=1)
    return {name: (out / name).read_text(encoding="utf-8") for name in FILES}


#: Numeric cells of a block while pinned: the 64 rows of the base world's
#: spectral.csv (2 cells a row) make two blocks.
PINNED_BLOCK_CELLS = 64

#: Numeric cells of a row in each table a load parses in bulk, in the order
#: it parses them; None for the embeddings' width, read from the header.
#: sites.csv and reference_points.csv are always read cell by cell.
NUMERIC_TABLES = {"embeddings.csv": None, "spectral.csv": 2, "covariates.csv": 9}


def _pin(mp, calls):
    """Two cores, every keyed table on the pool in blocks of
    ``PINNED_BLOCK_CELLS`` cells; ``calls`` gets each pooled table's block
    count."""
    count_pools(mp, calls)
    mp.setattr(ingest, "_POOL_CELLS", 1)
    mp.setattr(ingest, "_PARSE_CELLS", PINNED_BLOCK_CELLS)


def _blocks(texts) -> list[int]:
    """The row blocks of each keyed table of a world, in load order."""
    counts = []
    for name, cells in NUMERIC_TABLES.items():
        header, *rows = texts[name].splitlines()
        cells = cells or header.count(",") - 1
        counts.append(-(-len(rows) // max(1, ingest._PARSE_CELLS // cells)))
    return counts


@pytest.fixture
def pooled(monkeypatch):
    calls = []
    _pin(monkeypatch, calls)
    return calls


@pytest.fixture
def no_pool(monkeypatch):
    refuse_pools(monkeypatch)


def test_unmutated_world_matches_on_the_pool(base_world, pooled):
    assert_same_outcome(base_world)
    assert pooled == _blocks(base_world)
    assert min(pooled) == 2


@pytest.mark.parametrize("field", sorted(TRAILING_TEXT))
def test_an_empty_text_cell_after_the_numeric_columns_on_the_pool(base_world, pooled, field):
    name, column = TRAILING_TEXT[field]
    assert_same_outcome(apply_mutations(base_world, [("cell", name, -1, column, "")]))
    # The keyed tables still parsed in bulk; the empty cell was read as text.
    assert pooled == _blocks(base_world)


@settings(max_examples=60, deadline=None)
@given(mutations=st.lists(mutation, min_size=1, max_size=4))
def test_mutated_worlds_match_the_oracle_on_the_pool(base_world, mutations):
    with pytest.MonkeyPatch.context() as mp:
        _pin(mp, [])
        assert_same_outcome(apply_mutations(base_world, mutations))


#: Anomalies a block must report, so that the whole table is read cell by cell.
LAST_ROW_ANOMALIES = {
    "nan": ("cell", "nan"),
    "blank": ("cell", " "),
    "empty": ("cell", ""),
    "underscore": ("cell", "1__0"),  # float() reads 1_0, not 1__0
    "short_row": ("drop", ""),
}


@pytest.mark.parametrize("anomaly", sorted(LAST_ROW_ANOMALIES))
@pytest.mark.parametrize("name", sorted(NUMERIC_COLUMN))
def test_an_anomaly_in_the_last_block_falls_back(base_world, pooled, name, anomaly):
    kind, spelling = LAST_ROW_ANOMALIES[anomaly]
    mutated = apply_mutations(base_world, [(kind, name, -1, NUMERIC_COLUMN[name], spelling)])
    assert_same_outcome(mutated)
    # Every table parsed before the load ended went to the pool in full.
    assert pooled and pooled == _blocks(base_world)[:len(pooled)]


def test_one_thread_stops_at_the_first_block_with_an_anomaly(base_world, tmp_path,
                                                             monkeypatch):
    monkeypatch.setattr(ingest, "_PARSE_CELLS", 1)  # one row a block
    parsed = []
    parse_block = ingest._parse_block

    def recording_parse_block(records, a, *args):
        parsed.append(a)
        return parse_block(records, a, *args)

    monkeypatch.setattr(ingest, "_parse_block", recording_parse_block)
    mutated = apply_mutations(base_world, [("cell", "embeddings.csv", 0, 2, "nan")])
    path = tmp_path / "embeddings.csv"
    path.write_text(mutated["embeddings.csv"], encoding="utf-8")
    with pytest.raises(NonFiniteError) as err:
        ingest.load_embeddings(path, threads=1)
    assert parsed == [0]
    # The cell-by-cell path raises the error at the line of the cell.
    assert (err.value.file, err.value.line) == (str(path), 2)


def test_one_thread_never_asks_for_the_pool(base_world, tmp_path, no_pool, monkeypatch):
    monkeypatch.setattr(ingest, "_POOL_CELLS", 1)
    monkeypatch.setattr(ingest, "_PARSE_CELLS", PINNED_BLOCK_CELLS)
    for name, text in base_world.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    _load(tmp_path, threads=1)


def test_small_tables_never_ask_for_the_pool(base_world, tmp_path, no_pool, monkeypatch):
    monkeypatch.setattr(ingest, "_PARSE_CELLS", PINNED_BLOCK_CELLS)
    for name, text in base_world.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    _load(tmp_path, threads=None)


def _texts(world):
    return {name: (world / name).read_text(encoding="utf-8") for name in NUMERIC_TABLES}


@pytest.fixture(scope="module")
def mid_world(tmp_path_factory):
    out = tmp_path_factory.mktemp("pool_world")
    config = SynthConfig(seed=3, n_sites=30, points_per_class=20, points_per_transition=4)
    write_world(*generate_world(config), out, threads=1)
    return out


@pytest.mark.parametrize("threads", [2, 3, None])
def test_one_and_more_workers_load_identical_bytes(mid_world, pooled, threads):
    serial = _fingerprint(_load(mid_world, threads=1)[0])
    assert pooled == []
    dataset = _load(mid_world, threads=threads)[0]
    assert _fingerprint(dataset) == serial
    assert pooled == _blocks(_texts(mid_world))
    # The loaded vectors are read-only rows of one matrix.
    site = dataset.sites[0]
    assert not site.embeddings[max(site.embeddings)].values.flags.writeable


def test_threads_below_one_is_invalid(mid_world):
    with pytest.raises(InvalidValueError, match="threads"):
        _load(mid_world, threads=0)


def test_seed7_sized_load_with_one_thread_leaves_multiprocessing_unloaded(tmp_path):
    write_world(*generate_world(SynthConfig(seed=7)), tmp_path, threads=1)
    code = (
        "import sys; from pathlib import Path; from regrow import ingest; "
        f"w = Path({str(tmp_path)!r}); "
        "ingest.load_dataset(w / 'embeddings.csv', w / 'sites.csv', w / 'reference_points.csv', "
        "threads=1); print('multiprocessing' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(ingest.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("command", [["validate"], ["trajectories", "--reference", "both"]])
def test_commands_write_identical_files_for_any_thread_count(mid_world, pooled, tmp_path,
                                                              command):
    runs = {"serial": ["--threads", "1"], "two": ["--threads", "2"], "default": []}
    for label, extra in runs.items():
        assert run([*command, "--inputs-dir", mid_world, "--output-dir", tmp_path / label,
                    *extra]) == 0
    names = sorted(p.name for p in (tmp_path / "serial").glob("*.csv"))
    assert names
    for label in ("two", "default"):
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "serial", tmp_path / label, names, shallow=False)
        assert (mismatch, errors) == ([], []), label
    # Each of the two pooled loads parses the three keyed tables in blocks.
    assert pooled == _blocks(_texts(mid_world)) * 2


#: Block budgets: 1-3 rows of the widest tables of the base world
#: (covariates, 9 cells a row; embeddings, 8), 1-13 rows of the narrowest.
block_cells = st.integers(1, 27)


@settings(max_examples=60, deadline=None)
@given(mutations=st.lists(mutation, min_size=1, max_size=4), cells=block_cells,
       on_pool=st.booleans())
def test_mutated_worlds_match_the_oracle_at_any_block_size(base_world, mutations, cells,
                                                           on_pool):
    with pytest.MonkeyPatch.context() as mp:
        if on_pool:
            _pin(mp, [])
        else:
            refuse_pools(mp)
        mp.setattr(ingest, "_PARSE_CELLS", cells)
        assert_same_outcome(apply_mutations(base_world, mutations))


@pytest.mark.parametrize("on_pool", [False, True], ids=["in_process", "pool"])
@pytest.mark.parametrize("anomaly", sorted(LAST_ROW_ANOMALIES))
@pytest.mark.parametrize("name", sorted(NUMERIC_COLUMN))
def test_an_anomaly_in_a_one_row_block_falls_back(base_world, monkeypatch, name, anomaly,
                                                   on_pool):
    calls = []
    if on_pool:
        _pin(monkeypatch, calls)
    else:
        refuse_pools(monkeypatch)
    monkeypatch.setattr(ingest, "_PARSE_CELLS", 1)  # one row a block
    bulk = {}
    parse_bulk = ingest._Table._parse_bulk

    def recording_parse_bulk(table, *args):
        bulk[table.path.name] = result = parse_bulk(table, *args)
        return result

    monkeypatch.setattr(ingest._Table, "_parse_bulk", recording_parse_bulk)
    kind, spelling = LAST_ROW_ANOMALIES[anomaly]
    mutated = apply_mutations(base_world, [(kind, name, -1, NUMERIC_COLUMN[name], spelling)])
    assert_same_outcome(mutated)
    # Only the mutated table, its anomaly in its last row, went cell by cell
    # after a bulk parse; sites.csv and reference_points.csv are never tried.
    assert set(bulk) <= set(NUMERIC_TABLES)
    assert {table for table, result in bulk.items() if result is None} == (
        {name} & set(NUMERIC_TABLES))
    assert bool(calls) == on_pool
    assert calls == _blocks(base_world)[:len(calls)]
