"""Inputs that are not plain ASCII with ``\\n`` line ends, on the bytes ingest.

``ingest.read_lines`` scans an input file ``_SCAN_BYTES`` at a time. An
ASCII chunk is never decoded; any other is checked as UTF-8, with nothing
decoded kept. Ids with non-ASCII characters and CRLF or lone-CR line
ends must still take the bulk parse and give the oracle's Dataset bit for
bit, in process and on the pinned pool. A truncated character is a
``parse_error`` at its file and line.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from conftest import refuse_pools
from regrow import ingest
from regrow.errors import CsvParseError
from regrow.synthetic import SynthConfig, generate_world, write_world
from test_ingest_oracle import FILES, _oracle_load_dataset, _outcome, assert_same_outcome
from test_parallel_ingest import NUMERIC_TABLES, _blocks, _pin

#: Put before every id: a 2-byte and a 4-byte UTF-8 character.
PREFIX = "sítio-🌳-"

#: Files keyed by an id in their first field.
KEYED = ("embeddings.csv", "sites.csv", "spectral.csv", "covariates.csv",
         "reference_points.csv")

ENDINGS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


@pytest.fixture(scope="module")
def world(tmp_path_factory) -> dict[str, str]:
    """A small world whose ids are not ASCII."""
    config = SynthConfig(
        seed=11, dim=8, n_sites=8, points_per_class=5, points_per_transition=2,
        start_year_spread=2,
    )
    out = tmp_path_factory.mktemp("non_ascii_world")
    write_world(*generate_world(config), out, threads=1)
    texts = {}
    for name in FILES:
        header, *rows = (out / name).read_text(encoding="utf-8").splitlines()
        if name in KEYED:
            rows = [PREFIX + row for row in rows]
        texts[name] = "\n".join([header, *rows]) + "\n"
    return texts


def _with_ending(texts, ending: str) -> dict[str, str]:
    return {name: text.replace("\n", ending) for name, text in texts.items()}


@pytest.fixture(params=[False, True], ids=["in_process", "pool"])
def bulk(request, monkeypatch):
    """In process or on the pinned pool; yields the bulk parse result of
    each table tried, by file name, and the block count of each pool (None
    in process)."""
    pools = [] if request.param else None
    if request.param:
        _pin(monkeypatch, pools)
    else:
        refuse_pools(monkeypatch)
    results = {}
    parse_bulk = ingest._Table._parse_bulk

    def recording_parse_bulk(table, *args):
        results[table.path.name] = result = parse_bulk(table, *args)
        return result

    monkeypatch.setattr(ingest._Table, "_parse_bulk", recording_parse_bulk)
    return results, pools


def _assert_parsed_in_bulk(bulk, texts):
    results, pools = bulk
    assert sorted(results) == sorted(NUMERIC_TABLES)
    assert all(matrix is not None for matrix in results.values())
    assert pools is None or pools == _blocks(texts)


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_non_ascii_ids_are_parsed_in_bulk(world, bulk, ending):
    texts = _with_ending(world, ENDINGS[ending])
    assert_same_outcome(texts)
    _assert_parsed_in_bulk(bulk, texts)


@pytest.mark.parametrize("cut", [1, 2, 3])
def test_a_character_cut_by_the_utf8_check_is_accepted(world, bulk, monkeypatch, cut):
    # The check's first step ends ``cut`` bytes into the first 4-byte
    # character of embeddings.csv, and so do many later steps.
    data = world["embeddings.csv"].encode()
    offset = data.index("🌳".encode())
    monkeypatch.setattr(ingest, "_SCAN_BYTES", offset + cut)
    assert_same_outcome(world)
    _assert_parsed_in_bulk(bulk, world)


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_a_truncated_character_at_the_end_is_a_located_parse_error(world, bulk, ending):
    # The last row loses its line end and ends in the first 3 bytes of a
    # 4-byte character.
    end = ENDINGS[ending]
    files = {name: text.encode() for name, text in _with_ending(world, end).items()}
    files["embeddings.csv"] = files["embeddings.csv"][:-len(end)] + "🌳".encode()[:3]
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        expected = _outcome(_oracle_load_dataset, Path(tmp))
        actual = _outcome(ingest.load_dataset, Path(tmp))
    # The oracle reads the file as UTF-8 text and fails to decode it.
    assert isinstance(expected, UnicodeDecodeError)
    assert isinstance(actual, CsvParseError) and actual.code == "parse_error"
    last_line = len(world["embeddings.csv"].splitlines())
    assert (Path(actual.file).name, actual.line) == ("embeddings.csv", last_line)
    assert "unexpected end of data" in str(actual)
    results, pools = bulk
    assert results == {} and not pools
