"""Header fuzz: a run on an input table whose header row was mutated.

Each example mutates the header of one of the six input tables of a 30-site
world: a column is dropped, duplicated or renamed, a ``lulc_<Y>`` column is
added or its year changed, a byte-order mark is prepended, or an empty name
is appended. The run then exits 0, or ends with a ``RegrowError`` record
that names the mutated file and a line and leaves no outputs. It never ends
as an ``internal_error``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from regrow.cli import main

TABLES = ("embeddings", "sites", "spectral", "covariates", "reference_points", "lulc_codes")
COMMANDS = (["validate"], ["references", "build"])
_NAMES = st.text(alphabet='abAlu_019 "', max_size=8)
_YEARS = st.integers(2005, 2035)


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("header_world")
    assert run([
        "synth", "--output-dir", out, "--seed", "5",
        "--n-sites", "30", "--points-per-class", "25", "--points-per-transition", "5",
    ]) == 0
    return out


@st.composite
def mutated(draw, header: list[str], rows: list[str]) -> str:
    """The table's text after one to three header mutations."""
    header, rows, bom = list(header), list(rows), False
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(
            ["drop", "duplicate", "rename", "add_lulc", "add_lulc_with_data",
             "change_lulc_year", "bom", "empty_trailing"]
        ))
        i = draw(st.integers(0, max(len(header) - 1, 0)))
        if op == "drop" and header:
            del header[i]
        elif op == "duplicate" and header:
            header.insert(draw(st.integers(0, len(header))), header[i])
        elif op == "rename" and header:
            header[i] = draw(_NAMES)
        elif op == "add_lulc":
            header.insert(draw(st.integers(0, len(header))), f"lulc_{draw(_YEARS)}")
        elif op == "add_lulc_with_data":
            # A whole column: each row repeats its last field.
            header.append(f"lulc_{draw(_YEARS)}")
            rows = [f"{row},{row.rsplit(',', 1)[-1]}" for row in rows]
        elif op == "change_lulc_year":
            lulc = [k for k, name in enumerate(header) if name.startswith("lulc_")]
            if lulc:
                header[draw(st.sampled_from(lulc))] = f"lulc_{draw(_YEARS)}"
        elif op == "bom":
            bom = True
        elif op == "empty_trailing":
            header.append("")
    return "\n".join([("\ufeff" if bom else "") + ",".join(header), *rows]) + "\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_header_is_a_run_or_a_located_record(world_dir, tmp_path, capsys, data):
    table = data.draw(st.sampled_from(TABLES))
    header_line, *rows = (world_dir / f"{table}.csv").read_text(encoding="utf-8").splitlines()
    text = data.draw(mutated(header_line.split(","), rows))
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    path = run_dir / f"{table}.csv"
    path.write_text(text, encoding="utf-8")
    inputs = [arg for key in TABLES for arg in (
        f"--{key.replace('_', '-')}", path if key == table else world_dir / f"{key}.csv")]
    for i, command in enumerate(COMMANDS):
        out = run_dir / f"out{i}"
        capsys.readouterr()
        if run([*command, *inputs, "--output-dir", out]) == 0:
            continue
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] != "internal_error", (text[:300], record)
        assert (record["file"], type(record["line"])) == (str(path), int), (text[:300], record)
        assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("table", TABLES)
def test_header_opening_an_unclosed_quote_gives_a_bounded_record(world_dir, tmp_path, capsys,
                                                                  table):
    # The csv reader makes the header one cell holding the rest of the file.
    path = tmp_path / f"{table}.csv"
    path.write_text('"' + (world_dir / f"{table}.csv").read_text(encoding="utf-8"),
                    encoding="utf-8")
    inputs = [arg for key in TABLES for arg in (
        f"--{key.replace('_', '-')}", path if key == table else world_dir / f"{key}.csv")]
    assert run(["validate", *inputs, "--output-dir", tmp_path / "out"]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (record["file"], type(record["line"])) == (str(path), int)
    assert len(record["message"]) < 500, record["message"][:300]
