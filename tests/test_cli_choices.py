"""Enumerated and float settings are checked before any input is read.

A bad choice or a non-finite float, from a flag or a config line, is an
``invalid_value`` record at that line, and no output is left behind.
"""

from __future__ import annotations

import json

import pytest

from regrow.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("choices_world")
    assert run([
        "synth", "--output-dir", out, "--seed", "3",
        "--n-sites", "30", "--points-per-class", "25", "--points-per-transition", "5",
    ]) == 0
    return out


def _record(capsys) -> dict:
    (line,) = capsys.readouterr().err.strip().splitlines()
    return json.loads(line)


def _assert_no_outputs(out):
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command, key", [
    (["trajectories"], "aggregate"),
    (["trajectories"], "reference_kind"),
    (["references", "outliers"], "outlier_metric"),
])
def test_bad_choice_in_config_is_located(world_dir, tmp_path, capsys, command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 1\n{key} = bogus\n")
    out = tmp_path / "out"
    assert run([*command, "--inputs-dir", world_dir, "--output-dir", out, "--config", cfg]) == 1
    record = _record(capsys)
    assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 2)
    assert key in record["message"] and "bogus" in record["message"]
    _assert_no_outputs(out)


def test_good_choices_in_config_run(world_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("aggregate = strategy\nreference_kind = both\n")
    out = tmp_path / "out"
    assert run(["trajectories", "--inputs-dir", world_dir, "--output-dir", out,
                "--config", cfg]) == 0
    assert (out / "aggregate_strategy.csv").exists()


def test_empty_aggregate_in_config_means_none(world_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("aggregate =\n")
    out = tmp_path / "out"
    assert run(["trajectories", "--inputs-dir", world_dir, "--output-dir", out,
                "--config", cfg]) == 0
    assert not list(out.glob("aggregate_*.csv"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_float_flag_is_invalid(world_dir, tmp_path, capsys, value):
    out = tmp_path / "out"
    assert run(["validate", "--inputs-dir", world_dir, "--output-dir", out,
                f"--min-area-ha={value}"]) == 1
    record = _record(capsys)
    assert (record["error"], record["file"], record["line"]) == ("invalid_value", None, None)
    assert "min_area_ha" in record["message"]
    _assert_no_outputs(out)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_config_line_is_located(world_dir, tmp_path, capsys, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# filter\nmin_area_ha = {value}\n")
    out = tmp_path / "out"
    assert run(["validate", "--inputs-dir", world_dir, "--output-dir", out,
                "--config", cfg]) == 1
    record = _record(capsys)
    assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 2)
    assert "min_area_ha" in record["message"]
    _assert_no_outputs(out)
