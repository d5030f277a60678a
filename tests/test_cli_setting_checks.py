"""Enum-list settings and year windows are checked before any input is read.

A bad ``reference_policy``, ``feature_sets`` or ``models``, or a window whose
first year is after its last, is an ``invalid_value`` record at the config
line (or naming the flag) that set it, and no output is left behind.
"""

from __future__ import annotations

import json

import pytest

from regrow.cli import main

WINDOWS = (
    ("first_year", "last_year"),
    ("lulc_first_year", "lulc_last_year"),
    ("start_year_min", "start_year_max"),
    ("change_from_first", "change_from_last"),
    ("change_to_first", "change_to_last"),
)


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("checks_world")
    assert run([
        "synth", "--output-dir", out, "--seed", "3",
        "--n-sites", "30", "--points-per-class", "25", "--points-per-transition", "5",
    ]) == 0
    return out


def _record(capsys) -> dict:
    (line,) = capsys.readouterr().err.strip().splitlines()
    return json.loads(line)


def _run_config(command, inputs, tmp_path, text, *flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    code = run([*command, *inputs, "--output-dir", out, "--config", cfg, *flags])
    return code, cfg, out


def _assert_no_outputs(out):
    assert not out.exists() or not any(out.iterdir())


class TestEnumSettings:
    @pytest.mark.parametrize("key, value", [
        ("reference_policy", "bogus"),
        ("feature_sets", "covariates,bogus"),
        ("models", "linear,bogus"),
        ("feature_sets", " , "),
        ("models", ""),
    ])
    def test_bad_value_in_config_is_located(self, world_dir, tmp_path, capsys, key, value):
        code, cfg, out = _run_config(
            ["predict"], ["--inputs-dir", world_dir], tmp_path, f"seed = 1\n{key} = {value}\n",
        )
        assert code == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 2)
        assert key in record["message"]
        _assert_no_outputs(out)

    @pytest.mark.parametrize("flag, key", [
        ("--models", "models"), ("--feature-sets", "feature_sets"),
        ("--reference-policy", "reference_policy"),
    ])
    def test_bad_flag_names_its_setting(self, world_dir, tmp_path, capsys, flag, key):
        out = tmp_path / "out"
        assert run(["predict", "--inputs-dir", world_dir, "--output-dir", out,
                    flag, "bogus"]) == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", None, None)
        assert key in record["message"] and "bogus" in record["message"]
        _assert_no_outputs(out)

    @pytest.mark.parametrize("text", ["models = x\n", "lulc_first_year = 2030\n"])
    def test_checked_before_the_inputs(self, tmp_path, capsys, text):
        # No input file exists, yet the setting is the error reported.
        code, cfg, _ = _run_config(
            ["predict"], ["--embeddings", tmp_path / "missing.csv"], tmp_path, text,
        )
        assert code == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 1)
        assert text.split()[0] in record["message"]


class TestYearWindows:
    @pytest.mark.parametrize("first, last", WINDOWS)
    def test_first_after_last_in_config_is_located(self, world_dir, tmp_path, capsys,
                                                   first, last):
        code, cfg, out = _run_config(
            ["predict"], ["--inputs-dir", world_dir], tmp_path,
            f"# windows\n{last} = 2019\n{first} = 2023\n",
        )
        assert code == 1
        record = _record(capsys)
        # The key set later in the file is the one blamed.
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 3)
        assert first in record["message"] and last in record["message"]
        _assert_no_outputs(out)

    def test_a_lone_key_against_its_default_is_located(self, world_dir, tmp_path, capsys):
        code, cfg, out = _run_config(
            ["predict"], ["--inputs-dir", world_dir], tmp_path, "seed = 2\nfirst_year = 2030\n",
        )
        assert code == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 2)
        assert "first_year (2030) is after last_year (2024)" in record["message"]
        _assert_no_outputs(out)

    def test_a_flag_is_blamed_over_a_config_line(self, world_dir, tmp_path, capsys):
        code, _, out = _run_config(
            ["validate"], ["--inputs-dir", world_dir], tmp_path, "start_year_min = 2020\n",
            "--start-year-max", "2018",
        )
        assert code == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", None, None)
        assert "start_year_min (2020) is after start_year_max (2018)" in record["message"]
        _assert_no_outputs(out)

    def test_validate_rejects_an_empty_start_year_range(self, world_dir, tmp_path, capsys):
        code, cfg, out = _run_config(
            ["validate"], ["--inputs-dir", world_dir], tmp_path,
            "start_year_min = 2024\nstart_year_max = 2017\n",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no "200 sites in, 0 kept"
        record = json.loads(captured.err)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 2)
        _assert_no_outputs(out)

    def test_synth_flags_are_checked(self, tmp_path, capsys):
        out = tmp_path / "world"
        assert run(["synth", "--output-dir", out, "--first-year", "2024",
                    "--last-year", "2020"]) == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", None, None)
        assert "last_year" in record["message"]
        _assert_no_outputs(out)

    def test_one_year_window_is_allowed(self, world_dir, tmp_path):
        code, _, out = _run_config(
            ["validate"], ["--inputs-dir", world_dir], tmp_path,
            "start_year_min = 2018\nstart_year_max = 2018\n",
        )
        assert code == 0
        assert (out / "funnel.csv").exists()
