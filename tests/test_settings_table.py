"""The settings table: every flag and config value parsed and checked alike.

A bad value, from a flag or a config line, is an ``invalid_value`` record
that names its setting, at its config line or with no file for a flag, and
no output is left behind. ``synth``'s knobs are settings like any other, so
a synth manifest rebuilds its world. README's Configuration block lists
every key of the table with its default.
"""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from regrow.cli import _SETTINGS, _bool, _float, _int, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("table_world")
    assert run([
        "synth", "--output-dir", out, "--seed", "3",
        "--n-sites", "30", "--points-per-class", "25", "--points-per-transition", "5",
    ]) == 0
    return out


def _record(capsys) -> dict:
    # A run may log warnings first; the record is the last line.
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def _assert_no_outputs(out):
    assert not out.exists() or not any(out.iterdir())


#: (command, key, flag, bad value): each was a usage error, a traceback, an
#: unlocated downstream error or a silently accepted value before the table.
PROBES = [
    (["references", "outliers"], "outlier_metric", "--outlier-metric", "bogus"),
    (["trajectories"], "aggregate", "--aggregate", "bogus"),
    (["trajectories"], "reference_kind", "--reference", "bogus"),
    (["predict"], "folds", "--folds", "abc"),
    (["validate"], "min_area_ha", "--min-area-ha", "x"),
    (["synth"], "noise_sigma", "--noise-sigma", "inf"),
    (["synth"], "covariate_strategy_signal", "--covariate-strategy-signal", "inf"),
    (["synth"], "n_sites", "--n-sites", "-5"),
    (["synth"], "points_per_transition", "--points-per-transition", "-1"),
    (["synth"], "equal_rate", "--equal-rate", "1.5"),
    (["synth"], "n_classes", "--n-classes", "11"),
    (["synth"], "seed", "--seed", "-1"),
    (["predict"], "seed", "--seed", "-1"),
]


def _inputs(command, world_dir) -> list:
    """synth reads no inputs, so it takes no --inputs-dir."""
    return [] if command == ["synth"] else ["--inputs-dir", world_dir]


class TestProbes:
    @pytest.mark.parametrize("command, key, flag, value", PROBES)
    def test_bad_flag_names_its_setting(self, world_dir, tmp_path, capsys,
                                        command, key, flag, value):
        out = tmp_path / "out"
        assert run([*command, *_inputs(command, world_dir), "--output-dir", out,
                    f"{flag}={value}"]) == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", None, None)
        assert key in record["message"] and value in record["message"]
        _assert_no_outputs(out)

    @pytest.mark.parametrize("command, key, flag, value", PROBES)
    def test_bad_config_line_is_located(self, world_dir, tmp_path, capsys,
                                        command, key, flag, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# probe\n{key} = {value}\n")
        out = tmp_path / "out"
        assert run([*command, *_inputs(command, world_dir), "--output-dir", out,
                    "--config", cfg]) == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 2)
        assert key in record["message"]
        _assert_no_outputs(out)

    def test_config_file_not_utf8_is_located(self, world_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 1\nmin_area_ha = 1\xff\n")
        out = tmp_path / "out"
        assert run(["validate", "--inputs-dir", world_dir, "--output-dir", out,
                    "--config", cfg]) == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 2)
        _assert_no_outputs(out)

    @pytest.mark.parametrize("text", [
        *(f"seed = 1{sep}\nbogus = 2\n" for sep in ("\f", "\x1c", "\x1d", "\x1e", "\x85",
                                                    "\u2028")),
        "seed = 1\r\nbogus = 2\r\n", "seed = 1\rbogus = 2\r",
    ])
    def test_config_lines_end_only_at_line_ends(self, world_dir, tmp_path, capsys, text):
        # str.splitlines would also end a line at the form feed and the other
        # separators, and count the bad key at line 3.
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(text.encode())
        out = tmp_path / "out"
        assert run(["validate", "--inputs-dir", world_dir, "--output-dir", out,
                    "--config", cfg]) == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 2)
        assert "bogus" in record["message"]
        _assert_no_outputs(out)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_stable_window_of_no_years_is_located(self, world_dir, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"min_stable_years = {value}\n")
        out = tmp_path / "out"
        assert run(["references", "build", "--inputs-dir", world_dir, "--output-dir", out,
                    "--config", cfg]) == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 1)
        _assert_no_outputs(out)

    @pytest.mark.parametrize("command", [
        ["references", "outliers"], ["trajectories"], ["project"],
    ])
    def test_change_window_past_the_series_is_insufficient(self, world_dir, tmp_path,
                                                            capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("change_to_first = 2030\nchange_to_last = 2031\n")
        out = tmp_path / "out"
        assert run([*command, "--inputs-dir", world_dir, "--output-dir", out,
                    "--config", cfg]) == 1
        record = _record(capsys)
        assert record["error"] == "insufficient_series"
        assert "2030, 2031" in record["message"]
        _assert_no_outputs(out)

    def test_synth_takes_its_knobs_from_a_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("noise_sigma = 0.1\nn_sites = 4\npoints_per_class = 3\n"
                       "points_per_transition = 0\n")
        out = tmp_path / "world"
        assert run(["synth", "--output-dir", out, "--config", cfg]) == 0
        config = json.loads((out / "manifest_synth.json").read_text())["config"]
        assert (config["noise_sigma"], config["n_sites"]) == ("0.1", "4")
        assert len((out / "sites.csv").read_text().splitlines()) == 1 + 4

    @pytest.mark.parametrize("key, value", [("embeddings", "missing.csv"), ("spectral", "-0")])
    def test_input_path_naming_no_file_is_located(self, world_dir, tmp_path, capsys,
                                                  key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 1\n{key} = {value}\n")
        out = tmp_path / "out"
        assert run(["validate", "--inputs-dir", world_dir, "--output-dir", out,
                    "--config", cfg]) == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 2)
        assert key in record["message"] and value in record["message"]
        _assert_no_outputs(out)


#: (config text, line blamed, key named): synth's cross-key rules.
SYNTH_RULES = [
    ("start_year_spread = 9\n", 1, "start_year_spread"),
    ("seed = 2\nn_classes = 2\n", 2, "n_classes"),
    ("first_year = 2020\nstart_year_spread = 5\n", 2, "start_year_spread"),
    ("start_year_spread = 5\nfirst_year = 2020\n", 2, "start_year_spread"),
    ("lulc_first_year = 2018\n", 1, "LULC years"),
    ("last_year = 2025\nseed = 4\n", 1, "LULC years"),
]


class TestSynthRules:
    @pytest.mark.parametrize("text, line, named", SYNTH_RULES)
    def test_broken_rule_is_blamed_on_the_later_line(self, tmp_path, capsys, text, line, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "world"
        assert run(["synth", "--output-dir", out, "--config", cfg]) == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), line)
        assert named in record["message"]
        _assert_no_outputs(out)

    def test_a_flag_is_blamed_over_a_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("first_year = 2020\n")
        out = tmp_path / "world"
        assert run(["synth", "--output-dir", out, "--config", cfg,
                    "--start-year-spread", "9"]) == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", None, None)
        assert "start_year_spread (9)" in record["message"]
        _assert_no_outputs(out)

    def test_other_commands_do_not_check_them(self, world_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_classes = 2\nstart_year_spread = 9\n")
        assert run(["validate", "--inputs-dir", world_dir, "--output-dir", tmp_path / "out",
                    "--config", cfg]) == 0


#: (action, flag, value): offerings that changed none of their action's
#: outputs on any world, and are withdrawn. Only synth and predict draw
#: random numbers; classify reads no reference or outlier setting; build
#: writes the reference year's references under either policy.
WITHDRAWN = [
    (["references", "classify"], "--seed", "3"),
    (["references", "classify"], "--reference-policy", "per_year"),
    (["references", "classify"], "--reference-year", "2022"),
    (["references", "classify"], "--outlier-metric", "euclidean"),
    (["references", "classify"], "--outlier-top-k", "2"),
    (["references", "build"], "--seed", "3"),
    (["references", "build"], "--reference-policy", "per_year"),
    (["references", "build"], "--outlier-metric", "euclidean"),
    (["references", "build"], "--outlier-top-k", "2"),
    (["references", "outliers"], "--seed", "3"),
    (["references", "outliers"], "--reference-policy", "per_year"),
    (["validate"], "--seed", "3"),
    (["trajectories"], "--seed", "3"),
    (["project"], "--seed", "3"),
    (["report"], "--seed", "3"),
]


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["validate", "--n-trees", "2"],
        ["references", "build", "--aggregate", "strategy"],
        ["trajectories", "--outlier-top-k", "2"],
        ["project", "--folds", "2"],
        ["report", "--min-area-ha", "2"],
        ["synth", "--embeddings", "nothing.csv"],
        ["synth", "--inputs-dir", "/nonexistent"],
        *([*action, flag, value] for action, flag, value in WITHDRAWN),
    ])
    def test_flags_a_command_does_not_use_are_usage_errors(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--output-dir", tmp_path / "out"])
        assert exc.value.code == 2
        _assert_no_outputs(tmp_path / "out")

    def test_config_keys_stay_valid_for_every_command(self, world_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 1\n")
        assert run(["report", "--inputs-dir", world_dir, "--output-dir", tmp_path / "report",
                    "--config", cfg]) == 0
        cfg.write_text("threads = 1\nn_sites = 3\npoints_per_class = 2\n"
                       "points_per_transition = 0\nembeddings = world/embeddings.csv\n")
        assert run(["synth", "--output-dir", tmp_path / "world", "--config", cfg]) == 0


def test_synth_world_rebuilds_from_its_manifest(tmp_path):
    first = tmp_path / "first"
    assert run([
        "synth", "--output-dir", first, "--seed", "5", "--n-sites", "30",
        "--points-per-class", "25", "--dim", "16", "--noise-sigma", "0.08",
        "--points-per-transition", "3", "--start-year-spread", "3",
        "--equal-rate", "0.07", "--covariate-strategy-signal", "0.5", "--n-classes", "4",
    ]) == 0
    manifest = json.loads((first / "manifest_synth.json").read_text())
    cfg = tmp_path / "from_manifest.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in manifest["config"].items()))
    second = tmp_path / "second"
    assert run(["synth", "--config", cfg, "--output-dir", second]) == 0
    rebuilt = json.loads((second / "manifest_synth.json").read_text())
    assert rebuilt["config_hash"] == manifest["config_hash"]
    csvs = sorted(p.name for p in first.glob("*.csv"))
    assert len(csvs) == 7
    for name in csvs:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def _shown(default) -> str:
    """A default as README's Configuration block writes it."""
    if default is None:
        return "unset"
    if isinstance(default, bool):
        return str(default).lower()
    return str(default) or "empty"


def test_readme_configuration_block_lists_the_table():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Configuration"):]
    block = section.split("```")[1]
    documented = dict(re.findall(r"([a-z0-9_]+) \(([^)]*)\)", block))
    assert documented == {key: _shown(row.default) for key, row in _SETTINGS.items()}


# ---------------------------------------------------------------------------
# Fuzz: random config files on a 30-site world
# ---------------------------------------------------------------------------

_FUZZ_COMMANDS = (["validate"], ["references", "build"], ["trajectories", "--reference", "both"])
_JUNK = st.sampled_from(["", "bogus", "nan", "inf", "-inf", "1.5", "1e400", "-0", "tru",
                         "2024x", " ,", "FALSE"])
_YEARS = st.integers(2008, 2032).map(str)
_CHOICES = {
    "reference_policy": ["fixed", "per_year"],
    "outlier_metric": ["cosine", "euclidean"],
    "reference_kind": ["global", "local", "both"],
    "aggregate": ["", "start_lulc", "strategy", "start_year"],
    "feature_sets": ["covariates", "all,spectral", "embeddings,"],
    "models": ["linear", "random_forest,logistic"],
}


def _values_for(key: str, world: Path):
    """Text of plausible and of bad values for one setting."""
    parse = _SETTINGS[key].parse
    if key == "threads":
        # Keep any cap on the worker processes small.
        good = st.integers(-2, 2).map(str)
    elif parse is _int:
        good = st.one_of(st.integers(-3, 30).map(str), _YEARS)
    elif parse is _float:
        good = st.one_of(st.floats(-2.0, 50.0).map(repr), st.integers(-1, 5).map(str))
    elif parse is _bool:
        good = st.sampled_from(["true", "false", "True"])
    elif key in _CHOICES:
        good = st.sampled_from(_CHOICES[key])
    else:  # an input path
        good = st.sampled_from(["", "missing.csv", *(str(p) for p in sorted(world.glob("*.csv")))])
    return st.one_of(good, _JUNK)


def _accepted(key: str, text: str) -> bool:
    row = _SETTINGS[key]
    try:
        row.check(row.parse(text))
    except ValueError:
        return False
    return True


@st.composite
def config_files(draw, world: Path):
    """Config lines, and the 1-based line of the first one the table rejects."""
    lines, first_bad = [], None
    for lineno in range(1, draw(st.integers(1, 6)) + 1):
        kind = draw(st.sampled_from(["known", "known", "known", "unknown", "comment"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["", "# note", "   "])))
            continue
        if kind == "unknown":
            key = draw(st.sampled_from(["no_such", "Seed", "first-year", "n trees"]))
            text, bad = "1", True
        else:
            key = draw(st.sampled_from(sorted(_SETTINGS)))
            text = draw(_values_for(key, world))
            bad = not _accepted(key, text.strip())
        lines.append(f"{key} = {text}")
        if bad and first_bad is None:
            first_bad = lineno
    return lines, first_bad


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_config_is_a_located_record_or_a_run(world_dir, tmp_path, capsys, data):
    lines, first_bad = data.draw(config_files(world_dir))
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    cfg = run_dir / "fuzz.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    for i, command in enumerate(_FUZZ_COMMANDS):
        out = run_dir / f"out{i}"
        capsys.readouterr()
        code = run([command[0], *command[1:], "--inputs-dir", world_dir,
                    "--output-dir", out, "--config", cfg])
        if code == 0:
            assert first_bad is None, lines
            continue
        record = _record(capsys)
        if first_bad is not None:
            assert (record["error"], record["file"], record["line"]) == (
                "invalid_value", str(cfg), first_bad), (lines, record)
        assert record["error"] != "internal_error", (lines, record)
        assert set(record) == {"error", "message", "file", "line"}
        if " is after " in record["message"]:
            # A year window, blamed on the config line that set it.
            assert (record["file"], type(record["line"])) == (str(cfg), int), (lines, record)
        _assert_no_outputs(out)
