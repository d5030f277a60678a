"""Settings the CLI rejects up front, and the keys of its io_error record."""

from __future__ import annotations

import json

import pytest

from regrow.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("settings_world")
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


class TestFolds:
    @pytest.mark.parametrize("folds", ["1", "0", "-2"])
    def test_flag_below_two_is_invalid(self, world_dir, tmp_path, capsys, folds):
        out = tmp_path / "pred"
        code = run(["predict", "--inputs-dir", world_dir, "--output-dir", out,
                    "--folds", folds])
        assert code == 1
        record = _record(capsys)
        assert record["error"] == "invalid_value"
        assert "folds" in record["message"]
        _assert_no_outputs(out)

    def test_config_line_below_two_is_located(self, world_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# cv\n\nfolds = 1\n")
        out = tmp_path / "pred"
        code = run(["predict", "--inputs-dir", world_dir, "--output-dir", out,
                    "--config", cfg])
        assert code == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 3)
        assert "folds" in record["message"]
        _assert_no_outputs(out)


class TestOutlierTopK:
    def test_negative_flag_is_invalid(self, world_dir, tmp_path, capsys):
        out = tmp_path / "refs"
        code = run(["references", "outliers", "--inputs-dir", world_dir,
                    "--output-dir", out, "--outlier-top-k", "-3"])
        assert code == 1
        record = _record(capsys)
        assert record["error"] == "invalid_value"
        assert "outlier_top_k" in record["message"]
        _assert_no_outputs(out)

    def test_negative_config_line_is_located(self, world_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("outlier_top_k = -1\n")
        out = tmp_path / "refs"
        code = run(["references", "outliers", "--inputs-dir", world_dir,
                    "--output-dir", out, "--config", cfg])
        assert code == 1
        record = _record(capsys)
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 1)

    def test_zero_writes_a_header_only_table(self, world_dir, tmp_path):
        out = tmp_path / "refs"
        assert run(["references", "outliers", "--inputs-dir", world_dir,
                    "--output-dir", out, "--outlier-top-k", "0"]) == 0
        assert (out / "outliers.csv").read_text().splitlines() == [
            "class,rank,point_id,distance"
        ]


class TestIoErrorRecord:
    def test_missing_config_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "nonexistent.cfg"
        out = tmp_path / "v"
        code = run(["validate", "--config", cfg, "--output-dir", out])
        assert code == 1
        record = _record(capsys)
        assert record == {
            "error": "io_error",
            "message": record["message"],
            "file": str(cfg),
            "line": None,
        }
        assert str(cfg) in record["message"]
        _assert_no_outputs(out)
