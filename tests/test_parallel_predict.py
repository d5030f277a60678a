"""The cross-validation fits of ``evaluate`` on a worker pool.

Every fit has its own seed, so the pool must give the same results, the same
files and the same error records as running the fits one by one in process.
``_available_cores`` is pinned to 2 where a test needs the pool, so the
forked path runs on any machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from regrow import pool, prediction
from regrow.cli import main
from regrow.cluster import FoldAssignment, spatial_kfold
from regrow.errors import InvalidValueError
from regrow.prediction import FeatureSet, ModelKind, Task, evaluate

PREDICT_FILES = (
    "folds.csv", "predictions_folds.csv", "predictions_aggregate.csv", "excluded_sites.csv",
)
TASK_MODELS = {
    Task.FUTURE_SIMILARITY: [ModelKind.LINEAR, ModelKind.RANDOM_FOREST],
    Task.STRATEGY: [ModelKind.LOGISTIC, ModelKind.RANDOM_FOREST],
}


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(pool, "_available_cores", lambda: 2)


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("parallel_world")
    assert run([
        "synth", "--output-dir", out, "--seed", "5",
        "--n-sites", "30", "--points-per-class", "25", "--points-per-transition", "5",
        "--start-year-spread", "1",
    ]) == 0
    return out


def _evaluate_all(small_world, small_refset, folds, threads):
    dataset, _ = small_world
    return [
        evaluate(
            list(dataset.sites), small_refset, task, models,
            [FeatureSet.COVARIATES, FeatureSet.EMBEDDINGS], folds,
            seed=11, n_trees=4, threads=threads,
        )
        for task, models in TASK_MODELS.items()
    ]


class TestWorkerCount:
    def test_capped_by_threads_cores_and_jobs(self, monkeypatch):
        monkeypatch.setattr(pool, "_available_cores", lambda: 4)
        assert pool._worker_count(None, 30) == 4
        assert pool._worker_count(2, 30) == 2
        assert pool._worker_count(1, 30) == 1
        assert pool._worker_count(100000, 30) == 4
        assert pool._worker_count(None, 3) == 3
        assert pool._worker_count(None, 0) == 1

    def test_huge_cap_never_exceeds_the_available_cores(self):
        cores = len(os.sched_getaffinity(0))
        assert pool._worker_count(100000, 10**6) == cores

    def test_threads_below_one_rejected(self, small_world, small_refset):
        dataset, _ = small_world
        folds = spatial_kfold(list(dataset.sites), k=2, seed=0)
        with pytest.raises(InvalidValueError):
            evaluate(list(dataset.sites), small_refset, Task.STRATEGY,
                     [ModelKind.LOGISTIC], [FeatureSet.COVARIATES], folds, threads=0)


class TestEvaluateIsWorkerCountInvariant:
    def test_pool_matches_serial_bitwise(self, small_world, small_refset, two_cores):
        dataset, _ = small_world
        folds = spatial_kfold(list(dataset.sites), k=3, seed=4)
        serial = _evaluate_all(small_world, small_refset, folds, threads=1)
        pooled = _evaluate_all(small_world, small_refset, folds, threads=2)
        # repr spells every float exactly, so equal reprs mean equal bits.
        assert repr(pooled) == repr(serial)
        assert all(len(res.per_fold) == 3 for results in serial for res in results)

    def test_pool_matches_serial_with_a_skipped_fold(self, small_world, small_refset, two_cores):
        dataset, _ = small_world
        base = spatial_kfold(list(dataset.sites), k=3, seed=4)
        # A fourth fold that holds no site is skipped for every pair.
        folds = FoldAssignment(
            k=4, assignment=base.assignment, centroids=(*base.centroids, (0.0, 0.0)),
        )
        serial = _evaluate_all(small_world, small_refset, folds, threads=1)
        pooled = _evaluate_all(small_world, small_refset, folds, threads=None)
        assert repr(pooled) == repr(serial)
        assert all(res.skipped_folds == (3,) for results in serial for res in results)


class TestPredictCommand:
    def test_outputs_identical_for_any_thread_count(self, world_dir, tmp_path, two_cores):
        base = ["predict", "--inputs-dir", world_dir, "--seed", "7", "--t0", "1",
                "--folds", "3", "--n-trees", "4"]
        runs = {"serial": ["--threads", "1"], "two": ["--threads", "2"], "default": []}
        for name, extra in runs.items():
            assert run(base + ["--output-dir", tmp_path / name] + extra) == 0
        for file in PREDICT_FILES + ("manifest_predict.json",):
            serial = (tmp_path / "serial" / file).read_bytes()
            assert (tmp_path / "two" / file).read_bytes() == serial, file
            assert (tmp_path / "default" / file).read_bytes() == serial, file

    def test_worker_error_gives_the_serial_record(
        self, world_dir, tmp_path, capsys, monkeypatch, two_cores
    ):
        def failing_forest(X, y, n_trees, mode, seed):
            raise InvalidValueError(f"forest {mode} seed {seed}", file="fit.csv", line=seed % 97)

        def failing_linear(X, y):
            raise InvalidValueError(f"linear on {len(y)} rows", file="fit.csv", line=len(y))

        # Patched before the pool forks, so the workers inherit them. Every
        # fit fails, and the pool runs the forest fits first; the record must
        # still name the first failure in plan order, a linear fit.
        monkeypatch.setattr(prediction, "train_random_forest", failing_forest)
        monkeypatch.setattr(prediction, "train_linear", failing_linear)
        records = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            code = run([
                "predict", "--inputs-dir", world_dir, "--output-dir", out,
                "--folds", "3", "--n-trees", "4", "--threads", threads,
            ])
            assert code == 1
            (line,) = capsys.readouterr().err.strip().splitlines()
            records.append(json.loads(line))
            assert not out.exists() or not any(out.iterdir())
        assert records[0] == records[1]
        assert (records[0]["error"], records[0]["file"]) == ("invalid_value", "fit.csv")
        assert records[0]["message"].startswith(f"fit.csv: line {records[0]['line']}: linear on ")


class TestThreadsSetting:
    def test_flag_below_one_is_invalid(self, world_dir, tmp_path, capsys):
        out = tmp_path / "pred"
        code = run(["predict", "--inputs-dir", world_dir, "--output-dir", out,
                    "--threads", "0"])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "invalid_value"
        assert "threads" in record["message"]
        assert not out.exists() or not any(out.iterdir())

    def test_config_line_below_one_is_located(self, world_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nthreads = -2\n")
        out = tmp_path / "pred"
        code = run(["predict", "--inputs-dir", world_dir, "--output-dir", out,
                    "--config", cfg])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["error"], record["file"], record["line"]) == ("invalid_value", str(cfg), 2)
        assert not out.exists() or not any(out.iterdir())

    def test_cli_import_leaves_multiprocessing_unloaded(self):
        # Commands other than predict must not pay for the pool's import.
        code = "import sys, regrow.cli; print('multiprocessing' in sys.modules)"
        src = os.path.dirname(os.path.dirname(prediction.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"
