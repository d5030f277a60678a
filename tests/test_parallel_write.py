"""Large tables formatted on the worker pool, written in order by the caller.

``csvio.write_csv`` given a worker cap hands contiguous row slabs of a table
with more than ``_SLAB_CELLS`` cells to ``pool.iter_jobs``; without one it
formats every row itself. ``_available_cores`` is pinned to 2 and the slab
size lowered where a test needs the pool, so the forked path runs on any
machine and on small worlds; the bytes must not depend on it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from regrow import csvio, pool
from regrow.cli import main
from regrow.errors import InvalidValueError
from regrow.synthetic import SynthConfig, generate_world, write_world

WORLD_FILES = (
    "embeddings.csv", "sites.csv", "spectral.csv", "covariates.csv",
    "reference_points.csv", "lulc_codes.csv", "ground_truth.csv",
)


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def pool_jobs(monkeypatch):
    """Two cores, one-cell slabs; yields the slab count of each pooled table."""
    calls = []

    def counting_iter_jobs(fn, jobs, threads):
        calls.append(len(jobs))
        return pool.iter_jobs(fn, jobs, threads)

    monkeypatch.setattr(pool, "_available_cores", lambda: 2)
    monkeypatch.setattr(csvio, "_SLAB_CELLS", 1)
    monkeypatch.setattr(csvio, "iter_jobs", counting_iter_jobs)
    return calls


@pytest.fixture
def no_pool(monkeypatch):
    """Two cores, one-cell slabs, and a pool that fails if it is asked for."""
    def refuse(*args):
        raise AssertionError("pool asked for")

    monkeypatch.setattr(pool, "_available_cores", lambda: 2)
    monkeypatch.setattr(csvio, "_SLAB_CELLS", 1)
    monkeypatch.setattr(csvio, "iter_jobs", refuse)


def _read_all(directory, names):
    return {name: (directory / name).read_bytes() for name in names}


class TestWriteCsv:
    ROWS = [
        ("a", 1, 0.1, np.array([1.5, -0.0, 1e-300])),
        ("b,c", 2, None, np.array([2.0, 3.0, 4.0])),
        ('q"x', 3, True, np.array([np.pi, 1 / 3, 7.0])),
    ]

    HEADER = ["id", "n", "x", "v0", "v1", "v2"]

    @pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 7, 100])
    def test_pool_writes_the_serial_bytes(self, tmp_path, pool_jobs, n_rows):
        rows = [self.ROWS[i % 3] for i in range(n_rows)]
        serial = csvio.write_csv(tmp_path / "serial.csv", self.HEADER, rows)
        pooled = csvio.write_csv(tmp_path / "pooled.csv", self.HEADER, rows, threads=None)
        assert pooled.read_bytes() == serial.read_bytes()
        # At most one slab per row; a table of 0 or 1 rows needs no pool.
        assert pool_jobs == ([n_rows] if n_rows >= 2 else [])

    def test_rows_from_an_iterator_are_pooled_alike(self, tmp_path, pool_jobs):
        rows = [self.ROWS[i % 3] for i in range(50)]
        listed = csvio.write_csv(tmp_path / "listed.csv", self.HEADER, rows, threads=2)
        streamed = csvio.write_csv(tmp_path / "streamed.csv", self.HEADER, iter(rows), threads=2)
        assert streamed.read_bytes() == listed.read_bytes()
        assert pool_jobs == [50, 50]

    def test_no_cap_means_no_pool(self, tmp_path, no_pool):
        rows = [self.ROWS[i % 3] for i in range(50)]
        csvio.write_csv(tmp_path / "t.csv", self.HEADER, rows)

    def test_table_of_one_slab_stays_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pool, "_available_cores", lambda: 2)
        monkeypatch.setattr(csvio, "iter_jobs", None)  # any pool call would fail
        csvio.write_csv(tmp_path / "t.csv", ["a"], [(1.0,)] * csvio._SLAB_CELLS, threads=None)
        assert (tmp_path / "t.csv").read_text() == "a\n" + "1.0\n" * csvio._SLAB_CELLS

    def test_threads_below_one_is_invalid(self, tmp_path):
        with pytest.raises(InvalidValueError, match="threads"):
            csvio.write_csv(tmp_path / "t.csv", ["a"], [(1,)], threads=0)

    def test_small_write_leaves_multiprocessing_unloaded(self, tmp_path):
        code = (
            "import sys; from regrow.csvio import write_csv; "
            f"write_csv({str(tmp_path / 't.csv')!r}, ['a', 'b'], [(1, 2.5)] * 100, None); "
            "print('multiprocessing' in sys.modules)"
        )
        src = os.path.dirname(os.path.dirname(pool.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"


class TestWriteWorld:
    def test_one_and_two_workers_write_identical_bytes(self, tmp_path, pool_jobs):
        dataset, truth = generate_world(
            SynthConfig(seed=9, n_sites=20, points_per_class=12, start_year_spread=2)
        )
        written = {}
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            paths = write_world(dataset, truth, out, threads=threads)
            assert [p.name for p in paths] == list(WORLD_FILES)
            written[threads] = _read_all(out, WORLD_FILES)
        assert written[1] == written[2]
        # threads=1 formats in process; threads=2 sends every table with
        # two or more rows to the pool.
        assert len(pool_jobs) == len(WORLD_FILES)


class TestSynthCommand:
    def test_outputs_identical_for_any_thread_count(self, tmp_path, pool_jobs):
        base = ["synth", "--seed", "4", "--n-sites", "25", "--points-per-class", "15",
                "--points-per-transition", "4"]
        runs = {"serial": ["--threads", "1"], "two": ["--threads", "2"], "default": []}
        for name, extra in runs.items():
            assert run(base + ["--output-dir", tmp_path / name] + extra) == 0
        serial = _read_all(tmp_path / "serial", WORLD_FILES + ("manifest_synth.json",))
        for name in ("two", "default"):
            got = _read_all(tmp_path / name, WORLD_FILES + ("manifest_synth.json",))
            assert got == serial, name
        assert "threads" not in json.loads(serial["manifest_synth.json"])["config"]
        assert len(pool_jobs) == len(WORLD_FILES) * 2

    def test_threads_below_one_is_invalid(self, tmp_path, capsys):
        out = tmp_path / "world"
        assert run(["synth", "--output-dir", out, "--threads", "0"]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "invalid_value" and "threads" in record["message"]
        assert not out.exists() or not any(out.iterdir())


class TestOtherCommands:
    def test_only_synth_uses_the_pool(self, tmp_path, no_pool):
        world = tmp_path / "world"
        assert run(["synth", "--seed", "4", "--n-sites", "25", "--points-per-class", "15",
                    "--output-dir", world, "--threads", "1"]) == 0
        for args in (["validate"], ["trajectories", "--reference", "both"],
                     ["references", "classify"], ["report"]):
            assert run(args + ["--inputs-dir", world, "--output-dir", tmp_path / args[0]]) == 0


class TestIterJobs:
    JOBS = [(i,) for i in range(7)]

    @staticmethod
    def square(i):
        if i in (3, 5):
            raise ValueError(f"job {i}")
        return i * i

    @pytest.mark.parametrize("cores", [1, 2])
    def test_results_in_job_order_and_the_first_error_at_its_turn(self, monkeypatch, cores):
        monkeypatch.setattr(pool, "_available_cores", lambda: cores)
        got = []
        with pytest.raises(ValueError, match="job 3"):
            for result in pool.iter_jobs(self.square, self.JOBS, None):
                got.append(result)
        assert got == [0, 1, 4]

    def test_threads_below_one_is_invalid(self):
        with pytest.raises(InvalidValueError, match="threads"):
            next(pool.iter_jobs(self.square, self.JOBS, 0))
