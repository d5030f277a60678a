"""Worker processes that end early, and callers that stop early.

A worker that ends during a job (``os._exit``, or a kill from outside) must
raise in the caller instead of leaving it waiting forever, and the CLI must
then end with an error record. Each case that could hang runs in a
subprocess under a timeout, with two workers.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from regrow import pool

SRC = os.path.dirname(os.path.dirname(pool.__file__))


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("case, order, expected", [
    # Job 3's worker ends: jobs 0-2 still come back, then its error.
    ("exit 3", None, ["error: RuntimeError: worker process", "job 3", "results: [0, 1, 4]"]),
    # Job 2 raises first in job order, though job 3's worker ends beside it.
    ("raise 2, exit 3", None, ["error: ValueError: job 2", "", "results: [0, 1]"]),
    # Both workers end on the first two jobs sent, 7 and 6; job 0 never runs.
    ("exit 6, exit 7", "reversed", ["error: RuntimeError: worker process", "job 6",
                                    "results: []"]),
])
def test_a_worker_that_exits_during_a_job_is_that_jobs_error(case, order, expected):
    out = run_python("""
        import multiprocessing, os, sys
        from regrow import pool
        pool._available_cores = lambda: 2
        actions = dict(reversed(a.split()) for a in sys.argv[1].split(", "))

        def job(i):
            if actions.get(str(i)) == "exit":
                os._exit(3)
            if actions.get(str(i)) == "raise":
                raise ValueError(f"job {i}")
            return i * i

        order = range(7, -1, -1) if sys.argv[2] == "reversed" else None
        got = []
        try:
            for result in pool.iter_jobs(job, [(i,) for i in range(8)], None, order):
                got.append(result)
        except (RuntimeError, ValueError) as exc:
            print(f"error: {type(exc).__name__}: {exc}")
        print("results:", got)
        print("children:", len(multiprocessing.active_children()))
    """, case, str(order))
    assert out.returncode == 0, out.stderr
    error, results, children = out.stdout.splitlines()
    assert error.startswith(expected[0]) and expected[1] in error
    assert results == expected[2]
    assert children == "children: 0"


def test_synth_ends_with_an_error_record_when_a_worker_exits(tmp_path):
    out_dir = tmp_path / "world"
    out = run_python("""
        import os, sys
        from regrow import cli, csvio, pool
        pool._available_cores = lambda: 2
        csvio._SLAB_CELLS = 1000
        parent, format_rows = os.getpid(), csvio._format_rows

        def dying(rows):
            if os.getpid() != parent:
                os._exit(3)
            return format_rows(rows)

        csvio._format_rows = dying
        sys.exit(cli.main(sys.argv[1:]))
    """, "synth", "--n-sites", "20", "--points-per-class", "10", "--output-dir", str(out_dir))
    assert out.returncode == 1
    record = json.loads(out.stderr.strip().splitlines()[-1])
    assert record["error"] == "internal_error"
    assert "worker process" in record["message"]
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("stop", ["close", "error"])
def test_stopping_early_ends_every_worker(monkeypatch, stop):
    monkeypatch.setattr(pool, "_available_cores", lambda: 2)

    def job(i):
        if i == 2:
            raise ValueError("job 2")
        return i

    results = pool.iter_jobs(job, [(i,) for i in range(6)], None)
    assert next(results) == 0
    if stop == "close":
        results.close()
    else:
        assert next(results) == 1
        with pytest.raises(ValueError, match="job 2"):
            next(results)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_a_signal_ends_the_command_with_an_interrupted_record(tmp_path, signum):
    # The command writes an output, then waits on two workers. SIGINT goes to
    # the whole process group, as a terminal's Ctrl-C does; SIGTERM to the
    # command alone.
    out_dir = tmp_path / "report"
    code = """
        import os, sys, time
        from regrow import cli, pool
        pool._available_cores = lambda: 2

        def wait(i):
            os.write(1, b"ready\\n")  # one write: the two workers share the pipe
            time.sleep(60)

        def waiting_report(settings, outputs):
            outputs.write_csv("partial.csv", ["a"], [(1,)])
            list(pool.iter_jobs(wait, [(0,), (1,)], 2))

        cli._HANDLERS["report"] = waiting_report
        sys.exit(cli.main(sys.argv[1:]))
    """
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code), "report", "--output-dir", str(out_dir)],
        env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        assert [proc.stdout.readline() for _ in range(2)] == ["ready\n"] * 2
        assert (out_dir / "partial.csv").exists()
        if signum == signal.SIGINT:
            os.killpg(proc.pid, signum)
        else:
            os.kill(proc.pid, signum)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 1
    # One record, and no traceback from the command or a worker.
    (line,) = err.strip().splitlines()
    assert json.loads(line) == {"error": "interrupted",
                                "message": f"interrupted by {signum.name}",
                                "file": None, "line": None}
    assert not any(out_dir.iterdir())
