"""A run's files appear whole, with their manifest, or not at all.

Each command writes into a hidden staging directory inside ``--output-dir``
and publishes it only once it has succeeded: the staged files move to their
final names, and the manifest comes last. A run that fails, is interrupted
or is killed leaves the earlier run's files and manifest as they were, and
a manifest always lists files that exist with the hashes it gives.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap

import pytest

from regrow import cli, pool

SRC = os.path.dirname(os.path.dirname(pool.__file__))


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("publish_world")
    assert run(["synth", "--output-dir", out, "--seed", "7", "--n-sites", "20",
                "--points-per-class", "10", "--points-per-transition", "2",
                "--threads", "1"]) == 0
    return out


def files(out) -> dict[str, bytes]:
    """Every entry of ``out`` by name: a file's bytes, or None for a directory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in sorted(out.iterdir())}


def assert_manifest_holds(out, command: str):
    """The manifest lists exactly the files beside it, each with its hash."""
    manifest_name = f"manifest_{command}.json"
    listed = json.loads((out / manifest_name).read_text())["artifacts"]
    for name, digest in listed.items():
        assert (out / name).is_file(), f"{name} missing"
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    # No staging directory, and nothing unlisted, is left beside them.
    assert sorted(files(out)) == sorted([*listed, manifest_name])


@pytest.fixture()
def reported(world_dir, tmp_path):
    """An output directory holding one good report run, and its files."""
    out = tmp_path / "report"
    assert run(["report", "--inputs-dir", world_dir, "--output-dir", out]) == 0
    assert_manifest_holds(out, "report")
    return out, files(out)


def test_synth_publishes_its_world_and_leaves_no_staging(world_dir):
    assert_manifest_holds(world_dir, "synth")


def test_a_failed_rerun_leaves_the_earlier_run_whole(world_dir, reported, capsys,
                                                     monkeypatch):
    out, before = reported

    def broken_report(settings, outputs):
        outputs.write_csv("strategy_counts.csv", ["strategy", "count"], [("rerun", 0)])
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "report", broken_report)
    assert run(["report", "--inputs-dir", world_dir, "--output-dir", out]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "internal_error"
    assert_manifest_holds(out, "report")
    assert files(out) == before


def test_a_run_that_fails_while_publishing_leaves_no_stale_manifest(
        world_dir, reported, capsys, monkeypatch):
    out, _ = reported
    replace, calls = os.replace, []

    def second_replace_fails(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError(f"cannot replace {dst}")
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", second_replace_fails)
    assert run(["report", "--inputs-dir", world_dir, "--output-dir", out]) == 1
    monkeypatch.undo()
    assert json.loads(capsys.readouterr().err)["error"] == "io_error"
    # The old manifest went before the first file moved, and the new one never came.
    assert len(calls) == 2
    assert not (out / "manifest_report.json").exists()
    assert not any(p.is_dir() for p in out.iterdir())


def test_a_killed_run_leaves_the_earlier_run_whole(world_dir, reported):
    # The command stages a new strategy_counts.csv, then waits on two workers
    # until the whole process group is killed.
    out, before = reported
    code = """
        import os, sys, time
        from regrow import cli, pool
        pool._available_cores = lambda: 2

        def wait(i):
            os.write(1, b"ready\\n")  # one write: the two workers share the pipe
            time.sleep(60)

        def waiting_report(settings, outputs):
            outputs.write_csv("strategy_counts.csv", ["strategy", "count"], [("killed", 0)])
            list(pool.iter_jobs(wait, [(0,), (1,)], 2))

        cli._HANDLERS["report"] = waiting_report
        sys.exit(cli.main(sys.argv[1:]))
    """
    with subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code), "report", "--inputs-dir", str(world_dir),
         "--output-dir", str(out)],
        env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as proc:
        try:
            assert [proc.stdout.readline() for _ in range(2)] == ["ready\n"] * 2
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == -signal.SIGKILL
    # Only the hidden staging directory, with the staged file, is new.
    after = files(out)
    (staging,) = set(after) - set(before)
    assert staging.startswith(".") and after[staging] is None
    assert (out / staging / "strategy_counts.csv").read_text() == "strategy,count\nkilled,0\n"
    shutil.rmtree(out / staging)
    assert_manifest_holds(out, "report")
    assert files(out) == before
