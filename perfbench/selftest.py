"""Smoke test of the benchmark harness on tiny worlds.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on a 20-site world with 20 points
per class (2 trees for ``predict``) and checks that:

- ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py`` has;
- every end-to-end and per-layer metric is printed with its unit, and the
  last line of the output is the result object;
- nothing fails on an intact run, and self times plus the reported remainder
  add up to the traced wall time;
- an artifact corrupted after it was written counts as a failed operation;
- without the regrow sources the benchmark exits nonzero and prints no result.

Exits nonzero on the first failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench

TINY_WORLD = {"n_sites": 20, "points_per_class": 20, "points_per_transition": 4}
TINY_TREES = "2"
SEED = 11  # not 7, so the oracles run rather than the recorded digests


def tiny(workload: bench.Workload) -> bench.Workload:
    def shrink(argv):
        return tuple(TINY_TREES if prev == "--n-trees" else a
                     for prev, a in zip(("",) + argv, argv))

    return dataclasses.replace(
        workload,
        name=workload.name + "-tiny",
        world=TINY_WORLD,
        setup_repeats=2,
        commands=tuple(dataclasses.replace(c, argv=shrink(c.argv)) for c in workload.commands),
    )


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_benchmark_json() -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    check({w["name"]: w["why"] for w in spec["workloads"]}
          == {w.name: w.why for w in bench.WORKLOADS.values()},
          "BENCHMARK.json workloads differ from run.WORKLOADS")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END),
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER),
          "BENCHMARK.json per_layer differs from run.PER_LAYER")


def run_main(workload: bench.Workload, trace: int) -> tuple[dict, str]:
    """Run ``run.main`` on a registered tiny workload; (last line, all output)."""
    bench.WORKLOADS[workload.name] = workload
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = bench.main(["--workload", workload.name, "--seed", str(SEED),
                               "--seconds", "0", "--trace", str(trace)])
    finally:
        del bench.WORKLOADS[workload.name]
    check(code == 0, f"{workload.name} trace {trace}: exit code {code}")
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def check_run(workload: bench.Workload, trace: int) -> dict:
    result, text = run_main(workload, trace)
    label = f"{workload.name} trace {trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
          f"{label}: failures on an intact run:\n{text}")
    check("fail_ratio" in text, f"{label}: fail_ratio not printed")
    names = bench.PER_LAYER if trace else bench.END_TO_END
    for name, unit in names:
        m = result["metrics"].get(name)
        check(m is not None and m["unit"] == unit and isinstance(m["value"], (int, float)),
              f"{label}: metric {name} missing or without unit {unit}")
        check(name in text, f"{label}: metric {name} not printed")
    check(len(result["metrics"]) == len(names), f"{label}: unexpected metrics")
    if not trace:
        for name, _ in names:
            check(result["metrics"][name]["value"] > 0, f"{label}: {name} is not positive")
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_layers(name: str, m: dict) -> None:
    record = json.loads((bench.WORK / "records" / f"{name}-seed{SEED}-trace1.json").read_text())
    accounted = record["detail"]["self_s_sum"] + m["trace.unattributed_s"]
    check(abs(accounted - m["trace.wall_s"]) < 1e-6,
          f"{name}: self times + remainder {accounted} != traced wall {m['trace.wall_s']}")
    check(m["synthetic.write_world.s"] > 0 and m["csvio.bytes"] > 0, f"{name}: no set-up spans")
    forest = m["forest.train_random_forest.calls"]
    if name.startswith("predict"):
        check(forest == 30 and m["forest.trees"] == 30 * int(TINY_TREES),
              f"{name}: {forest} forest fits, {m['forest.trees']} trees")
    else:
        check(forest == 0, f"{name}: the forest ran")
    if name.startswith("quickstart"):
        check(m["ingest.load_dataset.calls"] == 7, f"{name}: expected 7 loads")
        check(m["references.find_local_reference.calls"] == 0, f"{name}: local lookup ran")
    if name.startswith("library"):
        check(m["ingest.load_dataset.calls"] == 1, f"{name}: expected one load")
        check(m["references.find_local_reference.calls"] == TINY_WORLD["n_sites"],
              f"{name}: expected one local lookup per site")
        check(m["trajectories.classify_trajectory.s"] > 0, f"{name}: no classify_trajectory")


def check_corruption_counts(workload: bench.Workload) -> None:
    original = bench.run_program

    def corrupting(argv, cwd, log_stem):
        proc = original(argv, cwd, log_stem)
        if "validate" in argv:
            with open(Path(cwd) / "out/validate/funnel.csv", "a") as fh:
                fh.write("tampered\n")
        return proc

    bench.run_program = corrupting
    try:
        result, text = run_main(workload, 0)
    finally:
        bench.run_program = original
    check(not result["correct"] and result["failed"] == 1,
          f"a corrupted artifact was not counted as one failure:\n{text}")
    check("funnel.csv" in text, "the failure does not name the corrupted artifact")


def check_refuses_without_sources() -> None:
    bare = bench.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    for path in bench.BENCH.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "predict-s7", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "ran without the regrow sources")
    check('"correct"' not in proc.stdout, "printed a result without the regrow sources")


def main() -> int:
    check_benchmark_json()
    for workload in bench.WORKLOADS.values():
        small = tiny(workload)
        check_run(small, 0)
        check_layers(small.name, check_run(small, 1))
        print(f"selftest: {workload.name} ok on the tiny world")
    check_corruption_counts(tiny(bench.WORKLOADS["quickstart-s7"]))
    check_refuses_without_sources()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
