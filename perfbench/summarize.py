"""Run the benchmark over several seeds and summarize the spread of each metric.

    python3 perfbench/summarize.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                   [--out FILE]

Runs ``run.py`` once per (workload, seed), one after another, with the run
length of ``BENCHMARK.json``. For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to a third of the metric's bound.
``--out`` also writes all results, with the run records' environment, as
JSON under the key ``trace0`` or ``trace1`` of that file (``baseline.json``
holds the ones recorded for this commit).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads(
                (BENCH / "_work" / "records" / f"{workload}-seed{seed}-trace{args.trace}.json")
                .read_text()
            )
            runs.append({"seed": seed, **result, "environment": record["environment"],
                         "detail": record["detail"] if not args.trace else {}})
            ok &= result["correct"]
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                              if not args.trace or k in ("trace.wall_s", "trace.overhead_s"))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        stats = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            stats[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                           "unit": runs[0]["metrics"][name]["unit"], "n": len(values)}
            if name in bounds:
                flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
                print(f"  {name:14s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                      f"spread {spread:.4f}  (bound/3 {bounds[name] / 3:.4f}){flag}", flush=True)
        summary["workloads"][workload] = {"stats": stats, "runs": runs}
    if args.out:
        # Untraced and traced summaries live side by side in one file.
        out = Path(args.out)
        merged = json.loads(out.read_text()) if out.exists() else {}
        merged[f"trace{args.trace}"] = summary
        out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
