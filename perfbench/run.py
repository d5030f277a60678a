#!/usr/bin/env python3
"""regrow benchmark driver.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--record-digests]

Run from the root of a regrow source tree (``src/regrow`` must exist; the
program is run from there through ``PYTHONPATH``, nothing is installed).

Load shape: one client in a closed loop. The driver runs the program's
commands one after another and never has more than one program process
alive. Every program process gets ``OPENBLAS_NUM_THREADS=1`` and
``OMP_NUM_THREADS=1`` so BLAS does not oversubscribe a small machine.

Set-up builds the workload's world with ``regrow synth --seed N``; the
workload seed reaches the program only that way. The timed part then runs
the workload, repeating it until ``--seconds`` of timed work is done (at
least once), and every output is checked. With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` the per-layer metrics of
one traced pass (see ``tracer.py``), next to one untraced pass for the
overhead. End-to-end seconds are scaled by the run's calibration samples
(``calibrate.py``, see ``CALIBRATION_REFERENCE_S``); per-layer seconds are
raw. The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Correctness: every command must exit 0 without an error record, and the
artifact hashes in its ``manifest_*.json`` must match the files written.
For seed 7 every artifact (and the digest of each ``library-5x`` stage)
must equal the digests recorded in ``expected_seed7.json``; for other seeds
the acceptance oracles must hold instead. ``--record-digests`` (seed 7 only)
writes the digests of the run into that file instead of comparing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's own directory clean

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
EXPECTED = BENCH / "expected_seed7.json"
CHILD = BENCH / "child.py"
CALIBRATE = BENCH / "calibrate.py"
PYTHON = sys.executable

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402  (stdlib-only; never imports regrow into this process)

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# A world is the keyword set of `regrow synth`; anything absent is synth's
# default (200 sites, 5 classes x 200 points, dim 64, years 2017-2024).
SEED7_WORLD = {}
# Half of the ROADMAP's 10x world in both sites and reference points.
WORLD_5X = {"n_sites": 2500, "points_per_class": 1000}

# No workload passes --threads: the flag is parsed but unused at this
# commit, and it may be deleted or made real later. A real parallel path
# should pick its own worker count, and a fixed flag here would pin it.


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    out_dir: str


@dataclass(frozen=True)
class Workload:
    name: str
    world: dict
    setup_repeats: int
    commands: tuple[Command, ...] = ()
    library: bool = False
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        # The forest workload: 91% of an in-process run is the 30
        # train_random_forest calls of `predict`; ingest is ~6%. The README's
        # 100 trees take ~100 s, too long to repeat; 20 trees keep the same
        # per-tree work. `predict` keeps its own --seed 7, as in the README.
        Workload(
            name="predict-s7",
            world=SEED7_WORLD,
            setup_repeats=3,
            commands=(
                Command("predict", ("predict", "--seed", "7", "--t0", "1", "--n-trees", "20"),
                        "out/pred"),
            ),
            why="forest training and CV fits of `predict` (20 trees) on the seed-7 world",
        ),
        # The cold-start workload: the README quickstart minus `synth`
        # (set-up) and `predict` (its own workload), one process per command.
        # Each command is ~0.4 s of `import regrow.cli` plus ~1 s of
        # load_dataset; the compute stages are negligible. Only global
        # trajectories run and no forest is trained, so this workload bypasses
        # the forest and the local-reference lookup.
        Workload(
            name="quickstart-s7",
            world=SEED7_WORLD,
            setup_repeats=3,
            commands=(
                Command("validate", ("validate",), "out/validate"),
                Command("references.classify", ("references", "classify"), "out/refs"),
                Command("references.build", ("references", "build"), "out/refs"),
                Command("references.outliers",
                        ("references", "outliers", "--outlier-top-k", "10"), "out/refs"),
                Command("trajectories", ("trajectories", "--aggregate", "strategy"),
                        "out/traj"),
                Command("project", ("project",), "out/proj"),
                Command("report", ("report",), "out/report"),
            ),
            why="README quickstart, one process per command: import and CSV load dominate",
        ),
        # The scale workload: the public API in one process, as a library user
        # calls it, on a world 12.5x the seed-7 sites and 5x its points. One
        # large load (~80 MB embeddings.csv) instead of seven small ones,
        # O(sites x secondary points) local trajectories, the O(n^2)
        # silhouette over ~5k stable points, and classify_trajectory, which
        # no CLI command calls. The forest is not used. The ROADMAP's 10x
        # world (one ~30 s pass after a ~20 s synth) left room for a single
        # noisy pass per run within the benchmark's time budget; this world
        # takes ~8 s a pass. Its ~8 s set-up runs once per run, for the
        # same budget.
        Workload(
            name="library-5x",
            world=WORLD_5X,
            setup_repeats=1,
            library=True,
            why="public API in one process on a 2500-site world: one big load, local lookups, silhouette",
        ),
    )
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Seconds that calibrate.py takes on the reference machine (2-vCPU Xeon
# guest, Python 3.11, numpy 2.4, in its faster state). End-to-end times are
# reported as raw seconds x CALIBRATION_REFERENCE_S / (mean calibration of
# the run), i.e. as seconds on the reference machine: that machine's speed
# flips between two levels ~1.45x apart every few seconds to minutes, more
# than any bound could absorb. The mean, not the median, because a run's
# timings average over both levels. Raw seconds and calibration samples are
# kept in the run record.
CALIBRATION_REFERENCE_S = 0.6

# Inclusive seconds (".s"), self seconds (".self_s") and call counts
# (".calls") come from spans of the same name; the rest are computed below.
PER_LAYER = (
    ("forest.train_random_forest.s", "s"),
    ("forest.train_random_forest.calls", "count"),
    ("forest.trees", "count"),
    ("forest.RandomForestModel.predict.s", "s"),
    ("linear_models.train_linear.s", "s"),
    ("linear_models.train_logistic.s", "s"),
    ("cluster.spatial_kfold.s", "s"),
    ("prediction.assemble_design.s", "s"),
    ("prediction.evaluate.s", "s"),
    ("prediction.evaluate.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.synth.s", "s"),
    ("cli.validate.s", "s"),
    ("cli.references.classify.s", "s"),
    ("cli.references.build.s", "s"),
    ("cli.references.outliers.s", "s"),
    ("cli.trajectories.s", "s"),
    ("cli.project.s", "s"),
    ("cli.predict.s", "s"),
    ("cli.report.s", "s"),
    ("ingest.load_dataset.s", "s"),
    ("ingest.load_dataset.calls", "count"),
    ("ingest.mb_per_s", "MB/s"),
    ("references.classify_points.s", "s"),
    ("references.build_reference_set.s", "s"),
    ("references.detect_outliers.s", "s"),
    ("references.find_local_reference.s", "s"),
    ("references.find_local_reference.calls", "count"),
    ("references.ReferenceSet.secondary_embedding.s", "s"),
    ("trajectories.build_trajectory.global.s", "s"),
    ("trajectories.build_trajectory.local.s", "s"),
    ("trajectories.build_trajectory.local.self_s", "s"),
    ("trajectories.classify_trajectory.s", "s"),
    ("trajectories.aggregate_trajectories.s", "s"),
    ("trajectories.compute_baselines.s", "s"),
    ("projection.fit_projection.s", "s"),
    ("projection.trajectory_paths_2d.s", "s"),
    ("projection.silhouette_score.s", "s"),
    ("synthetic.generate_world.s", "s"),
    ("synthetic.write_world.s", "s"),
    ("synthetic.write_world.self_s", "s"),
    ("csvio.write_csv.s", "s"),
    ("csvio.bytes", "B"),
    ("process.cpu_s", "s"),
    ("machine.calibration_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)

# Oracle bounds of the acceptance suite (criteria 3 and 4).
MIN_POSITIVE_SHARE = 0.95
MIN_BAND_GAP = 0.2


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stderr: str


def program_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_program(argv: list[str], cwd: Path, log_stem: Path) -> Proc:
    """Run one program process to completion; per-process rusage via wait4."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=program_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stderr=Path(f"{log_stem}.err").read_text(encoding="utf-8", errors="replace"),
    )


def process_errors(proc: Proc) -> list[str]:
    errors = [] if proc.code == 0 else [f"exit code {proc.code}"]
    for line in proc.stderr.splitlines():
        if line.startswith("{"):
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "error" in record:
                errors.append(f"error record {line}")
    if proc.code != 0 and proc.stderr.strip():
        errors.append(proc.stderr.strip().splitlines()[-1])
    return errors


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_manifest(out_dir: Path, subcommand: str) -> tuple[list[str], dict]:
    """Errors, and {file: sha256} of every artifact the manifest lists.

    The manifest itself is checked but not digested: it records the resolved
    configuration, which may legitimately gain or lose keys (e.g. a removed
    flag) while every artifact stays byte-identical.
    """
    manifest = out_dir / f"manifest_{subcommand}.json"
    try:
        listed = json.loads(manifest.read_text(encoding="utf-8"))["artifacts"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest {manifest.name}: {exc}"], {}
    errors = []
    digests = {}
    for rel, expected in sorted(listed.items()):
        path = out_dir / rel
        if not path.is_file():
            errors.append(f"artifact {rel} listed in {manifest.name} is missing")
            continue
        digests[rel] = sha256_file(path)
        if digests[rel] != expected:
            errors.append(f"artifact {rel} does not match its hash in {manifest.name}")
    return errors, digests


def read_csv(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def oracle_errors(label: str, work: Path) -> list[str]:
    """The acceptance oracles, for worlds without recorded digests."""
    try:
        if label == "trajectories":
            rows = [r for r in read_csv(work / "out/traj/improvements.csv")
                    if r["reference"] == "global"]
            band = {r["band"]: float(r["value"]) for r in read_csv(work / "out/traj/baselines.csv")}
            return (_share_errors(sum(float(r["improvement"]) > 0.0 for r in rows)
                                  / max(len(rows), 1))
                    + _band_errors(band["upper"] - band["lower"]))
        if label == "predict":
            return _predict_oracles(work)
    except (OSError, KeyError, ValueError) as exc:
        return [f"oracle check: {exc!r}"]
    return []


def _share_errors(positive_share: float) -> list[str]:
    if positive_share >= MIN_POSITIVE_SHARE:
        return []
    return [f"only {positive_share:.3f} of sites improve (< {MIN_POSITIVE_SHARE})"]


def _band_errors(band_gap: float) -> list[str]:
    if band_gap >= MIN_BAND_GAP:
        return []
    return [f"baseline band gap {band_gap:.3f} < {MIN_BAND_GAP}"]


def _predict_oracles(work: Path) -> list[str]:
    # Every (task, model, feature set) pair the default config asks for is
    # reported with finite metrics, and every loaded site is given a fold.
    expected = {
        (task, model, fs)
        for task, models in (("future_similarity", ("linear", "random_forest")),
                             ("strategy", ("logistic", "random_forest")))
        for model in models
        for fs in ("covariates", "covariates_spectral", "embeddings")
    }
    rows = read_csv(work / "out/pred/predictions_aggregate.csv")
    errors = []
    got = {(r["task"], r["model"], r["feature_set"]) for r in rows}
    if got != expected:
        errors.append(f"prediction pairs differ: missing {sorted(expected - got)}")
    if not all(math.isfinite(float(r["mean"])) for r in rows):
        errors.append("non-finite prediction metric")
    n_sites = len(read_csv(work / "world/sites.csv"))
    n_folds = len(read_csv(work / "out/pred/folds.csv"))
    if n_folds != n_sites:
        errors.append(f"{n_folds} sites in folds.csv, {n_sites} in sites.csv")
    return errors


def synth_argv(world: dict, seed: int) -> list[str]:
    argv = ["synth", "--output-dir", "world", "--seed", str(seed)]
    for key, value in sorted(world.items()):
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


@dataclass
class Bench:
    workload: Workload
    seed: int
    work: Path
    record: bool = False
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    span_files: list = field(default_factory=list)
    _runs: int = 0

    def __post_init__(self):
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        self.expected = expected.get(self.workload.name) if self.seed == 7 else None

    def op(self, label: str, errors: list[str]) -> None:
        """Count one operation; it failed if any check produced an error."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{label}: {e}" for e in errors)

    def digest_errors(self, label: str, digests: dict) -> list[str] | None:
        """None when no digests are recorded for this run (use the oracles)."""
        if self.record:
            self.digests[label] = digests
            return []
        if self.expected is None:
            return None
        want = self.expected.get(label)
        if want == digests:
            return []
        return [f"digests differ from {EXPECTED.name}: "
                + ", ".join(sorted(k for k in set(want or {}) | set(digests)
                                   if (want or {}).get(k) != digests.get(k)))]

    def calibrate(self) -> float:
        """Seconds of calibrate.py's fixed work, run in its own process."""
        self._runs += 1
        log = self.work / f"log-{self._runs:03d}-calibrate"
        proc = run_program([PYTHON, str(CALIBRATE)], self.work, log)
        if proc.code != 0:
            raise RuntimeError(f"calibrate.py failed: {proc.stderr.strip()}")
        return float(Path(f"{log}.out").read_text())

    def _next_run(self, label: str, traced: bool) -> tuple[str, list[str]]:
        self._runs += 1
        run_id = f"{self._runs:03d}-{label}"
        if not traced:
            return run_id, []
        spans = self.work / f"spans-{run_id}.json"
        self.span_files.append(spans)
        return run_id, ["--trace", str(spans), "--run-id", run_id]

    def cli(self, label: str, argv: list[str], out_dir: str, traced: bool = False) -> Proc:
        run_id, trace_args = self._next_run(label, traced)
        if traced:
            cmd = [PYTHON, str(CHILD), *trace_args, "cli", *argv]
        else:
            cmd = [PYTHON, "-m", "regrow", *argv]
        proc = run_program(cmd, self.work, self.work / f"log-{run_id}")
        errors = process_errors(proc)
        manifest_errors, digests = check_manifest(self.work / out_dir, argv[0])
        errors += manifest_errors
        digest_errors = self.digest_errors(label, digests)
        errors += oracle_errors(label, self.work) if digest_errors is None else digest_errors
        self.op(label, errors)
        return proc

    def setup(self, traced: bool = False, calibrations: list | None = None) -> list[float]:
        """Build the world; append a calibration after each build if asked."""
        walls = []
        for _ in range(1 if traced else self.workload.setup_repeats):
            shutil.rmtree(self.work / "world", ignore_errors=True)
            argv = synth_argv(self.workload.world, self.seed)
            walls.append(self.cli("synth", argv, "world", traced).wall)
            if calibrations is not None:
                calibrations.append(self.calibrate())
        return walls

    def timed_pass(self, traced: bool = False) -> tuple[float, list[Proc]]:
        """One pass of the workload: (timed seconds, program processes)."""
        if self.workload.library:
            return self._library_pass(traced)
        shutil.rmtree(self.work / "out", ignore_errors=True)
        procs = []
        for c in self.workload.commands:
            argv = [*c.argv, "--inputs-dir", "world", "--output-dir", c.out_dir]
            procs.append(self.cli(c.label, argv, c.out_dir, traced))
        return sum(p.wall for p in procs), procs

    def _library_pass(self, traced: bool) -> tuple[float, list[Proc]]:
        run_id, trace_args = self._next_run("library", traced)
        result_path = self.work / f"library-{run_id}.json"
        cmd = [PYTHON, str(CHILD), *trace_args, "library", "world", str(result_path)]
        proc = run_program(cmd, self.work, self.work / f"log-{run_id}")
        shared = process_errors(proc)
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            self.op("library", shared + [f"no library result: {exc}"])
            return proc.wall, [proc]

        digests = result["digests"]
        want = None
        oracle: dict[str, list[str]] = {}
        if self.record:
            self.digests["library"] = digests
        elif self.expected is not None:
            want = self.expected.get("library", {})
        else:
            o = result["oracles"]
            oracle["trajectories_global"] = _share_errors(o.get("positive_share", 0.0))
            if o.get("n_trajectories") != o.get("n_sites"):
                oracle["trajectories_global"].append("not one global trajectory per site")
            oracle["compute_baselines"] = _band_errors(o.get("band_gap", 0.0))
        for stage in result["stages"]:
            name = stage["name"]
            errors = list(shared)
            if not stage["ok"]:
                errors.append(stage["error"].strip().splitlines()[-1])
            elif want is not None and want.get(name) != digests.get(name):
                errors.append(f"digest differs from {EXPECTED.name}")
            errors += oracle.get(name, [])
            self.op(f"library.{name}", errors)
        return result["wall_s"], [proc]


def environment(workload: Workload, seed: int) -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_env": BLAS_ENV,
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": seed,
        "world": {"n_sites": 200, "points_per_class": 200, "n_classes": 5, "dim": 64,
                  "years": "2017-2024", **workload.world},
    }


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    calibrations = [bench.calibrate()]
    setup = bench.setup(calibrations=calibrations)
    samples, procs = [], []
    while sum(samples) < seconds or not samples:
        wall, ps = bench.timed_pass()
        samples.append(wall)
        procs += ps
        calibrations.append(bench.calibrate())
    scale = CALIBRATION_REFERENCE_S / statistics.mean(calibrations)
    metrics = {
        "wall_s": statistics.median(samples) * scale,
        "setup_s": statistics.median(setup) * scale,
        "peak_rss_mb": max(p.rss_mb for p in procs),
    }
    detail = {"raw_wall_samples": samples, "raw_setup_samples": setup,
              "calibrations": calibrations, "scale": scale,
              "cpu_s": sum(p.cpu for p in procs)}
    return metrics, detail


def per_layer(bench: Bench) -> tuple[dict, dict]:
    """Raw (uncalibrated) seconds of one traced pass and its set-up.

    Only ``trace.overhead_s`` compares two passes made at different times, so
    it alone scales each pass by the calibrations on either side of it.
    """
    calibrations = [bench.calibrate()]
    bench.setup(traced=True, calibrations=calibrations)
    setup_files = list(bench.span_files)
    untraced_wall, untraced_procs = bench.timed_pass()
    calibrations.append(bench.calibrate())
    traced_wall, _ = bench.timed_pass(traced=True)
    calibrations.append(bench.calibrate())
    c_before, c_between, c_after = calibrations[-3:]
    overhead = CALIBRATION_REFERENCE_S * (traced_wall / ((c_between + c_after) / 2)
                                          - untraced_wall / ((c_before + c_between) / 2))

    span_lists, counters, timed_lists = [], {}, []
    for path in bench.span_files:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            bench.op(f"trace {path.name}", [str(exc)])
            continue
        span_lists.append(data["spans"])
        if path not in setup_files:
            timed_lists.append(data["spans"])
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0) + value
    summary = tracer.summarize(span_lists)

    def get(name: str, field_name: str = "s") -> float:
        return summary.get(name, {}).get(field_name, 0)

    load_s = get("ingest.load_dataset")
    special = {
        "forest.trees": counters.get("forest.trees", 0),
        "csvio.bytes": counters.get("csvio.bytes", 0),
        "ingest.mb_per_s": counters.get("ingest.bytes", 0) / 1e6 / load_s if load_s else 0.0,
        "cli.import_s": get("cli.import"),
        "process.cpu_s": sum(p.cpu for p in untraced_procs),
        "machine.calibration_s": statistics.mean(calibrations),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": overhead,
        "trace.unattributed_s": traced_wall - tracer.top_level_seconds(timed_lists),
    }
    metrics = {}
    for name, _ in PER_LAYER:
        if name in special:
            metrics[name] = special[name]
        elif name.endswith(".self_s"):
            metrics[name] = get(name[: -len(".self_s")], "self_s")
        elif name.endswith(".calls"):
            metrics[name] = get(name[: -len(".calls")], "calls")
        else:
            metrics[name] = get(name[: -len(".s")])
    detail = {
        "untraced_wall_s": untraced_wall,
        "self_s_sum": sum(v["self_s"] for v in tracer.summarize(timed_lists).values()),
        "spans": sum(len(spans) for spans in span_lists),
        "layers": summary,
    }
    return metrics, detail


def run(workload: Workload, seed: int, seconds: float, trace: bool, record: bool = False) -> dict:
    """Run one benchmark invocation; return the full run record."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, seed, work, record=record)
    try:
        # Compile regrow's bytecode before anything is timed, as an
        # installed package would have it.
        warm = run_program([PYTHON, "-c", "import regrow.cli"], work, work / "log-warmup")
        bench.op("import regrow.cli", process_errors(warm))
        if not trace:
            metrics, detail = end_to_end(bench, seconds)
        else:
            metrics, detail = per_layer(bench)
            trace_dir = WORK / "traces"
            trace_dir.mkdir(exist_ok=True)
            merged = trace_dir / f"{workload.name}-seed{seed}.json"
            with open(merged, "w", encoding="utf-8") as fh:
                json.dump([json.loads(p.read_text()) | {"file": p.name}
                           for p in bench.span_files if p.exists()], fh)
            detail["trace_file"] = str(merged.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "environment": environment(workload, seed),
        "trace": trace,
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "errors": bench.errors,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": detail,
        "digests": bench.digests,
    }


def record_digests(workload: Workload, digests: dict) -> None:
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    expected[workload.name] = digests
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"write this run's digests to {EXPECTED.name} (seed 7 only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "regrow" / "cli.py").is_file():
        print(f"error: no regrow sources at {ROOT / 'src' / 'regrow'}", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != 7:
        parser.error("--record-digests needs --seed 7")

    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, bool(args.trace), args.record_digests)
    if args.record_digests and result["failed"] == 0:
        record_digests(workload, result["digests"])

    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n"
    )
    print(f"run: {json.dumps(result['environment'], sort_keys=True)}")
    for error in result["errors"]:
        print(f"FAILED {error}")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        d = result["detail"]
        print(f"{'wall_s samples (raw s)':48s} {len(d['raw_wall_samples']):>14d} "
              f"{' '.join(f'{v:.4f}' for v in d['raw_wall_samples'])}")
        print(f"{'setup_s samples (raw s)':48s} {len(d['raw_setup_samples']):>14d} "
              f"{' '.join(f'{v:.4f}' for v in d['raw_setup_samples'])}")
        print(f"{'calibration samples (s)':48s} {len(d['calibrations']):>14d} "
              f"{' '.join(f'{v:.4f}' for v in d['calibrations'])}")
    print(f"{'fail_ratio':48s} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
