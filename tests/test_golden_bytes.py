"""Golden artifact bytes: the pipeline's outputs against recorded digests.

A small world is made with ``regrow synth`` and every reading command runs
on it through ``cli.main`` in this process. The sha256 of every CSV they
write, and digests of the library's per-site results (both trajectory
kinds and ``classify_trajectory``, under the fixed and the per-year
reference policy), must equal those in ``golden_bytes.json``. Manifests
are left out: they record the run's own paths.

Two cores are assumed and the pool thresholds and ingest's row blocks
lowered, so the worker pools of ``synth``, ``predict`` and ingest run on
this small world, each with more than one job. A copy of the
inputs with every table's rows shuffled must give the same artifacts.

A change that alters an artifact's bytes on purpose records the new
digests (``PYTHONPATH=src python tests/test_golden_bytes.py``) and says which artifacts
changed and why.
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from pathlib import Path

import pytest

from regrow import csvio, ingest, pool
from regrow.cli import main
from regrow.csvio import format_cell
from regrow.references import ReferenceYearPolicy, build_reference_set, classify_points
from regrow.trajectories import ReferenceKind, build_trajectory, classify_trajectory

GOLDEN = Path(__file__).with_name("golden_bytes.json")
INPUTS = ("embeddings", "sites", "spectral", "covariates", "reference_points", "lulc_codes")
WORLD = ["--seed", "5", "--n-sites", "40", "--points-per-class", "30",
         "--points-per-transition", "6"]
TRAJECTORIES = ["trajectories", "--reference", "both", "--aggregate", "strategy"]
#: Label of each run -> its argv; the label names the run's output directory.
COMMANDS = {
    "validate": ["validate"],
    "references_classify": ["references", "classify"],
    "references_build": ["references", "build"],
    "references_outliers": ["references", "outliers"],
    "trajectories_fixed": TRAJECTORIES,
    "trajectories_per_year": [*TRAJECTORIES, "--reference-policy", "per_year"],
    "project": ["project"],
    "report": ["report"],
    "predict": ["predict", "--n-trees", "3", "--t0", "1"],
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_digests(label: str, directory: Path) -> dict[str, str]:
    return {f"{label}/{p.name}": _sha256(p) for p in sorted(directory.glob("*.csv"))}


def make_world(out: Path) -> dict[str, str]:
    assert main(["synth", *WORLD, "--output-dir", str(out)]) == 0
    return _csv_digests("synth", out)


def run_commands(world: Path, out: Path) -> dict[str, str]:
    """Digests of every CSV written by the reading commands on ``world``."""
    digests = {}
    for label, argv in COMMANDS.items():
        assert main([*argv, "--inputs-dir", str(world), "--output-dir", str(out / label)]) == 0
        digests.update(_csv_digests(label, out / label))
    return digests


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def row(self, *cells):
        self._h.update((",".join(format_cell(c) for c in cells) + "\n").encode())

    def hex(self) -> str:
        return self._h.hexdigest()


def library_digests(world: Path) -> dict[str, str]:
    """Digests of both trajectory kinds and ``classify_trajectory`` for every
    site, under each reference-year policy."""
    dataset, _ = ingest.load_dataset(*(world / f"{name}.csv" for name in (
        "embeddings", "sites", "reference_points", "spectral", "covariates", "lulc_codes")))
    points = classify_points(list(dataset.references))
    digests = {}
    for policy in (ReferenceYearPolicy.fixed(2024), ReferenceYearPolicy.per_year(2024)):
        refset = build_reference_set(points, policy)
        for kind in ReferenceKind:
            d = _Digest()
            for site in dataset.sites:
                t = build_trajectory(site, refset, kind)
                d.row(t.site_id, t.reference_label, t.improvement, t.degenerate)
                for s in t.samples:
                    d.row(s.year, s.delta_t, s.similarity)
            digests[f"{policy.kind}/trajectories_{kind.value}"] = d.hex()
        d = _Digest()
        for site in dataset.sites:
            c = classify_trajectory(site, refset)
            d.row(c.site_id)
            for year, cls, sim in c.samples:
                d.row(year, cls.label, sim)
            for year, a, b in c.transitions:
                d.row(year, a.label, b.label)
            for year, magnitude in c.change_magnitudes:
                d.row(year, magnitude)
        digests[f"{policy.kind}/classify_trajectory"] = d.hex()
    return digests


def shuffle_rows(world: Path, out: Path, seed: int = 0) -> None:
    """Copy the input tables of ``world`` to ``out``, each with its data rows shuffled."""
    rng = random.Random(seed)
    out.mkdir(parents=True)
    for name in INPUTS:
        header, *rows = (world / f"{name}.csv").read_text(encoding="utf-8").splitlines()
        rng.shuffle(rows)
        (out / f"{name}.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        world = Path(tmp) / "world"
        golden = {"cli": make_world(world), "library": library_digests(world)}
        golden["cli"].update(run_commands(world, Path(tmp) / "out"))
    return golden


#: The jobs of every pool each pinned run started: synth formats its tables
#: (``_format_rows``), ingest parses row blocks (``_parse_block``) and
#: predict fits its folds (``_fit_predict``).
POOLED = ("_format_rows", "_parse_block", "_fit_predict")


@pytest.fixture(scope="module")
def pinned():
    """Two cores, and thresholds low enough that this world reaches every
    pool; yields the name of each pool's job function."""
    pools = []
    start = pool._pooled

    def recording(fn, jobs, workers, order):
        pools.append(fn.__name__)
        return start(fn, jobs, workers, order)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pool, "_available_cores", lambda: 2)
        mp.setattr(pool, "_pooled", recording)
        mp.setattr(csvio, "_SLAB_CELLS", 2_000)
        mp.setattr(ingest, "_POOL_CELLS", 2_000)
        mp.setattr(ingest, "_PARSE_CELLS", 1_000)
        yield pools


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def world(pinned, tmp_path_factory) -> tuple[Path, dict[str, str]]:
    out = tmp_path_factory.mktemp("golden") / "world"
    return out, make_world(out)


def _differing(got: dict, want: dict) -> list[str]:
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def test_synth_and_every_command_write_the_golden_bytes(pinned, world, golden, tmp_path):
    path, synth = world
    got = {**synth, **run_commands(path, tmp_path)}
    assert _differing(got, golden["cli"]) == []
    assert set(pinned) == set(POOLED)


def test_library_results_match_the_golden_digests(pinned, world, golden):
    assert _differing(library_digests(world[0]), golden["library"]) == []


def test_shuffled_rows_give_the_same_artifacts(pinned, world, golden, tmp_path):
    shuffled = tmp_path / "shuffled"
    shuffle_rows(world[0], shuffled)
    got = run_commands(shuffled, tmp_path / "out")
    want = {k: v for k, v in golden["cli"].items() if not k.startswith("synth/")}
    assert _differing(got, want) == []
    assert _differing(library_digests(shuffled), golden["library"]) == []


if __name__ == "__main__":
    # Record the digests of the code on sys.path.
    GOLDEN.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
