"""The ``library-5x`` workload: regrow's public API called as a library user would.

The dataset is loaded once and every stage reuses it, unlike the CLI, where
each command reloads every CSV. Calls go through module attributes
(``trajectories.build_trajectory``) so the tracer's patches are seen.

``run`` times only the API calls. Digests of the results, formatted with
``regrow.csvio.format_cell``, are computed afterwards, outside the timed
region.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from pathlib import Path

from regrow import ingest, projection, references, trajectories
from regrow.csvio import format_cell

REFERENCE_YEAR = 2024
OUTLIER_TOP_K = 10


def _load(st):
    world = st["world"]
    st["dataset"], st["skipped"] = ingest.load_dataset(
        embeddings_path=world / "embeddings.csv",
        sites_path=world / "sites.csv",
        reference_points_path=world / "reference_points.csv",
        spectral_path=world / "spectral.csv",
        covariates_path=world / "covariates.csv",
        lulc_codes_path=world / "lulc_codes.csv",
    )


def _classify_points(st):
    st["points"] = references.classify_points(list(st["dataset"].references))


def _build_reference_set(st):
    st["refset"] = references.build_reference_set(
        st["points"], references.ReferenceYearPolicy.fixed(REFERENCE_YEAR)
    )


def _trajectories(kind):
    def stage(st):
        st[kind.value] = [
            trajectories.build_trajectory(site, st["refset"], kind)
            for site in st["dataset"].sites
        ]
    return stage


def _classify_trajectories(st):
    st["classes"] = [
        trajectories.classify_trajectory(site, st["refset"]) for site in st["dataset"].sites
    ]


def _aggregate(st):
    st["aggregate"] = trajectories.aggregate_trajectories(
        st["global"], list(st["dataset"].sites), trajectories.GroupBy.STRATEGY
    )


def _baselines(st):
    st["band"] = trajectories.compute_baselines(st["points"], st["refset"])


def _outliers(st):
    refset = st["refset"]
    st["outliers"] = [
        references.detect_outliers(st["points"], cls, refset, top_k=OUTLIER_TOP_K)
        for cls in sorted(refset.centroids, key=lambda c: c.label)
    ]


def _fit_projection(st):
    st["stable"] = [
        p for p in st["points"]
        if p.stability.kind.value == "stable" and REFERENCE_YEAR in p.embeddings
    ]
    st["model"] = projection.fit_projection([p.embeddings[REFERENCE_YEAR] for p in st["stable"]])


def _paths(st):
    st["paths"] = projection.trajectory_paths_2d(st["stable"], st["model"])


def _silhouette(st):
    st["silhouette"] = projection.silhouette_score(
        [p.embeddings[REFERENCE_YEAR] for p in st["stable"]],
        [p.stability.stable_class.label for p in st["stable"]],
    )


# The order a library user runs them in; each stage is one operation.
STAGES = (
    ("load_dataset", _load),
    ("classify_points", _classify_points),
    ("build_reference_set", _build_reference_set),
    ("trajectories_global", _trajectories(trajectories.ReferenceKind.GLOBAL)),
    ("trajectories_local", _trajectories(trajectories.ReferenceKind.LOCAL)),
    ("classify_trajectory", _classify_trajectories),
    ("aggregate_trajectories", _aggregate),
    ("compute_baselines", _baselines),
    ("detect_outliers", _outliers),
    ("fit_projection", _fit_projection),
    ("trajectory_paths_2d", _paths),
    ("silhouette_score", _silhouette),
)


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def row(self, *cells):
        self._h.update((",".join(format_cell(c) for c in cells) + "\n").encode())

    def raw(self, data: bytes):
        self._h.update(data)

    def hex(self) -> str:
        return self._h.hexdigest()


def _digest_load(d, st):
    for site_id in st["skipped"]:
        d.row("skipped", site_id)
    for s in st["dataset"].sites:
        d.row(s.site_id, s.start_year, s.strategy.value, s.area_ha, len(s.embeddings))
        for year in sorted(s.embeddings):
            d.raw(s.embeddings[year].values.tobytes())
    for p in st["dataset"].references:
        d.row(p.point_id, p.lon, p.lat, len(p.embeddings))
        for year in sorted(p.embeddings):
            d.raw(p.embeddings[year].values.tobytes())


def _digest_points(d, st):
    for p in st["points"]:
        d.row(p.point_id, p.stability.label)


def _digest_refset(d, st):
    refset = st["refset"]
    d.row(*refset.global_ref.values)
    for cls in sorted(refset.centroids, key=lambda c: c.label):
        d.row(cls.label, *refset.centroids[cls].values)
    for p in refset.secondary_points:
        d.row(p.point_id, p.lon, p.lat)


def _digest_trajectories(key):
    def digest(d, st):
        for t in st[key]:
            d.row(t.site_id, t.reference_label, t.improvement, t.degenerate)
            for s in t.samples:
                d.row(s.year, s.delta_t, s.similarity)
    return digest


def _digest_classes(d, st):
    for c in st["classes"]:
        d.row(c.site_id)
        for year, cls, sim in c.samples:
            d.row(year, cls.label, sim)
        for year, a, b in c.transitions:
            d.row(year, a.label, b.label)
        for year, magnitude in c.change_magnitudes:
            d.row(year, magnitude)


def _digest_aggregate(d, st):
    for r in st["aggregate"]:
        d.row(r.group, r.delta_t, r.mean, r.sd, r.n)


def _digest_band(d, st):
    d.row(st["band"].upper, st["band"].lower)


def _digest_outliers(d, st):
    for report in st["outliers"]:
        for rank, (pid, dist) in enumerate(report.ranked, start=1):
            d.row(report.lulc.label, rank, pid, dist)


def _digest_model(d, st):
    m = st["model"]
    d.row(*m.mean.values)
    d.row(*m.components[0].values)
    d.row(*m.components[1].values)
    d.row(*m.explained_variance)


def _digest_paths(d, st):
    for row in st["paths"]:
        d.row(*row)


def _digest_silhouette(d, st):
    d.row(st["silhouette"])


DIGESTS = {
    "load_dataset": _digest_load,
    "classify_points": _digest_points,
    "build_reference_set": _digest_refset,
    "trajectories_global": _digest_trajectories("global"),
    "trajectories_local": _digest_trajectories("local"),
    "classify_trajectory": _digest_classes,
    "aggregate_trajectories": _digest_aggregate,
    "compute_baselines": _digest_band,
    "detect_outliers": _digest_outliers,
    "fit_projection": _digest_model,
    "trajectory_paths_2d": _digest_paths,
    "silhouette_score": _digest_silhouette,
}


def run(world: Path) -> dict:
    """Run every stage once; return timings, digests and oracle values.

    A stage that raises ends the run: later stages depend on its result and
    are reported as failed, "not run".
    """
    st = {"world": Path(world)}
    stages = []
    start = time.perf_counter()
    for name, stage in STAGES:
        t0 = time.perf_counter()
        try:
            stage(st)
        except Exception:
            stages.append({"name": name, "ok": False, "error": traceback.format_exc()})
            break
        stages.append({"name": name, "ok": True, "seconds": time.perf_counter() - t0})
    wall = time.perf_counter() - start
    for name, _ in STAGES[len(stages):]:
        stages.append({"name": name, "ok": False, "error": "not run"})

    digests = {}
    for entry in stages:
        if entry["ok"]:
            d = _Digest()
            DIGESTS[entry["name"]](d, st)
            digests[entry["name"]] = d.hex()
    oracles = {}
    if "global" in st:
        trajs = st["global"]
        oracles["positive_share"] = sum(t.improvement > 0.0 for t in trajs) / len(trajs)
        oracles["n_trajectories"] = len(trajs)
        oracles["n_sites"] = len(st["dataset"].sites)
    if "band" in st:
        oracles["band_gap"] = st["band"].upper - st["band"].lower
    return {
        "stages": stages,
        "wall_s": wall,
        "digests": digests,
        "oracles": oracles,
    }
