"""In-memory span tracer that wraps regrow's public functions from outside.

Spans are kept as ``[name, start, end, parent, run_id]`` lists (``parent`` is
the index of the enclosing span, -1 at top level) and written out once, by
``dump``, when the traced process ends. Functions are patched wherever a
caller looks them up: every loaded ``regrow`` module attribute that *is* the
original function is replaced, so ``regrow.cli.build_reference_set`` and
``regrow.references.build_reference_set`` both record. Per-vector primitives
such as ``cosine_similarity`` are deliberately not wrapped: they run hundreds
of thousands of times and the wrapper cost would swamp what they measure.

Only the standard library is imported here; ``regrow`` modules are looked up
in ``sys.modules`` when ``install`` runs.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, attribute) of each layer boundary. The span is named
# "<module>.<attribute>"; classes are given as "Class.method".
LAYER_FUNCTIONS = (
    ("ingest", "load_dataset"),
    ("references", "classify_points"),
    ("references", "build_reference_set"),
    ("references", "find_local_reference"),
    ("references", "detect_outliers"),
    ("references", "ReferenceSet.secondary_embedding"),
    ("trajectories", "build_trajectory"),
    ("trajectories", "classify_trajectory"),
    ("trajectories", "aggregate_trajectories"),
    ("trajectories", "compute_baselines"),
    ("projection", "fit_projection"),
    ("projection", "trajectory_paths_2d"),
    ("projection", "silhouette_score"),
    ("cluster", "spatial_kfold"),
    ("prediction", "evaluate"),
    ("prediction", "assemble_design"),
    ("linear_models", "train_linear"),
    ("linear_models", "train_logistic"),
    ("forest", "train_random_forest"),
    ("forest", "RandomForestModel.predict"),
    ("synthetic", "generate_world"),
    ("synthetic", "write_world"),
    ("csvio", "write_csv"),
)

_INGEST_PATH_ARGS = (
    "embeddings_path", "sites_path", "reference_points_path",
    "spectral_path", "covariates_path", "lulc_codes_path",
)


class Tracer:
    """Collects spans and counters for one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name: str, namer=None, counter=None):
        """Return ``fn`` recording one span per call.

        ``namer(args, kwargs)`` may refine the span name; ``counter(tracer,
        result, args, kwargs)`` runs after the span closes.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                counter(self, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Patch every layer function in every loaded regrow module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "regrow" or n.startswith("regrow.")) and m is not None]
        for module_name, attr in LAYER_FUNCTIONS:
            home = sys.modules[f"regrow.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, method, self.wrap(getattr(cls, method), name))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(original, name, _NAMERS.get(name), _COUNTERS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _trajectory_kind(args, kwargs) -> str:
    kind = args[2] if len(args) > 2 else kwargs.get("kind")
    return "trajectories.build_trajectory." + (kind.value if kind is not None else "global")


def _count_bytes_written(tracer, result, args, kwargs):
    tracer.count("csvio.bytes", os.path.getsize(result))


def _count_trees(tracer, result, args, kwargs):
    tracer.count("forest.trees", len(result.trees))


def _count_input_bytes(tracer, result, args, kwargs):
    paths = list(args) + [kwargs.get(k) for k in _INGEST_PATH_ARGS[len(args):]]
    tracer.count("ingest.bytes", sum(os.path.getsize(p) for p in paths if p))


_NAMERS = {"trajectories.build_trajectory": _trajectory_kind}
_COUNTERS = {
    "csvio.write_csv": _count_bytes_written,
    "forest.train_random_forest": _count_trees,
    "ingest.load_dataset": _count_input_bytes,
}


def summarize(span_lists) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds, self seconds and call count.

    ``span_lists`` holds one span list per traced process. Self time is a
    span's duration minus the time its direct children cover; spans of one
    process are strictly nested, so children never overlap.
    """
    out: dict[str, dict[str, float]] = {}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["calls"] += 1
    return out


def top_level_seconds(span_lists) -> float:
    return sum(end - start for spans in span_lists for _, start, end, parent, _ in spans
               if parent < 0)
