"""Command-line entry point.

Subcommands: synth, validate, references (classify|build|outliers),
trajectories, project, predict, report. Configuration is a flat
``key = value`` text file; command-line flags override file values. Every
run writes a manifest (config hash, seed, input checksums, artifact
hashes) so outputs are reproducible from the manifest alone. On any
module error the command removes its partial outputs, prints a JSON error
record to stderr, and exits nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import traceback
from pathlib import Path

from . import ingest
from .cluster import spatial_kfold
from .core import Strategy
from .csvio import write_csv
from .errors import InvalidValueError, RegrowError
from .prediction import (
    FeatureSet,
    ModelKind,
    Task,
    evaluate,
    models_for_task,
)
from .projection import fit_projection, silhouette_score, trajectory_paths_2d
from .references import (
    ReferenceYearPolicy,
    build_reference_set,
    classify_points,
    detect_outliers,
)
from .synthetic import SynthConfig, generate_world, write_world
from .trajectories import (
    GroupBy,
    ReferenceKind,
    aggregate_trajectories,
    build_trajectory,
    compute_baselines,
    spectral_trajectory,
)

_INPUT_KEYS = ("embeddings", "sites", "spectral", "covariates", "reference_points", "lulc_codes")

_DEFAULTS: dict[str, object] = {
    "embeddings": None,
    "sites": None,
    "spectral": None,
    "covariates": None,
    "reference_points": None,
    "lulc_codes": None,
    "first_year": 2017,
    "last_year": 2024,
    "lulc_first_year": 2015,
    "lulc_last_year": 2024,
    "min_stable_years": 10,
    "stability_end_year": 2024,
    "change_from_first": 2017,
    "change_from_last": 2020,
    "change_to_first": 2021,
    "change_to_last": 2024,
    "reference_policy": "fixed",
    "reference_year": 2024,
    "outlier_metric": "cosine",
    "outlier_top_k": 10,
    "min_area_ha": 1.0,
    "start_year_min": 2017,
    "start_year_max": 2024,
    "folds": 5,
    "horizon": 3,
    "t0": 0,
    "feature_sets": "covariates,covariates_spectral,embeddings",
    "models": "linear,logistic,random_forest",
    "impute": True,
    "n_trees": 100,
    "seed": 0,
    "threads": None,  # None: every available core
    "reference_kind": "global",
    "aggregate": "",
    "baselines": True,
}


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return value == "true"


_PARSERS = {
    "first_year": int, "last_year": int, "lulc_first_year": int, "lulc_last_year": int,
    "min_stable_years": int, "stability_end_year": int,
    "change_from_first": int, "change_from_last": int,
    "change_to_first": int, "change_to_last": int,
    "reference_year": int, "outlier_top_k": int, "folds": int, "horizon": int,
    "t0": int, "n_trees": int, "seed": int, "threads": int,
    "min_area_ha": float,
    "start_year_min": int, "start_year_max": int,
    "impute": _parse_bool, "baselines": _parse_bool,
}

#: Allowed values of the enumerated settings, for their flags and config lines.
_CHOICES = {
    "reference_kind": ("global", "local", "both"),
    "aggregate": tuple(g.value for g in GroupBy),
    "outlier_metric": ("cosine", "euclidean"),
}


def _parse_config_file(path: str | Path) -> dict[str, tuple[str, int]]:
    """Config values by key, each with the 1-based line it was set on."""
    values: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidValueError(
                f"expected key = value, got {raw!r}", file=str(path), line=lineno
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise InvalidValueError(
                f"unknown config key {key!r}", file=str(path), line=lineno
            )
        values[key] = (value.strip(), lineno)
    return values


def _resolve_settings(args: argparse.Namespace) -> dict[str, object]:
    settings = dict(_DEFAULTS)
    config_lines: dict[str, int] = {}  # keys whose value comes from the config file
    if getattr(args, "config", None):
        for key, (value, lineno) in _parse_config_file(args.config).items():
            settings[key] = value
            config_lines[key] = lineno
    inputs_dir = getattr(args, "inputs_dir", None)
    if inputs_dir:
        for key in _INPUT_KEYS:
            if settings[key] is None:
                candidate = Path(inputs_dir) / f"{key}.csv"
                if candidate.exists():
                    settings[key] = str(candidate)
    for key in _DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
            config_lines.pop(key, None)

    def invalid(key: str, message: str) -> InvalidValueError:
        if key in config_lines:
            return InvalidValueError(message, file=str(args.config), line=config_lines[key])
        return InvalidValueError(message)

    for key, parse in _PARSERS.items():
        if settings[key] is not None and not isinstance(settings[key], (int, float, bool)):
            try:
                settings[key] = parse(settings[key])
            except ValueError:
                raise invalid(key, f"bad value for {key}: {settings[key]!r}") from None
        if parse is float and not math.isfinite(settings[key]):
            raise invalid(key, f"{key} must be finite, got {settings[key]!r}")
    for key, allowed in _CHOICES.items():
        # The default is always allowed: "" for aggregate means no aggregation.
        if settings[key] != _DEFAULTS[key] and settings[key] not in allowed:
            raise invalid(
                key, f"{key} must be one of {', '.join(allowed)}; got {settings[key]!r}"
            )
    if settings["n_trees"] < 1:
        raise invalid("n_trees", f"n_trees must be at least 1, got {settings['n_trees']}")
    if settings["horizon"] < 0:
        raise invalid("horizon", f"horizon must not be negative, got {settings['horizon']}")
    if settings["folds"] < 2:
        raise invalid("folds", f"folds must be at least 2, got {settings['folds']}")
    if settings["outlier_top_k"] < 0:
        raise invalid(
            "outlier_top_k", f"outlier_top_k must not be negative, got {settings['outlier_top_k']}"
        )
    if settings["threads"] is not None and settings["threads"] < 1:
        raise invalid("threads", f"threads must be at least 1, got {settings['threads']}")
    return settings


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class RunOutputs:
    """Tracks files written by one run so failures can clean them up."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.paths: list[Path] = []

    def add(self, path: Path) -> Path:
        self.paths.append(path)
        return path

    def write_csv(self, name: str, header, rows) -> Path:
        return self.add(write_csv(self.out_dir / name, header, rows))

    def discard(self):
        for path in self.paths:
            path.unlink(missing_ok=True)

    def write_manifest(self, subcommand: str, settings: dict, input_paths: list[str]):
        # The worker cap changes how a run executes, never what it writes.
        settings = {k: v for k, v in settings.items() if k != "threads"}
        config_text = "\n".join(
            f"{k}={settings[k]}" for k in sorted(settings) if settings[k] is not None
        )
        manifest = {
            "subcommand": subcommand,
            "config": {k: str(v) for k, v in sorted(settings.items()) if v is not None},
            "config_hash": hashlib.sha256(config_text.encode()).hexdigest(),
            "seed": settings.get("seed"),
            "inputs": {
                p: _sha256_file(Path(p)) for p in sorted(input_paths) if Path(p).exists()
            },
            "artifacts": {
                str(p.relative_to(self.out_dir)): _sha256_file(p)
                for p in sorted(self.paths)
            },
        }
        path = self.out_dir / f"manifest_{subcommand}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _require(settings: dict, *keys: str) -> list[str]:
    missing = [k for k in keys if not settings[k]]
    if missing:
        raise InvalidValueError(
            f"missing required input path(s): {', '.join(missing)} "
            "(set via config file, flags, or --inputs-dir)"
        )
    absent = [str(settings[k]) for k in keys if not Path(str(settings[k])).exists()]
    if absent:
        raise InvalidValueError(f"input file(s) do not exist: {', '.join(absent)}")
    return [str(settings[k]) for k in keys]


def _load_dataset(settings: dict):
    _require(settings, "embeddings", "sites", "reference_points")
    dataset, skipped = ingest.load_dataset(
        embeddings_path=settings["embeddings"],
        sites_path=settings["sites"],
        reference_points_path=settings["reference_points"],
        spectral_path=settings["spectral"],
        covariates_path=settings["covariates"],
        lulc_codes_path=settings["lulc_codes"],
        window=(settings["first_year"], settings["last_year"]),
        lulc_years=(settings["lulc_first_year"], settings["lulc_last_year"]),
    )
    return dataset, skipped


def _classify_kwargs(settings: dict) -> dict:
    return {
        "min_stable_years": settings["min_stable_years"],
        "end_year": settings["stability_end_year"],
        "change_from": (settings["change_from_first"], settings["change_from_last"]),
        "change_to": (settings["change_to_first"], settings["change_to_last"]),
    }


def _policy(settings: dict) -> ReferenceYearPolicy:
    kind = str(settings["reference_policy"])
    year = settings["reference_year"]
    if kind == "fixed":
        return ReferenceYearPolicy.fixed(year)
    if kind == "per_year":
        return ReferenceYearPolicy.per_year(year)
    raise InvalidValueError(f"unknown reference_policy {kind!r} (fixed | per_year)")


def _classified_references(dataset, settings):
    return classify_points(list(dataset.references), **_classify_kwargs(settings))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_synth(args, settings, outputs: RunOutputs) -> list[str]:
    rates = dict(
        {s: args.equal_rate for s in Strategy}
        if args.equal_rate is not None
        else SynthConfig().recovery_rate_by_strategy
    )
    config = SynthConfig(
        seed=settings["seed"],
        dim=args.dim,
        n_classes=args.n_classes,
        points_per_class=args.points_per_class,
        n_sites=args.n_sites,
        noise_sigma=args.noise_sigma,
        years=(settings["first_year"], settings["last_year"]),
        lulc_years=(settings["lulc_first_year"], settings["lulc_last_year"]),
        recovery_rate_by_strategy=rates,
        start_year_spread=args.start_year_spread,
        points_per_transition=args.points_per_transition,
        covariate_strategy_signal=args.covariate_strategy_signal,
    )
    dataset, truth = generate_world(config)
    write_world(dataset, truth, outputs.out_dir, on_write=outputs.add)
    return []


def _cmd_validate(args, settings, outputs: RunOutputs) -> list[str]:
    inputs = _require(settings, "embeddings", "sites", "reference_points")
    dataset, skipped = _load_dataset(settings)
    kept, report = ingest.filter_sites(
        list(dataset.sites),
        min_area_ha=settings["min_area_ha"],
        start_year_range=(settings["start_year_min"], settings["start_year_max"]),
    )
    rows = [("input", 0, report.n_input)]
    rows.extend(report.stages)
    outputs.write_csv("funnel.csv", ["stage", "dropped", "remaining"], rows)
    outputs.write_csv(
        "load_report.csv",
        ["issue", "id"],
        [("no_embedding_years", sid) for sid in skipped],
    )
    print(f"validate: {report.n_input} sites in, {len(kept)} kept")
    return inputs


def _cmd_references(args, settings, outputs: RunOutputs) -> list[str]:
    inputs = _require(settings, "embeddings", "reference_points")
    dataset, _ = _load_dataset(settings)
    points = _classified_references(dataset, settings)

    if args.action == "classify":
        rows = []
        for p in points:
            st = p.stability
            rows.append(
                (
                    p.point_id,
                    st.kind.value,
                    st.stable_class.label if st.stable_class else (st.from_class.label if st.from_class else ""),
                    st.to_class.label if st.to_class else "",
                )
            )
        outputs.write_csv("stability.csv", ["point_id", "stability", "class_from", "class_to"], rows)
        return inputs

    refset = build_reference_set(points, _policy(settings))
    if args.action == "build":
        outputs.write_csv(
            "global_reference.csv",
            ["index", "value"],
            enumerate(refset.global_ref.values),
        )
        outputs.write_csv(
            "centroids.csv",
            ["class", "index", "value"],
            (
                (cls.label, i, v)
                for cls in sorted(refset.centroids, key=lambda c: c.label)
                for i, v in enumerate(refset.centroids[cls].values)
            ),
        )
        outputs.write_csv(
            "secondary_points.csv",
            ["point_id", "lon", "lat"],
            ((p.point_id, p.lon, p.lat) for p in refset.secondary_points),
        )
        return inputs

    # outliers
    rows = []
    for cls in sorted(refset.centroids, key=lambda c: c.label):
        report = detect_outliers(
            points, cls, refset,
            top_k=settings["outlier_top_k"],
            metric=str(settings["outlier_metric"]),
        )
        rows.extend(
            (cls.label, rank, pid, dist)
            for rank, (pid, dist) in enumerate(report.ranked, start=1)
        )
    outputs.write_csv("outliers.csv", ["class", "rank", "point_id", "distance"], rows)
    return inputs


def _cmd_trajectories(args, settings, outputs: RunOutputs) -> list[str]:
    inputs = _require(settings, "embeddings", "sites", "reference_points")
    dataset, _ = _load_dataset(settings)
    points = _classified_references(dataset, settings)
    refset = build_reference_set(points, _policy(settings))

    kinds = {
        "global": [ReferenceKind.GLOBAL],
        "local": [ReferenceKind.LOCAL],
        "both": [ReferenceKind.GLOBAL, ReferenceKind.LOCAL],
    }[str(settings["reference_kind"])]

    sample_rows = []
    improvement_rows = []
    trajs_by_kind = {}
    for kind in kinds:
        trajs = [build_trajectory(s, refset, kind) for s in dataset.sites]
        trajs_by_kind[kind] = trajs
        for t in trajs:
            sample_rows.extend(
                (t.site_id, t.reference_label, s.year, s.delta_t, s.similarity)
                for s in t.samples
            )
            improvement_rows.append((t.site_id, t.reference_label, t.improvement, t.degenerate))
    outputs.write_csv(
        "trajectories.csv",
        ["site_id", "reference", "year", "delta_t", "similarity"],
        sample_rows,
    )
    outputs.write_csv(
        "improvements.csv",
        ["site_id", "reference", "improvement", "degenerate"],
        improvement_rows,
    )
    outputs.write_csv(
        "spectral_trajectories.csv",
        ["site_id", "delta_t", "ndvi", "evi"],
        (
            (s.site_id, dt, ndvi, evi)
            for s in dataset.sites
            for dt, ndvi, evi in spectral_trajectory(s)
        ),
    )

    group_key = str(settings["aggregate"])
    if group_key:
        group_by = GroupBy(group_key)
        rows = aggregate_trajectories(
            trajs_by_kind[kinds[0]], list(dataset.sites), group_by
        )
        outputs.write_csv(
            f"aggregate_{group_by.value}.csv",
            ["group", "delta_t", "mean", "sd", "n"],
            ((r.group, r.delta_t, r.mean, r.sd, r.n) for r in rows),
        )

    if settings["baselines"]:
        band = compute_baselines(points, refset)
        outputs.write_csv(
            "baselines.csv", ["band", "value"],
            [("upper", band.upper), ("lower", band.lower)],
        )
    return inputs


def _cmd_project(args, settings, outputs: RunOutputs) -> list[str]:
    inputs = _require(settings, "embeddings", "reference_points")
    dataset, _ = _load_dataset(settings)
    points = _classified_references(dataset, settings)
    year = settings["reference_year"]

    stable = [
        p for p in points
        if p.stability.kind.value == "stable" and year in p.embeddings
    ]
    model = fit_projection([p.embeddings[year] for p in stable])
    outputs.write_csv(
        "projection_model.csv",
        ["component", "index", "value"],
        [("mean", i, v) for i, v in enumerate(model.mean.values)]
        + [("pc1", i, v) for i, v in enumerate(model.components[0].values)]
        + [("pc2", i, v) for i, v in enumerate(model.components[1].values)]
        + [("variance", i, v) for i, v in enumerate(model.explained_variance)],
    )

    labels = {p.point_id: p.stability.label for p in points}
    labels.update({s.site_id: s.strategy.value for s in dataset.sites})
    rows = trajectory_paths_2d(list(points) + list(dataset.sites), model)
    outputs.write_csv(
        "projections.csv",
        ["id", "label", "year", "x", "y"],
        ((rid, labels.get(rid, ""), y, px, py) for rid, y, px, py in rows),
    )

    score = silhouette_score(
        [p.embeddings[year] for p in stable],
        [p.stability.stable_class.label for p in stable],
    )
    outputs.write_csv("silhouette.csv", ["metric", "value"], [("cosine_silhouette", score)])
    return inputs


def _parse_feature_sets(text: str) -> list[FeatureSet]:
    out = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(FeatureSet(token))
        except ValueError:
            valid = ", ".join(f.value for f in FeatureSet)
            raise InvalidValueError(f"unknown feature set {token!r} (valid: {valid})") from None
    if not out:
        raise InvalidValueError("no feature sets selected")
    return out


def _parse_models(text: str) -> list[ModelKind]:
    out = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(ModelKind(token))
        except ValueError:
            valid = ", ".join(m.value for m in ModelKind)
            raise InvalidValueError(f"unknown model {token!r} (valid: {valid})") from None
    if not out:
        raise InvalidValueError("no models selected")
    return out


def _cmd_predict(args, settings, outputs: RunOutputs) -> list[str]:
    inputs = _require(settings, "embeddings", "sites", "reference_points")
    dataset, _ = _load_dataset(settings)
    points = _classified_references(dataset, settings)
    refset = build_reference_set(points, _policy(settings))
    feature_sets = _parse_feature_sets(settings["feature_sets"])
    requested_models = _parse_models(settings["models"])

    folds = spatial_kfold(list(dataset.sites), k=settings["folds"], seed=settings["seed"])
    outputs.write_csv(
        "folds.csv", ["site_id", "fold"], sorted(folds.assignment.items())
    )

    fold_rows = []
    agg_rows = []
    excluded_rows = []
    for task in Task:
        models = models_for_task(task, requested_models)
        if not models:
            continue
        results = evaluate(
            list(dataset.sites), refset, task, models, feature_sets, folds,
            seed=settings["seed"],
            horizon=settings["horizon"],
            t0=settings["t0"],
            mean_impute=bool(settings["impute"]),
            n_trees=settings["n_trees"],
            threads=settings["threads"],
        )
        for res in results:
            for fm in res.per_fold:
                for metric, value in sorted(fm.metrics.items()):
                    fold_rows.append(
                        (task.value, res.model.value, res.feature_set.value, fm.fold, metric, value)
                    )
            for metric, (mean, sd) in sorted(res.aggregate.items()):
                agg_rows.append(
                    (task.value, res.model.value, res.feature_set.value, metric, mean, sd)
                )
        if results:
            excluded_rows.extend((task.value, sid) for sid in results[0].excluded_sites)
    outputs.write_csv(
        "predictions_folds.csv",
        ["task", "model", "feature_set", "fold", "metric", "value"],
        fold_rows,
    )
    outputs.write_csv(
        "predictions_aggregate.csv",
        ["task", "model", "feature_set", "metric", "mean", "sd"],
        agg_rows,
    )
    outputs.write_csv("excluded_sites.csv", ["task", "site_id"], sorted(set(excluded_rows)))
    return inputs


_AREA_BIN_EDGES = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, float("inf"))


def _cmd_report(args, settings, outputs: RunOutputs) -> list[str]:
    inputs = _require(settings, "embeddings", "sites", "reference_points")
    dataset, _ = _load_dataset(settings)
    sites = dataset.sites

    strategy_counts: dict[str, int] = {s.value: 0 for s in Strategy}
    for site in sites:
        strategy_counts[site.strategy.value] += 1
    outputs.write_csv(
        "strategy_counts.csv", ["strategy", "count"], sorted(strategy_counts.items())
    )

    year_counts: dict[int, int] = {}
    for site in sites:
        year_counts[site.start_year] = year_counts.get(site.start_year, 0) + 1
    outputs.write_csv(
        "start_year_counts.csv", ["start_year", "count"], sorted(year_counts.items())
    )

    bins = list(zip(_AREA_BIN_EDGES, _AREA_BIN_EDGES[1:]))
    counts = [0] * len(bins)
    for site in sites:
        for i, (lo, hi) in enumerate(bins):
            if lo <= site.area_ha < hi:
                counts[i] += 1
                break
    outputs.write_csv(
        "area_histogram.csv",
        ["bin_low", "bin_high", "count"],
        [(lo, hi, c) for (lo, hi), c in zip(bins, counts)],
    )
    return inputs


_HANDLERS = {
    "synth": _cmd_synth,
    "validate": _cmd_validate,
    "references": _cmd_references,
    "trajectories": _cmd_trajectories,
    "project": _cmd_project,
    "predict": _cmd_predict,
    "report": _cmd_report,
}


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None,
                        help="cap on worker processes (default: every available core; "
                        "results do not depend on it)")
    parser.add_argument("--output-dir", required=True)
    parser.add_argument("--inputs-dir",
                        help="directory holding the standard input CSV filenames")
    for key in _INPUT_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None,
                            help=f"path to {key}.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regrow",
        description="Restoration-progress analytics from annual embedding vectors",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic world with ground truth")
    _add_common(p)
    p.add_argument("--n-sites", type=int, default=200)
    p.add_argument("--points-per-class", type=int, default=200)
    p.add_argument("--n-classes", type=int, default=5)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--start-year-spread", type=int, default=2)
    p.add_argument("--points-per-transition", type=int, default=40)
    p.add_argument("--equal-rate", type=float, default=None,
                   help="use one recovery rate for all strategies")
    p.add_argument("--covariate-strategy-signal", type=float, default=0.0)
    p.add_argument("--first-year", dest="first_year", type=int, default=None)
    p.add_argument("--last-year", dest="last_year", type=int, default=None)

    p = sub.add_parser("validate", help="ingest inputs and report the drop funnel")
    _add_common(p)
    p.add_argument("--min-area-ha", dest="min_area_ha", type=float, default=None)
    p.add_argument("--start-year-min", dest="start_year_min", type=int, default=None)
    p.add_argument("--start-year-max", dest="start_year_max", type=int, default=None)

    p = sub.add_parser("references", help="classify stability, build references, rank outliers")
    p.add_argument("action", choices=["classify", "build", "outliers"])
    _add_common(p)
    p.add_argument("--reference-policy", dest="reference_policy", default=None)
    p.add_argument("--reference-year", dest="reference_year", type=int, default=None)
    p.add_argument("--outlier-metric", dest="outlier_metric",
                   choices=_CHOICES["outlier_metric"], default=None)
    p.add_argument("--outlier-top-k", dest="outlier_top_k", type=int, default=None)

    p = sub.add_parser("trajectories", help="similarity trajectories, aggregates, baselines")
    _add_common(p)
    p.add_argument("--reference", dest="reference_kind",
                   choices=_CHOICES["reference_kind"], default=None)
    p.add_argument("--aggregate", dest="aggregate", choices=_CHOICES["aggregate"], default=None)
    p.add_argument("--no-baselines", dest="baselines", action="store_false", default=None)
    p.add_argument("--reference-policy", dest="reference_policy", default=None)
    p.add_argument("--reference-year", dest="reference_year", type=int, default=None)

    p = sub.add_parser("project", help="2D projection tables and silhouette score")
    _add_common(p)
    p.add_argument("--reference-year", dest="reference_year", type=int, default=None)

    p = sub.add_parser("predict", help="run the prediction tasks under spatial CV")
    _add_common(p)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--t0", type=int, default=None)
    p.add_argument("--feature-sets", dest="feature_sets", default=None)
    p.add_argument("--models", dest="models", default=None)
    p.add_argument("--n-trees", dest="n_trees", type=int, default=None)
    p.add_argument("--no-impute", dest="impute", action="store_false", default=None)
    p.add_argument("--reference-policy", dest="reference_policy", default=None)
    p.add_argument("--reference-year", dest="reference_year", type=int, default=None)

    p = sub.add_parser("report", help="metadata distribution tables")
    _add_common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    outputs = RunOutputs(Path(args.output_dir))
    try:
        settings = _resolve_settings(args)
        input_paths = _HANDLERS[args.subcommand](args, settings, outputs)
        outputs.write_manifest(args.subcommand, settings, input_paths)
    except RegrowError as exc:
        outputs.discard()
        record = {"error": exc.code, "message": str(exc), "file": exc.file, "line": exc.line}
        print(json.dumps(record), file=sys.stderr)
        return 1
    except OSError as exc:
        outputs.discard()
        file = None if exc.filename is None else str(exc.filename)
        record = {"error": "io_error", "message": str(exc), "file": file, "line": None}
        print(json.dumps(record), file=sys.stderr)
        return 1
    except Exception as exc:
        # A fault in regrow itself: clean up as for any error, and keep the traceback.
        outputs.discard()
        record = {
            "error": "internal_error",
            "message": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
        print(json.dumps(record), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
