"""No flag is a no-op: every flag an action offers changes what it does.

For each (action, setting) pair that the settings table offers as a flag,
the run with the setting's test value (``LIVE``) differs from the base run:
in its exit code and error record, or in the bytes of some CSV it writes.
The base run leaves every setting at its table default but for ``BASE``, a
config file that keeps the world small; a flag overrides it. The readers run
on a world built to exercise their flags: one site lacks its covariates at
its start year (``--no-impute``), and start years spread over three years
(``--start-year-min``, ``--start-year-max``).

A setting offered as a flag with no test value and no exemption fails the
test, so a new flag comes with a test value that shows it is live. A
withdrawn offering, set in a config file instead, leaves every CSV as the
base run writes it.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from regrow.cli import _HANDLERS, _INPUT_KEYS, _SETTINGS, _bool, main

from test_settings_table import WITHDRAWN

#: Settings offered as flags with no test value, and why.
EXEMPT = {
    "threads": "caps the worker processes; no output may depend on it",
    **{key: "an input path: it names a file to read, which every test world sets"
       for key in _INPUT_KEYS},
}

#: The base run's settings other than the table defaults: synth's world size
#: (which the other actions do not read) and one process per run.
BASE = "n_sites = 24\npoints_per_class = 12\npoints_per_transition = 3\ndim = 8\nthreads = 1\n"

#: A test value of each setting offered as a flag, other than its base value.
#: A boolean's flag switches it off, so its test value is false.
LIVE = {
    "seed": "1",
    "first_year": "2018",
    "last_year": "2023",
    "n_sites": "10",
    "points_per_class": "10",
    "n_classes": "4",
    "dim": "12",
    "noise_sigma": "0.1",
    "start_year_spread": "1",
    "points_per_transition": "2",
    "equal_rate": "0.05",
    "covariate_strategy_signal": "0.5",
    "min_area_ha": "20",
    "start_year_min": "2018",
    "start_year_max": "2018",
    "reference_policy": "per_year",
    "reference_year": "2022",
    "outlier_metric": "euclidean",
    "outlier_top_k": "2",
    "reference_kind": "local",
    "aggregate": "strategy",
    "baselines": "false",
    "folds": "3",
    "horizon": "1",
    "t0": "1",
    "feature_sets": "covariates",
    "models": "linear",
    "n_trees": "3",
    "impute": "false",
}

OFFERED = [
    (action, key)
    for action in _HANDLERS for key, row in _SETTINGS.items() if action in row.commands
]


def _flag(key: str) -> str:
    return _SETTINGS[key].flag or f"--{key.replace('_', '-')}"


def _live_argv(key: str) -> list[str]:
    return [_flag(key)] if _SETTINGS[key].parse is _bool else [_flag(key), LIVE[key]]


@pytest.fixture(scope="module")
def base_cfg(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("base") / "base.cfg"
    path.write_text(BASE)
    return path


@pytest.fixture(scope="module")
def world(tmp_path_factory, base_cfg) -> Path:
    out = tmp_path_factory.mktemp("live_world")
    assert main(["synth", "--output-dir", str(out), "--config", str(base_cfg)]) == 0
    with open(out / "sites.csv", newline="") as fh:
        sites = list(csv.DictReader(fh))
    assert len({site["start_year"] for site in sites}) == 3
    first = sites[0]
    # The first site has no covariates at its start year, where predict
    # takes its features (t0 = 0).
    covariates = (out / "covariates.csv").read_text().splitlines(keepends=True)
    gap = f"{first['site_id']},{first['start_year']},"
    kept = [line for line in covariates if not line.startswith(gap)]
    assert len(kept) == len(covariates) - 1
    (out / "covariates.csv").write_text("".join(kept))
    return out


def _outcome(action: str, world: Path, base_cfg: Path, out: Path, extra=()) -> tuple:
    """The exit code, error record and CSV bytes of one run of ``action``."""
    argv = [*action.split(), "--config", str(base_cfg), "--output-dir", str(out), *extra]
    if action != "synth":
        argv += ["--inputs-dir", str(world)]
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(argv)
    record = json.loads(err.getvalue().strip().splitlines()[-1]) if code else None
    csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))} if out.exists() else {}
    return code, record, csvs


@pytest.fixture(scope="module")
def base_outcomes(world, base_cfg, tmp_path_factory) -> dict:
    outcomes = {}
    for action in _HANDLERS:
        outcomes[action] = _outcome(action, world, base_cfg,
                                    tmp_path_factory.mktemp("base_run"))
        assert outcomes[action][0] == 0, (action, outcomes[action][1])
    return outcomes


def test_every_offered_setting_has_a_test_value_or_an_exemption():
    missing = sorted({key for _, key in OFFERED} - set(EXEMPT) - set(LIVE))
    assert not missing, f"no test value for the offered flag(s) of {missing}"
    assert not set(LIVE) & set(EXEMPT)
    assert set(LIVE) <= {key for _, key in OFFERED}, "a test value for a setting no action offers"


@pytest.mark.parametrize(
    "action, key", [pair for pair in OFFERED if pair[1] not in EXEMPT],
    ids=lambda value: value.replace(" ", "-"),
)
def test_an_offered_flag_changes_the_outcome(world, base_cfg, base_outcomes, tmp_path,
                                             action, key):
    assert key in LIVE, (f"{action} offers --{key} with no test value: give it one in "
                         "LIVE, or offer the flag to no action whose outputs it leaves alone")
    outcome = _outcome(action, world, base_cfg, tmp_path / "out", _live_argv(key))
    assert outcome != base_outcomes[action], f"{action} {_flag(key)} changed nothing"


@pytest.mark.parametrize("action, flag, value", WITHDRAWN,
                         ids=lambda value: "-".join(value) if isinstance(value, list) else value)
def test_a_withdrawn_setting_in_a_config_file_changes_nothing(world, base_outcomes, tmp_path,
                                                              action, flag, value):
    cfg = tmp_path / "withdrawn.cfg"
    cfg.write_text(f"{BASE}{flag.lstrip('-').replace('-', '_')} = {value}\n")
    action = " ".join(action)
    assert _outcome(action, world, cfg, tmp_path / "out") == base_outcomes[action]
