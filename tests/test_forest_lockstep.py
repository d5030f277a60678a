"""Lockstep growth of a forest's trees against the per-node oracle.

All trees of a forest are searched in one batch per step, so one batch mixes
trees of very different shapes: deep and shallow, bootstrapped or not, with
pure nodes, constant columns and classes missing from a sample. Every tree
must still be the oracle's tree, bit for bit.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regrow import forest, prediction
from regrow.cli import main
from regrow.errors import InvalidValueError
from regrow.forest import _draw_features, train_random_forest

from test_forest_oracle import (
    _as_node, _lockstep_forest, _oracle_forest, _OracleForest, _preorder,
)


def _same_forest(new, old):
    assert [_preorder(_as_node(t), []) for t in new.trees] == [_preorder(t, []) for t in old.trees]


@st.composite
def lockstep_cases(draw):
    mode = draw(st.sampled_from(["regression", "classification"]))
    n = draw(st.integers(2, 30))
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Zero decimals give -0.0 next to 0.0: equal values, different bits.
    decimals = draw(st.integers(0, 2))
    X = np.round(rng.uniform(-1.0, 1.0, size=(n, p)), decimals)
    for col in draw(st.sets(st.integers(0, p - 1), max_size=p)):
        X[:, col] = X[0, col]
    if mode == "classification":
        # A dominant class and rare ones: many bootstrap samples miss a class.
        k = draw(st.integers(1, 6))
        weights = np.r_[8.0, np.ones(k - 1)]
        targets = [f"c{c}" for c in rng.choice(k, size=n, p=weights / weights.sum())]
    else:
        targets = np.round(rng.normal(size=n), draw(st.integers(0, 2)))
    kwargs = dict(
        mode=mode,
        n_trees=draw(st.integers(1, 25)),
        seed=draw(st.integers(0, 1000)),
        mtry=draw(st.one_of(st.none(), st.integers(1, p))),
        bootstrap=draw(st.booleans()),
    )
    # Small budgets split a batch's search and refill the draws mid-growth.
    budgets = dict(
        search_keys=draw(st.sampled_from([forest._SEARCH_KEYS, 1, 40])),
        draw_chunk=draw(st.sampled_from([forest._DRAW_CHUNK, 1, 3])),
    )
    probes = np.round(rng.uniform(-1.2, 1.2, size=(15, p)), decimals)
    return X, targets, kwargs, budgets, probes


@settings(max_examples=150, deadline=None)
@given(lockstep_cases())
def test_lockstep_forest_is_the_oracle_forest(case):
    X, targets, kwargs, budgets, probes = case
    with mock.patch.object(forest, "_SEARCH_KEYS", budgets["search_keys"]), \
            mock.patch.object(forest, "_DRAW_CHUNK", budgets["draw_chunk"]):
        new = _lockstep_forest(X, targets, **kwargs)
    old = _oracle_forest(X, targets, max_depth=None, min_leaf=1, **kwargs)
    assert len(new.trees) == kwargs["n_trees"]
    _same_forest(new, old)
    for rows in (X, probes):
        got, want = new.predict(rows), old.predict(rows)
        if kwargs["mode"] == "regression":
            assert got.tobytes() == want.tobytes()
        else:
            assert got == want


@pytest.mark.parametrize(
    "p, m", [(1, 1), (2, 2), (9, 3), (11, 4), (64, 22), (64, 8), (64, 64),
             (10000, 3333), (10001, 200), (10001, 201)],
)
def test_feature_draws_are_successive_choice_calls(p, m):
    # 10001 features and more than 200 candidates is where choice stops
    # using Floyd's algorithm.
    for chunk in (1, 3):
        want_rngs = [np.random.default_rng([5, t]) for t in range(3)]
        got_rngs = [np.random.default_rng([5, t]) for t in range(3)]
        want = [[r.choice(p, size=m, replace=False) for _ in range(2 * chunk)] for r in want_rngs]
        got = np.concatenate(
            [_draw_features(got_rngs, p, m, chunk), _draw_features(got_rngs, p, m, chunk)], axis=1
        )
        assert got.tolist() == np.array(want).tolist()


# Adjacent floats whose midpoint rounds up to the upper one.
_BELOW_ONE = math.nextafter(1.0, 0.0)


def test_midpoint_rounding_up_below_larger_values_matches_the_oracle():
    assert 0.5 * (_BELOW_ONE + 1.0) == 1.0
    # The root splits feature 0 between _BELOW_ONE and 1.0; its left child is
    # split on feature 1, whose split alone is pure (the oracle cannot split
    # that child on feature 0, see the next test).
    X = np.array([[_BELOW_ONE, 0.0], [_BELOW_ONE, 1.0], [1.0, 0.0], [2.0, 1.0]])
    y = [3.0, 10.0, 3.0, 0.0]
    kwargs = dict(n_trees=1, mode="regression", seed=0, mtry=2, bootstrap=False)
    new = _lockstep_forest(X, y, **kwargs)
    _same_forest(new, _oracle_forest(X, y, max_depth=None, min_leaf=1, **kwargs))
    tree = new.trees[0]
    # Rows at 1.0 go left, as in the oracle.
    assert (tree.feature[0], tree.threshold[0]) == (0, 1.0)
    assert tree.feature[1] == 1


@pytest.mark.parametrize("column", [
    [_BELOW_ONE, 1.0],  # the midpoint rounds up to the larger value
    [1.6e308, 1.7e308, 1.75e308],  # the sum overflows to +inf
    [-1.7e308, -1.6e308],  # the sum overflows to -inf
])
def test_lopsided_midpoint_takes_the_lower_value(column):
    # The midpoint would send every row one way: the oracle then grew an empty
    # leaf with a NaN value and searched the same rows again, endlessly.
    X = np.array(column)[:, None]
    y = np.r_[0.0, np.ones(len(column) - 1)]
    model = _lockstep_forest(X, y, n_trees=1, mode="regression", seed=0, mtry=None,
                             bootstrap=False)
    tree = model.trees[0]
    assert tree.threshold[0] == column[0]
    assert model.predict(X).tolist() == y.tolist()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_are_rejected(bad):
    X = np.arange(12.0).reshape(6, 2)
    y = np.arange(6.0)
    X_bad = X.copy()
    X_bad[2, 1] = bad
    with pytest.raises(InvalidValueError):
        train_random_forest(X_bad, y, n_trees=2)
    with pytest.raises(InvalidValueError):
        train_random_forest(X_bad, ["a", "b"] * 3, n_trees=2, mode="classification")
    y_bad = y.copy()
    y_bad[4] = bad
    with pytest.raises(InvalidValueError):
        train_random_forest(X, y_bad, n_trees=2)


def test_seed7_predict_fits_match_the_oracle(tmp_path, monkeypatch):
    """The 30 forest fits of ``regrow predict --seed 7 --t0 1 --n-trees 20``
    on the ``synth --seed 7`` world: every fit has 20 trees, a sample of
    them equals the oracle's, and the model predicts what a per-row walk of
    its own trees predicts."""
    world = tmp_path / "world"
    assert main(["synth", "--output-dir", str(world), "--seed", "7"]) == 0
    fits = []

    def recording_forest(X, y, n_trees, mode, seed):
        model = train_random_forest(X, y, n_trees=n_trees, mode=mode, seed=seed)
        fits.append((X, y, mode, seed, model))
        return model

    monkeypatch.setattr(prediction, "train_random_forest", recording_forest)
    assert main(["predict", "--inputs-dir", str(world), "--output-dir", str(tmp_path / "out"),
                 "--seed", "7", "--t0", "1", "--n-trees", "20", "--threads", "1"]) == 0
    assert len(fits) == 30
    for i, (X, y, mode, seed, model) in enumerate(fits):
        assert len(model.trees) == 20
        t = (0, 9, 19)[i % 3]
        oracle = _oracle_forest(X, y, n_trees=20, mode=mode, seed=seed, max_depth=None,
                                min_leaf=1, mtry=None, bootstrap=True, only=[t])
        want = _preorder(oracle.trees[0], [])
        assert _preorder(_as_node(model.trees[t]), []) == want
        walked = _OracleForest(mode, [_as_node(tree) for tree in model.trees], model.classes)
        got, expected = model.predict(X), walked.predict(X)
        if mode == "regression":
            assert got.tobytes() == expected.tobytes()
        else:
            assert got == expected
