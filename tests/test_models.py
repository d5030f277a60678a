from __future__ import annotations

import numpy as np
import pytest

from regrow.errors import (
    InvalidValueError,
    SingleClassError,
    SingularSystemError,
    TooFewPointsError,
    WrongDimensionError,
)
from regrow.forest import train_random_forest
from regrow.linear_models import _RIDGE_LAMBDA, train_linear, train_logistic

from test_forest_oracle import _lockstep_forest


def two_blobs(n, seed, gap=6.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n // 2, 2))
    b = rng.normal(gap, 1.0, size=(n - n // 2, 2))
    X = np.vstack([a, b])
    y = ["a"] * (n // 2) + ["b"] * (n - n // 2)
    return X, y


class TestRidge:
    def test_recovers_line(self):
        x = np.linspace(0.0, 10.0, 50).reshape(-1, 1)
        y = 2.0 * x[:, 0] + 1.0
        model = train_linear(x, y)
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-6)
        assert model.intercept == pytest.approx(1.0, abs=1e-6)

    def test_constant_targets(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 4))
        model = train_linear(X, np.full(30, 3.25))
        assert model.intercept == pytest.approx(3.25, abs=1e-4)
        assert np.allclose(model.coefficients, 0.0, atol=1e-4)

    def test_matches_independent_normal_equation_solver(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 10))
        y = rng.normal(size=50)
        lam = _RIDGE_LAMBDA
        model = train_linear(X, y)

        # Independent oracle: explicit pseudo-inverse of the penalized system.
        Xa = np.hstack([X, np.ones((50, 1))])
        penalty = np.diag([lam] * 10 + [0.0])
        beta = np.linalg.pinv(Xa.T @ Xa + penalty) @ (Xa.T @ y)
        assert np.abs(model.coefficients - beta[:10]).max() < 1e-8
        assert abs(model.intercept - beta[10]) < 1e-8

    def test_training_r2_nonnegative_on_full_rank_data(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 5))
        y = rng.normal(size=40)
        model = train_linear(X, y)
        pred = model.predict(X)
        sse = ((y - pred) ** 2).sum()
        sst = ((y - y.mean()) ** 2).sum()
        assert 1.0 - sse / sst >= 0.0

    def test_only_an_empty_design_is_singular(self):
        X = np.zeros((3, 2))  # collinear: the penalty still makes a solution
        assert train_linear(X, np.arange(3.0)).intercept == pytest.approx(1.0)
        with pytest.raises(SingularSystemError):
            train_linear(np.zeros((0, 2)), np.zeros(0))


class TestLogistic:
    def test_separable_blobs(self):
        X, y = two_blobs(200, seed=3)
        model = train_logistic(X, y)
        pred = model.predict(X)
        acc = np.mean([p == t for p, t in zip(pred, y)])
        assert acc >= 0.99

    def test_random_labels_score_near_chance(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(1000, 4))
            y = list(rng.choice(["a", "b"], size=1000))
            model = train_logistic(X[:500], y[:500])
            pred = model.predict(X[500:])
            acc = np.mean([p == t for p, t in zip(pred, y[500:])])
            assert 0.4 <= acc <= 0.6

    def test_single_class(self):
        with pytest.raises(SingleClassError):
            train_logistic(np.zeros((10, 2)), ["a"] * 10)

    def test_multiclass(self):
        rng = np.random.default_rng(4)
        centers = {"a": (0, 0), "b": (8, 0), "c": (0, 8)}
        X = np.vstack([rng.normal(c, 1.0, size=(40, 2)) for c in centers.values()])
        y = [lab for lab in centers for _ in range(40)]
        model = train_logistic(X, y)
        assert model.classes == ("a", "b", "c")
        acc = np.mean([p == t for p, t in zip(model.predict(X), y)])
        assert acc >= 0.98


def xor_data(n, seed):
    rng = np.random.default_rng(seed)
    centers = [(0, 0, "a"), (1, 1, "a"), (0, 1, "b"), (1, 0, "b")]
    X, y = [], []
    for cx, cy, lab in centers:
        X.append(rng.normal((cx, cy), 0.08, size=(n // 4, 2)))
        y.extend([lab] * (n // 4))
    return np.vstack(X), y


class TestRandomForest:
    def test_constant_targets(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        model = train_random_forest(X, np.full(20, 1.5), n_trees=5, seed=0)
        assert np.allclose(model.predict(X), 1.5)

    def test_single_unbootstrapped_tree_is_exact(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        model = _lockstep_forest(X, y, n_trees=1, mode="regression", seed=0, mtry=3,
                                 bootstrap=False)
        pred = model.predict(X)
        sse = ((pred - y) ** 2).sum()
        sst = ((y - y.mean()) ** 2).sum()
        assert 1.0 - sse / sst == pytest.approx(1.0, abs=1e-12)

    def test_xor_classification(self):
        X, y = xor_data(400, seed=7)
        order = np.random.default_rng(8).permutation(len(y))
        X, y = X[order], [y[i] for i in order]
        model = train_random_forest(X[:200], y[:200], n_trees=100, mode="classification", seed=1)
        pred = model.predict(X[200:])
        acc = np.mean([p == t for p, t in zip(pred, y[200:])])
        assert acc >= 0.9

    def test_deterministic_given_seed(self):
        X, y = xor_data(100, seed=9)
        grid = np.random.default_rng(10).uniform(-0.5, 1.5, size=(50, 2))
        a = train_random_forest(X, y, n_trees=20, mode="classification", seed=4).predict(grid)
        b = train_random_forest(X, y, n_trees=20, mode="classification", seed=4).predict(grid)
        assert a == b

    def test_vote_tie_breaks_lexicographically(self):
        X = np.array([[0.0], [0.0]])
        model = _lockstep_forest(X, ["b", "a"], n_trees=1, mode="classification", seed=0,
                                 mtry=None, bootstrap=False)
        # Constant feature: a single leaf with one vote each; 'a' wins the tie.
        assert model.predict(np.array([[0.0]])) == ["a"]

    def test_too_few_rows(self):
        with pytest.raises(TooFewPointsError):
            train_random_forest(np.zeros((1, 2)), [1.0], n_trees=1)

    @pytest.mark.parametrize("bad", [{"n_trees": 0}, {"n_trees": -2}])
    @pytest.mark.parametrize("mode", ["regression", "classification"])
    def test_non_positive_sizes_rejected(self, bad, mode):
        X = np.arange(12.0).reshape(6, 2)
        y = ["a", "b"] * 3 if mode == "classification" else np.arange(6.0)
        with pytest.raises(InvalidValueError):
            train_random_forest(X, y, mode=mode, **bad)

    @pytest.mark.parametrize("mode", ["regression", "classification"])
    @pytest.mark.parametrize("shape", [(6, 2), (6, 5), (6,), (1, 6, 3)])
    def test_predict_takes_only_the_training_width(self, mode, shape):
        X = np.random.default_rng(11).normal(size=(6, 3))
        y = ["a", "b"] * 3 if mode == "classification" else np.arange(6.0)
        model = train_random_forest(X, y, n_trees=3, mode=mode)
        assert len(model.predict(X[:4])) == 4
        with pytest.raises(WrongDimensionError):
            model.predict(np.zeros(shape))


def _fit(trainer, X, y, mode="regression"):
    """Fit one of the three trainers; labels alternate a, b for a classifier."""
    labels = ["a", "b"] * (len(y) // 2)
    if trainer == "linear":
        return train_linear(X, y)
    if trainer == "logistic":
        return train_logistic(X, labels)
    return train_random_forest(X, labels if mode == "classification" else y, 3, mode, 0)


def _set(a, index, value):
    a = a.copy()
    a[index] = value
    return a


_X = np.random.default_rng(3).normal(size=(6, 3))
_Y = np.arange(6.0)


#: (case, the trainers it applies to, X, y, forest mode, error). A logistic
#: model takes labels, not targets, and only the forest has a mode.
_UNFITTABLE = [
    ("no_columns", "linear logistic forest", _X[:, :0], _Y, "regression", WrongDimensionError),
    ("no_columns_classification", "forest", _X[:, :0], _Y, "classification",
     WrongDimensionError),
    ("one_dimensional", "linear logistic forest", _X[:, 0], _Y, "regression",
     WrongDimensionError),
    ("nan_feature", "linear logistic forest", _set(_X, (1, 2), np.nan), _Y, "regression",
     InvalidValueError),
    ("inf_feature", "linear logistic forest", _set(_X, (3, 0), np.inf), _Y, "classification",
     InvalidValueError),
    ("minus_inf_feature", "linear logistic forest", _set(_X, (0, 1), -np.inf), _Y,
     "regression", InvalidValueError),
    ("nan_target", "linear forest", _X, _set(_Y, 4, np.nan), "regression", InvalidValueError),
    ("inf_target", "linear forest", _X, _set(_Y, 2, np.inf), "regression", InvalidValueError),
    ("mode_Regression", "forest", _X, _Y, "Regression", InvalidValueError),
    ("mode_empty", "forest", _X, _Y, "", InvalidValueError),
]


@pytest.mark.parametrize("trainer, X, y, mode, error", [
    pytest.param(trainer, X, y, mode, error, id=f"{trainer}-{case}")
    for case, trainers, X, y, mode, error in _UNFITTABLE for trainer in trainers.split()
])
def test_what_a_trainer_cannot_fit_is_a_regrow_error(trainer, X, y, mode, error):
    """Each trainer fits the clean design, and rejects a design with no
    columns or a non-finite value, and a forest mode it does not know, with
    a RegrowError rather than a bare numpy error or a model."""
    assert _fit(trainer, _X, _Y) is not None
    with pytest.raises(error):
        _fit(trainer, X, y, mode)
