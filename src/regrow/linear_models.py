"""Ridge linear regression and multinomial logistic regression.

Ridge is solved exactly by the normal equations with penalty
``_RIDGE_LAMBDA`` (1e-6) on the coefficients (intercept unpenalized).
Logistic is full-batch gradient descent on the softmax cross-entropy with
an L2 penalty; features are standardized internally using statistics from
the training data only, and the step size is derived from a
power-iteration bound on the data curvature, so training is deterministic.
The penalty (``_L2``), the epoch cap (``_MAX_EPOCHS``) and the stopping
tolerance (``_TOL``) are constants of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import design_matrix
from .errors import InvalidValueError, SingleClassError, SingularSystemError

__all__ = ["RidgeModel", "train_linear", "LogisticModel", "train_logistic"]

#: L2 penalty on the ridge coefficients (the intercept is not penalized).
_RIDGE_LAMBDA = 1e-6
#: L2 penalty on the logistic weights (the bias is not penalized).
_L2 = 1e-4
#: Gradient steps after which logistic training stops.
_MAX_EPOCHS = 500
#: Logistic training stops early once no gradient entry exceeds this.
_TOL = 1e-7


@dataclass(frozen=True)
class RidgeModel:
    coefficients: np.ndarray  # (p,)
    intercept: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.coefficients + self.intercept


def train_linear(features: np.ndarray, targets: np.ndarray) -> RidgeModel:
    """Ridge least squares via the normal equations, with intercept.

    Deterministic. The design must have a column and, like the targets, be
    finite. Raises SingularSystemError only for a design with no rows, whose
    intercept the penalty leaves undetermined.
    """
    X = design_matrix(features)
    y = np.asarray(targets, dtype=np.float64)
    if not np.isfinite(y).all():
        raise InvalidValueError("linear regression targets must be finite")
    n, p = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    penalty = np.diag(np.append(np.full(p, _RIDGE_LAMBDA), 0.0))
    lhs = Xa.T @ Xa + penalty
    rhs = Xa.T @ y
    try:
        beta = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystemError("normal equations are singular (no training rows)") from None
    return RidgeModel(coefficients=beta[:p], intercept=float(beta[p]))


@dataclass(frozen=True)
class LogisticModel:
    classes: tuple[str, ...]
    weights: np.ndarray  # (p, C)
    bias: np.ndarray  # (C,)
    feature_mean: np.ndarray
    feature_scale: np.ndarray

    def _scores(self, X: np.ndarray) -> np.ndarray:
        Z = (np.asarray(X, dtype=np.float64) - self.feature_mean) / self.feature_scale
        return Z @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> list[str]:
        # argmax takes the first maximum; classes are sorted, so ties break
        # to the lexicographically smallest label.
        idx = self._scores(X).argmax(axis=1)
        return [self.classes[i] for i in idx]


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _curvature_bound(Z: np.ndarray) -> float:
    """Largest eigenvalue of Z'Z/n by power iteration (fixed start vector)."""
    n, p = Z.shape
    v = np.ones(p) / np.sqrt(p)
    lam = 1.0
    for _ in range(100):
        w = Z.T @ (Z @ v) / n
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 1.0
        v = w / norm
        lam = norm
    return lam


def train_logistic(features: np.ndarray, labels: Sequence[str]) -> LogisticModel:
    """Multinomial logistic regression by full-batch gradient descent.

    The L2 penalty is ``_L2`` (1e-4) and the step is 1/L, L a bound on the
    curvature, which guarantees descent. Training starts from zero weights
    and stops once no gradient entry exceeds ``_TOL`` (1e-7) or after
    ``_MAX_EPOCHS`` (500) steps, so it is deterministic. The design must
    have a column and be finite.
    """
    X = design_matrix(features)
    y = list(labels)
    classes = tuple(sorted(set(y)))
    if len(classes) < 2:
        raise SingleClassError(f"need at least 2 classes, got {classes}")
    n, p = X.shape
    class_index = {c: i for i, c in enumerate(classes)}
    Y = np.zeros((n, len(classes)))
    Y[np.arange(n), [class_index[c] for c in y]] = 1.0

    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Z = (X - mean) / scale

    lr = 1.0 / (0.5 * _curvature_bound(Z) + _L2)
    W = np.zeros((p, len(classes)))
    b = np.zeros(len(classes))
    for _ in range(_MAX_EPOCHS):
        P = _softmax(Z @ W + b)
        err = P - Y
        grad_w = Z.T @ err / n + _L2 * W
        grad_b = err.mean(axis=0)
        W -= lr * grad_w
        b -= lr * grad_b
        if max(float(np.abs(grad_w).max()), float(np.abs(grad_b).max())) < _TOL:
            break
    return LogisticModel(
        classes=classes,
        weights=W,
        bias=b,
        feature_mean=mean,
        feature_scale=scale,
    )
