"""Random forest on CART trees, for regression and classification.

Trees are grown on bootstrap samples with per-node feature subsampling;
splits minimize within-node variance (regression) or Gini impurity
(classification) using sort-plus-prefix-sum scans. Per-tree generators are
derived deterministically from (seed, tree_index), so a fixed seed yields
a bit-identical forest.

The split search of a node is vectorized across its candidate features: the
node's ``n x mtry`` submatrix is stably sorted column by column, and one
prefix sum of the per-row target statistics gives the cost of every
(feature, position) split at once. Tie-break contract: among splits of
equal cost, the first candidate feature in the node's draw order wins, and
within that feature the first position (the smallest left side). A split
is valid only between two distinct sorted values and only if it leaves at
least ``min_leaf`` rows on each side. The node's candidate features are
drawn with one ``rng.choice`` per node, in depth-first pre-order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import InvalidValueError, TooFewPointsError

__all__ = ["RandomForestModel", "train_random_forest"]

Mode = Literal["regression", "classification"]

_MIN_GAIN = 1e-12


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value=None):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = value


def _best_split(Xs: np.ndarray, stats: np.ndarray, regression: bool, min_leaf: int):
    """Cheapest split of a node over all of its candidate features at once.

    ``Xs`` is the node's ``n x m`` candidate-feature submatrix, with ``n >=
    2 * min_leaf``; ``stats`` holds the node's ``n x k`` per-row target
    statistics: ``(y, y*y)`` for regression, one-hot classes otherwise.
    Returns ``(cost, column, threshold)``; the cost is ``inf`` when no column
    has a valid split.
    """
    n = len(Xs)
    lo, hi = min_leaf, n - min_leaf
    order = Xs.argsort(axis=0, kind="stable")
    # The same values as gathering Xs by `order`, for less than a gather costs.
    sv = np.sort(Xs, axis=0)
    # Prefix sums in each column's own sorted order, shape (n, m, k): row
    # i - 1 is the left side of the split that sends i rows left.
    cum = stats[order].cumsum(axis=0)
    left = cum[lo - 1:hi]
    right = cum[-1] - left
    n_l = np.arange(lo, hi + 1, dtype=np.float64)[:, None]
    n_r = n - n_l
    if regression:
        s_l, q_l = left[..., 0], left[..., 1]
        s_r, q_r = right[..., 0], right[..., 1]
        cost = (q_l - s_l * s_l / n_l) + (q_r - s_r * s_r / n_r)
    else:
        # Minimizing weighted Gini == minimizing n - sum(left^2)/n_l - sum(right^2)/n_r.
        cost = n - (left * left).sum(axis=2) / n_l - (right * right).sum(axis=2) / n_r
    cost[~(sv[lo - 1:hi] < sv[lo:hi + 1])] = np.inf
    # The transpose makes the flat argmin feature-major: first column, then
    # first position.
    column, row = divmod(int(cost.T.argmin()), len(cost))
    i = lo + row
    return float(cost[row, column]), column, 0.5 * (sv[i - 1, column] + sv[i, column])


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    stats: np.ndarray,
    idx: np.ndarray,
    depth: int,
    *,
    mode: Mode,
    max_depth: int | None,
    min_leaf: int,
    mtry: int,
    rng: np.random.Generator,
) -> _Node:
    y_node = y[idx]
    regression = mode == "regression"

    def leaf() -> _Node:
        if regression:
            return _Node(value=float(y_node.mean()))
        return _Node(value=int(np.argmax(stats[idx].sum(axis=0))))

    if len(idx) < 2 * min_leaf or len(idx) < 2:
        return leaf()
    if max_depth is not None and depth >= max_depth:
        return leaf()
    if (y_node == y_node[0]).all():
        return leaf()

    stats_node = stats[idx]
    if regression:
        s = y_node.sum()
        parent_cost = float((y_node * y_node).sum() - s * s / len(idx))
    else:
        counts = stats_node.sum(axis=0)
        parent_cost = float(len(idx) - (counts * counts).sum() / len(idx))

    p = X.shape[1]
    features = rng.choice(p, size=min(mtry, p), replace=False)
    Xs = X[idx[:, None], features]
    cost, column, threshold = _best_split(Xs, stats_node, regression, min_leaf)
    # An infinite cost (no valid split) makes a leaf here too.
    if parent_cost - cost <= _MIN_GAIN:
        return leaf()

    mask = Xs[:, column] <= threshold
    node = _Node()
    node.feature = int(features[column])
    node.threshold = threshold
    node.left = _grow(
        X, y, stats, idx[mask], depth + 1,
        mode=mode, max_depth=max_depth, min_leaf=min_leaf, mtry=mtry, rng=rng,
    )
    node.right = _grow(
        X, y, stats, idx[~mask], depth + 1,
        mode=mode, max_depth=max_depth, min_leaf=min_leaf, mtry=mtry, rng=rng,
    )
    return node


def _predict_tree(node: _Node, row: np.ndarray):
    while node.feature >= 0:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.value


@dataclass(frozen=True)
class RandomForestModel:
    mode: Mode
    trees: tuple[_Node, ...]
    classes: tuple[str, ...] | None
    n_features: int

    def predict(self, X: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        if self.mode == "regression":
            preds = np.zeros(len(X))
            for tree in self.trees:
                preds += [_predict_tree(tree, row) for row in X]
            return preds / len(self.trees)
        votes = np.zeros((len(X), len(self.classes)), dtype=np.int64)
        for tree in self.trees:
            for i, row in enumerate(X):
                votes[i, _predict_tree(tree, row)] += 1
        # argmax takes the first maximum; classes are sorted, so ties break
        # to the lexicographically smallest label.
        return [self.classes[i] for i in votes.argmax(axis=1)]


def train_random_forest(
    features: np.ndarray,
    targets: Sequence,
    n_trees: int = 100,
    mode: Mode = "regression",
    seed: int = 0,
    max_depth: int | None = None,
    min_leaf: int = 1,
    mtry: int | None = None,
    bootstrap: bool = True,
) -> RandomForestModel:
    """Train a forest of CART trees on bootstrap samples.

    Feature subsampling defaults to sqrt(p) for classification and
    ceil(p/3) for regression. ``n_trees``, ``min_leaf`` and ``mtry`` must be
    at least 1.
    """
    for name, value in (("n_trees", n_trees), ("min_leaf", min_leaf), ("mtry", mtry)):
        if value is not None and value < 1:
            raise InvalidValueError(f"{name} must be at least 1, got {value}")
    X = np.asarray(features, dtype=np.float64)
    n, p = X.shape
    if n < 2:
        raise TooFewPointsError(f"need at least 2 training rows, got {n}")

    classes: tuple[str, ...] | None = None
    if mode == "classification":
        labels = list(targets)
        classes = tuple(sorted(set(labels)))
        index = {c: i for i, c in enumerate(classes)}
        y = np.array([index[c] for c in labels], dtype=np.float64)
        stats = np.zeros((n, len(classes)))
        stats[np.arange(n), y.astype(int)] = 1.0
    else:
        y = np.asarray(targets, dtype=np.float64)
        stats = np.column_stack((y, y * y))

    if mtry is None:
        mtry = max(1, int(math.sqrt(p))) if mode == "classification" else max(
            1, math.ceil(p / 3)
        )

    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        idx = rng.integers(0, n, n) if bootstrap else np.arange(n)
        trees.append(
            _grow(
                X, y, stats, np.asarray(idx), 0,
                mode=mode, max_depth=max_depth, min_leaf=min_leaf, mtry=mtry, rng=rng,
            )
        )
    return RandomForestModel(mode=mode, trees=tuple(trees), classes=classes, n_features=p)
