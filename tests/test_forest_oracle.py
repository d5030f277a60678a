"""The lockstep forest against the per-feature, per-node reference forest.

The oracle below is the recursive one-feature-at-a-time split search, node
class and per-row prediction walk that the batched search and the flat trees
replaced. Both must grow the same trees: the same (feature, threshold) at
every split, the same leaf values, and bitwise-equal predictions. The oracle
still takes a depth cap and a least leaf size; ``train_random_forest`` grows
full trees (``max_depth=None, min_leaf=1``), on bootstrap samples, with its
own ``mtry``. ``_lockstep_forest`` also grows them from unbootstrapped roots
and with every ``mtry``, through ``forest._grow_forest``.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from regrow import forest
from regrow.forest import _MIN_GAIN, train_random_forest


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value=None):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = value


def _predict_tree(node, row):
    while node.feature >= 0:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.value


class _OracleForest:
    """The reference model: a per-row walk of each tree, tree by tree."""

    def __init__(self, mode, trees, classes):
        self.mode, self.trees, self.classes = mode, trees, classes

    def predict(self, X):
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
        return [self.classes[i] for i in votes.argmax(axis=1)]


def _oracle_split_regression(v, y, min_leaf):
    order = np.argsort(v, kind="stable")
    sv = v[order]
    sy = y[order]
    n = len(sv)
    positions = np.arange(min_leaf, n - min_leaf + 1)
    if len(positions) == 0:
        return None
    valid = positions[sv[positions - 1] < sv[positions]]
    if len(valid) == 0:
        return None
    c1 = np.cumsum(sy)
    c2 = np.cumsum(sy * sy)
    n_l = valid.astype(np.float64)
    s_l = c1[valid - 1]
    q_l = c2[valid - 1]
    n_r = n - n_l
    s_r = c1[-1] - s_l
    q_r = c2[-1] - q_l
    cost = (q_l - s_l * s_l / n_l) + (q_r - s_r * s_r / n_r)
    best = int(np.argmin(cost))
    i = int(valid[best])
    return float(cost[best]), 0.5 * (sv[i - 1] + sv[i])


def _oracle_split_gini(v, onehot, min_leaf):
    order = np.argsort(v, kind="stable")
    sv = v[order]
    n = len(sv)
    positions = np.arange(min_leaf, n - min_leaf + 1)
    if len(positions) == 0:
        return None
    valid = positions[sv[positions - 1] < sv[positions]]
    if len(valid) == 0:
        return None
    counts = np.cumsum(onehot[order], axis=0)
    left = counts[valid - 1]
    right = counts[-1][None, :] - left
    n_l = valid.astype(np.float64)
    n_r = n - n_l
    cost = n - (left * left).sum(axis=1) / n_l - (right * right).sum(axis=1) / n_r
    best = int(np.argmin(cost))
    i = int(valid[best])
    return float(cost[best]), 0.5 * (sv[i - 1] + sv[i])


def _oracle_grow(X, y, onehot, idx, depth, mode, max_depth, min_leaf, mtry, rng):
    y_node = y[idx]

    def leaf():
        if mode == "regression":
            return _Node(value=float(y_node.mean()))
        return _Node(value=int(np.argmax(onehot[idx].sum(axis=0))))

    if len(idx) < 2 * min_leaf or len(idx) < 2:
        return leaf()
    if max_depth is not None and depth >= max_depth:
        return leaf()
    if np.all(y_node == y_node[0]):
        return leaf()
    if mode == "regression":
        s = y_node.sum()
        parent_cost = float((y_node * y_node).sum() - s * s / len(idx))
    else:
        counts = onehot[idx].sum(axis=0)
        parent_cost = float(len(idx) - (counts * counts).sum() / len(idx))

    p = X.shape[1]
    features = rng.choice(p, size=min(mtry, p), replace=False)
    best = None
    for f in features:
        v = X[idx, f]
        if mode == "regression":
            found = _oracle_split_regression(v, y_node, min_leaf)
        else:
            found = _oracle_split_gini(v, onehot[idx], min_leaf)
        if found is None:
            continue
        cost, threshold = found
        if best is None or cost < best[0]:
            best = (cost, int(f), threshold)
    if best is None or parent_cost - best[0] <= _MIN_GAIN:
        return leaf()

    _, feature, threshold = best
    mask = X[idx, feature] <= threshold
    node = _Node()
    node.feature = feature
    node.threshold = threshold
    args = (mode, max_depth, min_leaf, mtry, rng)
    node.left = _oracle_grow(X, y, onehot, idx[mask], depth + 1, *args)
    node.right = _oracle_grow(X, y, onehot, idx[~mask], depth + 1, *args)
    return node


def _oracle_forest(X, targets, n_trees, mode, seed, max_depth, min_leaf, mtry, bootstrap,
                   only=None):
    """The oracle's forest; ``only`` grows just those tree indices."""
    n, p = X.shape
    classes = None
    onehot = None
    if mode == "classification":
        classes = tuple(sorted(set(targets)))
        y = np.array([classes.index(c) for c in targets], dtype=np.float64)
        onehot = np.zeros((n, len(classes)))
        onehot[np.arange(n), y.astype(int)] = 1.0
    else:
        y = np.asarray(targets, dtype=np.float64)
    if mtry is None:
        mtry = max(1, int(math.sqrt(p))) if mode == "classification" else max(1, math.ceil(p / 3))
    trees = []
    for t in range(n_trees) if only is None else only:
        rng = np.random.default_rng([seed, t])
        idx = rng.integers(0, n, n) if bootstrap else np.arange(n)
        trees.append(_oracle_grow(X, y, onehot, idx, 0, mode, max_depth, min_leaf, mtry, rng))
    return _OracleForest(mode, trees, classes)


def _lockstep_forest(X, targets, n_trees, mode, seed, mtry, bootstrap):
    """``train_random_forest``'s forest when ``mtry`` is None and
    ``bootstrap`` is set (its one configuration); else the forest that
    ``forest._grow_forest`` grows from the rows of each tree's root (all
    rows, unless ``bootstrap``) with ``mtry`` candidate features a node."""
    if mtry is None and bootstrap:
        return train_random_forest(X, targets, n_trees=n_trees, mode=mode, seed=seed)
    n, p = X.shape
    classes, labels, y, k = None, None, None, 0
    if mode == "classification":
        classes = tuple(sorted(set(targets)))
        labels, k = np.array([classes.index(c) for c in targets]), len(classes)
    else:
        y = np.asarray(targets, dtype=np.float64)
    if mtry is None:
        mtry = math.isqrt(p) if mode == "classification" else math.ceil(p / 3)
    rngs = [np.random.default_rng([seed, t]) for t in range(n_trees)]
    roots = [r.integers(0, n, n) if bootstrap else np.arange(n) for r in rngs]
    with np.errstate(over="ignore"):
        trees = forest._grow_forest(X, y, labels, k, roots, rngs, mtry)
    return forest.RandomForestModel(mode, tuple(trees), classes, p)


def _as_node(tree, i=0):
    """A flat ``regrow.forest.Tree`` as linked oracle nodes."""
    node = _Node(value=tree.value[i].item())
    node.feature = int(tree.feature[i])
    if node.feature >= 0:
        node.threshold = float(tree.threshold[i])
        node.left = _as_node(tree, tree.left[i])
        node.right = _as_node(tree, tree.right[i])
    return node


def _preorder(node, out):
    """Splits as (feature, threshold bits), leaves as (-1, value)."""
    if node.feature < 0:
        out.append((-1, node.value))
    else:
        out.append((node.feature, node.threshold.hex()))
        _preorder(node.left, out)
        _preorder(node.right, out)
    return out


@st.composite
def forest_cases(draw):
    mode = draw(st.sampled_from(["regression", "classification"]))
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # One or two decimals on a narrow range: many tied values per column.
    decimals = draw(st.integers(1, 2))
    X = np.round(rng.uniform(-1.0, 1.0, size=(n, p)), decimals)
    for col in draw(st.sets(st.integers(0, p - 1), max_size=p)):
        X[:, col] = X[0, col]
    # Duplicate some input rows on top of the duplicates bootstrap draws.
    n_dup = draw(st.integers(0, n // 2))
    X[n - n_dup:] = X[:n_dup]
    if mode == "classification":
        k = draw(st.integers(2, 5))
        targets = [f"c{c}" for c in rng.integers(0, k, n)]
    else:
        targets = np.round(rng.normal(size=n), decimals)
        targets[n - n_dup:] = targets[:n_dup]
    kwargs = dict(
        mode=mode,
        n_trees=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 1000)),
        mtry=draw(st.one_of(st.none(), st.integers(1, p))),
        bootstrap=draw(st.booleans()),
    )
    probes = np.round(rng.uniform(-1.2, 1.2, size=(20, p)), decimals)
    return X, targets, kwargs, probes


@settings(max_examples=200, deadline=None)
@given(forest_cases())
def test_vectorized_splitter_grows_the_oracle_forest(case):
    X, targets, kwargs, probes = case
    new = _lockstep_forest(X, targets, **kwargs)
    old = _oracle_forest(X, targets, max_depth=None, min_leaf=1, **kwargs)
    assert [_preorder(_as_node(t), []) for t in new.trees] == [_preorder(t, []) for t in old.trees]
    for rows in (X, probes):
        got, want = new.predict(rows), old.predict(rows)
        if kwargs["mode"] == "regression":
            assert got.tobytes() == want.tobytes()
        else:
            assert got == want
