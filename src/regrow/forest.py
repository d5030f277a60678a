"""Random forest on CART trees, for regression and classification.

Every forest is Breiman's (2001): each tree is grown in full (no depth cap
and no least leaf size) on a bootstrap sample of the n training rows, and
each node searches ``mtry`` candidate features, floor(sqrt(p)) for
classification and ceil(p/3) for regression. Splits minimize within-node
variance (regression) or Gini impurity (classification) using
sort-plus-prefix-sum scans. Per-tree generators are derived
deterministically from (seed, tree_index), so a fixed seed yields a
bit-identical forest.

Split contract. A searched node draws its candidate features with one
``rng.choice(p, mtry, replace=False)`` of its tree's generator, in the
tree's depth-first pre-order (left subtree before right). A split is valid
only between two distinct sorted values; its threshold is the midpoint of
the two values. Among splits of equal cost the first candidate feature in
the node's draw order wins, and within that feature the first position (the
smallest left side). A node is a leaf when it is pure (a one-row node is),
or when its best split gains no more than ``_MIN_GAIN``.

Lockstep growth. The trees of a forest grow together, without recursion.
Each tree keeps its own stack of nodes still to search, so it meets them in
its own pre-order; at each step the top node of every unfinished tree joins
one batch, and one vectorized search splits the whole batch. Leaves are
settled when they are created and never join a batch. Every number is the
one a node-at-a-time search computes, bit for bit:

* Draws: each tree's k-th searched node gets its generator's k-th
  ``choice`` result. ``_draw_features`` makes a chunk of them per tree from
  the same bounded integers ``choice`` consumes, instead of one ``choice``
  call (~14 us) per node.
* Rank keys: each column of X is rank-encoded once per fit (a dense rank:
  equal values share one). A batch's (node, feature) segments get unique
  int64 keys ``(segment, rank, position in the node)``, and one
  ``np.sort`` of them is every segment's stable sort by value. A split is
  valid between two neighbours exactly when their ranks differ; only the
  two real values at the chosen position make the threshold.
* Sequential prefix sums: each segment is summed by a ``cumsum`` along its
  own row of a padded array, the sequential sum of a per-node search.
  Regression packs ``y`` and ``y*y`` into one complex number, whose parts
  add independently; class counts are exact integers.
* Per-node pairwise sums: a node's parent cost and leaf mean come from
  ``np.add.reduce`` over the node's own contiguous targets, which numpy
  sums pairwise. They stay one call per node, since a padded or segmented
  reduction rounds differently; ``s / n`` is bitwise ``mean``.

A tree is stored as flat arrays (``Tree``), and prediction moves all rows
of all trees down one level at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .core import design_matrix
from .errors import InvalidValueError, TooFewPointsError, WrongDimensionError

__all__ = ["RandomForestModel", "Tree", "train_random_forest"]

Mode = Literal["regression", "classification"]

_MIN_GAIN = 1e-12
#: Feature draws made per tree at a time (fewer for many trees and features).
_DRAW_CHUNK = 16
#: Most (row, feature) keys one split search sorts; bounds the working set.
_SEARCH_KEYS = 1 << 15


class Tree(NamedTuple):
    """One tree as flat arrays over its nodes; node 0 is the root.

    A split node sends a row left when ``row[feature] <= threshold``. A leaf
    has ``feature == -1`` and holds ``value``: the mean target of its rows
    (regression) or the index of its most frequent class (classification).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Per column, the rank of each value among the column's distinct values."""
    order = X.argsort(axis=0, kind="stable")
    ordered = np.take_along_axis(X, order, axis=0)
    steps = np.zeros(X.shape, dtype=np.int64)
    steps[1:] = ordered[1:] != ordered[:-1]
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, steps.cumsum(axis=0), axis=0)
    return ranks


def _draw_features(rngs: list[np.random.Generator], p: int, m: int, count: int) -> np.ndarray:
    """The next ``count`` results of ``rng.choice(p, m, replace=False)`` of
    each generator, shape ``(len(rngs), count, m)``.

    Unless ``p > 10000`` and ``m > p // 50`` (where ``choice`` shuffles a
    tail instead, and is called as is), ``choice`` runs Floyd's algorithm:
    for ``j = p - m .. p - 1`` it draws ``v`` in ``[0, j]`` and takes ``v``,
    or ``j`` if ``v`` is taken. Then it shuffles: for ``i = m - 1 .. 1`` it
    swaps slot ``i`` with a draw in ``[0, i]``. Each draw is one bounded
    integer, the same one ``integers(0, bound, endpoint=True)`` makes.
    """
    if p > 10000 and m > p // 50:
        return np.array([[r.choice(p, size=m, replace=False) for _ in range(count)] for r in rngs])
    bounds = np.tile(np.r_[p - m:p, m - 1:0:-1], count)
    raw = np.array([r.integers(0, bounds, endpoint=True) for r in rngs]).reshape(-1, 2 * m - 1)
    rows = np.arange(len(raw))
    taken = np.zeros((len(raw), p), dtype=bool)
    out = np.empty((len(raw), m), dtype=np.int64)
    for i, j in enumerate(range(p - m, p)):
        v = raw[:, i]
        out[:, i] = v = np.where(taken[rows, v], j, v)
        taken[rows, v] = True
    for i, j in zip(range(m - 1, 0, -1), raw[:, m:].T):
        out[rows, i], out[rows, j] = out[rows, j], out[rows, i]
    return out.reshape(len(rngs), count, m)


class _Splitter:
    """The split search of one fit, over a batch of nodes at a time."""

    def __init__(self, X: np.ndarray, y: np.ndarray | None, labels: np.ndarray | None, k: int,
                 m: int):
        self.n, self.p = X.shape
        self.m = m
        self.X = X.ravel()
        ranks = _dense_ranks(X)
        self.n_ranks = int(ranks.max()) + 1
        # key = ((segment * n_ranks) + rank) * n + position
        self.span = self.n_ranks * self.n
        self.rank_keys = (ranks * self.n).ravel()
        self.feature_keys = np.arange(m) * self.span
        # Regression: y and y*y as the parts of one complex number.
        self.stats = y + 1j * (y * y) if labels is None else None
        if labels is not None:
            self.onehot = np.eye(k)[labels]
            self.ones = np.ones(k)

    def best(self, cat: np.ndarray, sizes: list[int], feats: np.ndarray):
        """Cheapest split of each node of a batch.

        ``cat`` holds the nodes' row indices one node after another, with
        ``sizes`` rows each (every node has at least 2), and
        ``feats`` their candidate features, one row per node. Returns
        ``(cost, feature, threshold)`` arrays; the cost is ``inf`` where no
        candidate feature has a valid split. Nodes are searched in runs of at
        most ``_SEARCH_KEYS`` keys (or one node), which bounds the memory.
        """
        parts = []
        first = begin = 0
        while first < len(sizes):
            last, end = first + 1, begin + sizes[first]
            while last < len(sizes) and self.m * (end - begin + sizes[last]) <= _SEARCH_KEYS:
                end += sizes[last]
                last += 1
            part = sizes[first:last]
            parts.append(self._search(cat[begin:end], np.array(part), max(part), feats[first:last]))
            first, begin = last, end
        return tuple(np.concatenate(column) for column in zip(*parts))

    def _search(self, cat, sizes, width, feats):
        """``best`` for one batch of at most ``_SEARCH_KEYS`` keys; ``width``
        is its largest node."""
        n, p, m = self.n, self.p, self.m
        B = len(sizes)
        S = B * m  # segments: node-major, then candidate features in draw order
        starts = sizes.cumsum() - sizes
        # One sort orders every segment by (rank, position); then each sorted
        # key is decoded back into its row.
        keys = self.rank_keys.take(feats.repeat(sizes, axis=0) + (cat * p)[:, None])
        base = (np.arange(0, S * self.span, m * self.span) - starts).repeat(sizes)
        base += np.arange(len(cat))
        keys += base[:, None]
        keys += self.feature_keys
        keys = keys.ravel()
        keys.sort()
        q = keys // n  # segment * n_ranks + rank
        keys -= q * n
        keys += starts.repeat(sizes * m)
        row = cat.take(keys)

        seg_sizes = sizes.repeat(m)
        seg_ends = seg_sizes.cumsum()
        seg_starts = seg_ends - seg_sizes
        # Sorted element e is valid when splitting before it (e - start rows
        # left) is: a new rank, not the first of its segment.
        valid = np.empty(len(q), dtype=bool)
        np.not_equal(q[1:], q[:-1], out=valid[1:])
        valid[seg_starts] = False
        ve = valid.nonzero()[0]
        if not len(ve):
            return np.full(B, np.inf), feats[:, 0], np.zeros(B)
        seg = q.take(ve) // self.n_ranks
        n_l = (ve - seg_starts.take(seg)).astype(np.float64)
        n_r = seg_sizes.take(seg) - n_l
        if self.stats is not None:
            # Each segment's prefix sums along its own row of a padded array.
            pad = (np.arange(0, S * width, width) - seg_starts).repeat(seg_sizes)
            pad += np.arange(len(row))
            padded = np.zeros(S * width, dtype=np.complex128)
            padded[pad] = self.stats.take(row)
            cum = padded.reshape(S, width).cumsum(axis=1).ravel().take(pad)
            left = cum.take(ve - 1)
            right = cum.take(seg_ends - 1).take(seg)
            right -= left
            s_l, q_l, s_r, q_r = left.real, left.imag, right.real, right.imag
            cost = (q_l - s_l * s_l / n_l) + (q_r - s_r * s_r / n_r)
        else:
            # Class counts are exact, so one running count serves every segment.
            counts = np.zeros((len(row) + 1, len(self.ones)))
            self.onehot.take(row, axis=0).cumsum(axis=0, out=counts[1:])
            at = counts.take(ve, axis=0)
            left = at - counts.take(seg_starts.take(seg), axis=0)
            right = counts.take(seg_ends.take(seg), axis=0) - at
            left *= left
            right *= right
            # Minimizing weighted Gini == minimizing n - sum(left^2)/n_l - sum(right^2)/n_r.
            cost = (n_l + n_r) - (left @ self.ones) / n_l - (right @ self.ones) / n_r

        # First minimum of each node, feature-major: costs padded per node.
        node = seg // m
        per_node = np.bincount(node, minlength=B)
        first = per_node.cumsum() - per_node
        cols = int(per_node.max())
        table = np.full(B * cols, np.inf)
        slot = node * cols - first.take(node)
        slot += np.arange(len(ve))
        table[slot] = cost
        at = table.reshape(B, cols).argmin(axis=1)
        best = table.take(np.arange(0, B * cols, cols) + at)
        pick = np.minimum(first + at, len(ve) - 1)  # any element for a node with none
        e = ve.take(pick)
        f = feats.ravel().take(seg.take(pick) % m + np.arange(0, S, m))
        below, above, largest = (
            self.X.take(row.take(i) * p + f)
            for i in (e - 1, e, seg_ends.take(seg.take(pick)) - 1)
        )
        threshold = 0.5 * (below + above)
        # A midpoint that rounds up to the largest value (or overflows) would
        # send every row one way; the lower value splits where the ranks do.
        lopsided = (threshold < below) | (threshold >= largest)
        return best, f, np.where(lopsided, below, threshold)


def _grow_forest(X, y, labels, k, roots, rngs, mtry) -> list[Tree]:
    """Grow one tree per root sample (at least 2 rows each), all in lockstep
    (see the module docstring), searching ``mtry`` of the p features
    (1 <= mtry <= p) at each node."""
    p = X.shape[1]
    T = len(roots)
    splitter = _Splitter(X, y, labels, k, mtry)
    regression = labels is None
    add = np.add.reduce
    # Per tree, the nodes still to search: (rows, id, parent cost, value if
    # it stays a leaf).
    stacks: list[list[tuple]] = [[] for _ in range(T)]
    # Node ids count up across the forest in creation order.
    tree_of = [np.arange(T)]
    splits: list[tuple] = []  # (ids, feature, threshold, first child id)
    leaves: list[tuple] = []  # (ids, value)
    n_nodes = T

    def settle(ids, trees, cat, sizes):
        """Settle new nodes: a pure one (a one-row node is) is a leaf and gets
        its value, any other goes on its tree's stack. Siblings come left
        then right, and are pushed in reverse so the left one is searched
        first."""
        ends = sizes.cumsum()
        starts = ends - sizes
        st, en, sl = starts.tolist(), ends.tolist(), sizes.tolist()
        if regression:
            yc = y.take(cat)
            pure = np.minimum.reduceat(yc, starts) == np.maximum.reduceat(yc, starts)
            sums = [float(add(yc[a:b])) for a, b in zip(st, en)]
        else:
            counts = np.bincount(np.arange(0, len(sl) * k, k).repeat(sizes) + labels.take(cat),
                                 minlength=len(sl) * k).reshape(len(sl), k)
            pure = counts.max(axis=1) == sizes
            majority = counts.argmax(axis=1)
            nf = sizes.astype(np.float64)
            parent_cost = (nf - (counts * counts).sum(axis=1) / nf).tolist()
        at = pure.nonzero()[0]
        if len(at):
            if regression:
                leaves.append((ids.take(at), np.array([sums[j] / sl[j] for j in at.tolist()])))
            else:
                leaves.append((ids.take(at), majority.take(at)))
        ids = ids.tolist()
        if regression:
            y2c = yc * yc
            for j in reversed((~pure).nonzero()[0].tolist()):
                a, b, s, total = st[j], en[j], sl[j], sums[j]
                cost = float(add(y2c[a:b])) - total * total / s
                stacks[trees[j]].append((cat[a:b], ids[j], cost, total / s))
        else:
            majority = majority.tolist()
            for j in reversed((~pure).nonzero()[0].tolist()):
                stacks[trees[j]].append((cat[st[j]:en[j]], ids[j], parent_cost[j], majority[j]))

    settle(np.arange(T), list(range(T)), np.concatenate(roots), np.array([len(r) for r in roots]))
    # Every unfinished tree searches one node per step, so all of them use up
    # their draws together. The draws' "taken" table has T * chunk * p bytes.
    chunk = max(1, min(_DRAW_CHUNK, (1 << 22) // (T * p)))
    step = 0
    while True:
        active = [t for t in range(T) if stacks[t]]
        if not active:
            break
        if step % chunk == 0:
            drawn = np.zeros((T, chunk, mtry), dtype=np.int64)
            drawn[active] = _draw_features([rngs[t] for t in active], p, mtry, chunk)
        feats = drawn[active, step % chunk]
        step += 1
        batch = [stacks[t].pop() for t in active]
        sl = [len(node[0]) for node in batch]
        cat = np.concatenate([node[0] for node in batch])
        cost, feature, threshold = splitter.best(cat, sl, feats)

        gain = np.array([node[2] for node in batch]) - cost
        stop = gain <= _MIN_GAIN  # NaN gains split, as ``not gain <= _MIN_GAIN``
        if stop.any():
            done = stop.nonzero()[0].tolist()
            leaves.append((np.array([batch[j][1] for j in done]),
                           np.array([batch[j][3] for j in done])))
            if len(done) == len(batch):
                continue
        sj = (~stop).nonzero()[0]
        sjl = sj.tolist()
        sizes = np.array(sl)
        # Stable partition into children ordered (left, right) per split node,
        # each keeping its parent's row order.
        goes_left = splitter.X.take(cat * p + feature.repeat(sizes)) <= threshold.repeat(sizes)
        side = np.arange(0, 2 * len(sl), 2).repeat(sizes)
        side += ~goes_left
        if stop.any():
            side[stop.repeat(sizes)] = 2 * len(sl)  # no children: sorted last
        child_sizes = np.bincount(side, minlength=2 * len(sl) + 1)[:-1].reshape(-1, 2)
        child_sizes = child_sizes.take(sj, axis=0).ravel()
        child_cat = cat.take(side.argsort(kind="stable")[:child_sizes.sum()])
        ids = np.arange(n_nodes, n_nodes + 2 * len(sjl))
        splits.append((np.array([batch[j][1] for j in sjl]), feature.take(sj),
                       threshold.take(sj), ids[0::2]))
        n_nodes += len(ids)
        trees = [active[j] for j in sjl for _ in (0, 1)]
        tree_of.append(np.array(trees))
        settle(ids, trees, child_cat, child_sizes)

    return _flatten(n_nodes, np.concatenate(tree_of), splits, leaves, regression, T)


def _flatten(n_nodes, tree_of, splits, leaves, regression, T) -> list[Tree]:
    """Split the forest's node records into per-tree arrays, each tree's
    nodes renumbered from 0 in creation order (so its root is node 0)."""
    feature = np.full(n_nodes, -1, dtype=np.int64)
    threshold = np.zeros(n_nodes)
    left = np.full(n_nodes, -1, dtype=np.int64)
    right = np.full(n_nodes, -1, dtype=np.int64)
    value = np.zeros(n_nodes, dtype=np.float64 if regression else np.int64)
    if splits:
        ids, feats, thresholds, lefts = (np.concatenate(c) for c in zip(*splits))
        feature[ids] = feats
        threshold[ids] = thresholds
        left[ids] = lefts
        right[ids] = lefts + 1
    ids, values = (np.concatenate(c) for c in zip(*leaves))
    value[ids] = values
    order = tree_of.argsort(kind="stable")
    counts = np.bincount(tree_of, minlength=T)
    first = counts.cumsum() - counts
    local = np.empty(n_nodes, dtype=np.int64)
    local[order] = np.arange(n_nodes) - first.repeat(counts)
    inner = feature >= 0
    left[inner] = local.take(left[inner])
    right[inner] = local.take(right[inner])
    return [
        Tree(*(a.take(order[s:s + c]) for a in (feature, threshold, left, right, value)))
        for s, c in zip(first.tolist(), counts.tolist())
    ]


@dataclass(frozen=True)
class RandomForestModel:
    mode: Mode
    trees: tuple[Tree, ...]
    classes: tuple[str, ...] | None
    n_features: int

    def _leaf_values(self, X: np.ndarray) -> np.ndarray:
        """``(n_trees, rows)`` leaf value of each row in each tree."""
        T, rows = len(self.trees), len(X)
        sizes = [len(tree.feature) for tree in self.trees]
        roots = np.cumsum(sizes) - sizes
        feature, threshold, left, right, value = (
            np.concatenate(column) for column in zip(*self.trees)
        )
        left = left + roots.repeat(sizes)
        right = right + roots.repeat(sizes)
        node = roots.repeat(rows)
        row = np.tile(np.arange(rows), T)
        while True:
            f = feature.take(node)
            inner = f >= 0
            if not inner.any():
                return value.take(node).reshape(T, rows)
            goes_left = X[row, np.maximum(f, 0)] <= threshold.take(node)
            node = np.where(inner, np.where(goes_left, left.take(node), right.take(node)), node)

    def predict(self, X: np.ndarray):
        """One prediction per row of ``X``, which has ``n_features`` columns
        (else WrongDimensionError)."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1:] != (self.n_features,):
            raise WrongDimensionError(
                f"forest takes {self.n_features} feature columns, got shape {X.shape}"
            )
        leaves = self._leaf_values(X)
        if self.mode == "regression":
            preds = np.zeros(len(X))
            for tree_values in leaves:  # tree by tree, as a running sum
                preds += tree_values
            return preds / len(self.trees)
        k = len(self.classes)
        votes = np.bincount((np.arange(len(X)) * k + leaves).ravel(), minlength=len(X) * k)
        # argmax takes the first maximum; classes are sorted, so ties break
        # to the lexicographically smallest label.
        return [self.classes[i] for i in votes.reshape(len(X), k).argmax(axis=1)]


def train_random_forest(
    features: np.ndarray,
    targets: Sequence,
    n_trees: int = 100,
    mode: Mode = "regression",
    seed: int = 0,
) -> RandomForestModel:
    """Train a forest of ``n_trees`` (at least 1) CART trees, as the module
    docstring sets out. ``mode`` is "regression" or "classification". The
    design has at least one column (else WrongDimensionError); features, and
    regression targets, must be finite.
    """
    if n_trees < 1:
        raise InvalidValueError(f"n_trees must be at least 1, got {n_trees}")
    if mode not in ("regression", "classification"):
        raise InvalidValueError(
            f"forest mode must be 'regression' or 'classification', got {mode!r}")
    X = design_matrix(features)
    n, p = X.shape
    if n < 2:
        raise TooFewPointsError(f"need at least 2 training rows, got {n}")

    classes: tuple[str, ...] | None = None
    labels = None
    k = 0
    if mode == "classification":
        names = list(targets)
        classes = tuple(sorted(set(names)))
        index = {c: i for i, c in enumerate(classes)}
        labels = np.array([index[c] for c in names], dtype=np.int64)
        y = None
        k = len(classes)
        mtry = math.isqrt(p)
    else:
        y = np.asarray(targets, dtype=np.float64)
        if not np.isfinite(y).all():
            raise InvalidValueError("forest regression targets must be finite")
        mtry = math.ceil(p / 3)

    rngs = [np.random.default_rng([seed, t]) for t in range(n_trees)]
    roots = [np.asarray(r.integers(0, n, n)) for r in rngs]
    # The midpoint of two huge values may overflow; the split search handles it.
    with np.errstate(over="ignore"):
        trees = _grow_forest(X, y, labels, k, roots, rngs, mtry)
    return RandomForestModel(mode=mode, trees=tuple(trees), classes=classes, n_features=p)
