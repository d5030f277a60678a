"""Deterministic 2D projection of embeddings plus a separability score.

Principal-component projection is the required method: unlike
neighborhood-embedding approaches it is deterministic and testable, and
it serves the same purpose here (plot-ready cluster inspection tables).
The sign convention forces each component's largest-magnitude entry
positive so repeated fits are identical.

The stage holds no copy of its rows beyond one stack per call: the PCA
centres its stack in place and the silhouette normalises its own, the paths
are centred and projected ``_PATH_ROWS`` rows at a time, and the silhouette
takes its cosine distances one block of rows at a time (``_BLOCK_CELLS``
distances, ~8 MB), so its memory does not grow with the square of the
number of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EmbeddingVector, ReferencePoint, SiteRecord
from .errors import DegenerateDataError, SingleClusterError, WrongDimensionError, ZeroVectorError

#: Distance cells (float64) of one row block of ``silhouette_score``, so a
#: block holds ~8 MB whatever n is. Measured on 2 cores with one BLAS thread,
#: dim 64, 5 labels (median of 7): at n=5000 the dense matrix took 0.47 s
#: and a 246.6 MB traced peak; blocks of 64-192 rows took 0.25-0.27 s,
#: 256 rows 0.26-0.31 s, 512 rows 0.36 s and 1024 rows 0.40 s. This budget
#: gives 200 rows at n=5000 (12.5 MB traced peak: the block, the 2.6 MB
#: normalised stack and one label's compressed columns), 100 at n=10000 and
#: 500 at n=2000, each within a few percent of the fastest height measured.
_BLOCK_CELLS = 1_000_000

#: Rows ``trajectory_paths_2d`` centres and projects at a time (512 KB at dim
#: 64). Measured on 40,000 x 64 rows (5,000 records of 8): 256-4096 rows took
#: 22-34 ms against 27-41 ms for one stack of every row; 1024 rows add
#: nothing traced to the id, year and coordinate lists (1.5 MB), 4096 rows
#: 1.6 MB and 8192 rows 4.4 MB, where the one stack added 22.9 MB.
_PATH_ROWS = 1024


@dataclass(frozen=True)
class ProjectionModel:
    """Mean vector plus two orthonormal principal directions."""

    mean: EmbeddingVector
    components: tuple[EmbeddingVector, EmbeddingVector]
    explained_variance: tuple[float, float]


def fit_projection(embeddings: Sequence[EmbeddingVector]) -> ProjectionModel:
    """Fit the top-2 principal directions of the centered data.

    Requires at least 3 vectors that are not all identical, else
    DegenerateDataError.
    """
    if len(embeddings) < 3:
        raise DegenerateDataError(f"need at least 3 vectors, got {len(embeddings)}")
    X = np.stack([e.values for e in embeddings])
    mean = X.mean(axis=0)
    scale = _max_abs(X)
    X -= mean  # centred in place: the stack is this function's own copy
    if _max_abs(X) <= 1e-12 * max(scale, 1.0):
        raise DegenerateDataError("all points identical")

    # SVD of the centered matrix: right singular vectors are the principal
    # directions, singular values give the explained variance.
    _, svals, vt = np.linalg.svd(X, full_matrices=False)
    components = []
    for i in range(2):
        c = vt[i]
        anchor = int(np.argmax(np.abs(c)))
        if c[anchor] < 0:
            c = -c
        components.append(EmbeddingVector(c))
    n = X.shape[0]
    variance = (svals[:2] ** 2) / (n - 1)
    return ProjectionModel(
        mean=EmbeddingVector(mean),
        components=(components[0], components[1]),
        explained_variance=(float(variance[0]), float(variance[1])),
    )


def _max_abs(X: np.ndarray) -> float:
    """``np.abs(X).max()`` without its temporary: negation is exact."""
    return max(float(X.max()), -float(X.min()))


def project(model: ProjectionModel, e: EmbeddingVector) -> tuple[float, float]:
    """Project one embedding onto the two principal directions."""
    if e.dim != model.mean.dim:
        raise WrongDimensionError(f"dimension mismatch: {e.dim} vs {model.mean.dim}")
    centered = e.values - model.mean.values
    return (
        float(np.dot(centered, model.components[0].values)),
        float(np.dot(centered, model.components[1].values)),
    )


def trajectory_paths_2d(
    records: Sequence[ReferencePoint | SiteRecord], model: ProjectionModel
) -> list[tuple[str, int, float, float]]:
    """Per-year projected coordinates, sorted by (id, year).

    Rows whose (id, year) repeat, which only a repeated id gives, fall in
    order of their coordinates, so the rows do not depend on record order.
    """
    dim = model.mean.dim
    ids, years, blocks = [], [], []
    for rec in (r for r in records if r.embeddings):
        rec_id = rec.point_id if isinstance(rec, ReferencePoint) else rec.site_id
        matrix = rec.embeddings.matrix
        if matrix.shape[1] != dim:
            raise WrongDimensionError(f"dimension mismatch: {matrix.shape[1]} vs {dim}")
        ids += [rec_id] * len(matrix)
        years += rec.embeddings.years
        blocks.append(matrix)
    # vecdot over C-contiguous rows rounds as the np.dot of ``project``,
    # whatever the chunk a row falls in.
    xs, ys = [], []
    for chunk in _row_chunks(blocks, _PATH_ROWS):
        chunk -= model.mean.values
        xs += np.vecdot(chunk, model.components[0].values).tolist()
        ys += np.vecdot(chunk, model.components[1].values).tolist()
    return sorted(zip(ids, years, xs, ys))


def _row_chunks(blocks: list[np.ndarray], rows: int):
    """The rows of ``blocks`` in order, ``rows`` at a time (fewer in the last
    chunk), each chunk a new C-contiguous array that the caller may modify."""
    pending, held = [], 0
    for block in blocks:
        while len(block):
            pending.append(block[:rows - held])
            held += len(pending[-1])
            block = block[len(pending[-1]):]
            if held == rows:
                yield np.concatenate(pending)
                pending, held = [], 0
    if pending:
        yield np.concatenate(pending)


def silhouette_score(
    embeddings: Sequence[EmbeddingVector], labels: Sequence[str]
) -> float:
    """Mean silhouette over all points with cosine distance.

    Quantifies how cleanly the labels separate in embedding space. Points
    in singleton clusters contribute 0. Raises SingleClusterError for
    fewer than two distinct labels.
    """
    if len(embeddings) != len(labels):
        raise WrongDimensionError("embeddings and labels must have equal length")
    if len(set(labels)) < 2:
        raise SingleClusterError("silhouette requires at least 2 distinct labels")
    unit = np.stack([e.values for e in embeddings])
    norms = np.linalg.norm(unit, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVectorError("cosine distance undefined for a zero vector")
    unit /= norms[:, None]  # normalised in place: the stack is this function's own copy

    n = len(labels)
    unique, label_idx = np.unique(np.asarray(labels), return_inverse=True)
    counts = np.bincount(label_idx)
    masks = [label_idx == k for k in range(len(unique))]
    # sums[i, k]: summed distance from point i to the members of label k,
    # one block of rows at a time, so the n x n distance matrix is never
    # held. Row sums of the C-contiguous compressed block are bitwise equal
    # to the 1-D sums dist[i, mask].sum(), whatever the block's height. A
    # block of every row is BLAS's symmetric product (syrk); a shorter block
    # is a general product (gemm), which may round a distance in the last
    # place apart from the symmetric one.
    sums = np.empty((n, len(unique)))
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, n, step):
        dist = unit[lo:lo + step] @ unit.T
        np.subtract(1.0, dist, out=dist)
        np.clip(dist, 0.0, 2.0, out=dist)
        for k, mask in enumerate(masks):
            sums[lo:lo + step, k] = dist.compress(mask, axis=1).sum(axis=1)
        del dist  # before the next block is allocated
    rows = np.arange(n)
    own_sum = sums[rows, label_idx]
    means = sums / counts
    means[rows, label_idx] = np.inf
    b = means.min(axis=1)

    n_own = counts[label_idx]
    multi = n_own > 1  # singletons score 0
    a = own_sum[multi] / (n_own[multi] - 1)
    b = b[multi]
    denom = np.maximum(a, b)
    scores = np.zeros(n)
    scores[multi] = np.divide(b - a, denom, out=np.zeros_like(a), where=denom != 0.0)
    return float(scores.mean())
