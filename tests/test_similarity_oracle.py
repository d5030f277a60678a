"""The batched cosine kernel and its callers against the per-pair references.

The oracles below are the loops the batched code replaced: the per-pair
``np.dot``/``np.linalg.norm`` cosine, the per-point silhouette loop, the
lexsort nearest-reference lookup and the per-class nearest-centroid loop.
Every result must be bitwise equal to its oracle, not merely close. Past
one row block, the silhouette's oracle is the per-point loop over the same
block products.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regrow.core import (
    KNOWN_LULC_NAMES,
    EmbeddingVector,
    LULCClass,
    ReferencePoint,
    cosine_similarities,
    cosine_similarity,
)
from regrow.errors import WrongDimensionError, ZeroVectorError
from regrow.geo import haversine_km_many
from regrow import projection
from regrow.projection import silhouette_score
from regrow.references import (
    ReferenceSet,
    ReferenceYearPolicy,
    build_reference_set,
    find_local_reference,
)
from regrow.trajectories import ReferenceKind, build_trajectory, classify_trajectory

from conftest import make_site


def _oracle_cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    va, vb = a.values, b.values
    norm_a = float(np.linalg.norm(va))
    norm_b = float(np.linalg.norm(vb))
    return float(np.dot(va, vb) / (norm_a * norm_b))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _matrix(rng, n, d, kind):
    """n x d test vectors: wide-range floats, or small integers for exact ties."""
    if kind == "integers":
        m = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
        m[np.abs(m).sum(axis=1) == 0, 0] = 1.0  # keep every norm nonzero
        return m
    return rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))


def _layout(m, layout):
    """The same values as ``m`` in a C-contiguous, strided or Fortran layout."""
    if layout == "strided":
        wide = np.zeros((m.shape[0], 2 * m.shape[1]))
        wide[:, ::2] = m
        return wide[:, ::2]
    if layout == "fortran":
        return np.asfortranarray(m)
    return m


_LAYOUTS = st.sampled_from(["c", "strided", "fortran"])
_KINDS = st.sampled_from(["floats", "integers"])


class TestCosineKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 9),
        m=st.integers(1, 6),
        d=st.integers(1, 80),
        kind=_KINDS,
        layout_a=_LAYOUTS,
        layout_b=_LAYOUTS,
    )
    def test_bitwise_equal_to_per_pair_cosine(self, seed, n, m, d, kind, layout_a, layout_b):
        rng = np.random.default_rng(seed)
        a = _matrix(rng, n, d, kind)
        b = _matrix(rng, m, d, kind)
        av, bv = _layout(a, layout_a), _layout(b, layout_b)
        ea = [EmbeddingVector(row) for row in a]
        eb = [EmbeddingVector(row) for row in b]
        want = np.array([[_oracle_cosine(x, y) for y in eb] for x in ea])

        # (n, 1, d) x (m, d) -> (n, m), and the explicit (n, 1, d) x (1, m, d).
        assert _bits(cosine_similarities(av[:, None, :], bv)) == _bits(want)
        assert _bits(cosine_similarities(av[:, None, :], bv[None, :, :])) == _bits(want)
        # Row against one vector, both ways round.
        assert _bits(cosine_similarities(av, bv[0])) == _bits(want[:, 0])
        assert _bits(cosine_similarities(av[0], bv)) == _bits(want[0])
        # Row-wise pairs of equal-length stacks.
        k = min(n, m)
        assert _bits(cosine_similarities(av[:k], bv[:k])) == _bits(want[np.arange(k), np.arange(k)])
        # The scalar wrapper, also on a non-contiguous view wrapped without a copy.
        assert _bits(cosine_similarity(ea[0], eb[0])) == _bits(want[0, 0])
        assert _bits(cosine_similarity(EmbeddingVector._trusted(av[0]), eb[0])) == _bits(want[0, 0])

    def test_scalar_wrapper_returns_a_float(self):
        assert type(cosine_similarity(EmbeddingVector(np.ones(3)), EmbeddingVector(np.ones(3)))) is float

    @pytest.mark.parametrize("zero_row", [0, 2])
    def test_zero_vector_raises(self, zero_row):
        a = np.ones((3, 4))
        a[zero_row] = 0.0
        with pytest.raises(ZeroVectorError):
            cosine_similarities(a, np.ones(4))
        with pytest.raises(ZeroVectorError):
            cosine_similarities(np.ones(4), a)
        with pytest.raises(ZeroVectorError):
            cosine_similarities(np.ones((2, 1, 4)), a)
        with pytest.raises(ZeroVectorError):
            cosine_similarity(EmbeddingVector(np.ones(4)), EmbeddingVector(a[zero_row]))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(WrongDimensionError):
            cosine_similarities(np.ones((3, 4)), np.ones(5))
        with pytest.raises(WrongDimensionError):
            cosine_similarities(np.ones((3, 1, 4)), np.ones((2, 3)))
        with pytest.raises(WrongDimensionError):
            cosine_similarity(EmbeddingVector(np.ones(2)), EmbeddingVector(np.ones(3)))


def _oracle_silhouette(embeddings, labels) -> float:
    X = np.stack([e.values for e in embeddings])
    norms = np.linalg.norm(X, axis=1)
    unit = X / norms[:, None]
    dist = np.clip(1.0 - unit @ unit.T, 0.0, 2.0)
    return _oracle_silhouette_of(dist, labels)


def _blocked_distances(embeddings, rows: int) -> np.ndarray:
    """The oracle's cosine distances with the products taken ``rows`` rows at a time.

    BLAS may round a product of a row block against every row (gemm) in the
    last place apart from the same entry of the whole symmetric product
    (syrk), so this is bitwise the dense matrix only when one block holds
    every row.
    """
    X = np.stack([e.values for e in embeddings])
    unit = X / np.linalg.norm(X, axis=1)[:, None]
    products = np.vstack([unit[a:a + rows] @ unit.T for a in range(0, len(X), rows)])
    return np.clip(1.0 - products, 0.0, 2.0)


def _oracle_silhouette_of(dist, labels) -> float:
    """The per-point silhouette loop over an n x n distance matrix."""
    labels_arr = np.asarray(labels)
    unique = sorted(set(labels))
    masks = {lab: labels_arr == lab for lab in unique}
    scores = np.zeros(len(labels))
    for i in range(len(labels)):
        own = masks[labels_arr[i]]
        n_own = int(own.sum())
        if n_own <= 1:
            continue
        a = dist[i, own].sum() / (n_own - 1)
        b = min(
            float(dist[i, masks[lab]].mean())
            for lab in unique
            if lab != labels_arr[i]
        )
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


class TestSilhouette:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        n_labels=st.integers(2, 6),
        d=st.integers(1, 12),
        kind=_KINDS,
        duplicates=st.booleans(),
    )
    def test_bitwise_equal_to_per_point_loop(self, seed, n, n_labels, d, kind, duplicates):
        rng = np.random.default_rng(seed)
        X = _matrix(rng, n, d, kind)
        if duplicates:  # identical points: zero distances and tied means
            X[rng.integers(0, n, size=n // 2)] = X[0]
        labels = [f"L{int(k)}" for k in rng.integers(0, n_labels, size=n)]
        if len(set(labels)) < 2:
            labels[0], labels[-1] = "L0", "L1"
        embs = [EmbeddingVector(row) for row in X]
        assert _bits(silhouette_score(embs, labels)) == _bits(_oracle_silhouette(embs, labels))

    @pytest.mark.parametrize(
        "labels",
        [
            ["a", "b"],  # two singletons: score 0
            ["a", "b", "b", "b"],  # one singleton
            ["a", "a", "b", "b", "c"],
            ["z", "a", "z", "a", "m", "z"],  # unsorted labels
        ],
    )
    def test_singletons_and_two_labels(self, labels):
        rng = np.random.default_rng(len(labels))
        embs = [EmbeddingVector(row) for row in rng.normal(size=(len(labels), 3))]
        assert _bits(silhouette_score(embs, labels)) == _bits(_oracle_silhouette(embs, labels))

    @pytest.mark.parametrize("n, n_labels", [(300, 2), (700, 3), (517, 5)])
    def test_blocks_longer_than_the_pairwise_sum_unit(self, n, n_labels):
        # Rows of a few hundred entries go through numpy's pairwise summation
        # in several blocks; the per-label row sums must still match.
        rng = np.random.default_rng(n)
        embs = [EmbeddingVector(row) for row in rng.normal(size=(n, 16))]
        labels = [f"L{int(k)}" for k in rng.integers(0, n_labels, size=n)]
        assert _bits(silhouette_score(embs, labels)) == _bits(_oracle_silhouette(embs, labels))

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        rows=st.integers(1, 7),
        n_labels=st.integers(2, 6),
        d=st.integers(1, 12),
        kind=_KINDS,
        duplicates=st.booleans(),
    )
    def test_row_blocks_equal_the_per_point_loop(self, seed, n, rows, n_labels, d, kind,
                                                 duplicates):
        rng = np.random.default_rng(seed)
        X = _matrix(rng, n, d, kind)
        if duplicates:
            X[rng.integers(0, n, size=n // 2)] = X[0]
        labels = [f"L{int(k)}" for k in rng.integers(0, n_labels, size=n)]
        if len(set(labels)) < 2:
            labels[0], labels[-1] = "L0", "L1"
        embs = [EmbeddingVector(row) for row in X]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(projection, "_BLOCK_CELLS", rows * n)  # blocks of ``rows`` rows
            got = silhouette_score(embs, labels)
        want = _oracle_silhouette_of(_blocked_distances(embs, rows), labels)
        assert _bits(got) == _bits(want)
        if rows >= n:  # one block: the whole symmetric product
            assert _bits(got) == _bits(_oracle_silhouette(embs, labels))

    @pytest.mark.parametrize("offset", [-1, 0, 1, "below"])
    def test_n_around_one_block(self, offset):
        # n * n distance cells fill the budget at n = block; a block is then
        # every row at n <= block and two blocks are needed at block + 1.
        block = math.isqrt(projection._BLOCK_CELLS)
        n = block // 3 if offset == "below" else block + offset
        rows = max(1, projection._BLOCK_CELLS // n)
        rng = np.random.default_rng(n)
        centres = rng.normal(size=(4, 16))
        labels_idx = rng.integers(0, 4, size=n)
        embs = [EmbeddingVector(row) for row in rng.normal(size=(n, 16)) + centres[labels_idx]]
        labels = [f"L{int(k)}" for k in labels_idx]
        got = silhouette_score(embs, labels)
        assert _bits(got) == _bits(_oracle_silhouette_of(_blocked_distances(embs, rows), labels))
        dense = _oracle_silhouette(embs, labels)
        if rows >= n:
            assert _bits(got) == _bits(dense)
        else:  # the products' last-place rounding may differ from the dense one
            assert got == pytest.approx(dense, rel=1e-12)

    def test_all_points_identical_scores_zero(self):
        embs = [EmbeddingVector(np.ones(4))] * 6
        labels = ["a", "a", "a", "b", "b", "b"]
        assert silhouette_score(embs, labels) == _oracle_silhouette(embs, labels) == 0.0


def _oracle_local_reference(site, refset):
    pts = refset.secondary_points
    ids = np.array([p.point_id for p in pts])
    lons = np.array([p.lon for p in pts])
    lats = np.array([p.lat for p in pts])
    dists = haversine_km_many(site.centroid_lon, site.centroid_lat, lons, lats)
    best = int(np.lexsort((ids, dists))[0])
    return pts[best].point_id, float(dists[best])


class TestFindLocalReference:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 25),
        grid=st.integers(1, 4),
    )
    def test_equal_to_lexsort_on_unsorted_tied_ids(self, seed, n, grid):
        rng = np.random.default_rng(seed)
        # Few distinct coordinates, so many points tie on distance; ids are
        # shuffled and may share prefixes ("p1" < "p10" < "p2").
        ids = [f"p{k}" for k in rng.permutation(n * 3)[:n]]
        coords = rng.integers(0, grid, size=(n, 2)) * 0.5
        refset = ReferenceSet(
            policy=ReferenceYearPolicy.fixed(),
            secondary_points=tuple(
                ReferencePoint(pid, float(lon), float(lat))
                for pid, (lon, lat) in zip(ids, coords)
            ),
            centroids_by_year={},
        )
        for lon, lat in rng.integers(0, grid, size=(5, 2)) * 0.5:
            site = make_site(centroid_lon=float(lon) + 0.25, centroid_lat=float(lat))
            assert find_local_reference(site, refset) == _oracle_local_reference(site, refset)
            on_point = make_site(centroid_lon=float(lon), centroid_lat=float(lat))
            assert find_local_reference(on_point, refset) == _oracle_local_reference(on_point, refset)


def _oracle_classify_samples(site, refset):
    samples = []
    for year in site.embedding_years():
        centroids = refset.class_centroids(year)
        best_cls, best_sim = None, -math.inf
        for cls in sorted(centroids, key=lambda c: c.label):
            sim = _oracle_cosine(site.embeddings[year], centroids[cls])
            if sim > best_sim:
                best_cls, best_sim = cls, sim
        samples.append((year, best_cls, min(1.0, max(-1.0, best_sim))))
    years = site.embedding_years()
    magnitudes = [
        (curr, max(0.0, 1.0 - _oracle_cosine(site.embeddings[prev], site.embeddings[curr])))
        for prev, curr in zip(years, years[1:])
    ]
    return samples, magnitudes


class TestTrajectoryCallers:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 6), kind=_KINDS)
    def test_classify_trajectory_ties_go_to_the_first_label(self, seed, n_classes, kind):
        rng = np.random.default_rng(seed)
        vectors = _matrix(rng, n_classes, 3, kind)
        if n_classes > 2:  # two classes with the same centroid always tie
            vectors[1] = vectors[n_classes - 1]
        classes = [LULCClass(str(name)) for name in rng.permutation(KNOWN_LULC_NAMES)[:n_classes]]
        centroids = {cls: EmbeddingVector(v) for cls, v in zip(classes, vectors)}
        refset = ReferenceSet(
            policy=ReferenceYearPolicy.fixed(),
            secondary_points=(),
            centroids_by_year={2024: centroids},
        )
        rows = np.concatenate([vectors, _matrix(rng, 4, 3, kind)])[rng.permutation(n_classes + 4)]
        site = make_site(
            start_year=2017,
            embeddings={2017 + i: EmbeddingVector(row) for i, row in enumerate(rows)},
        )
        got = classify_trajectory(site, refset)
        samples, magnitudes = _oracle_classify_samples(site, refset)
        assert [(y, c) for y, c, _ in got.samples] == [(y, c) for y, c, _ in samples]
        assert _bits([s for _, _, s in got.samples]) == _bits([s for _, _, s in samples])
        assert [y for y, _ in got.change_magnitudes] == [y for y, _ in magnitudes]
        assert _bits([m for _, m in got.change_magnitudes]) == _bits([m for _, m in magnitudes])

    @pytest.mark.parametrize("policy", [ReferenceYearPolicy.fixed(2024), ReferenceYearPolicy.per_year(2024)])
    def test_world_sites_match_the_per_pair_loops(self, small_world, small_refs, policy):
        dataset, _ = small_world
        refset = build_reference_set(small_refs, policy)
        for site in dataset.sites:
            got = classify_trajectory(site, refset)
            samples, magnitudes = _oracle_classify_samples(site, refset)
            assert [(y, c) for y, c, _ in got.samples] == [(y, c) for y, c, _ in samples]
            assert _bits([s for _, _, s in got.samples]) == _bits([s for _, _, s in samples])
            assert _bits([m for _, m in got.change_magnitudes]) == _bits([m for _, m in magnitudes])
            for kind in ReferenceKind:
                traj = build_trajectory(site, refset, kind)
                if kind is ReferenceKind.GLOBAL:
                    refs = [refset.global_reference(y) for y in site.embedding_years()]
                else:
                    refs = [
                        refset.secondary_embedding(traj.reference_point_id, y)
                        for y in site.embedding_years()
                    ]
                want = [
                    min(1.0, max(-1.0, _oracle_cosine(site.embeddings[y], ref)))
                    for y, ref in zip(site.embedding_years(), refs)
                ]
                assert _bits([s.similarity for s in traj.samples]) == _bits(want)
