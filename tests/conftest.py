from __future__ import annotations

import math

import numpy as np
import pytest

from regrow import pool
from regrow.core import EmbeddingVector, SiteRecord, Strategy
from regrow.errors import InvalidValueError, ZeroVectorError
from regrow.references import ReferenceYearPolicy, build_reference_set, classify_points
from regrow.synthetic import SynthConfig, generate_world


def vec(*values) -> EmbeddingVector:
    return EmbeddingVector(np.array(values, dtype=float))


def basis(dim: int, axis: int, scale: float = 1.0) -> EmbeddingVector:
    v = np.zeros(dim)
    v[axis] = scale
    return EmbeddingVector(v)


def oracle_similarity(a, b) -> float:
    """Cosine similarity by naive summation.

    Deliberately independent of the engine's vector code path: plain
    Python loops, no shared helpers. Accepts EmbeddingVectors or any
    float sequences.
    """
    va = [float(x) for x in (a.values if isinstance(a, EmbeddingVector) else a)]
    vb = [float(x) for x in (b.values if isinstance(b, EmbeddingVector) else b)]
    if len(va) != len(vb):
        raise InvalidValueError(f"length mismatch: {len(va)} vs {len(vb)}")
    dot = 0.0
    norm_a = 0.0
    norm_b = 0.0
    for x, y in zip(va, vb):
        dot += x * y
        norm_a += x * x
        norm_b += y * y
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVectorError("zero vector in oracle similarity")
    return dot / (math.sqrt(norm_a) * math.sqrt(norm_b))


def count_pools(mp: pytest.MonkeyPatch, runs: list) -> None:
    """Two cores; ``runs`` gets the job count of each pool ``pool.iter_jobs`` starts."""
    start = pool._pooled

    def counting(fn, jobs, workers, order):
        runs.append(len(jobs))
        return start(fn, jobs, workers, order)

    mp.setattr(pool, "_available_cores", lambda: 2)
    mp.setattr(pool, "_pooled", counting)


def refuse_pools(mp: pytest.MonkeyPatch) -> None:
    """Two cores, and a pool that fails if ``pool.iter_jobs`` starts one."""
    def refuse(*args):
        raise AssertionError("pool started")

    mp.setattr(pool, "_available_cores", lambda: 2)
    mp.setattr(pool, "_pooled", refuse)


def make_site(site_id="s1", start_year=2020, embeddings=None, **kwargs) -> SiteRecord:
    defaults = dict(
        centroid_lon=-47.0,
        centroid_lat=-22.0,
        area_ha=2.0,
        strategy=Strategy.FULL_AREA_PLANTING,
    )
    defaults.update(kwargs)
    return SiteRecord(
        site_id=site_id,
        start_year=start_year,
        embeddings=embeddings or {},
        **defaults,
    )


@pytest.fixture(scope="session")
def small_world():
    config = SynthConfig(
        seed=42, n_sites=24, points_per_class=30, points_per_transition=6
    )
    return generate_world(config)


@pytest.fixture(scope="session")
def small_refs(small_world):
    dataset, _ = small_world
    return classify_points(list(dataset.references))


@pytest.fixture(scope="session")
def small_refset(small_refs):
    return build_reference_set(small_refs, ReferenceYearPolicy.fixed(2024))
