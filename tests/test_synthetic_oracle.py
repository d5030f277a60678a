"""``generate_world`` against the per-year generator it replaced.

The oracle below draws each record's noise one year at a time
(``_noisy_unit``) and builds every ``EmbeddingVector`` through its checked
constructor. ``generate_world`` draws a record's years at once and batches
the per-year arithmetic; it must consume the generator in the same order and
give bit-identical worlds.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from regrow.core import (
    PASTURE,
    SECONDARY_FOREST,
    CovariateSet,
    EmbeddingVector,
    ReferencePoint,
    SiteRecord,
    SpectralIndices,
    Strategy,
)
from regrow.errors import RegrowError
from regrow.ingest import Dataset
from regrow.synthetic import (
    CLASS_ORDER,
    GroundTruth,
    GroundTruthRecord,
    SynthConfig,
    _BBOX,
    _sample_centroids,
    generate_world,
)


def _unit(v):
    return v / np.linalg.norm(v)


def _noisy_unit(base, sigma, rng):
    if sigma == 0.0:
        return base.copy()
    return _unit(base + rng.normal(0.0, sigma, size=base.shape))


def oracle_generate_world(config: SynthConfig):
    """The per-year generator: one noise draw and one checked vector a year."""
    rng = np.random.default_rng(config.seed)
    centroids = _sample_centroids(config, rng)
    first, last = config.years
    years = range(first, last + 1)
    lulc_span = range(config.lulc_years[0], config.lulc_years[1] + 1)
    lon0, lat0, lon1, lat1 = _BBOX
    records = {}
    references = []

    def random_coords():
        return float(rng.uniform(lon0, lon1)), float(rng.uniform(lat0, lat1))

    for cls in config.classes:
        centroid = centroids[cls]
        for i in range(config.points_per_class):
            pid = f"ref_{cls.label}_{i:04d}"
            lon, lat = random_coords()
            embeddings = {
                y: EmbeddingVector(_noisy_unit(centroid, config.noise_sigma, rng)) for y in years
            }
            references.append(ReferencePoint(
                point_id=pid, lon=lon, lat=lat,
                lulc_series={y: cls for y in lulc_span}, embeddings=embeddings,
            ))
            records[pid] = GroundTruthRecord(
                record_id=pid, kind="stable", true_class=cls.label,
                from_class="", to_class="", transition_year=None, rate=None,
            )

    change_year = 2021
    available = set(config.classes)
    for a, b in config.transitions:
        if a not in available or b not in available:
            continue
        for i in range(config.points_per_transition):
            pid = f"chg_{a.label}_{b.label}_{i:04d}"
            lon, lat = random_coords()
            embeddings = {}
            for y in years:
                alpha = (y - first) / max(1, last - first)
                base = _unit((1 - alpha) * centroids[a] + alpha * centroids[b])
                embeddings[y] = EmbeddingVector(_noisy_unit(base, config.noise_sigma, rng))
            series = {y: (a if y < change_year else b) for y in lulc_span}
            references.append(ReferencePoint(
                point_id=pid, lon=lon, lat=lat, lulc_series=series, embeddings=embeddings,
            ))
            records[pid] = GroundTruthRecord(
                record_id=pid, kind="changing", true_class="",
                from_class=a.label, to_class=b.label,
                transition_year=float(change_year), rate=None,
            )

    strategies = list(Strategy)
    sites = []
    expected_similarity = {}
    pasture = centroids.get(PASTURE)
    secondary = centroids[SECONDARY_FOREST]
    for i in range(config.n_sites):
        sid = f"site_{i:04d}"
        lon, lat = random_coords()
        area = float(rng.uniform(1.0, 50.0))
        start = first + int(rng.integers(0, config.start_year_spread + 1))
        strategy = strategies[int(rng.integers(len(strategies)))]
        rate = float(config.recovery_rate_by_strategy[strategy])
        embeddings = {}
        expected = {}
        for y in years:
            alpha = min(1.0, rate * max(0, y - start))
            base = _unit((1 - alpha) * pasture + alpha * secondary)
            embeddings[y] = EmbeddingVector(_noisy_unit(base, config.noise_sigma, rng))
            expected[y] = float(np.dot(base, secondary))
        spectral = {}
        for y in years:
            alpha = min(1.0, rate * max(0, y - start))
            ndvi = float(np.clip(0.25 + 0.55 * alpha + rng.normal(0.0, 0.02), -1.0, 1.0))
            evi = float(0.15 + 0.45 * alpha + rng.normal(0.0, 0.02))
            spectral[y] = SpectralIndices(ndvi=ndvi, evi=evi)
        strategy_idx = strategies.index(strategy)
        if config.covariate_strategy_signal > 0:
            elevation = float(
                200.0 + strategy_idx * 150.0 * config.covariate_strategy_signal
                + rng.normal(0.0, 40.0)
            )
        else:
            elevation = float(rng.uniform(100.0, 900.0))
        tmin = float(rng.uniform(8.0, 16.0))
        cov = CovariateSet(
            precip_mm=float(rng.uniform(900.0, 1800.0)),
            tmin_c=tmin,
            tmax_c=tmin + float(rng.uniform(8.0, 18.0)),
            et_mm=float(rng.uniform(600.0, 1200.0)),
            elevation_m=elevation,
            slope_deg=float(rng.uniform(0.0, 30.0)),
            aspect_deg=float(rng.uniform(0.0, 359.9)),
            forest_cover_2km=float(rng.uniform(0.0, 1.0)),
            road_density_5km=float(rng.uniform(0.0, 4.0)),
        )
        sites.append(SiteRecord(
            site_id=sid, centroid_lon=lon, centroid_lat=lat, area_ha=area,
            start_year=start, strategy=strategy, embeddings=embeddings,
            spectral=spectral, covariates={y: cov for y in years}, start_lulc=PASTURE,
        ))
        crossing = start + 0.5 / rate if rate > 0 else None
        if crossing is not None and crossing > last:
            crossing = None
        records[sid] = GroundTruthRecord(
            record_id=sid, kind="site", true_class="",
            from_class=PASTURE.label, to_class=SECONDARY_FOREST.label,
            transition_year=crossing, rate=rate,
        )
        expected_similarity[sid] = expected

    references.sort(key=lambda p: p.point_id)
    sites.sort(key=lambda s: s.site_id)
    dataset = Dataset(sites=tuple(sites), references=tuple(references), window=config.years)
    return dataset, GroundTruth(
        records=records, centroids=centroids, expected_similarity=expected_similarity,
    )


def _bits(x):
    """A float by its bits (``float.hex`` tells 0.0 from -0.0)."""
    return float(x).hex()


def _canonical(dataset, truth):
    """Every value of a world, floats and arrays by their exact bits."""
    def embeddings(mapping):
        return [(y, e.values.dtype.str, e.values.tobytes()) for y, e in mapping.items()]

    sites = [
        (
            s.site_id, _bits(s.centroid_lon), _bits(s.centroid_lat), _bits(s.area_ha),
            s.start_year, s.strategy, s.start_lulc, embeddings(s.embeddings),
            [(y, _bits(sp.ndvi), _bits(sp.evi)) for y, sp in s.spectral.items()],
            [(y, cov.as_array().tobytes()) for y, cov in s.covariates.items()],
        )
        for s in dataset.sites
    ]
    references = [
        (p.point_id, _bits(p.lon), _bits(p.lat), list(p.lulc_series.items()),
         embeddings(p.embeddings))
        for p in dataset.references
    ]
    records = [
        (r.record_id, r.kind, r.true_class, r.from_class, r.to_class,
         None if r.transition_year is None else _bits(r.transition_year),
         None if r.rate is None else _bits(r.rate))
        for r in truth.records.values()
    ]
    centroids = [(cls, c.tobytes()) for cls, c in truth.centroids.items()]
    expected = [
        (sid, [(y, _bits(v)) for y, v in curve.items()])
        for sid, curve in truth.expected_similarity.items()
    ]
    return sites, references, dataset.window, records, centroids, expected


def _outcome(generate, config):
    try:
        return _canonical(*generate(config))
    except RegrowError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def synth_configs(draw):
    n_sites = draw(st.integers(0, 10))
    first = draw(st.integers(2015, 2021))
    last = draw(st.integers(first, first + 4))
    rates = draw(st.sampled_from([None, 0.0, 0.07, 1.0]))
    transitions = draw(st.lists(
        st.tuples(st.sampled_from(CLASS_ORDER), st.sampled_from(CLASS_ORDER))
        .filter(lambda pair: pair[0] != pair[1]),
        max_size=3,
    ))
    return SynthConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        dim=draw(st.integers(2, 12)),
        n_classes=draw(st.integers(3 if n_sites else 2, len(CLASS_ORDER))),
        points_per_class=draw(st.integers(0, 4)),
        n_sites=n_sites,
        noise_sigma=draw(st.sampled_from([0.0, 0.01, 0.05, 0.3, 2.0])),
        years=(first, last),
        lulc_years=(first - draw(st.integers(0, 2)), last + draw(st.integers(0, 2))),
        recovery_rate_by_strategy=(
            SynthConfig().recovery_rate_by_strategy if rates is None
            else {s: rates for s in Strategy}
        ),
        centroid_min_separation=draw(st.sampled_from([0.05, 0.2, 0.6])),
        start_year_spread=draw(st.integers(0, last - first)),
        points_per_transition=draw(st.integers(0, 3)),
        transitions=tuple(transitions),
        covariate_strategy_signal=draw(st.sampled_from([0.0, 1.5])),
    )


@settings(max_examples=60, deadline=None)
@given(synth_configs())
def test_generate_world_is_bitwise_the_per_year_generator(config):
    assert _outcome(generate_world, config) == _outcome(oracle_generate_world, config)


def test_default_world_is_bitwise_the_per_year_generator():
    config = SynthConfig(n_sites=40, points_per_class=20, start_year_spread=2)
    assert _outcome(generate_world, config) == _outcome(oracle_generate_world, config)


def test_embeddings_are_read_only_views_of_unit_rows():
    dataset, _ = generate_world(SynthConfig(n_sites=3, points_per_class=2))
    for record in (*dataset.sites, *dataset.references):
        rows = [e.values for e in record.embeddings.values()]
        assert all(not v.flags.writeable and v.dtype == np.float64 for v in rows)
        assert all(math.isclose(float(np.linalg.norm(v)), 1.0) for v in rows)
        # One matrix per record: every year's row is a view of the same base.
        assert len({id(v.base) for v in rows}) == 1 and rows[0].base is not None
