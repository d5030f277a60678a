"""A clean load is columnar: each ``id,year,...`` table is one sorted matrix.

A clean ``load_dataset`` of a synth world wraps no row in an object: no
``EmbeddingVector``, ``CovariateSet`` or ``SpectralIndices`` is made until
a caller reads a year. Every record's year maps are views of its table's
one matrix, and those matrices are the same bytes whatever the worker
count or the order of the rows in the files.
"""

from __future__ import annotations

from collections import Counter

import pytest

from conftest import count_pools
from regrow import ingest
from regrow.core import CovariateSet, EmbeddingVector, SpectralIndices
from regrow.synthetic import SynthConfig, generate_world, write_world
from test_ingest_oracle import FILES, apply_mutations

KINDS = (EmbeddingVector, CovariateSet, SpectralIndices)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    out = tmp_path_factory.mktemp("columnar_world")
    config = SynthConfig(seed=5, n_sites=20, points_per_class=6, points_per_transition=2)
    write_world(*generate_world(config), out, threads=1)
    return out


def _load(world, threads):
    paths = [world / name for name in FILES]
    return ingest.load_dataset(paths[0], paths[1], paths[4], paths[2], paths[3], paths[5],
                               threads=threads)[0]


def _count_values(mp: pytest.MonkeyPatch, made: Counter) -> None:
    """Count each value of ``KINDS`` made, checked (``__init__``) or wrapped
    around a matrix row (``_trusted``)."""
    for cls in KINDS:
        init, trusted = cls.__init__, cls._trusted.__func__

        def counting_init(self, *args, _init=init, **kwargs):
            made[type(self).__name__] += 1
            _init(self, *args, **kwargs)

        def counting_trusted(kind, row, _trusted=trusted):
            made[kind.__name__] += 1
            return _trusted(kind, row)

        mp.setattr(cls, "__init__", counting_init)
        mp.setattr(cls, "_trusted", classmethod(counting_trusted))


def _year_maps(dataset):
    for s in dataset.sites:
        yield s.site_id, s.embeddings
        yield s.site_id, s.spectral
        yield s.site_id, s.covariates
    for p in dataset.references:
        yield p.point_id, p.embeddings


def _matrices(dataset) -> list:
    return [(rid, m.kind.__name__, m.years, m.matrix.tobytes()) for rid, m in _year_maps(dataset)]


def test_a_clean_load_makes_no_row_objects(world, tmp_path, monkeypatch):
    made = Counter()
    _count_values(monkeypatch, made)
    serial = _load(world, threads=1)
    assert made == Counter()
    for _, years in _year_maps(serial):
        assert years.matrix.flags.c_contiguous and not years.matrix.flags.writeable
    # Every site's embeddings are rows of one matrix, the embeddings table's.
    assert len({id(s.embeddings.matrix.base) for s in serial.sites}) == 1

    # Reading a year wraps that one row, so the counter does see values.
    site = serial.sites[0]
    site.embeddings[site.embeddings.years[0]]
    site.covariates[site.covariates.years[0]]
    assert made == Counter({"EmbeddingVector": 1, "CovariateSet": 1})
    made.clear()

    runs = []
    with monkeypatch.context() as mp:
        count_pools(mp, runs)
        mp.setattr(ingest, "_POOL_CELLS", 1)
        mp.setattr(ingest, "_PARSE_CELLS", 16)
        pooled = _load(world, threads=2)
    assert len(runs) == 3 and min(runs) >= 2  # every keyed table, several blocks

    texts = {name: (world / name).read_text(encoding="utf-8") for name in FILES}
    shuffled = apply_mutations(texts, [("shuffle", name, 1, 0, "") for name in FILES])
    assert shuffled != texts
    for name, text in shuffled.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    reordered = _load(tmp_path, threads=1)
    assert made == Counter()

    assert pooled == serial and reordered == serial
    assert _matrices(pooled) == _matrices(serial)
    assert _matrices(reordered) == _matrices(serial)
