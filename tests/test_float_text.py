"""The bulk float formatter of ``csvio`` against ``format_cell``.

``csvio._format_rows`` formats the float cells of a slab together
(``_float_text``) and every other cell, and every float cell that the bulk
route leaves, with ``repr()``. Whatever the route, each line must be the
``format_cell`` line byte for byte; on ordinary data the bulk route must
also claim nearly every cell, or it would be ``repr()`` with extra steps.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regrow import csvio, x87
from regrow.cli import main

on_x87 = pytest.mark.skipif(not x87.X87, reason="np.longdouble is not the x87 type here")


def reference(rows) -> bytes:
    return b"".join((",".join(csvio.format_cell(v) for v in row) + "\n").encode()
                    for row in rows)


def assert_formats(values, width: int = 8) -> None:
    """``values`` as rows of one float array each, as rows of float scalars,
    and between an id and a year, all as ``format_cell`` writes them."""
    values = np.asarray(values)
    arrays = [(values[i:i + width],) for i in range(0, len(values), width)]
    scalars = [tuple(v for v in values[i:i + 3]) for i in range(0, len(values) - 2, 3)]
    keyed = [(f"s{i}", 2017 + i, values[i:i + width]) for i in range(0, len(values), width)]
    for rows in (arrays, scalars, keyed):
        assert csvio._format_rows(rows) == reference(rows)


def from_bits(bits) -> np.ndarray:
    return np.array(bits, np.uint64).view(np.float64)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
def test_random_bit_patterns(bits):
    assert_formats(from_bits(bits))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**52 - 1), min_size=1, max_size=200),
       st.integers(-14, 53), st.booleans())
def test_random_significands_in_the_positional_range(fractions, exponent, negative):
    """Doubles with 1e-4 <= |x| < 1e16, where repr writes no exponent."""
    bits = (np.array(fractions, np.uint64) | np.uint64((exponent + 1023) << 52)
            | np.uint64(negative << 63))
    assert_formats(bits.view(np.float64))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.12, 1.0, 60.0, 3000.0]))
def test_normal_draws(seed, sigma):
    assert_formats(np.random.default_rng(seed).normal(0, sigma, 300))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**9, 10**9), st.integers(0, 12)),
                min_size=1, max_size=100))
def test_short_decimals(pairs):
    values = [float(f"{m}e-{k}") for m, k in pairs] + [0.06, 0.03, 12.3, -47.5, 0.1, 0.7]
    assert_formats(values)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-2**53, 2**53), min_size=1, max_size=100))
def test_integer_values(ints):
    assert_formats([float(i) for i in ints] + [1.0, 10.0, 100.0, 1e15, 9999999999999998.0])


def test_powers_of_two_and_ten():
    assert_formats([2.0**k for k in range(-30, 60)] + [-(2.0**k) for k in range(-30, 60)]
                   + [10.0**k for k in range(-6, 18)])


def test_zeros_subnormals_and_specials():
    tiny = 5e-324
    assert_formats([0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308, 2.2250738585072014e-308,
                    math.nan, -math.nan, math.inf, -math.inf, 1.7976931348623157e308])


def test_values_next_to_the_range_ends():
    ends = [1e-4, 1e16, 1e-3, 1e15]
    values = [v for end in ends
              for v in (end, np.nextafter(end, 0), np.nextafter(end, np.inf),
                        np.nextafter(np.nextafter(end, 0), 0))]
    assert_formats(values + [-v for v in values])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(width=32, allow_nan=True, allow_infinity=True), min_size=1,
                max_size=100))
def test_float32_arrays(values):
    assert_formats(np.array(values, np.float32))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=100))
def test_any_float(values):
    assert_formats(values)


def test_rows_of_other_cells_and_mixed_columns():
    rows = [
        ("a", 1, 0.1, np.array([1.5, -0.0, 1e-300]), None, True),
        ("b,c", 2, 2.5, np.array([2.0, 3.0, 4.0]), 7.25, False),
        ('q"x', 3, np.float32(0.1), np.array([np.pi, 1 / 3, 7.0]), "y", True),
    ]
    assert csvio._format_rows(rows) == reference(rows)
    ragged = [("a", np.array([1.0, 2.0])), ("b", np.array([3.0]))]
    assert csvio._format_rows(ragged) == reference(ragged)
    assert csvio._format_rows([(np.arange(3),), (np.array([True]),)]) == reference(
        [(np.arange(3),), (np.array([True]),)])
    assert csvio._format_rows([(1,), ()]) == reference([(1,), ()])
    assert csvio._format_rows([]) == b""


@on_x87
def test_the_bulk_route_claims_ordinary_cells():
    x = np.random.default_rng(7).normal(0, 0.12, 50_000)
    newline = np.zeros(x.size, bool)
    text, lengths, left = csvio._float_text(x, newline)
    assert len(left) < 0.02 * x.size
    assert lengths.sum() == text.size
    kept = np.setdiff1d(np.arange(x.size), left)
    assert text.tobytes().decode() == "".join(repr(v) + "," for v in x[kept].tolist())


def test_synth_writes_the_same_files_without_the_x87_type(tmp_path, monkeypatch):
    def synth(out):
        assert main(["synth", "--seed", "3", "--n-sites", "30", "--points-per-class", "20",
                     "--threads", "1", "--output-dir", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    with_x87 = synth(tmp_path / "x87")
    monkeypatch.setattr(x87, "X87", False)
    assert synth(tmp_path / "repr") == with_x87
