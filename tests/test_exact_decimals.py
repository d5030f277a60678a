"""The exact decimal kernel of the bulk parse against ``float()``.

``ingest._exact_cells`` reads a cell ``-?digits[.digits]`` as an integer
significand M and a power 10**k and divides them as x87 long doubles. Where
it claims a cell, the value must be ``float()``'s bit for bit; every cell
it leaves is read by ``float()`` itself, so a whole row block must read as
``float()`` reads it either way.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regrow import ingest
from regrow.synthetic import SynthConfig, generate_world, write_world
from test_ingest_oracle import FILES, _fingerprint, apply_mutations

x87 = pytest.mark.skipif(not ingest.x87.X87, reason="np.longdouble is not the x87 type here")


def _bits(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _kernel(cells: list[str]):
    """(values, left) of ``_exact_cells`` on ``cells``, joined by commas."""
    text = ",".join(cells).encode()
    lengths = np.array([len(c) for c in cells])
    ends = np.cumsum(lengths + 1) - 1
    buffer = np.zeros(len(text) + 1, np.uint8)  # the NUL after the last cell
    u = buffer[:-1]
    u[:] = np.frombuffer(text, np.uint8)
    return ingest._exact_cells(u, ends - lengths, ends)


def _assert_kernel_matches_float(cells: list[str]) -> np.ndarray:
    values, left = _kernel(cells)
    for cell, value, unparsed in zip(cells, values.tolist(), left.tolist()):
        if not unparsed:
            assert _bits(value) == _bits(float(cell)), cell
    return left


def _parse_rows(cells: list[str]):
    """The cells as the rows ``x,2020,<cell>`` of one row block."""
    rows = [f"x,2020,{cell}".encode() for cell in cells]
    data = b"\n".join(rows)
    lengths = np.array([len(row) for row in rows])
    ends = np.cumsum(lengths + 1) - 1
    return ingest._parse_rows(data, ends - lengths, ends, 1)


def _assert_block_matches_float(cells: list[str]):
    values = _parse_rows(cells)
    assert values is not None
    assert [_bits(v) for v in values[:, 0].tolist()] == [_bits(float(c)) for c in cells]


#: Decimal strings of up to 20 digits: an optional minus, leading zeros, and
#: a dot anywhere, ``5.`` and ``.5`` included.
decimal = st.builds(
    lambda sign, digits, dot: sign + (digits[:dot] + "." + digits[dot:] if dot >= 0 else digits),
    st.sampled_from(["", "-"]),
    st.text("0123456789", min_size=1, max_size=20),
    st.integers(-1, 20),
).filter(lambda cell: any(c.isdigit() for c in cell))
decimal = st.one_of(decimal, st.sampled_from(["0", "-0", "-0.0", "5.", ".5", "-.5", "007"]))

#: ``repr`` of finite doubles, below 1e-4 (e-notation) included.
float_repr = st.floats(allow_nan=False, allow_infinity=False).map(repr)
small_repr = st.floats(min_value=1e-30, max_value=1e-3).map(repr)


@x87
@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.one_of(decimal, float_repr, small_repr), min_size=1, max_size=30))
def test_the_kernel_reads_every_cell_it_claims_as_float_does(cells):
    _assert_kernel_matches_float(cells)
    _assert_block_matches_float(cells)


#: Integers that lie exactly on the midpoint of two doubles: odd multiples
#: of half an ulp, 2**53 + 1 first.
MIDPOINTS = [str((2 * j + 1) << (e - 53)) for e in range(53, 60) for j in (2**52, 2**52 + 7)]


@x87
def test_midpoints_are_left_to_float():
    assert MIDPOINTS[0] == "9007199254740993"
    left = _assert_kernel_matches_float(MIDPOINTS)
    assert left.all()
    _assert_block_matches_float(MIDPOINTS)
    # A neighbour of a midpoint is no midpoint.
    assert not _kernel(["9007199254740992", "9007199254740994"])[1].any()


@x87
@pytest.mark.parametrize("cell, claimed", [
    ("999999999999999999", True),  # M = 10**18 - 1
    ("-99999999999999999.9", False),  # S = 10**18 - 1 with the dot as a digit, M < S
    ("1000000000000000000", False),  # 10**18
    ("0." + "0" * 26 + "1", True),  # k = 27
    ("0." + "0" * 27 + "1", False),  # k = 28
    ("1" + "0" * 17 + ".", False),  # S = 10**19 with the dot
    ("12345678901234567.8", False),  # S >= 10**18
    ("123456789012345.67", True),  # S < 10**18 with the dot
    ("1e-05", False),
    ("+5", False),
    ("inf", False),
    ("1_0", False),
    ("1-2", False),
    ("1.2.3", False),
    ("-", False),
    (".", False),
    ("-.", False),
])
def test_the_kernel_claims_exactly_the_cells_it_can(cell, claimed):
    values, left = _kernel(["0.5", cell, "-2.25"])
    assert left.tolist() == [False, not claimed, False]
    if claimed:
        assert _bits(values[1]) == _bits(float(cell))


@x87
def test_few_cells_of_a_random_table_are_left_to_float():
    values = np.random.default_rng(0).normal(scale=0.05, size=20_000)
    cells = [repr(v) for v in values.tolist() if abs(v) >= 1e-4]
    left = _assert_kernel_matches_float(cells)
    assert left.mean() < 0.002  # about one cell in 2048 lies on a midpoint


@pytest.mark.parametrize("cells", [["1", "", "2"], ["0.5", "0 .5"], ["1e400"], ["nan"], ["1,5"]])
def test_a_block_float_cannot_read_is_refused(cells):
    # An empty cell, a blank inside a number, a non-finite value or a wrong
    # field count.
    assert _parse_rows(cells) is None


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    out = tmp_path_factory.mktemp("x87_world")
    write_world(*generate_world(SynthConfig(seed=5, n_sites=20, points_per_class=10)), out,
                threads=1)
    return out


def _load(world):
    paths = [world / name for name in FILES]
    return ingest.load_dataset(paths[0], paths[1], paths[4], paths[2], paths[3], paths[5],
                               threads=1)


def test_a_load_without_the_x87_type_reads_the_same_bits(world, monkeypatch):
    kernel_calls = []
    exact_cells = ingest._exact_cells

    def recording(*args):
        kernel_calls.append(1)
        return exact_cells(*args)

    monkeypatch.setattr(ingest, "_exact_cells", recording)
    with_kernel = _fingerprint(_load(world)[0])
    assert bool(kernel_calls) == ingest.x87.X87
    kernel_calls.clear()
    monkeypatch.setattr(ingest.x87, "X87", False)
    assert _fingerprint(_load(world)[0]) == with_kernel
    assert kernel_calls == []


@pytest.mark.parametrize("use_x87", [True, False])
@pytest.mark.parametrize("gaps", [[b"\n", b"\n"], [b"\r\n", b"\r"], [b"\n\n\r\n", b"\r\n\r\n"]])
def test_rows_apart_by_any_line_end_bytes_parse_in_place(gaps, use_x87, monkeypatch):
    monkeypatch.setattr(ingest.x87, "X87", ingest.x87.X87 and use_x87)
    exact_cells, unparsed = ingest._exact_cells, []

    def recording(*args):
        values, left = exact_cells(*args)
        unparsed.append(int(left.sum()))
        return values, left

    monkeypatch.setattr(ingest, "_exact_cells", recording)
    rows = [b"a,2017,1.5,-2.25,3", b"bb,2018,0.1,7,-0.0", b"c,2019,1000.5,.5,9.75"]
    data = rows[0] + gaps[0] + rows[1] + gaps[1] + rows[2]
    starts = np.array([0, len(rows[0] + gaps[0]), len(rows[0] + gaps[0] + rows[1] + gaps[1])])
    ends = starts + [len(row) for row in rows]
    values = ingest._parse_rows(data, starts, ends, 3)
    want = [[float(cell) for cell in row.split(b",")[2:]] for row in rows]
    assert [[_bits(v) for v in row] for row in values.tolist()] == \
        [[_bits(v) for v in row] for row in want]
    # The line-end bytes between rows leave no cell to float().
    assert unparsed == ([0] if ingest.x87.X87 else [])


#: Spellings that ``float()`` reads and the kernel leaves: underscores,
#: blanks around a number, and digits of other scripts.
FLOAT_ONLY = ["1_0", "-0.12_714188810236163", " 0.5", "0.5 ", "\t-2.25", "\u00a00.5",
              "0.5\u3000", "\u0661", "-\u0661\u0662.\u0665"]


@pytest.mark.parametrize("use_x87", [True, False])
@pytest.mark.parametrize("spelling", FLOAT_ONLY)
def test_a_float_only_spelling_parses_in_bulk(world, tmp_path, monkeypatch, spelling, use_x87):
    monkeypatch.setattr(ingest.x87, "X87", ingest.x87.X87 and use_x87)
    read, rows = [], ingest._Table.rows

    def recording(table, *args, **kwargs):
        read.append(table.path.name)
        return rows(table, *args, **kwargs)

    monkeypatch.setattr(ingest._Table, "rows", recording)
    base = {"embeddings.csv": (world / "embeddings.csv").read_text(encoding="utf-8")}
    text = apply_mutations(base, [("cell", "embeddings.csv", 3, 4, spelling)])["embeddings.csv"]
    path = tmp_path / "embeddings.csv"
    path.write_text(text, encoding="utf-8")
    embeddings = ingest.load_embeddings(path, threads=1)
    assert read == []  # no row of the table was read cell by cell
    rid, year, *cells = text.splitlines()[4].split(",")
    assert cells[2] == spelling
    assert [_bits(v) for v in embeddings[rid, int(year)].values.tolist()] == \
        [_bits(float(cell)) for cell in cells]


def test_a_quoted_blank_row_is_one_empty_quoted_field():
    base = {"embeddings.csv": "id,year,A00\ns1,2020,0.5\n"}
    mutated = apply_mutations(base, [("blank", "embeddings.csv", 0, 0, ""),
                                     ("quote", "embeddings.csv", 0, 1, "")])
    assert mutated == {"embeddings.csv": 'id,year,A00\n""\ns1,2020,0.5\n'}
