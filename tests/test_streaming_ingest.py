"""Input files read a chunk at a time, never whole.

``ingest.read_lines`` scans a file ``_SCAN_BYTES`` at a time into one
buffer and returns it open with its line offsets; every later read is an
``os.pread`` of a run of rows or of one row block. With ``_SCAN_BYTES``
made small, every chunk edge of interest falls inside a test file: a line
end, a multi-byte character, a bad byte, a quote and blank lines cut by
it must give what one chunk gives. A file that changes during a load is
a ``parse_error``, and no load leaves a file open.
"""

from __future__ import annotations

import gc
import os
import re
import tempfile
import warnings
from pathlib import Path

import pytest

from conftest import refuse_pools
from regrow import ingest
from regrow.errors import CsvParseError, InvalidValueError
from regrow.synthetic import SynthConfig, generate_world, write_world
from test_ingest_oracle import FILES, _outcome, assert_same_outcome

#: Chunk sizes that cut every line of a small file at many places.
SMALL_SCANS = (1, 2, 3, 5, 8, 13)


def _expected_lines(data: bytes) -> list[tuple[int, int]]:
    """Each line's (start, end) as ``csv`` splits lines: at \\r\\n, \\r or \\n."""
    lines, start = [], 0
    for end in re.finditer(rb"\r\n|\r|\n", data):
        lines.append((start, end.start()))
        start = end.end()
    if start < len(data):
        lines.append((start, len(data)))
    return lines


def _scan(path: Path):
    source, starts, ends = ingest.read_lines(path, CsvParseError)
    source.close()
    return list(zip(starts.tolist(), ends.tolist())), source.quoted


@pytest.mark.parametrize("data", [
    b"a,b\r\nc,d\r\n\r\ne\rf\n",          # \r\n, blank lines and a lone \r cut anywhere
    b"\n\n\na\n\n\nb\n\n",                  # blank lines at every chunk edge
    b"a\r\r\n\rb\r",                       # a lone \r next to a \r\n
    "sítio-\U0001f333,1\r\né\n".encode(),  # 2- and 4-byte characters cut
    b"a,b\nc,d\ne,\"f\"",                   # a quote in the last chunk only
    b"x",
    b"",
])
@pytest.mark.parametrize("scan", SMALL_SCANS)
def test_a_chunked_scan_finds_the_lines_of_one_pass(tmp_path, monkeypatch, data, scan):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    monkeypatch.setattr(ingest, "_SCAN_BYTES", scan)
    assert _scan(path) == (_expected_lines(data), b'"' in data)


@pytest.mark.parametrize("scan", SMALL_SCANS)
@pytest.mark.parametrize("bad, line", [
    (b"a\nb\nc\nd\ne\nf\xffg\n", 6),           # a bad byte in a late chunk
    (b"a\r\nb\r\nc\r\n\xe9t\xe9\r\n", 4),      # a Latin-1 byte after \r\n ends
    (b"a\n\n\nb\xf0\x9f\x8c\n", 4),           # a 4-byte character cut short by \n
    (b"a\nb\n\xf0\x9f\x8c", 3),               # ... and by the end of the file
])
def test_a_bad_byte_in_any_chunk_is_an_error_at_its_line(tmp_path, monkeypatch, scan, bad,
                                                          line):
    path = tmp_path / "t.csv"
    path.write_bytes(bad)
    with pytest.raises(InvalidValueError) as whole:
        ingest.read_lines(path, InvalidValueError)
    monkeypatch.setattr(ingest, "_SCAN_BYTES", scan)
    with pytest.raises(InvalidValueError) as chunked:
        ingest.read_lines(path, InvalidValueError)
    assert (chunked.value.file, chunked.value.line) == (str(path), line)
    assert str(chunked.value) == str(whole.value)


@pytest.fixture(scope="module")
def world(tmp_path_factory) -> dict[str, str]:
    config = SynthConfig(seed=11, dim=8, n_sites=8, points_per_class=5,
                         points_per_transition=2, start_year_spread=2)
    out = tmp_path_factory.mktemp("streamed_world")
    write_world(*generate_world(config), out, threads=1)
    return {name: (out / name).read_text(encoding="utf-8") for name in FILES}


def _blank_lines(text: str) -> str:
    """Every third line followed by a blank line."""
    lines = text.split("\n")
    return "\n".join(line + ("\n" if i % 3 == 2 else "") for i, line in enumerate(lines))


@pytest.mark.parametrize("form", ["crlf", "cr", "blank lines", "quoted last row"])
@pytest.mark.parametrize("scan", [7, 64])
def test_worlds_read_in_small_chunks_match_the_oracle(world, monkeypatch, form, scan):
    texts = dict(world)
    if form in ("crlf", "cr"):
        texts = {name: text.replace("\n", "\r\n" if form == "crlf" else "\r")
                 for name, text in texts.items()}
    elif form == "blank lines":
        texts = {name: _blank_lines(text) for name, text in texts.items()}
    else:  # the last row's first field quoted: csv reads the whole file
        text = texts["embeddings.csv"]
        head, last = text[:-1].rsplit("\n", 1)
        rid, rest = last.split(",", 1)
        texts["embeddings.csv"] = f'{head}\n"{rid}",{rest}\n'
    monkeypatch.setattr(ingest, "_SCAN_BYTES", scan)
    assert_same_outcome(texts)


def _write(world: dict[str, str], root: Path) -> Path:
    for name, text in world.items():
        (root / name).write_text(text, encoding="utf-8", newline="")
    return root


@pytest.mark.parametrize("change", ["shorter", "same size"])
def test_a_file_rewritten_during_a_load_is_a_parse_error(world, tmp_path, monkeypatch, change):
    refuse_pools(monkeypatch)
    root = _write(world, tmp_path)
    path = root / "embeddings.csv"
    parse_block, rewritten = ingest._parse_block, []

    def rewrite_first(*args):
        # Rewritten in place before the first block is read: the load's
        # descriptor sees the new size, or the new time.
        if not rewritten:
            data, stat = path.read_bytes(), path.stat()
            path.write_bytes(data[:len(data) // 2] if change == "shorter" else data)
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
            rewritten.append(path)
        return parse_block(*args)

    monkeypatch.setattr(ingest, "_parse_block", rewrite_first)
    exc = _outcome(ingest.load_dataset, root)
    assert rewritten
    assert isinstance(exc, CsvParseError) and exc.code == "parse_error", exc
    assert exc.file == str(path) and "changed" in str(exc)


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("fault", [None, "bad value", "not UTF-8", "empty", "unclosed quote"])
def test_no_load_leaves_a_file_open(world, fault):
    texts = dict(world)
    if fault == "bad value":  # found by the cell-by-cell pass, in a later table
        texts["spectral.csv"] = texts["spectral.csv"][:-1] + "x\n"
    elif fault == "not UTF-8":
        texts["covariates.csv"] += "\udcff"
    elif fault == "empty":
        texts["sites.csv"] = ""
    elif fault == "unclosed quote":
        texts["reference_points.csv"] += '"p,1,2\n'
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in texts.items():
            (root / name).write_bytes(text.encode("utf-8", "surrogateescape"))
        before = _open_descriptors()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)  # a file closed only when collected
            outcome = _outcome(ingest.load_dataset, root)
            gc.collect()
        # The error's traceback still holds every frame of the load.
        assert _open_descriptors() == before
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert isinstance(outcome, Exception) == (fault is not None), outcome


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a device file")
def test_a_file_that_cannot_be_read_by_offset_is_a_parse_error():
    with pytest.raises(CsvParseError, match="not a regular file") as caught:
        ingest.load_embeddings(os.devnull)
    assert caught.value.file == os.devnull
