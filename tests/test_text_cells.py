"""Text cells written as ``csv.writer`` writes them, and read back by ingest.

A text cell that holds a comma, a quote or a line-end character is quoted.
Ingest ends a row at a lone ``\\r`` as at ``\\n``, so an id holding either
must be quoted for its row to come back whole.
"""

from __future__ import annotations

import csv
import io

import pytest

from regrow import csvio, ingest


@pytest.mark.parametrize("text", ["a,b", 'a"b', "a\nb", "a\rb", "a\r\nb", '"', "plain", ""])
def test_format_cell_quotes_a_text_cell_as_csv_writer_does(text):
    out = io.StringIO()
    csv.writer(out).writerow([text, "x"])  # the default dialect: rows end at \r\n
    assert csvio.format_cell(text) + ",x\r\n" == out.getvalue()


def test_an_id_holding_a_lone_cr_round_trips(tmp_path):
    rows = [("s\r1", 2020, 0.5, -1.25), ("s2", 2020, 1.0, 2.0)]
    path = csvio.write_csv(tmp_path / "embeddings.csv", ["id", "year", "A00", "A01"], rows)
    table = ingest.load_embeddings(path)
    assert table.ids == ("s\r1", "s2")
    assert table.matrix.tolist() == [[0.5, -1.25], [1.0, 2.0]]
