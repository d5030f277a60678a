from __future__ import annotations

import csv
import random
import shutil

import pytest

from regrow.core import LULCClass, Strategy
from regrow import ingest
from regrow.errors import (
    CsvParseError,
    DuplicateKeyError,
    InvalidValueError,
    MissingColumnError,
    MissingYearColumnError,
    NonFiniteError,
    UnknownStrategyError,
)
from regrow.ingest import (
    filter_sites,
    load_dataset,
    load_embeddings,
    load_reference_points,
    load_sites,
)
from regrow.synthetic import write_world

from conftest import make_site, vec
from test_ingest_oracle import _fingerprint


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def embeddings_csv(tmp_path, rows, dim=4):
    header = "id,year," + ",".join(f"A{i:02d}" for i in range(dim))
    return write(tmp_path / "embeddings.csv", header + "\n" + "\n".join(rows) + "\n")


class TestLoadEmbeddings:
    def test_basic_row(self, tmp_path):
        path = embeddings_csv(tmp_path, ["s1,2020,0.1,0.2,0.3,0.4"])
        table = load_embeddings(path)
        assert list(table) == [("s1", 2020)]
        assert table[("s1", 2020)].dim == 4

    def test_duplicate_key(self, tmp_path):
        path = embeddings_csv(
            tmp_path, ["s1,2020,0.1,0.2,0.3,0.4", "s1,2020,0.5,0.6,0.7,0.8"]
        )
        with pytest.raises(DuplicateKeyError) as err:
            load_embeddings(path)
        assert err.value.line == 3

    def test_row_wider_than_header(self, tmp_path):
        # header declares 3 embedding columns, row carries 4 values
        header = "id,year,A00,A01,A02"
        path = write(tmp_path / "e.csv", header + "\ns1,2020,0.1,0.2,0.3,0.4\n")
        with pytest.raises(MissingColumnError):
            load_embeddings(path)

    def test_parse_error_carries_line(self, tmp_path):
        path = embeddings_csv(tmp_path, ["s1,2020,0.1,oops,0.3,0.4"])
        with pytest.raises(Exception) as err:
            load_embeddings(path)
        assert "line 2" in str(err.value)


SITES_HEADER = "site_id,lon,lat,area_ha,start_year,strategy,start_lulc"


def sites_csv(tmp_path, rows):
    return write(tmp_path / "sites.csv", SITES_HEADER + "\n" + "\n".join(rows) + "\n")


class TestLoadSites:
    def test_strategy_parsing(self, tmp_path):
        emb = load_embeddings(
            embeddings_csv(tmp_path, ["s1,2020,0.1,0.2,0.3,0.4", "s2,2020,1,0,0,0"])
        )
        meta = sites_csv(
            tmp_path,
            ["s1,-47.0,-22.0,2.0,2020,Full-Area Planting,Pasture", "s2,-47.1,-22.1,3.0,2020,,"],
        )
        sites, skipped = load_sites(meta, emb)
        assert [s.strategy for s in sites] == [
            Strategy.FULL_AREA_PLANTING,
            Strategy.NOT_IDENTIFIED,
        ]
        assert sites[0].start_lulc == LULCClass("Pasture")
        assert sites[1].start_lulc is None
        assert skipped == []

    def test_unknown_strategy(self, tmp_path):
        emb = load_embeddings(embeddings_csv(tmp_path, ["s1,2020,0.1,0.2,0.3,0.4"]))
        meta = sites_csv(tmp_path, ["s1,-47.0,-22.0,2.0,2020,Coppicing,"])
        with pytest.raises(UnknownStrategyError):
            load_sites(meta, emb)

    def test_zero_embedding_sites_reported_not_kept(self, tmp_path):
        emb = load_embeddings(embeddings_csv(tmp_path, ["s1,2020,0.1,0.2,0.3,0.4"]))
        meta = sites_csv(
            tmp_path,
            ["s1,-47.0,-22.0,2.0,2020,,", "s2,-47.1,-22.1,3.0,2020,,"],
        )
        sites, skipped = load_sites(meta, emb)
        assert [s.site_id for s in sites] == ["s1"]
        assert skipped == ["s2"]


def reference_csv(tmp_path, years, rows, name="refs.csv"):
    header = "point_id,lon,lat," + ",".join(f"lulc_{y}" for y in years)
    return write(tmp_path / name, header + "\n" + "\n".join(rows) + "\n")


class TestLoadReferencePoints:
    def test_loads_full_series(self, tmp_path):
        years = range(2015, 2025)
        path = reference_csv(tmp_path, years, ["p1,-47.0,-22.0," + ",".join("9" for _ in years)])
        points = load_reference_points(path, {}, lulc_years=(2015, 2024))
        assert points[0].lulc_series[2015] == LULCClass("Pasture")
        assert points[0].stability.kind.value == "unclassified"

    def test_missing_year_column(self, tmp_path):
        years = [y for y in range(2015, 2025) if y != 2019]
        path = reference_csv(tmp_path, years, ["p1,-47.0,-22.0," + ",".join("9" for _ in years)])
        with pytest.raises(MissingYearColumnError):
            load_reference_points(path, {}, lulc_years=(2015, 2024))

    def test_bad_year_column_is_a_located_parse_error(self, tmp_path):
        path = reference_csv(tmp_path, ["2015", "20x5"], ["p1,-47.0,-22.0,9,9"])
        with pytest.raises(CsvParseError) as err:
            load_reference_points(path, {}, lulc_years=(2015, 2015))
        assert (err.value.file, err.value.line) == (str(path), 1)

    @pytest.mark.parametrize("second", ["lulc_2024", "lulc_02024"])
    def test_duplicate_year_column_is_a_located_duplicate_key(self, tmp_path, second):
        years = range(2015, 2025)
        path = reference_csv(tmp_path, [*years, second[len("lulc_"):]],
                             ["p1,-47.0,-22.0," + ",".join("1" for _ in years) + ",9"])
        with pytest.raises(DuplicateKeyError, match="2024") as err:
            load_reference_points(path, {}, lulc_years=(2015, 2024))
        assert (err.value.file, err.value.line) == (str(path), 1)

    def test_unmapped_code_becomes_other(self, tmp_path, caplog):
        years = range(2015, 2025)
        path = reference_csv(tmp_path, years, ["p1,-47.0,-22.0," + ",".join("99" for _ in years)])
        with caplog.at_level("WARNING", logger="regrow.ingest"):
            points = load_reference_points(path, {}, lulc_years=(2015, 2024))
        assert points[0].lulc_series[2015] == LULCClass("Other", 99)
        assert any("99" in rec.message for rec in caplog.records)

    def test_one_warning_per_unmapped_code_per_load(self, tmp_path, caplog):
        # 99 in two columns of all 50 points, 98 in one column of three.
        years = range(2015, 2025)
        rows = [
            f"p{i},-47.0,-22.0,99,99,{98 if i < 3 else 9}," + ",".join("9" for _ in range(7))
            for i in range(50)
        ]
        path = reference_csv(tmp_path, years, rows)
        with caplog.at_level("WARNING", logger="regrow.ingest"):
            for _ in range(2):  # the codes map is shared; the next load warns again
                load_reference_points(path, {}, lulc_years=(2015, 2024))
        messages = [rec.getMessage() for rec in caplog.records]
        assert messages == [
            f"unmapped LULC code 98 kept as Other(98) in 3 cell(s) of {path}",
            f"unmapped LULC code 99 kept as Other(99) in 100 cell(s) of {path}",
        ] * 2


class TestFilterSites:
    def test_area_dropped_first(self):
        kept, report = filter_sites([make_site(area_ha=0.9, start_year=2020, embeddings={2020: vec(1.0)})])
        assert kept == []
        assert report.stages[0] == ("area", 1, 0)

    def test_start_year_bounds_inclusive(self):
        sites = [
            make_site("a", area_ha=1.0, start_year=2016, embeddings={2020: vec(1.0)}),
            make_site("b", area_ha=1.0, start_year=2017, embeddings={2020: vec(1.0)}),
            make_site("c", area_ha=1.0, start_year=2024, embeddings={2020: vec(1.0)}),
        ]
        kept, report = filter_sites(sites)
        assert [s.site_id for s in kept] == ["b", "c"]
        assert report.stages == (("area", 0, 3), ("start_year", 1, 2))

    def test_ten_site_fixture_hand_count(self):
        # (area, start_year) per site; hand-applied rules: area drops
        # s01,s02,s07; start_year then drops s03,s04,s09; 4 survive.
        cases = {
            "s01": (0.5, 2018), "s02": (0.9, 2020), "s03": (1.0, 2016),
            "s04": (2.0, 2025), "s05": (1.0, 2017), "s06": (3.5, 2024),
            "s07": (0.99, 2016), "s08": (10.0, 2020), "s09": (1.2, 2026),
            "s10": (5.0, 2021),
        }
        sites = [
            make_site(sid, area_ha=a, start_year=y, embeddings={2020: vec(1.0)})
            for sid, (a, y) in cases.items()
        ]
        kept, report = filter_sites(sites)
        assert sorted(s.site_id for s in kept) == ["s05", "s06", "s08", "s10"]
        assert report.stages == (("area", 3, 7), ("start_year", 3, 4))

    def test_idempotent(self):
        sites = [
            make_site(f"s{i}", area_ha=0.5 + i, start_year=2015 + i, embeddings={2020: vec(1.0)})
            for i in range(8)
        ]
        kept, _ = filter_sites(sites)
        kept_again, report = filter_sites(kept)
        assert kept_again == kept
        assert all(dropped == 0 for _, dropped, _ in report.stages)


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory, small_world):
    dataset, truth = small_world
    out = tmp_path_factory.mktemp("world")
    write_world(dataset, truth, out)
    return out


class TestWorldRoundTrip:
    def test_round_trip_identical(self, small_world, world_dir):
        dataset, _ = small_world
        loaded, skipped = load_dataset(
            world_dir / "embeddings.csv",
            world_dir / "sites.csv",
            world_dir / "reference_points.csv",
            world_dir / "spectral.csv",
            world_dir / "covariates.csv",
            world_dir / "lulc_codes.csv",
        )
        assert skipped == []
        assert loaded.sites == dataset.sites
        assert loaded.references == dataset.references
        assert loaded.window == dataset.window

    def test_row_order_does_not_matter(self, world_dir, tmp_path):
        shuffled = tmp_path / "shuffled"
        shuffled.mkdir()
        rng = random.Random(5)
        for name in (
            "embeddings.csv", "sites.csv", "reference_points.csv",
            "spectral.csv", "covariates.csv", "lulc_codes.csv",
        ):
            lines = (world_dir / name).read_text().splitlines()
            header, rows = lines[0], lines[1:]
            if name != "lulc_codes.csv":
                rng.shuffle(rows)
            (shuffled / name).write_text("\n".join([header] + rows) + "\n")

        def load(d):
            return load_dataset(
                d / "embeddings.csv", d / "sites.csv", d / "reference_points.csv",
                d / "spectral.csv", d / "covariates.csv", d / "lulc_codes.csv",
            )[0]

        assert load(shuffled) == load(world_dir)


def load_world(d):
    return load_dataset(
        d / "embeddings.csv", d / "sites.csv", d / "reference_points.csv",
        d / "spectral.csv", d / "covariates.csv", d / "lulc_codes.csv",
    )


def set_cell(path, row, column, value) -> int:
    """Overwrite one cell of data row ``row``; return its 1-based line."""
    lines = path.read_text().splitlines()
    fields = lines[row + 1].split(",")
    fields[lines[0].split(",").index(column)] = value
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return row + 2


class TestLocatedErrors:
    @pytest.mark.parametrize(
        "name, column, value",
        [
            ("embeddings.csv", "A03", "inf"),
            ("sites.csv", "lon", "nan"),
            ("spectral.csv", "evi", "nan"),
            ("covariates.csv", "elevation_m", "nan"),
            ("reference_points.csv", "lat", "-inf"),
        ],
    )
    def test_non_finite_cell_names_file_and_line(self, world_dir, tmp_path, name, column, value):
        world = tmp_path / "world"
        shutil.copytree(world_dir, world)
        line = set_cell(world / name, 4, column, value)
        with pytest.raises(NonFiniteError) as err:
            load_world(world)
        assert (err.value.file, err.value.line) == (str(world / name), line)
        assert str(err.value).startswith(f"{world / name}: line {line}: ")

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_non_utf8_file_is_a_located_parse_error(self, tmp_path, end):
        path = embeddings_csv(tmp_path, ["s1,2020,0.1,0.2,0.3,0.4", "s2,2020,0.5,0.6,0.7,0.8"])
        path.write_bytes(path.read_bytes().replace(b"0.7", b"0\xff7").replace(b"\n", end))
        with pytest.raises(CsvParseError) as err:
            load_embeddings(path)
        assert (err.value.file, err.value.line) == (str(path), 3)

    def test_unclosed_quote_past_the_field_limit_is_a_located_parse_error(self, tmp_path):
        # The quote opens a field that runs to the end of the file, longer
        # than the csv module reads.
        rows = [f"s{i},2020,0.1,0.2,0.3,0.4" for i in range(8000)]
        path = embeddings_csv(tmp_path, rows)
        path.write_text('"' + path.read_text(encoding="utf-8"), encoding="utf-8")
        with pytest.raises(CsvParseError) as err:
            load_embeddings(path)
        assert err.value.file == str(path) and isinstance(err.value.line, int)

    def test_synth_world_is_parsed_in_bulk(self, small_world, world_dir, monkeypatch):
        parse_float = ingest._parse_float
        parsed = set()

        def cell_by_cell(text, what):
            parsed.add(what)
            return parse_float(text, what)

        monkeypatch.setattr(ingest, "_parse_float", cell_by_cell)
        loaded, _ = load_world(world_dir)
        assert loaded.sites == small_world[0].sites
        # Only the small sites.csv and reference_points.csv go cell by cell.
        assert parsed == {"lon", "lat", "area_ha"}
        embedding = next(iter(loaded.sites[0].embeddings.values())).values
        assert not embedding.flags.writeable and not embedding.flags.owndata

    def test_a_clean_load_bulk_parses_exactly_the_keyed_tables(self, world_dir, monkeypatch):
        parse_bulk = ingest._Table._parse_bulk
        bulk = {}

        def recording_parse_bulk(table, *args):
            bulk[table.path.name] = result = parse_bulk(table, *args)
            return result

        monkeypatch.setattr(ingest._Table, "_parse_bulk", recording_parse_bulk)
        load_world(world_dir)
        assert sorted(bulk) == ["covariates.csv", "embeddings.csv", "spectral.csv"]
        assert all(matrix is not None for matrix in bulk.values())


def break_cell(path, row, column, end) -> None:
    """Quote data row ``row``'s cell ``column`` with ``end`` and an ``x``
    after its text: the row spans two lines."""
    lines = path.read_bytes().decode().split("\n")
    fields = lines[row + 1].split(",")
    index = lines[0].split(",").index(column)
    fields[index] = f'"{fields[index]}{end}x"'
    lines[row + 1] = ",".join(fields)
    path.write_bytes("\n".join(lines).encode())


class TestQuotedRecords:
    """A quoted field may hold a line break; each record keeps its first line."""

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("name, key, column", [("sites.csv", "site_id", "lon"),
                                                   ("embeddings.csv", "id", "A01"),
                                                   ("spectral.csv", "id", "ndvi")])
    def test_a_row_after_a_quoted_line_break_names_its_own_line(self, world_dir, tmp_path,
                                                                end, name, key, column):
        world = tmp_path / "world"
        shutil.copytree(world_dir, world)
        # Row 2, lines 5-6, holds a bad number (and sends a keyed table cell
        # by cell); row 1 is line 4, and row 0, lines 2-3, has an id of no site.
        break_cell(world / name, 2, column, end)
        break_cell(world / name, 0, key, end)
        with pytest.raises(CsvParseError) as err:
            load_world(world)
        assert (err.value.file, err.value.line) == (str(world / name), 5)

    def test_a_quoted_world_loads_bitwise_as_the_plain_one(self, world_dir, tmp_path):
        world = tmp_path / "world"
        world.mkdir()
        for path in world_dir.glob("*.csv"):
            with open(path, newline="") as src, open(world / path.name, "w", newline="") as dst:
                csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))
        assert b'"' in (world / "embeddings.csv").read_bytes()
        assert _fingerprint(load_world(world)[0]) == _fingerprint(load_world(world_dir)[0])

    def test_an_unknown_class_name_is_an_error_at_its_row(self, world_dir, tmp_path):
        world = tmp_path / "world"
        shutil.copytree(world_dir, world)
        codes = world / "lulc_codes.csv"
        text = codes.read_text()
        assert text.splitlines()[3] == "3,ForestFormation"
        codes.write_text(text.replace("3,ForestFormation", "3,Forest Formation"))
        with pytest.raises(InvalidValueError) as err:
            load_world(world)
        assert (err.value.code, err.value.file, err.value.line) == (
            "invalid_value", str(codes), 4)

    @pytest.mark.parametrize("rows, message, line", [
        (["1,Pasture", "2,Pasture", "5,Bogus"], "duplicate LULC name", None),
        (["5,Pasture", "2,Bogus", "1,Pasture"], "unknown LULC class name", 3),
    ])
    def test_the_first_bad_name_in_code_order_is_the_error(self, tmp_path, rows, message,
                                                            line):
        # A repeated name is the table's error, an unknown one its row's.
        codes = write(tmp_path / "lulc_codes.csv", "code,name\n" + "\n".join(rows) + "\n")
        with pytest.raises(InvalidValueError, match=message) as err:
            ingest.load_lulc_codes(codes)
        assert (err.value.file, err.value.line) == (str(codes), line)
