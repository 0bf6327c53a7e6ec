"""Precomputed cell decoding on the scraping path agrees with decoding per cell."""

import math

import pytest

from repro.backends.adapters import WebPageBackend, _decode_map, _parse_displayed_value
from repro.database.interface import CountMode, HiddenDatabaseInterface, WireTuples
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Attribute, AttributeKind, Domain, NumericBucket, Schema
from repro.database.table import Table
from repro.exceptions import DomainValueError, FormParseError
from repro.web.client import WebFormClient
from repro.web.form_parser import ParsedResultRow, parse_result_page
from repro.web.html import format_value
from repro.web.jsoncodec import response_from_dict, response_to_dict
from repro.web.server import HiddenWebSite

SCHEMA = Schema(
    [
        Attribute("year", Domain.categorical((2019, 2020, "2021"))),
        Attribute("used", Domain.boolean()),
        Attribute("make", Domain.categorical(("Ford", " Kia", "1.0"))),
        Attribute("price", Domain.numeric_buckets((0.0, 10.0, 20.0))),
    ],
    name="decode",
)
ROWS = [
    {"year": 2019, "used": True, "make": "Ford", "price": 5.0},
    {"year": "2021", "used": False, "make": "1.0", "price": 15.0},
    {"year": 2020, "used": True, "make": "Ford", "price": 12.5},
]


@pytest.fixture()
def backend():
    table = Table(SCHEMA, ROWS, name="decode")
    return WebPageBackend(HiddenWebSite(HiddenDatabaseInterface(table, k=5)), SCHEMA)


def _slow(attribute, text):
    raw = _parse_displayed_value(attribute, text)
    return raw, attribute.domain.selectable_value_for(raw)


def _decoded(backend, row):
    """The tuple the backend's row decoder makes of one parsed row."""
    return WireTuples(backend._columns, backend._names, [backend._decode_row(row)])[0]


class TestDecodeMap:
    @pytest.mark.parametrize("name", ["year", "used", "make"])
    def test_every_entry_is_what_the_per_cell_path_returns(self, name):
        attribute = SCHEMA.attribute(name)
        decoded = _decode_map(attribute)
        assert decoded
        for text, pair in decoded.items():
            assert pair == _slow(attribute, text)
            assert type(pair[0]) is type(_slow(attribute, text)[0])

    def test_keys_are_the_domain_renderings(self):
        assert set(_decode_map(SCHEMA.attribute("used"))) == {"true", "false"}
        assert set(_decode_map(SCHEMA.attribute("year"))) == {"2019", "2020", "2021"}

    def test_numeric_attributes_have_no_map(self):
        assert _decode_map(SCHEMA.attribute("price")) == {}

    def test_every_decodable_rendering_is_in_the_map(self):
        attribute = SCHEMA.attribute("make")  # includes " Kia" and "1.0"
        decoded = _decode_map(attribute)
        for value in attribute.domain.values:
            assert decoded[format_value(value)] == _slow(attribute, format_value(value))

    def test_undecodable_renderings_are_left_to_the_per_cell_path(self):
        # A float category renders "2.5", which the per-cell path cannot map
        # back; the map leaves it out, so the cell still raises as before.
        attribute = Attribute("size", Domain.categorical((2.5, 3)))
        assert _decode_map(attribute) == {"3": (3, 3)}
        with pytest.raises(FormParseError):
            _slow(attribute, "2.5")


class TestScrapedResponses:
    def test_responses_match_the_direct_interface(self, backend):
        table = Table(SCHEMA, ROWS, name="decode")
        direct = HiddenDatabaseInterface(table, k=5)
        for assignment in ({}, {"used": True}, {"year": 2020}, {"price": "10-20"}):
            query = ConjunctiveQuery.from_assignment(SCHEMA, assignment)
            scraped, expected = backend.submit(query), direct.submit(query)
            assert scraped.tuples == expected.tuples
            for got, want in zip(scraped.tuples, expected.tuples):
                assert [type(v) for v in got.values.values()] == [
                    type(v) for v in want.values.values()
                ]

    def test_texts_outside_the_map_still_decode(self, backend):
        row = ParsedResultRow(7, {"year": "2019", "used": "yes", "make": "Ford", "price": "3"})
        returned = _decoded(backend, row)
        assert returned.values == {"year": 2019, "used": True, "make": "Ford", "price": 3.0}
        assert returned.selectable_values["price"] == "0-10"

    @pytest.mark.parametrize(
        "column, text, error",
        [
            ("used", "maybe", FormParseError),
            ("year", "1999", FormParseError),
            ("price", "cheap", FormParseError),
            ("price", "99", DomainValueError),
        ],
    )
    def test_bad_cells_raise_as_before(self, backend, column, text, error):
        values = {"year": "2019", "used": "true", "make": "Ford", "price": "3"}
        values[column] = text
        attribute = SCHEMA.attribute(column)
        with pytest.raises(error) as expected:
            _slow(attribute, text)
        with pytest.raises(error) as raised:
            backend._decode_row(ParsedResultRow(7, values))
        assert str(raised.value) == str(expected.value)

    def test_missing_column_is_reported(self, backend):
        row = ParsedResultRow(7, {"year": "2019", "used": "true", "make": "Ford"})
        with pytest.raises(FormParseError, match="missing column 'price'"):
            backend._decode_row(row)


class TestNumericCells:
    # Buckets out of order, with a gap between 20 and 50, and labels that
    # need ``:g`` formatting.
    BUCKETS = (NumericBucket(50.0, 1e6), NumericBucket(-2.5, 0.125), NumericBucket(0.125, 20.0))
    GAPPED = Schema(
        [
            Attribute("used", Domain.boolean()),
            Attribute("weight", Domain(AttributeKind.NUMERIC, buckets=BUCKETS)),
        ],
        name="gapped",
    )

    def _texts(self):
        edges = sorted({edge for bucket in self.BUCKETS for edge in (bucket.low, bucket.high)})
        points = [
            *edges,
            *(math.nextafter(edge, -math.inf) for edge in edges),
            *(math.nextafter(edge, math.inf) for edge in edges),
            *((low + high) / 2 for low, high in zip(edges, edges[1:])),
            35.0,  # in the gap
            -math.inf,
            math.inf,
            math.nan,
        ]
        return [repr(point) for point in points] + ["7", " 3.5 ", "1e400", "cheap", "", "0x10"]

    def test_the_one_float_decode_equals_the_per_cell_path(self):
        rows = [{"used": True, "weight": 1.0}, {"used": False, "weight": 60.0}]
        site = HiddenWebSite(HiddenDatabaseInterface(Table(self.GAPPED, rows, name="g"), k=5))
        backend = WebPageBackend(site, self.GAPPED)
        attribute = self.GAPPED.attribute("weight")
        outcomes = set()
        for text in self._texts():
            row = ParsedResultRow(3, {"used": "true", "weight": text})
            try:
                expected = _slow(attribute, text)
            except (FormParseError, DomainValueError) as error:
                with pytest.raises(type(error)) as raised:
                    backend._decode_row(row)
                assert str(raised.value) == str(error)
                outcomes.add(type(error))
                continue
            _, values, selectable = backend._decode_row(row)
            assert (values[1], selectable[1]) == expected
            assert type(values[1]) is float and type(selectable[1]) is str
            outcomes.add(str)
        assert outcomes == {str, FormParseError, DomainValueError}


class _FirstRowUntitledSite(HiddenWebSite):
    """Serves real result pages, except that the first listed row lacks its
    last (``title``) cell."""

    def _results_page(self, query_string):
        page = super()._results_page(query_string)
        head, tag, rest = page.partition("<tr data-tuple-id=")
        row, end, tail = rest.partition("\n</tr>")
        return head + tag + row.rpartition("\n<td>")[0] + end + tail


TITLED_ROWS = [dict(row, title=f"car & <{index}>") for index, row in enumerate(ROWS)]


class TestLazyAnswers:
    def test_a_count_only_read_builds_no_tuple(self, monkeypatch):
        built = []
        build = WireTuples._build
        monkeypatch.setattr(
            WireTuples, "_build", lambda self, index: built.append(index) or build(self, index)
        )
        table = Table(SCHEMA, ROWS, name="decode")
        site = HiddenWebSite(HiddenDatabaseInterface(table, k=2, count_mode=CountMode.EXACT))
        response = WebPageBackend(site, SCHEMA).submit(ConjunctiveQuery.empty(SCHEMA))
        assert isinstance(response.tuples, WireTuples)
        assert (len(response.tuples), response.overflow, response.reported_count) == (2, True, 3)
        assert not response.valid and not response.empty
        assert built == []
        assert response.tuples[1].tuple_id == 1
        assert built == [1]

    def test_wire_round_trip_keeps_every_tuple(self):
        table = Table(SCHEMA, TITLED_ROWS, name="decode")
        site = _FirstRowUntitledSite(HiddenDatabaseInterface(table, k=5, display_columns=("title",)))
        scraped = WebPageBackend(site, SCHEMA, display_columns=("title",)).submit(
            ConjunctiveQuery.empty(SCHEMA)
        )
        assert "title" not in scraped.tuples[0].values
        assert scraped.tuples[1].values["title"] == "car & <1>"
        decoded = response_from_dict(SCHEMA, response_to_dict(scraped))
        assert decoded == scraped
        assert list(decoded.tuples) == list(scraped.tuples)
        for got, want in zip(decoded.tuples, scraped.tuples):
            assert list(got.values.items()) == list(want.values.items())

    def test_scraped_vehicles_equal_the_direct_interface(self, small_vehicles_table):
        table = small_vehicles_table
        direct = HiddenDatabaseInterface(table, k=25, display_columns=("title",))
        scraping = WebPageBackend(
            HiddenWebSite(HiddenDatabaseInterface(table, k=25, display_columns=("title",))),
            table.schema,
            display_columns=("title",),
        )
        first = table.schema.attributes[0]
        assignments = [{}] + [{first.name: value} for value in first.domain.values]
        for assignment in assignments:
            query = ConjunctiveQuery.from_assignment(table.schema, assignment)
            scraped, expected = scraping.submit(query), direct.submit(query)
            assert scraped.tuples and scraped.tuples == expected.tuples
            assert (scraped.overflow, scraped.reported_count) == (
                expected.overflow,
                expected.reported_count,
            )


class _LastRowBadCellSite(HiddenWebSite):
    """Serves real result pages, except that the last listed row's ``used``
    cell reads ``maybe``."""

    def _results_page(self, query_string):
        head, tag, last_row = super()._results_page(query_string).rpartition("<tr ")
        lines = last_row.split("\n")  # the tag's end, then the id, year and used cells
        lines[3] = "<td>maybe</td>"
        return head + tag + "\n".join(lines)


class TestEagerDecoding:
    def test_a_bad_cell_in_the_last_row_of_an_overflow_page_raises_at_submit(self):
        table = Table(SCHEMA, ROWS, name="decode")
        site = _LastRowBadCellSite(HiddenDatabaseInterface(table, k=2))
        client = WebFormClient(site, SCHEMA)
        page = parse_result_page(site.get("/results"))
        assert page.overflow and page.rows[-1].values["used"] == "maybe"
        with pytest.raises(FormParseError, match="cannot parse boolean cell 'maybe' for 'used'"):
            client.submit(ConjunctiveQuery.empty(SCHEMA))
