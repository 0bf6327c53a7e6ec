"""Unit tests for the simulated web layer: codec, HTML, server, parser, client."""

import sys
import threading

import pytest

from repro.database.interface import CountMode, HiddenDatabaseInterface
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import StaticScoreRanking
from repro.database.schema import Attribute, Domain, Schema
from repro.database.table import Table
from repro.exceptions import FormParseError, PageNotFoundError, WebFormError
from repro.web.client import WebFormClient
from repro.web.form_parser import parse_form_page, parse_result_page
from repro.web.html import render_form_page, render_result_page
from repro.web.server import HiddenWebSite
from repro.web.urlcodec import decode_query, encode_query, result_page_path


def _quoted_schema() -> Schema:
    """Attribute names holding the characters URL quoting rewrites."""
    return Schema(
        [
            Attribute(name, Domain.categorical(("u", "v w")))
            for name in ("a+b", "x%20y", "p q", "100%")
        ]
    )


@pytest.fixture()
def site(tiny_table) -> HiddenWebSite:
    interface = HiddenDatabaseInterface(
        tiny_table, k=2, ranking=StaticScoreRanking(), count_mode=CountMode.EXACT,
        display_columns=("score",), seed=0,
    )
    return HiddenWebSite(interface, site_name="Tiny Cars")


class TestUrlCodec:
    def test_round_trip_categorical_and_numeric(self, tiny_schema):
        query = ConjunctiveQuery.from_assignment(
            tiny_schema, {"make": "Toyota", "price": "0-10000"}
        )
        assert decode_query(tiny_schema, encode_query(query)) == query

    def test_round_trip_boolean(self, figure1):
        schema = figure1.schema
        query = ConjunctiveQuery.from_assignment(schema, {"a1": True, "a2": False})
        decoded = decode_query(schema, encode_query(query))
        assert decoded.value_of("a1") is True
        assert decoded.value_of("a2") is False

    def test_empty_query_round_trip(self, tiny_schema):
        query = ConjunctiveQuery.empty(tiny_schema)
        assert encode_query(query) == ""
        assert decode_query(tiny_schema, "") == query

    def test_decode_ignores_reserved_and_blank_parameters(self, tiny_schema):
        decoded = decode_query(tiny_schema, "make=Ford&color=&submit=Search")
        assert decoded.assignment() == {"make": "Ford"}

    def test_decode_rejects_unknown_attribute(self, tiny_schema):
        with pytest.raises(FormParseError):
            decode_query(tiny_schema, "engine=V8")

    def test_decode_rejects_unselectable_value(self, tiny_schema):
        with pytest.raises(FormParseError):
            decode_query(tiny_schema, "make=Tesla")

    def test_decode_strips_leading_question_mark(self, tiny_schema):
        assert decode_query(tiny_schema, "?make=Ford").value_of("make") == "Ford"

    def test_values_with_spaces_survive_the_round_trip(self, small_vehicles_table):
        schema = small_vehicles_table.schema
        query = ConjunctiveQuery.from_assignment(schema, {"make": "Mercedes-Benz", "model": "Ram 1500"})
        assert decode_query(schema, encode_query(query)) == query

    def test_attribute_names_that_need_quoting_round_trip(self):
        # Each name is quoted once on the way out and unquoted once on the
        # way in: ``%`` and ``+`` in a name must come back as themselves.
        schema = _quoted_schema()
        query = ConjunctiveQuery.from_assignment(
            schema, {"a+b": "u", "x%20y": "v w", "p q": "u", "100%": "v w"}
        )
        encoded = encode_query(query)
        assert encoded == "a%2Bb=u&x%2520y=v+w&p+q=u&100%25=v+w"
        assert decode_query(schema, encoded) == query

    def test_result_page_path(self, tiny_schema):
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"})
        assert result_page_path("/results", query) == "/results?make=Ford"
        assert result_page_path("/results", ConjunctiveQuery.empty(tiny_schema)) == "/results"


class TestHtmlRendering:
    def test_form_page_lists_every_attribute_and_option(self, tiny_schema):
        page = render_form_page(tiny_schema, k=25)
        form = parse_form_page(page)
        assert form.top_k == 25
        assert form.field_names == tiny_schema.attribute_names
        assert form.field("make").selectable_options == ("Toyota", "Honda", "Ford")
        assert form.field("price").selectable_options == ("0-10000", "10000-20000", "20000-40000")

    def test_form_page_escapes_html_sensitive_text(self, tiny_schema):
        page = render_form_page(tiny_schema, title="Cars <&> Trucks")
        assert "Cars &lt;&amp;&gt; Trucks" in page

    def test_result_page_round_trips_rows_and_flags(self, tiny_interface, tiny_schema):
        response = tiny_interface.submit(ConjunctiveQuery.empty(tiny_schema))
        page = render_result_page(
            tiny_schema, response.query, response.tuples, response.overflow,
            response.reported_count, response.k,
        )
        parsed = parse_result_page(page)
        assert parsed.overflow is True
        assert parsed.reported_count == 8
        assert len(parsed.rows) == 2
        assert parsed.columns[0] == "id"

    def test_empty_result_page_is_marked_empty(self, tiny_interface, tiny_schema):
        query = ConjunctiveQuery.from_assignment(
            tiny_schema, {"make": "Ford", "color": "blue", "price": "0-10000"}
        )
        response = tiny_interface.submit(query)
        page = render_result_page(
            tiny_schema, query, response.tuples, response.overflow, response.reported_count, response.k
        )
        parsed = parse_result_page(page)
        assert parsed.empty and not parsed.rows

    def test_parse_form_page_rejects_non_form_pages(self):
        with pytest.raises(FormParseError):
            parse_form_page("<html><body><p>hello</p></body></html>")

    def test_parse_result_page_rejects_non_result_pages(self):
        with pytest.raises(FormParseError):
            parse_result_page("<html><body><p>hello</p></body></html>")


class TestHiddenWebSite:
    def test_serves_form_and_results_pages(self, site):
        form_page = site.get("/search")
        assert "<form" in form_page
        results = site.get("/results?make=Honda")
        parsed = parse_result_page(results)
        assert len(parsed.rows) == 2
        assert site.pages_served == 2

    def test_unknown_path_raises_404(self, site):
        with pytest.raises(PageNotFoundError):
            site.get("/nowhere")

    def test_pages_served_counts_every_concurrent_fetch(self, site):
        threads, fetches = 8, 200

        def fetch() -> None:
            for _ in range(fetches):
                site.get("/results?make=Honda")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=fetch) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert site.pages_served == threads * fetches

    def test_results_page_charges_the_interface(self, site):
        before = site.interface.statistics.queries_issued
        site.get("/results?color=red")
        assert site.interface.statistics.queries_issued == before + 1


class TestWebFormClient:
    def test_client_learns_top_k_from_the_form(self, site, tiny_schema):
        client = WebFormClient(site, tiny_schema, display_columns=("score",))
        assert client.k == 2

    def test_client_submit_matches_direct_interface(self, site, tiny_schema, tiny_table):
        client = WebFormClient(site, tiny_schema, display_columns=("score",))
        direct = HiddenDatabaseInterface(
            tiny_table, k=2, ranking=StaticScoreRanking(), count_mode=CountMode.EXACT
        )
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota"})
        via_web = client.submit(query)
        via_direct = direct.submit(query)
        assert via_web.overflow == via_direct.overflow
        assert via_web.reported_count == via_direct.reported_count
        assert [t.tuple_id for t in via_web.tuples] == [t.tuple_id for t in via_direct.tuples]
        assert via_web.tuples[0].selectable_values == via_direct.tuples[0].selectable_values
        # Raw numeric values come back as floats through the HTML path.
        assert via_web.tuples[0].values["price"] == pytest.approx(
            float(via_direct.tuples[0].values["price"])
        )

    def test_client_records_statistics(self, site, tiny_schema):
        client = WebFormClient(site, tiny_schema)
        client.submit(ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"}))
        assert client.statistics.queries_issued == 1
        assert client.statistics.valid_results == 1

    def test_client_rejects_schema_not_offered_by_the_form(self, site):
        from repro.database.schema import Attribute, Domain, Schema

        wrong = Schema([Attribute("engine", Domain.categorical(("V6", "V8")))])
        with pytest.raises(WebFormError):
            WebFormClient(site, wrong)

    def test_client_rejects_values_not_offered_by_the_form(self, site):
        from repro.database.schema import Attribute, Domain, Schema

        wrong = Schema([Attribute("make", Domain.categorical(("Toyota", "Tesla")))])
        with pytest.raises(WebFormError):
            WebFormClient(site, wrong)

    def test_discover_schema_builds_categorical_view(self, site, tiny_schema):
        discovered = WebFormClient.discover_schema(site)
        assert discovered.attribute_names == tiny_schema.attribute_names
        assert discovered.attribute("price").domain.values == ("0-10000", "10000-20000", "20000-40000")

    def test_attribute_names_that_need_quoting_survive_a_submit(self):
        schema = _quoted_schema()
        rows = [
            {"a+b": "u", "x%20y": "v w", "p q": "u", "100%": "u"},
            {"a+b": "u", "x%20y": "u", "p q": "v w", "100%": "v w"},
            {"a+b": "v w", "x%20y": "v w", "p q": "u", "100%": "v w"},
        ]
        quoted_site = HiddenWebSite(HiddenDatabaseInterface(Table(schema, rows), k=5))
        client = WebFormClient(quoted_site, schema)
        query = ConjunctiveQuery.from_assignment(schema, {"a+b": "u", "x%20y": "v w"})
        (returned,) = client.submit(query).tuples
        assert returned.tuple_id == 0
        assert returned.values == rows[0]

    def test_boolean_attributes_round_trip_through_html(self, figure1):
        interface = HiddenDatabaseInterface(figure1, k=2)
        boolean_site = HiddenWebSite(interface)
        client = WebFormClient(boolean_site, figure1.schema)
        query = ConjunctiveQuery.from_assignment(figure1.schema, {"a1": False, "a2": True})
        response = client.submit(query)
        assert {t.values["a1"] for t in response.tuples} == {False}
        assert all(isinstance(t.values["a2"], bool) for t in response.tuples)
