"""The single-pass result-page scanner: round trips, markup variants, errors, scale."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.interface import ReturnedTuple
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Attribute, Domain, Schema
from repro.exceptions import FormParseError
from repro.web.form_parser import parse_result_page
from repro.web.html import format_value, render_result_page

SCHEMA = Schema(
    [
        Attribute("make", Domain.categorical(("Toyota", "Honda"))),
        Attribute("used", Domain.boolean()),
    ],
    name="scanner",
)
#: Display columns: one with markup-sensitive text in its name, and one that
#: no tuple fills (rendered as empty cells).
DISPLAY_COLUMNS = ("a&b <c>", "blank")

cell_text = st.text(
    alphabet=st.one_of(
        st.sampled_from("<>&\"' \t\n"),
        st.sampled_from("éß日本€ "),
        st.characters(min_codepoint=32, max_codepoint=0x2FFF),
    ),
    max_size=12,
)
cell_value = st.one_of(cell_text, st.booleans(), st.integers(-10**6, 10**6), st.floats(-1e6, 1e6))


def _page(rows, overflow=False, reported_count=None, k=5):
    tuples = [
        ReturnedTuple(tuple_id=tuple_id, values=values, selectable_values={})
        for tuple_id, values in rows
    ]
    return render_result_page(
        SCHEMA, ConjunctiveQuery.empty(SCHEMA), tuples, overflow, reported_count, k,
        display_columns=DISPLAY_COLUMNS,
    )


class TestRoundTrip:
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 10**9),
                st.fixed_dictionaries(
                    {"make": cell_value, "used": cell_value},
                    optional={"a&b <c>": cell_value},
                ),
            ),
            max_size=6,
        ),
        overflow=st.booleans(),
        reported_count=st.one_of(st.none(), st.integers(0, 10**12)),
        k=st.integers(1, 500),
    )
    @settings(max_examples=200, deadline=None)
    def test_rendered_pages_parse_back_exactly(self, rows, overflow, reported_count, k):
        parsed = parse_result_page(_page(rows, overflow, reported_count, k))
        assert parsed.overflow is overflow
        assert parsed.reported_count == reported_count
        assert parsed.top_k == k
        assert parsed.empty is not rows
        if rows:
            assert parsed.columns == ("id", "make", "used", *DISPLAY_COLUMNS)
        else:
            assert parsed.columns == ()
        assert [row.tuple_id for row in parsed.rows] == [tuple_id for tuple_id, _ in rows]
        for row, (_, values) in zip(parsed.rows, rows):
            expected = {
                column: format_value(values.get(column, "")).strip()
                for column in ("make", "used", *DISPLAY_COLUMNS)
            }
            assert row.values == expected


ROW_HEAD = (
    '<table class="hd-results"><thead><tr><th>id</th><th>make</th><th>used</th></tr></thead>'
    "<tbody>"
)


class TestMarkupVariants:
    def test_upper_case_tags_and_attribute_names(self):
        page = (
            '<P CLASS="hd-count">About <SPAN CLASS="hd-count-value">7</SPAN> results</P>'
            '<TABLE CLASS="hd-results"><THEAD><TR><TH>id</TH><TH>make</TH></TR></THEAD>'
            '<TBODY><TR DATA-TUPLE-ID="3"><TD>3</TD><TD>Honda</TD></TR></TBODY></TABLE>'
        )
        parsed = parse_result_page(page)
        assert parsed.reported_count == 7
        assert [(row.tuple_id, row.values) for row in parsed.rows] == [(3, {"make": "Honda"})]

    def test_single_quoted_unquoted_and_extra_attributes(self):
        page = (
            "<meta content=12 name='hd-top-k'>"
            "<p id=notice class='note hd-overflow'>more</p>"
            "<table data-x='1' class=hd-results><thead><tr><th>id</th><th>make</th></tr></thead>"
            "<tbody><tr class=odd data-tuple-id='4' title=\"a>b\"><td class=c>4</td>"
            "<td style='x'>Toyota</td></tr>"
            "<tr data-tuple-id=5><td>5</td><td>Honda</td></tr></tbody></table>"
        )
        parsed = parse_result_page(page)
        assert parsed.top_k == 12
        assert parsed.overflow is True
        assert [(row.tuple_id, row.values["make"]) for row in parsed.rows] == [
            (4, "Toyota"),
            (5, "Honda"),
        ]

    def test_comments_are_skipped(self):
        page = (
            ROW_HEAD
            + "<!-- <tr data-tuple-id=\"99\"><td>99</td></tr> -->"
            + '<tr data-tuple-id="1"><td>1</td><td>Hon<!-- x -->da</td><td>true</td></tr>'
            + "</tbody></table><!-- unterminated"
        )
        parsed = parse_result_page(page)
        assert [(row.tuple_id, row.values) for row in parsed.rows] == [
            (1, {"make": "Honda", "used": "true"})
        ]

    def test_nested_tags_inside_cells_are_stripped(self):
        page = (
            ROW_HEAD
            + '<tr data-tuple-id="1"><td>1</td><td> <span class="m"><b>Toy</b>ota</span> </td>'
            + "<td><i>false</i></td></tr></tbody></table>"
        )
        (row,) = parse_result_page(page).rows
        assert row.values == {"make": "Toyota", "used": "false"}

    def test_entity_references_are_decoded(self):
        page = (
            '<table class="hd-results"><thead><tr><th>id</th><th>a &amp; b</th></tr></thead>'
            '<tbody><tr data-tuple-id="&#50;"><td>2</td>'
            "<td>&lt;R&amp;D&gt; &quot;x&quot; &#39;y&#39; caf&eacute; &#x65E5;</td></tr>"
            "</tbody></table>"
        )
        (row,) = parse_result_page(page).rows
        assert row.tuple_id == 2
        assert row.values == {"a & b": "<R&D> \"x\" 'y' café 日"}

    def test_lt_and_gt_inside_quoted_attribute_values(self):
        page = (
            ROW_HEAD
            + '<tr data-tuple-id="5" title="a<b"><td>5</td><td>Honda</td><td>true</td></tr>'
            + "<tr data-tuple-id='6' title='<i>x</i>'><td>6</td><td>Kia</td><td>false</td></tr>"
            + "</tbody></table>"
        )
        parsed = parse_result_page(page)
        assert [(row.tuple_id, row.values) for row in parsed.rows] == [
            (5, {"make": "Honda", "used": "true"}),
            (6, {"make": "Kia", "used": "false"}),
        ]

    def test_only_rows_closed_by_their_end_tag_are_read(self):
        # As with html.parser callbacks: a <tr> replaces a row left open, and
        # a row still open at the end of the table is dropped.
        page = (
            ROW_HEAD
            + '<tr data-tuple-id="1"><td>1</td><td>Honda</td><td>true</td>'
            + '<tr data-tuple-id="2"><td>2</td><td>Kia</td><td>false</td></tr>'
            + '<tr data-tuple-id="3"><td>3</td><td>Ford</td><td>true</td>'
            + "</tbody></table>"
        )
        parsed = parse_result_page(page)
        assert [(row.tuple_id, row.values) for row in parsed.rows] == [
            (2, {"make": "Kia", "used": "false"})
        ]

    def test_rows_outside_the_results_table_are_ignored(self):
        page = (
            '<table class="layout"><tbody><tr data-tuple-id="x"><td>nav</td></tr></tbody></table>'
            + ROW_HEAD
            + '<tr data-tuple-id="1"><td>1</td><td>Honda</td><td>true</td></tr></tbody></table>'
        )
        assert [row.tuple_id for row in parse_result_page(page).rows] == [1]


def _general_path(page, variant):
    """``page`` with every ``<td>`` rewritten so that no row is plain."""
    if variant == "upper":
        return page.replace("<td>", "<TD>").replace("</td>", "</TD>")
    return page.replace("<td>", "<td class=x>")


class TestPlainRowsMatchTheGeneralPath:
    """A plain row is read in one step; the tag-by-tag path must agree."""

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 10**9),
                st.fixed_dictionaries(
                    {"make": cell_value, "used": cell_value},
                    optional={"a&b <c>": cell_value},
                ),
            ),
            max_size=6,
        ),
        overflow=st.booleans(),
        variant=st.sampled_from(["upper", "attribute"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_rendered_pages(self, rows, overflow, variant):
        page = _page(rows, overflow, reported_count=len(rows))
        assert parse_result_page(page) == parse_result_page(_general_path(page, variant))

    def test_mixed_page(self):
        page = (
            ROW_HEAD
            + '<tr data-tuple-id="1"><td>1</td><td> Honda\n</td> <td>true</td>\n</tr>'
            + '<tr data-tuple-id="2"><td>2</td><td>R&amp;D</td><td>false</td></tr>'
            + '<tr data-tuple-id="3"><td>3</td><td><b>Kia</b></td><td>true</td></tr>'
            # An unclosed cell: the row keeps the cells closed before </tr>.
            + '<tr data-tuple-id="4"><td>4</td><td>Ford</td><td>tr</tr>'
            + '<tr data-tuple-id="5"><td>5</td><td>Fiat</td><td>false</td></tr>'
            # A stray </td>: no cell is open any more, so nothing is read.
            + '<tr data-tuple-id="6"></td><td>6</td><td>Audi</td><td>true</td></tr>'
            + "</tbody></table>"
        )
        parsed = parse_result_page(page)
        assert [(row.tuple_id, row.values) for row in parsed.rows] == [
            (1, {"make": "Honda", "used": "true"}),
            (2, {"make": "R&D", "used": "false"}),
            (3, {"make": "Kia", "used": "true"}),
            (4, {"make": "Ford"}),
            (5, {"make": "Fiat", "used": "false"}),
            (6, {"make": "Audi", "used": "true"}),
        ]
        for variant in ("upper", "attribute"):
            assert parse_result_page(_general_path(page, variant)) == parsed

    def test_an_empty_row_leaves_an_open_cell_open(self):
        # A row without cells closes no cell, so a cell left open before it
        # is still open at the next ``</td>``, on either path.
        page = (
            ROW_HEAD
            + '<tr data-tuple-id="1"><td>1</td><td>Ford</td><td>tr</tr>'
            + '<tr data-tuple-id="2"></tr>'
            + '<tr data-tuple-id="3"></td><td>3</td><td>Audi</td><td>true</td></tr>'
            + "</tbody></table>"
        )
        parsed = parse_result_page(page)
        assert parsed.rows[1].values == {}
        assert parsed.rows[2].values == {"make": "3", "used": "Audi"}
        for variant in ("upper", "attribute"):
            assert parse_result_page(_general_path(page, variant)) == parsed

    def test_rows_that_are_not_plain(self):
        # Each of these leaves the row to the tag-by-tag path.
        for row in (
            '<td>1</td><td>Kia</td><td>true</td></tr >',
            '<td>1</td>x<td>Kia</td><td>true</td></tr>',
            '<td>1</td><td>Kia<!-- c --></td><td>true</td></tr>',
            '<td >1</td><td>Kia</td><td>true</td></tr>',
        ):
            (parsed,) = parse_result_page(ROW_HEAD + '<tr data-tuple-id="1">' + row).rows
            assert parsed.values == {"make": "Kia", "used": "true"}
        (empty,) = parse_result_page(ROW_HEAD + '<tr data-tuple-id="1"></tr>').rows
        assert empty.values == {}


class TestErrors:
    @pytest.mark.parametrize("tuple_id", ["abc", "", "1.5"])
    def test_non_integer_tuple_id(self, tuple_id):
        page = ROW_HEAD + f'<tr data-tuple-id="{tuple_id}"><td>1</td></tr></tbody></table>'
        with pytest.raises(FormParseError, match="non-integer tuple id"):
            parse_result_page(page)

    def test_missing_tuple_id(self):
        page = ROW_HEAD + "<tr><td>1</td></tr></tbody></table>"
        with pytest.raises(FormParseError, match="non-integer tuple id: ''"):
            parse_result_page(page)

    @pytest.mark.parametrize(
        "page",
        [
            "<html><body><p>hello</p></body></html>",
            "",
            "not html at all",
            '<table class="other"><thead><tr><th>id</th></tr></thead></table>',
        ],
    )
    def test_page_that_is_not_a_result_page(self, page):
        with pytest.raises(FormParseError, match="does not look like a result page"):
            parse_result_page(page)


class TestCountNotice:
    def test_the_value_span_wins_over_other_digits(self):
        page = (
            '<p class="hd-count">Page 2: about <span class="hd-count-value">1,234</span>'
            " results</p>"
        )
        assert parse_result_page(page).reported_count == 1234

    def test_without_a_span_the_first_integer_is_read(self):
        # Concatenating every digit of this notice would read 12342.
        page = '<p class="hd-count">About 1,234 results, page 2</p>'
        assert parse_result_page(page).reported_count == 1234

    def test_thousands_separators_in_the_first_integer(self):
        page = '<p class="hd-count">About 1,234,567 results on 3 pages</p>'
        assert parse_result_page(page).reported_count == 1234567
        page = '<p class="hd-count">About 12&nbsp;345 results</p>'
        assert parse_result_page(page).reported_count == 12345

    def test_a_notice_without_a_number_reports_none(self):
        page = '<p class="hd-count">Many results</p><p class="hd-empty">none</p>'
        assert parse_result_page(page).reported_count is None

    def test_rendered_notice(self):
        page = _page([(1, {"make": "Honda", "used": True})], reported_count=1_234_567)
        assert parse_result_page(page).reported_count == 1_234_567


class TestScale:
    def test_fifty_thousand_unclosed_rows_parse_in_one_pass(self):
        # A scanner with lazy spans across rows is quadratic here and takes
        # minutes; the linear one finishes promptly.
        page = ROW_HEAD + "".join(
            f'<tr data-tuple-id="{i}"><td>{i}</td><td>m{i}</td>' for i in range(50_000)
        )
        assert parse_result_page(page).columns == ("id", "make", "used")

    def test_fifty_thousand_plain_cells_in_an_unclosed_row(self):
        page = ROW_HEAD + "<tr data-tuple-id=1>" + "<td>x</td>" * 50_000
        assert parse_result_page(page).rows == ()

    def test_fifty_thousand_unclosed_rows_of_plain_cells(self):
        # Each plain-row attempt stops at the next ``<tr``, so no cell is
        # read by more than one attempt.
        page = ROW_HEAD + '<tr data-tuple-id="1"><td>x</td>' * 50_000
        assert parse_result_page(page).rows == ()

    def test_fifty_thousand_unclosed_tags_and_quotes(self):
        for filler in ("<tr ", '<td title="', "<td title='<\"", "<!--", "<"):
            parse_result_page(ROW_HEAD + filler * 50_000 + "</tbody></table>")
