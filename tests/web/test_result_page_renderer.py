"""The result-page renderer writes exactly the bytes of the per-cell reference renderer."""

from html import escape
from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database.interface import ReturnedTuple, WireTuples, positional_rows
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Attribute, Domain, Schema
from repro.web.html import (
    COUNT_CLASS,
    COUNT_VALUE_CLASS,
    EMPTY_CLASS,
    OVERFLOW_NOTICE_CLASS,
    RESULT_TABLE_CLASS,
    format_value,
    render_result_page,
)


def reference_render_result_page(
    schema: Schema,
    query: ConjunctiveQuery,
    tuples: Sequence[ReturnedTuple],
    overflow: bool,
    reported_count: int | None,
    k: int,
    display_columns: Sequence[str] = (),
) -> str:
    """One line and one ``escape`` per cell: the renderer's specification."""
    columns: list[str] = list(schema.attribute_names)
    for column in display_columns:
        if column not in columns:
            columns.append(column)
    lines = [
        "<!DOCTYPE html>",
        "<html>",
        "<head>",
        f"<title>Results: {escape(schema.name)}</title>",
        f'<meta name="hd-top-k" content="{int(k)}">',
        "</head>",
        "<body>",
        f'<p class="hd-query">{escape(str(query))}</p>',
    ]
    if reported_count is not None:
        lines.append(
            f'<p class="{COUNT_CLASS}">About <span class="{COUNT_VALUE_CLASS}">{int(reported_count)}</span> results</p>'
        )
    if overflow:
        lines.append(
            f'<p class="{OVERFLOW_NOTICE_CLASS}">Showing the top {int(k)} results; '
            "refine your search to see more.</p>"
        )
    if not tuples:
        lines.append(f'<p class="{EMPTY_CLASS}">No results matched your search.</p>')
    else:
        lines.append(f'<table class="{RESULT_TABLE_CLASS}">')
        lines.append("<thead><tr>")
        lines.append('<th data-column="__id__">id</th>')
        for column in columns:
            lines.append(f'<th data-column="{escape(column, quote=True)}">{escape(column)}</th>')
        lines.append("</tr></thead>")
        lines.append("<tbody>")
        for returned in tuples:
            lines.append(f'<tr data-tuple-id="{int(returned.tuple_id)}">')
            lines.append(f"<td>{int(returned.tuple_id)}</td>")
            for column in columns:
                value = returned.values.get(column, "")
                lines.append(f"<td>{escape(format_value(value))}</td>")
            lines.append("</tr>")
        lines.append("</tbody>")
        lines.append("</table>")
    lines.extend(["</body>", "</html>"])
    return "\n".join(lines)


class Label(str):
    """A ``str`` subclass that displays the same text."""


class Shouting(str):
    """A ``str`` subclass whose ``str()`` differs from its own text."""

    def __str__(self) -> str:
        return self.upper() + " & <co>"


SCHEMA = Schema(
    [
        Attribute("make", Domain.categorical(("Toyota", "Honda"))),
        Attribute("used", Domain.boolean()),
        Attribute("price", Domain.numeric_buckets((0.0, 10.0, 20.0))),
    ],
    name="render & <check>",
)
#: A display column repeating a schema name (rendered once), one with markup
#: in its name, one no tuple fills, and one named by a ``str`` subclass.
DISPLAY_COLUMNS = ("used", "a&b <c>", "blank", Shouting("loud"))
COLUMNS = ("make", "used", "price", "a&b <c>", "blank", "loud")

text = st.text(
    alphabet=st.one_of(
        st.sampled_from("<>&\"' \t\n"),
        st.sampled_from("éß日本€ "),
        st.characters(min_codepoint=32, max_codepoint=0x2FFF),
    ),
    max_size=10,
)
value = st.one_of(
    text,
    text.map(Label),
    text.map(Shouting),
    st.booleans(),
    st.integers(-(10**12), 10**12),
    st.integers(-(10**6), 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
values = st.dictionaries(st.sampled_from(COLUMNS + ("unlisted",)), value, max_size=len(COLUMNS))
tuples = st.lists(
    st.builds(
        ReturnedTuple,
        tuple_id=st.one_of(st.integers(0, 10**12), st.booleans()),
        values=values,
        selectable_values=st.just({}),
    ),
    max_size=6,
)


def _both(schema, query, returned, *rest):
    """The reference page and the rendered one, checking first that the same
    rows held as a positional (lazy) answer render the same page."""
    reference = reference_render_result_page(
        schema, query, returned, *rest, display_columns=DISPLAY_COLUMNS
    )
    lazy = WireTuples(*positional_rows(returned))
    assert render_result_page(schema, query, lazy, *rest, display_columns=DISPLAY_COLUMNS) == reference
    return reference, render_result_page(schema, query, returned, *rest, display_columns=DISPLAY_COLUMNS)


#: A positional answer: a header (which may repeat or lack a page column)
#: and rows listing their values in header order, or keyed by column.
positional_answers = st.lists(st.sampled_from(COLUMNS + ("unlisted",)), max_size=8).flatmap(
    lambda header: st.tuples(
        st.just(header),
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 10**12), st.booleans()),
                st.one_of(st.lists(value, min_size=len(header), max_size=len(header)), values),
            ),
            max_size=6,
        ),
    )
)


class TestByteIdentity:
    @given(
        returned=tuples,
        overflow=st.booleans(),
        reported_count=st.one_of(st.none(), st.integers(0, 10**12)),
        k=st.integers(1, 500),
    )
    @settings(max_examples=300, deadline=None)
    def test_pages_equal_the_reference(self, returned, overflow, reported_count, k):
        query = ConjunctiveQuery.from_assignment(SCHEMA, {"make": "Honda"})
        reference, rendered = _both(SCHEMA, query, returned, overflow, reported_count, k)
        assert rendered == reference

    @given(answer=positional_answers, overflow=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_positional_answers_equal_the_reference_over_their_tuples(self, answer, overflow):
        header, drawn = answer
        lazy = WireTuples(header, [], [[tuple_id, part, []] for tuple_id, part in drawn])
        query = ConjunctiveQuery.empty(SCHEMA)
        args = (overflow, None, 5)
        assert render_result_page(
            SCHEMA, query, lazy, *args, display_columns=DISPLAY_COLUMNS
        ) == reference_render_result_page(
            SCHEMA, query, tuple(lazy), *args, display_columns=DISPLAY_COLUMNS
        )

    def test_empty_result(self):
        reference, rendered = _both(SCHEMA, ConjunctiveQuery.empty(SCHEMA), (), False, 0, 5)
        assert rendered == reference
        assert "hd-empty" in rendered

    def test_missing_columns_render_as_empty_cells(self):
        returned = [ReturnedTuple(tuple_id=7, values={}, selectable_values={})]
        reference, rendered = _both(SCHEMA, ConjunctiveQuery.empty(SCHEMA), returned, True, None, 1)
        assert rendered == reference
        assert '<tr data-tuple-id="7">\n<td>7</td>\n' + "<td></td>\n" * 6 + "</tr>" in rendered

    def test_special_characters_and_subclasses(self):
        returned = [
            ReturnedTuple(
                tuple_id=1,
                values={
                    "make": "R&D <\"x\"> 'y'",
                    "used": Shouting("kia"),
                    "price": 2.0,
                    "a&b <c>": Label("<b>"),
                    "blank": 12.5,
                },
                selectable_values={},
            )
        ]
        reference, rendered = _both(SCHEMA, ConjunctiveQuery.empty(SCHEMA), returned, False, 3, 5)
        assert rendered == reference
        assert "<td>R&amp;D &lt;&quot;x&quot;&gt; &#x27;y&#x27;</td>" in rendered
        assert "<td>KIA &amp; &lt;co&gt;</td>" in rendered
        assert "<td>2</td>" in rendered
