"""HTML rendering of the hidden web site's pages.

Two page kinds exist, matching what a scraper sees on a real conjunctive
web form site:

* the **form page** — a ``<form>`` with one ``<select>`` per searchable
  attribute (the "any" option means no predicate on that attribute), plus
  metadata about the top-``k`` limit;
* the **result page** — a table of the displayed tuples, an overflow notice
  when not all matches are shown, and optionally an (approximate) match count.

The markup is deliberately plain but *real* HTML: the client parses it back
(:mod:`repro.web.form_parser`), so the round-trip exercises the same parsing
problems a ``requests`` + ``BeautifulSoup`` scraper faces (escaping,
attribute quoting, optional elements).
"""

from __future__ import annotations

import re
from html import escape
from itertools import repeat
from operator import itemgetter
from typing import Callable, Sequence

from repro.database.interface import ReturnedTuple, positional_rows
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Schema, Value

#: CSS class names used as parsing anchors, mirroring how scrapers key off
#: site-specific markup.
RESULT_TABLE_CLASS = "hd-results"
OVERFLOW_NOTICE_CLASS = "hd-overflow"
COUNT_CLASS = "hd-count"
COUNT_VALUE_CLASS = "hd-count-value"
EMPTY_CLASS = "hd-empty"
ANY_VALUE = ""  # the <option value=""> meaning "any"
#: The characters :func:`html.escape` rewrites; text without them renders as is.
_HTML_SPECIAL = re.compile("[&<>\"']")


def format_value(value: Value) -> str:
    """Display text of a value: on result-page cells and form-page options alike.

    Booleans read ``true``/``false`` and integral floats drop their ``.0``,
    so a scraper can map a displayed cell straight back onto the option it
    would select.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


def _cell_text(value: Value) -> str:
    """The escaped display text of one result-table cell."""
    text = value if type(value) is str else format_value(value)
    return escape(text) if _HTML_SPECIAL.search(text) else text


def _page_order(header: Sequence[str], columns: list[str]) -> Callable[[Sequence[Value]], Sequence[Value]]:
    """Reads a row part listed in ``header`` order in page-column order.

    A column the header lacks reads ``""``; one the header repeats reads its
    last position, as the tuple built from the row would.
    """
    where = {name: index for index, name in enumerate(header)}
    indices = [where.get(column) for column in columns]
    if indices == list(range(len(header))):
        return lambda part: part
    if None in indices or len(indices) == 1:  # an itemgetter of one index returns a bare value
        return lambda part: ["" if index is None else part[index] for index in indices]
    return itemgetter(*indices)


def render_form_page(schema: Schema, action: str = "/results", k: int | None = None, title: str | None = None) -> str:
    """Render the search form page for ``schema``.

    Each searchable attribute becomes a ``<select>`` whose first option is the
    empty "any" choice; the remaining options enumerate the attribute's domain
    in order.  The top-``k`` limit, when given, is advertised in a meta tag so
    a client can configure itself from the page alone.
    """
    page_title = escape(title or f"Search {schema.name}")
    lines = [
        "<!DOCTYPE html>",
        "<html>",
        "<head>",
        f"<title>{page_title}</title>",
    ]
    if k is not None:
        lines.append(f'<meta name="hd-top-k" content="{int(k)}">')
    lines.append(f'<meta name="hd-schema" content="{escape(schema.name)}">')
    lines.extend(["</head>", "<body>", f"<h1>{page_title}</h1>"])
    lines.append(f'<form method="get" action="{escape(action, quote=True)}" id="search-form">')
    for attribute in schema:
        field_id = f"field-{attribute.name}"
        lines.append(f'<label for="{escape(field_id, quote=True)}">{escape(attribute.name)}</label>')
        lines.append(
            f'<select name="{escape(attribute.name, quote=True)}" id="{escape(field_id, quote=True)}">'
        )
        lines.append(f'<option value="{ANY_VALUE}">any</option>')
        for value in attribute.domain.values:
            text = format_value(value)
            lines.append(f'<option value="{escape(text, quote=True)}">{escape(text)}</option>')
        lines.append("</select>")
    lines.append('<input type="submit" name="submit" value="Search">')
    lines.append("</form>")
    lines.extend(["</body>", "</html>"])
    return "\n".join(lines)


def render_result_page(
    schema: Schema,
    query: ConjunctiveQuery,
    tuples: Sequence[ReturnedTuple],
    overflow: bool,
    reported_count: int | None,
    k: int,
    display_columns: Sequence[str] = (),
) -> str:
    """Render the result page for one submitted query.

    The page contains, in order: the echoed query, an optional count line, an
    overflow notice when the top-``k`` cut was applied (the paper's
    "interface will also notify the user that there is an overflow"), and a
    table with one row per displayed tuple.  An empty result renders an
    explicit "no results" marker rather than an empty table, as real sites do.

    The rows are read in positional form
    (:func:`~repro.database.interface.positional_rows`), so a lazy answer
    is rendered without building a tuple.  Each table row is built as one
    string, its cells joined with one ``str.join``.  A cell goes through
    :func:`format_value` only when its value is not exactly a ``str``, and
    through :func:`html.escape` only when its text holds one of ``&<>"'``;
    the page is byte for byte what one line and one ``escape`` per cell of
    each tuple would write.
    """
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
        special = _HTML_SPECIAL.search
        lines.append(f'<table class="{RESULT_TABLE_CLASS}">')
        lines.append("<thead><tr>")
        lines.append('<th data-column="__id__">id</th>')
        for column in columns:
            name = column if type(column) is str and not special(column) else escape(column)
            lines.append(f'<th data-column="{name}">{name}</th>')
        lines.append("</tr></thead>")
        lines.append("<tbody>")
        header, _, rows = positional_rows(tuples)
        in_page_order = _page_order(header, columns)
        blanks = repeat("")
        for tuple_id, values, _ in rows:
            tuple_id = int(tuple_id)
            cells = [
                value if type(value) is str and not special(value) else _cell_text(value)
                for value in (
                    map(values.get, columns, blanks)
                    if type(values) is dict
                    else in_page_order(values)
                )
            ]
            # The schema has at least one attribute, so ``cells`` is never empty.
            lines.append(
                f'<tr data-tuple-id="{tuple_id}">\n<td>{tuple_id}</td>\n<td>'
                + "</td>\n<td>".join(cells)
                + "</td>\n</tr>"
            )
        lines.append("</tbody>")
        lines.append("</table>")
    lines.extend(["</body>", "</html>"])
    return "\n".join(lines)
