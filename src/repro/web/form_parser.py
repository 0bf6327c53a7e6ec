"""Parsing the hidden web site's HTML pages back into structured data.

This is the scraper half of the web path, standard library only (the
environment has no network and no BeautifulSoup), facing the same parsing
problems: discover the form and its fields, read drop-down options, find
the result table, detect the overflow notice and the approximate count.

* **Form pages** are read once per client, by an
  :class:`html.parser.HTMLParser` subclass.
* **Result pages** are read once per submitted query, so they get a
  dedicated single-pass scanner (:func:`parse_result_page`): one compiled
  tag regex walks the page, and the text of each cell, header and count
  notice is sliced out between its tags, with nested tags and comments
  dropped and entity references decoded only when a ``&`` appears.  The
  scanner keys off the same class anchors the renderer writes
  (:mod:`repro.web.html`), lower-cases tag and attribute names, accepts
  double-, single- and un-quoted attributes (a ``<`` or ``>`` inside quotes
  included), and reads a cell, header or row only once its own end tag
  closes it, as :mod:`html.parser` callbacks did.

  Most rows are *plain* — attribute-free lower-case ``<td>`` cells with no
  ``<`` or ``&`` in their text, as the renderer writes them — and those are
  read in one step: right after a result row's ``<tr>`` one more regex
  tries to match the rest of the row up to its ``</tr>``, the cells come
  out of one ``findall``, and the tag walk resumes after the ``</tr>`` in
  the state the tag-by-tag path would have left.  Any other row takes that
  general path, which is the only reader of attributes, upper-case tags,
  entities, nested tags, comments, unclosed cells and rows without cells.

  No regex here can backtrack.  A failed tag match ends at the first ``<``
  or ``>`` outside quotes, and a failed plain-row match at the first ``<``
  that opens none of ``<td>``, ``</td>`` and ``</tr>`` — never past the
  next ``<tr`` — so no two plain-row attempts read the same text.  The time
  a page takes grows linearly with its length, however malformed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from html import unescape
from html.parser import HTMLParser

from repro.exceptions import FormParseError
from repro.web.html import (
    COUNT_CLASS,
    COUNT_VALUE_CLASS,
    EMPTY_CLASS,
    OVERFLOW_NOTICE_CLASS,
    RESULT_TABLE_CLASS,
)


@dataclass(frozen=True)
class FormField:
    """One ``<select>`` field of the search form."""

    name: str
    options: tuple[str, ...]
    label: str = ""

    @property
    def selectable_options(self) -> tuple[str, ...]:
        """Options excluding the empty "any" choice."""
        return tuple(option for option in self.options if option != "")


@dataclass(frozen=True)
class FormDescription:
    """Everything a client learns from the form page."""

    action: str
    method: str
    fields: tuple[FormField, ...]
    top_k: int | None
    schema_name: str | None

    def field(self, name: str) -> FormField:
        """Return the field called ``name`` or raise :class:`FormParseError`."""
        for candidate in self.fields:
            if candidate.name == name:
                return candidate
        raise FormParseError(f"form has no field named {name!r}")

    @property
    def field_names(self) -> tuple[str, ...]:
        """Names of all form fields, in page order."""
        return tuple(f.name for f in self.fields)


@dataclass(frozen=True)
class ParsedResultRow:
    """One row of the result table, as text values keyed by column name."""

    tuple_id: int
    values: dict[str, str]


@dataclass(frozen=True)
class ParsedResultPage:
    """Structured view of a result page."""

    rows: tuple[ParsedResultRow, ...]
    overflow: bool
    reported_count: int | None
    empty: bool
    columns: tuple[str, ...]
    top_k: int | None


class _FormPageParser(HTMLParser):
    """Stateful HTML parser extracting the search form description."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.action: str | None = None
        self.method: str = "get"
        self.top_k: int | None = None
        self.schema_name: str | None = None
        self.fields: list[FormField] = []
        self._labels: dict[str, str] = {}
        self._current_label_for: str | None = None
        self._current_label_text: list[str] = []
        self._in_form = False
        self._current_select: str | None = None
        self._current_select_id: str | None = None
        self._current_options: list[str] = []
        self._select_ids: dict[str, str] = {}

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        attributes = {key: (value or "") for key, value in attrs}
        if tag == "meta":
            if attributes.get("name") == "hd-top-k":
                try:
                    self.top_k = int(attributes.get("content", ""))
                except ValueError:
                    self.top_k = None
            elif attributes.get("name") == "hd-schema":
                self.schema_name = attributes.get("content") or None
        elif tag == "form":
            self._in_form = True
            self.action = attributes.get("action", "")
            self.method = (attributes.get("method") or "get").lower()
        elif tag == "label":
            self._current_label_for = attributes.get("for")
            self._current_label_text = []
        elif tag == "select" and self._in_form:
            name = attributes.get("name")
            if not name:
                raise FormParseError("form contains a <select> without a name attribute")
            self._current_select = name
            self._current_select_id = attributes.get("id")
            self._current_options = []
        elif tag == "option" and self._current_select is not None:
            self._current_options.append(attributes.get("value", ""))

    def handle_data(self, data: str) -> None:
        if self._current_label_for is not None:
            self._current_label_text.append(data)

    def handle_endtag(self, tag: str) -> None:
        if tag == "label" and self._current_label_for is not None:
            self._labels[self._current_label_for] = "".join(self._current_label_text).strip()
            self._current_label_for = None
            self._current_label_text = []
        elif tag == "select" and self._current_select is not None:
            label = ""
            if self._current_select_id is not None:
                label = self._labels.get(self._current_select_id, "")
            self.fields.append(
                FormField(name=self._current_select, options=tuple(self._current_options), label=label)
            )
            self._current_select = None
            self._current_select_id = None
            self._current_options = []
        elif tag == "form":
            self._in_form = False


#: A comment (an unterminated one runs to the end of the page) or a start/end
#: tag with its raw attribute text.  The quantifiers are possessive, so no
#: match backtracks.  A failed match ends at the first ``<`` or ``>`` outside
#: quotes, and a quote character toggles a scan between three states (outside,
#: in ``"``, in ``'``) as a permutation, so two scans never share a state: at
#: most three failed scans are alive at any point of the page, and a pass over
#: it is linear in its length.
_MARKUP = re.compile(
    r"<!--.*?(?:-->|\Z)"
    r"|<(/?)([A-Za-z][^\s/<>\"']*+)((?:[^<>\"']++|\"[^\"]*+\"|'[^']*+')*+)>",
    re.DOTALL,
)
#: The rest of a *plain* result row, from the end of its ``<tr>`` tag: one or
#: more attribute-free lower-case ``<td>`` cells whose text holds no ``<`` and
#: no ``&``, optional whitespace between them, then ``</tr>``.  At least one
#: cell, because a row without cells must leave a cell opened before it open,
#: as the tag-by-tag path does.  Possessive throughout, so a failed match
#: never backtracks; it stops at the first ``<`` that opens none of ``<td>``,
#: ``</td>`` and ``</tr>``, and so never reads past the next ``<tr``.
_PLAIN_ROW = re.compile(r"(?:\s*+<td>[^<&]*+</td>)++\s*+</tr>")
#: The text of each cell inside a matched plain row.
_PLAIN_CELL = re.compile(r"<td>([^<&]*)</td>")
#: ``name``, ``name=value``, ``name="value"`` or ``name='value'``.
_ATTRIBUTE = re.compile(
    r"""([^\s"'<>/=]+)(?:\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s"'<>=`]+)))?"""
)
#: The first integer of a count notice; thousands may be grouped by commas
#: or (narrow) no-break spaces.
_INTEGER = re.compile("[0-9]{1,3}(?:[,\u00a0\u202f][0-9]{3})+(?![0-9])|[0-9]+")
_SEPARATORS = re.compile("[,\u00a0\u202f]")


def _attributes(text: str) -> dict[str, str]:
    """Attribute text of a tag as a dict: names lower-cased, values unescaped."""
    attributes: dict[str, str] = {}
    for match in _ATTRIBUTE.finditer(text):
        name, double, single, bare = match.groups()
        value = double if double is not None else single if single is not None else bare or ""
        attributes[name.lower()] = unescape(value) if "&" in value else value
    return attributes


def _text(page: str, start: int, end: int) -> str:
    """The displayed text of ``page[start:end]``: tags and comments dropped,
    entity references decoded, surrounding whitespace stripped."""
    text = page[start:end]
    if "<" in text:
        text = _MARKUP.sub("", text)
    if "&" in text:
        text = unescape(text)
    return text.strip()


def _extract_count(text: str) -> int | None:
    """The first integer of a count notice (``About 1,234 results`` → 1234)."""
    match = _INTEGER.search(text)
    if match is None:
        return None
    return int(_SEPARATORS.sub("", match.group()))


def parse_form_page(html_text: str) -> FormDescription:
    """Parse a form page into a :class:`FormDescription`.

    Raises :class:`~repro.exceptions.FormParseError` when the page contains no
    form or the form has no fields — a scraper pointed at the wrong URL.
    """
    parser = _FormPageParser()
    parser.feed(html_text)
    parser.close()
    if parser.action is None:
        raise FormParseError("page contains no <form>")
    if not parser.fields:
        raise FormParseError("search form has no <select> fields")
    return FormDescription(
        action=parser.action,
        method=parser.method,
        fields=tuple(parser.fields),
        top_k=parser.top_k,
        schema_name=parser.schema_name,
    )


def parse_result_page(html_text: str) -> ParsedResultPage:
    """Parse a result page into rows, overflow flag and reported count.

    One pass over the page's tags; the text of a cell, header or count
    notice is sliced out of the page between its start and end tags, and a
    plain row is read whole.  A row is kept when its ``</tr>`` is read, and
    a ``<tr>`` replaces a row left open.  The reported count is the
    ``hd-count-value`` span of the notice when there is one, else the
    notice's first integer.

    Raises :class:`~repro.exceptions.FormParseError` on a row whose
    ``data-tuple-id`` is not an integer, and on a page with no result
    table, no empty marker, no overflow notice and no count.
    """
    page = html_text
    overflow = empty = False
    top_k: int | None = None
    columns: list[str] = []
    rows: list[ParsedResultRow] = []
    in_table = in_head = in_body = False
    row_id: int | None = None
    cells: list[str] = []
    # Where the text of the open cell/header/notice/value span starts; -1 when none is open.
    cell = header = notice = value = -1
    notice_text: str | None = None
    value_text: str | None = None
    search = _MARKUP.search
    position = 0
    while (token := search(page, position)) is not None:
        position = token.end()
        closing, name, attributes = token.groups()
        if name is None:  # a comment
            continue
        tag = name.lower()
        if closing:
            if tag == "td":
                if cell >= 0:
                    cells.append(_text(page, cell, token.start()))
                    cell = -1
            elif tag == "tr":
                if row_id is not None and in_body:
                    rows.append(ParsedResultRow(row_id, dict(zip(columns[1:], cells[1:]))))
                    row_id = None
            elif tag == "th":
                if header >= 0:
                    columns.append(_text(page, header, token.start()))
                    header = -1
            elif tag == "thead":
                in_head = False
            elif tag == "tbody":
                in_body = False
            elif tag == "table":
                in_table = in_head = in_body = False
            elif tag == "span":
                if value >= 0:
                    value_text = _text(page, value, token.start())
                    value = -1
            elif tag == "p":
                if notice >= 0:
                    notice_text = _text(page, notice, token.start())
                    notice = value = -1
            continue
        if tag == "td":
            if in_body:
                cell = token.end()
        elif tag == "tr":
            if in_body:
                row_id_text = _attributes(attributes).get("data-tuple-id", "")
                try:
                    row_id = int(row_id_text)
                except ValueError:
                    raise FormParseError(
                        f"result row has a non-integer tuple id: {row_id_text!r}"
                    ) from None
                cells = []
                plain = _PLAIN_ROW.match(page, position)
                if plain is not None:
                    # What the tag-by-tag path leaves after this row's last
                    # ``</td>`` and its ``</tr>``, read in one step.
                    cells = [text.strip() for text in _PLAIN_CELL.findall(page, position, plain.end())]
                    rows.append(ParsedResultRow(row_id, dict(zip(columns[1:], cells[1:]))))
                    row_id, cell, position = None, -1, plain.end()
        elif tag == "th":
            if in_head:
                header = token.end()
        elif tag == "p":
            classes = _attributes(attributes).get("class", "").split()
            overflow = overflow or OVERFLOW_NOTICE_CLASS in classes
            empty = empty or EMPTY_CLASS in classes
            if COUNT_CLASS in classes:
                notice, value_text = token.end(), None
        elif tag == "span":
            if notice >= 0 and COUNT_VALUE_CLASS in _attributes(attributes).get("class", "").split():
                value = token.end()
        elif tag == "meta":
            meta = _attributes(attributes)
            if meta.get("name") == "hd-top-k":
                try:
                    top_k = int(meta.get("content", ""))
                except ValueError:
                    top_k = None
        elif tag == "table":
            if RESULT_TABLE_CLASS in _attributes(attributes).get("class", "").split():
                in_table = True
        elif tag == "thead":
            in_head = in_table
        elif tag == "tbody":
            in_body = in_table
    reported_count = None
    if value_text is not None:
        reported_count = _extract_count(value_text)
    elif notice_text is not None:
        reported_count = _extract_count(notice_text)
    if not empty and not rows and not overflow and reported_count is None and not columns:
        # A page with neither a results table nor an explicit empty marker is
        # not a result page at all; refuse to guess.
        raise FormParseError("page does not look like a result page")
    return ParsedResultPage(
        rows=tuple(rows),
        overflow=overflow,
        reported_count=reported_count,
        empty=empty or not rows,
        columns=tuple(columns),
        top_k=top_k,
    )
