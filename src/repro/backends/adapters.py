"""Raw-backend adapters: the two concrete access paths of the reproduction.

* :class:`QueryEngineBackend` — the direct in-process path: evaluate the
  query on a :class:`~repro.database.engine.QueryEngine` and render the
  result rows as :class:`~repro.database.interface.ReturnedTuple`\\ s, each
  built on first read (:class:`LazyTuples`).
* :class:`WebPageBackend` — the scraping path: encode the query as a form
  submission against a :class:`~repro.web.server.HiddenWebSite`, fetch the
  result page and parse the listed tuples back out of the HTML.

Both adapters answer the bare conjunctive-query contract and nothing else:
no budget, no statistics, no caching — those are layers
(:mod:`repro.backends.layers`, :mod:`repro.backends.history`).  What count
the client sees is decided where the answer is built: the engine adapter
(and the shard router) shape their exact total through a
:class:`CountPolicy` — exact unless told otherwise — while the web adapter
reports whatever count the page displays, because on the scraping path
count shaping already happened server-side.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from repro._rng import resolve_rng
from repro.database.engine import QueryEngine, QueryResult
from repro.database.interface import (
    CountMode,
    InterfaceResponse,
    LazyTupleSequence,
    ReturnedTuple,
    Rows,
)
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import RankingFunction
from repro.database.schema import Attribute, AttributeKind, Schema, Value
from repro.database.table import Row, Table
from repro.exceptions import DomainValueError, FormParseError, InterfaceError, WebFormError
from repro.web.form_parser import FormDescription, ParsedResultRow, parse_form_page, parse_result_page
from repro.web.html import format_value
from repro.web.urlcodec import result_page_path

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.web.server import HiddenWebSite


def build_returned_tuples(
    table: Table, row_ids: Sequence[int], display_columns: Sequence[str] = ()
) -> "LazyTuples":
    """Render table rows the way a result page displays them, on first read.

    The returned :class:`LazyTuples` builds each tuple the first time it is
    read, so an overflowing answer whose tuples are only counted builds none.
    Domain errors stay eager: a row holding a value outside its attribute's
    domain (possible only on ``validate=False`` tables) raises here, exactly
    as :meth:`Table.selectable_row` and for the first such row listed.  Only
    on such tables are deferred row ids cut here rather than at first read.
    """
    unbinnable = table.index.unbinnable_rows
    if unbinnable and not unbinnable.isdisjoint(row_ids):
        rows = table.rows
        for row_id in row_ids:
            if row_id in unbinnable:
                table.selectable_row(rows[row_id])  # raises DomainValueError
    return LazyTuples(table, row_ids, display_columns)


class CountPolicy:
    """What the client may see of an answer's exact match count.

    ``NONE`` hides it, ``EXACT`` reports it, ``NOISY`` perturbs it uniformly
    within ``±noise`` relative error — the "some proprietary algorithm" of
    Google Base that the paper's system deliberately ignores.  The answer
    builders apply it to their exact total, so a ``NOISY`` policy draws once
    per non-empty answer, in answer order.  Concurrent answers share its one
    generator: safe, but the draws then follow thread scheduling.
    """

    __slots__ = ("mode", "noise", "_rng")

    def __init__(
        self,
        mode: CountMode = CountMode.EXACT,
        noise: float = 0.3,
        seed: int | random.Random | None = 0,
    ) -> None:
        if noise < 0:
            raise InterfaceError("count_noise must be non-negative")
        self.mode = mode
        self.noise = noise
        self._rng = resolve_rng(seed)

    def shape(self, true_count: int) -> int | None:
        """The count reported for an answer matching ``true_count`` rows."""
        if self.mode is CountMode.NONE:
            return None
        if self.mode is CountMode.EXACT:
            return true_count
        if true_count == 0:
            return 0
        spread = self.noise * true_count
        noisy = true_count + self._rng.uniform(-spread, spread)
        # Never round a non-empty result down to 0: count-leveraging samplers
        # treat a reported 0 as "provably empty" and would prune live subtrees.
        return max(1, int(round(noisy)))


def answer_response(
    table: Table,
    query: ConjunctiveQuery,
    total: int,
    reported_count: int | None,
    row_ids: Sequence[int],
    k: int,
    display_columns: Sequence[str] = (),
) -> InterfaceResponse:
    """The response listing ``row_ids`` for ``query`` matching ``total`` rows.

    The one response builder of the engine adapter and the shard backends:
    ``reported_count`` as the caller's :class:`CountPolicy` shaped it,
    overflow when ``total`` exceeds ``k``, tuples built on read.
    """
    return InterfaceResponse(
        query=query,
        tuples=build_returned_tuples(table, row_ids, display_columns),
        overflow=total > k,
        reported_count=reported_count,
        k=k,
    )


#: The table's rows and its ``(name, selectable column)`` pairs, the lookups a
#: :class:`LazyTuples` resolves once, at its first read.
_Lookups = tuple[tuple[Row, ...], tuple[tuple[str, Sequence[Value]], ...]]


class LazyTuples(LazyTupleSequence):
    """The returned tuples of one engine or shard answer, each built on first read.

    Holds the table, the listed row ids (best-ranked first, taken as given:
    a :class:`~repro.database.index.TopRowIds` stays uncut until a tuple is
    read) and the display columns; everything else — slots, slicing,
    equality, unhashability — is the
    :class:`~repro.database.interface.LazyTupleSequence` base.  The
    schema names and index columns are resolved once per response, at its
    first read (or :meth:`rows` call), and published with one attribute
    assignment, without a lock, like the slots.
    """

    __slots__ = ("_table", "_row_ids", "_display_columns", "_lookups")

    def __init__(
        self, table: Table, row_ids: Sequence[int], display_columns: Sequence[str]
    ) -> None:
        self._table = table
        self._row_ids = row_ids
        self._display_columns = tuple(display_columns)
        self._lookups: _Lookups | None = None
        super().__init__(len(row_ids))

    def rows(self) -> Rows:
        """The answer straight from the table rows and index columns.

        The header is the schema names, then the display columns.  A row
        lacking one of those display columns is built and lists its values
        as an object; an empty answer lists no header, as a tuple loop over
        no tuples would.
        """
        if not self._row_ids:
            return [], [], []
        table_rows, columns = self._lookups or self._resolve()
        names = [name for name, _ in columns]
        selectable = [column for _, column in columns]
        shown = frozenset(self._display_columns)
        header = names + list(self._display_columns)
        # An itemgetter of one key returns the bare value, not a 1-tuple.
        cells = itemgetter(*header) if len(header) > 1 else _one_cell(header[0])
        rows = []
        for position, row_id in enumerate(self._row_ids):
            row = table_rows[row_id]
            values = list(cells(row)) if row.keys() >= shown else dict(self[position].values)
            rows.append([row_id, values, [column[row_id] for column in selectable]])
        return header, names, rows

    def _resolve(self) -> _Lookups:
        table = self._table
        index = table.index
        names = table.schema.attribute_names
        lookups = self._lookups = (
            table.rows,
            tuple((name, index.selectable_column(name)) for name in names),
        )
        return lookups

    def _build(self, index: int) -> ReturnedTuple:
        rows, columns = self._lookups or self._resolve()
        row_id = self._row_ids[index]
        row = rows[row_id]
        values: dict[str, Value] = {name: row[name] for name, _ in columns}
        for column in self._display_columns:
            if column in row:
                values[column] = row[column]
        selectable = {name: column[row_id] for name, column in columns}
        return ReturnedTuple(tuple_id=row_id, values=values, selectable_values=selectable)


def _one_cell(column: str):
    def cells(row: Row) -> tuple:
        return (row[column],)

    return cells


class QueryEngineBackend:
    """The direct in-process access path, stripped to the raw contract.

    Parameters mirror the engine: the hidden ``table``, the top-``k`` display
    limit, the proprietary ``ranking`` and the extra non-searchable
    ``display_columns`` shown on result pages.  ``use_index=False`` forces
    the naive full-scan evaluation (the equivalence oracle in tests).
    ``counts`` shapes the reported count; without one it is exact.
    """

    def __init__(
        self,
        table: Table,
        k: int,
        ranking: RankingFunction | None = None,
        display_columns: Sequence[str] = (),
        use_index: bool = True,
        counts: CountPolicy | None = None,
    ) -> None:
        self._engine = QueryEngine(table, k=k, ranking=ranking, use_index=use_index)
        self._table = table
        self.display_columns = tuple(display_columns)
        self._counts = counts if counts is not None else CountPolicy()

    # -- RawBackend contract -------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The searchable schema of the hidden table."""
        return self._table.schema

    @property
    def k(self) -> int:
        """The top-``k`` display limit."""
        return self._engine.k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Evaluate ``query``; the count is reported as the policy shapes it."""
        return self._build_response(self._engine.execute(query))

    # -- operator-side helpers (not available to samplers) --------------------

    @property
    def table(self) -> Table:
        """The hidden table itself; for validation/ground truth only."""
        return self._table

    def true_count(self, query: ConjunctiveQuery) -> int:
        """Exact match count; for validation/ground truth only, never sampling."""
        return self._engine.count(query)

    # -- internals ------------------------------------------------------------

    def _build_response(self, result: QueryResult) -> InterfaceResponse:
        return answer_response(
            self._table,
            result.query,
            result.total_count,
            self._counts.shape(result.total_count),
            result.returned_row_ids,
            result.k,
            self.display_columns,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryEngineBackend(table={self._table.name!r}, k={self.k})"


class WebPageBackend:
    """The HTML-scraping access path, stripped to the raw contract.

    Fetches the form page once to learn the fields and the advertised
    top-``k``, verifies the configured ``schema`` against them, then answers
    each ``submit`` by fetching and parsing the corresponding result page.

    Cells of boolean and categorical attributes are decoded through a map
    built once here, from each domain value's own display text to its
    ``(raw, selectable)`` pair; any other text, and every numeric cell, is
    decoded as it is read.  The map is never written after construction, so
    concurrent submissions share it without a lock.
    """

    def __init__(
        self,
        site: "HiddenWebSite",
        schema: Schema,
        display_columns: Sequence[str] = (),
    ) -> None:
        self._site = site
        self._schema = schema
        self.display_columns = tuple(display_columns)
        self._form = self._fetch_form()
        self._verify_schema_against_form(self._form)
        k = self._form.top_k
        if k is None:
            raise WebFormError("the form page does not advertise a top-k limit")
        self._k: int = k
        self._decoders = tuple(
            (attribute, _decode_map(attribute)) for attribute in self._schema
        )

    # -- RawBackend contract -------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The searchable schema the client was configured with."""
        return self._schema

    @property
    def k(self) -> int:
        """Top-``k`` limit learned from the form page."""
        return self._k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Submit ``query`` by fetching and parsing the corresponding result page."""
        path = result_page_path(self._form.action, query)
        page = self._site.get(path)
        parsed = parse_result_page(page)
        tuples = tuple(self._to_returned_tuple(row) for row in parsed.rows)
        return InterfaceResponse(
            query=query,
            tuples=tuples,
            overflow=parsed.overflow,
            reported_count=parsed.reported_count,
            k=parsed.top_k if parsed.top_k is not None else self._k,
        )

    # -- schema discovery -----------------------------------------------------

    @classmethod
    def discover_schema(cls, site: "HiddenWebSite", name: str | None = None) -> Schema:
        """Build a text-only schema from the site's form page alone.

        Every field becomes a categorical attribute over its option strings.
        Useful for quickly pointing the sampler at an unknown source; precise
        typing (booleans, numeric buckets) still requires operator-provided
        configuration, as in the paper.
        """
        from repro.database.schema import Domain
        from repro.web.server import HiddenWebSite

        form = parse_form_page(site.get(HiddenWebSite.FORM_PATH))
        attributes = []
        for field in form.fields:
            options = field.selectable_options
            if not options:
                raise FormParseError(f"form field {field.name!r} offers no selectable options")
            attributes.append(Attribute(field.name, Domain.categorical(options)))
        return Schema(attributes, name=name or form.schema_name or "discovered")

    # -- internals ------------------------------------------------------------

    def _fetch_form(self) -> FormDescription:
        from repro.web.server import HiddenWebSite

        page = self._site.get(HiddenWebSite.FORM_PATH)
        return parse_form_page(page)

    def _verify_schema_against_form(self, form: FormDescription) -> None:
        form_fields = set(form.field_names)
        for attribute in self._schema:
            if attribute.name not in form_fields:
                raise WebFormError(
                    f"configured attribute {attribute.name!r} does not appear in the form "
                    f"(form fields: {', '.join(sorted(form_fields))})"
                )
            offered = set(form.field(attribute.name).selectable_options)
            for value in attribute.domain.values:
                if format_value(value) not in offered:
                    raise WebFormError(
                        f"configured value {value!r} of attribute {attribute.name!r} is not "
                        "offered by the form"
                    )

    def _to_returned_tuple(self, row: ParsedResultRow) -> ReturnedTuple:
        values: dict[str, Value] = {}
        selectable: dict[str, Value] = {}
        for attribute, decoded in self._decoders:
            name = attribute.name
            text = row.values.get(name)
            if text is None:
                raise FormParseError(f"result row {row.tuple_id} is missing column {name!r}")
            pair = decoded.get(text)
            if pair is None:
                raw = _parse_displayed_value(attribute, text)
                values[name] = raw
                selectable[name] = attribute.domain.selectable_value_for(raw)
            else:
                values[name], selectable[name] = pair
        for column in self.display_columns:
            if column in row.values:
                values[column] = row.values[column]
        return ReturnedTuple(tuple_id=row.tuple_id, values=values, selectable_values=selectable)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WebPageBackend(schema={self._schema.name!r}, k={self._k})"


def _decode_map(attribute: Attribute) -> dict[str, tuple[Value, Value]]:
    """Display text → ``(raw, selectable)`` for each value of a finite domain.

    Each entry is what :func:`_parse_displayed_value` and
    :meth:`~repro.database.schema.Domain.selectable_value_for` make of the
    value's own display text, so a hit decodes exactly as the slow path
    would.  Numeric cells show raw numbers, not bucket labels: empty map.
    """
    if attribute.kind is AttributeKind.NUMERIC:
        return {}
    decoded: dict[str, tuple[Value, Value]] = {}
    for value in attribute.domain.values:
        text = format_value(value)
        try:
            raw = _parse_displayed_value(attribute, text)
            decoded[text] = (raw, attribute.domain.selectable_value_for(raw))
        except (FormParseError, DomainValueError):
            continue  # not decodable: the slow path raises it per cell
    return decoded


def _parse_displayed_value(attribute: Attribute, text: str) -> Value:
    """Convert a displayed cell back to a raw value for ``attribute``."""
    if attribute.kind is AttributeKind.BOOLEAN:
        lowered = text.strip().lower()
        if lowered in {"true", "1", "yes"}:
            return True
        if lowered in {"false", "0", "no"}:
            return False
        raise FormParseError(f"cannot parse boolean cell {text!r} for {attribute.name!r}")
    if attribute.kind is AttributeKind.NUMERIC:
        try:
            return float(text)
        except ValueError:
            raise FormParseError(f"cannot parse numeric cell {text!r} for {attribute.name!r}") from None
    # Categorical: preserve integer-valued categories (e.g. model year).
    if text in attribute.domain:
        return text
    try:
        as_int = int(text)
    except ValueError:
        as_int = None
    if as_int is not None and as_int in attribute.domain:
        return as_int
    raise FormParseError(
        f"displayed value {text!r} is not in the domain of attribute {attribute.name!r}"
    )
