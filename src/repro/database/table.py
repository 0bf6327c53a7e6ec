"""In-memory storage of the hidden table.

A :class:`Table` stores the back-end data the form interface hides.  Rows are
plain ``dict``s keyed by attribute name; values are *raw* (e.g. a price of
``14350.0``), while queries speak in *selectable* values (e.g. the bucket
label ``"10000-15000"``).  The table knows its :class:`~repro.database.schema.Schema`
and can translate between the two representations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from repro.database.schema import AttributeKind, Schema, Value
from repro.exceptions import DomainValueError, SchemaError, UnknownAttributeError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.database.index import TableIndex

Row = Mapping[str, Value]


class Table:
    """An immutable collection of rows conforming to a schema.

    The table may also carry *hidden* columns that are not part of the
    searchable schema (for example a free-text description, or the static
    relevance score used by the ranking function); those columns are kept but
    never validated against a domain.
    """

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Row],
        name: str | None = None,
        validate: bool = True,
    ) -> None:
        self.schema = schema
        self.name = name or schema.name
        self._rows: tuple[dict[str, Value], ...] = tuple(dict(row) for row in rows)
        self._index: "TableIndex | None" = None
        if validate:
            self._validate()
            # Validated tables pay the (linear) index build up front so every
            # engine/interface over them shares the binned columns from query one.
            _ = self.index

    def _validate(self) -> None:
        for index, row in enumerate(self._rows):
            for attribute in self.schema:
                if attribute.name not in row:
                    raise SchemaError(
                        f"row {index} is missing searchable attribute {attribute.name!r}"
                    )
                value = row[attribute.name]
                if attribute.kind is AttributeKind.NUMERIC:
                    if attribute.domain.bucket_for(float(value)) is None:  # type: ignore[arg-type]
                        raise DomainValueError(attribute.name, value)
                else:
                    attribute.validate_value(value)

    # -- basic access --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> Row:
        return self._rows[index]

    @property
    def rows(self) -> tuple[Row, ...]:
        """All rows of the table, in insertion order (row id = position)."""
        return self._rows

    @property
    def index(self) -> "TableIndex":
        """The table's index (binned columns, rank caches), built once and shared.

        Tables are immutable, so one :class:`~repro.database.index.TableIndex`
        serves every query engine and interface over this table.  Validated
        tables build it at construction; ``validate=False`` tables (e.g. the
        throwaway results of :meth:`select`/:meth:`project`) defer the build
        until something actually queries them.
        """
        index = self._index
        if index is None:
            from repro.database.index import TableIndex

            index = self._index = TableIndex(self)
        return index

    def row_ids(self) -> range:
        """Row identifiers, used by samplers to de-duplicate drawn tuples."""
        return range(len(self._rows))

    def column(self, name: str) -> list[Value]:
        """Return all raw values of column ``name`` (searchable or hidden).

        Hidden columns may be sparse (e.g. only some listings carry a static
        score): the column exists if *any* row carries it, and rows without it
        contribute ``None`` holes.  Unknown names — including every
        non-searchable name on an empty table — raise
        :class:`UnknownAttributeError`.
        """
        if name in self.schema:
            return [row[name] for row in self._rows]
        if any(name in row for row in self._rows):
            return [row.get(name) for row in self._rows]
        raise UnknownAttributeError(name, self.schema.attribute_names)

    # -- selectable-value translation -----------------------------------------

    def selectable_value(self, attribute_name: str, row: Row) -> Value:
        """Map the raw value of ``attribute_name`` in ``row`` to its form value."""
        attribute = self.schema.attribute(attribute_name)
        return attribute.domain.selectable_value_for(row[attribute_name])

    def selectable_row(self, row: Row) -> dict[str, Value]:
        """Project a raw row onto the searchable schema, in selectable values."""
        return {
            attribute.name: attribute.domain.selectable_value_for(row[attribute.name])
            for attribute in self.schema
        }

    # -- filtering -------------------------------------------------------------

    def matching_row_ids(self, predicate: Callable[[Row], bool]) -> list[int]:
        """Row ids of all rows satisfying ``predicate`` (full scan)."""
        return [index for index, row in enumerate(self._rows) if predicate(row)]

    def select(self, predicate: Callable[[Row], bool]) -> "Table":
        """A new table (same schema) with only the rows satisfying ``predicate``."""
        return Table(
            self.schema,
            (row for row in self._rows if predicate(row)),
            name=f"{self.name}.selection",
            validate=False,
        )

    def project(self, attribute_names: Sequence[str]) -> "Table":
        """A new table restricted to ``attribute_names`` (searchable subset).

        Hidden columns are preserved so ranking functions keep working after
        the analyst narrows the searchable schema through the front end.
        """
        sub_schema = self.schema.project(attribute_names)
        searchable = set(self.schema.attribute_names)
        kept = set(attribute_names)
        dropped = searchable - kept
        projected_rows = []
        for row in self._rows:
            projected_rows.append({key: value for key, value in row.items() if key not in dropped})
        return Table(sub_schema, projected_rows, name=f"{self.name}.projected", validate=False)

    # -- statistics -------------------------------------------------------------

    def value_counts(self, attribute_name: str) -> dict[Value, int]:
        """Exact marginal counts of ``attribute_name`` in selectable values.

        This is the ground truth that Figure 4 of the paper compares sampled
        histograms against (possible here because the database is local).
        """
        attribute = self.schema.attribute(attribute_name)
        counts: dict[Value, int] = {value: 0 for value in attribute.domain.values}
        for row in self._rows:
            counts[attribute.domain.selectable_value_for(row[attribute_name])] += 1
        return counts

    def describe(self) -> str:
        """Human-readable summary used by the CLI front end and examples."""
        lines = [f"table {self.name!r}: {len(self)} rows"]
        lines.append(self.schema.describe())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table(name={self.name!r}, rows={len(self)}, schema={self.schema.attribute_names})"
