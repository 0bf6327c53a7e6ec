"""Schema model for hidden databases behind conjunctive web form interfaces.

The paper's interface model (Section 1) is a web form where a user picks
values for a combination of attributes — make, model, price range, colour —
and submits a conjunctive query.  We model that with three small classes:

* :class:`Domain` — the set of values an attribute can take, either an explicit
  categorical/boolean list or a numeric range discretised into buckets (this is
  how real forms expose price or mileage: as drop-downs of ranges).
* :class:`Attribute` — a named, typed column with a domain.
* :class:`Schema` — an ordered collection of attributes, the searchable part of
  the hidden table.

Domains are always *finite and enumerable* because the drill-down of
HIDDEN-DB-SAMPLER needs to enumerate the possible predicate values of each
attribute when extending a query.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import DomainValueError, SchemaError, UnknownAttributeError

Value = object  # values are plain hashable Python objects (str, int, float, bool)


class AttributeKind(enum.Enum):
    """The kind of an attribute, which decides how predicates are phrased."""

    BOOLEAN = "boolean"
    CATEGORICAL = "categorical"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class NumericBucket:
    """A half-open numeric range ``[low, high)`` exposed as one form choice.

    Web forms expose numeric attributes (price, mileage, year) as a drop-down
    of ranges rather than free-form numbers; a bucket is one such choice.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise SchemaError(f"numeric bucket requires low < high, got [{self.low}, {self.high})")

    def contains(self, value: float) -> bool:
        """Return whether ``value`` falls inside this bucket."""
        return self.low <= value < self.high

    @property
    def label(self) -> str:
        """Human-readable label used in rendered web forms."""
        return f"{self.low:g}-{self.high:g}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.label


class Domain:
    """The finite set of values (or buckets) an attribute may take.

    For boolean and categorical attributes the domain is an explicit value
    list.  For numeric attributes the domain is a list of
    :class:`NumericBucket`; raw tuple values are mapped onto the bucket that
    contains them when queries are evaluated.
    """

    def __init__(
        self,
        kind: AttributeKind,
        values: Sequence[Value] | None = None,
        buckets: Sequence[NumericBucket] | None = None,
    ) -> None:
        self.kind = kind
        if kind is AttributeKind.NUMERIC:
            if not buckets:
                raise SchemaError("numeric domains require at least one bucket")
            if values is not None:
                raise SchemaError("numeric domains take buckets, not values")
            self._buckets = tuple(buckets)
            self._check_buckets(self._buckets)
            self._values: tuple[Value, ...] = tuple(bucket.label for bucket in self._buckets)
            ordered = sorted(self._buckets, key=lambda bucket: bucket.low)
            self._sorted_lows: tuple[float, ...] = tuple(bucket.low for bucket in ordered)
            self._sorted_highs: tuple[float, ...] = tuple(bucket.high for bucket in ordered)
            self._sorted_buckets: tuple[NumericBucket, ...] = tuple(ordered)
            self._sorted_labels: tuple[str, ...] = tuple(bucket.label for bucket in ordered)
        else:
            if buckets is not None:
                raise SchemaError("only numeric domains take buckets")
            if not values:
                raise SchemaError("categorical/boolean domains require at least one value")
            if kind is AttributeKind.BOOLEAN:
                expected = {False, True}
                if set(values) != expected:
                    raise SchemaError("boolean domains must contain exactly False and True")
            unique = tuple(dict.fromkeys(values))
            if len(unique) != len(values):
                raise SchemaError("domain values must be unique")
            self._values = unique
            self._buckets = ()
            self._sorted_lows = ()
            self._sorted_highs = ()
            self._sorted_buckets = ()
            self._sorted_labels = ()

    @staticmethod
    def _check_buckets(buckets: Sequence[NumericBucket]) -> None:
        ordered = sorted(buckets, key=lambda bucket: bucket.low)
        for previous, current in zip(ordered, ordered[1:]):
            if current.low < previous.high:
                raise SchemaError(
                    f"numeric buckets overlap: [{previous.low}, {previous.high}) and "
                    f"[{current.low}, {current.high})"
                )

    # -- constructors -------------------------------------------------------

    @classmethod
    def boolean(cls) -> "Domain":
        """The two-valued boolean domain used throughout the SIGMOD'07 analysis."""
        return cls(AttributeKind.BOOLEAN, values=(False, True))

    @classmethod
    def categorical(cls, values: Sequence[Value]) -> "Domain":
        """A categorical domain with the given distinct values."""
        return cls(AttributeKind.CATEGORICAL, values=tuple(values))

    @classmethod
    def numeric_buckets(cls, edges: Sequence[float]) -> "Domain":
        """A numeric domain bucketised along ``edges`` (must be increasing)."""
        if len(edges) < 2:
            raise SchemaError("numeric_buckets requires at least two edges")
        buckets = []
        for low, high in zip(edges, edges[1:]):
            buckets.append(NumericBucket(float(low), float(high)))
        return cls(AttributeKind.NUMERIC, buckets=buckets)

    # -- protocol -----------------------------------------------------------

    @property
    def values(self) -> tuple[Value, ...]:
        """The selectable values: raw values, or bucket labels for numeric domains."""
        return self._values

    @property
    def buckets(self) -> tuple[NumericBucket, ...]:
        """Numeric buckets; empty for non-numeric domains."""
        return self._buckets

    @property
    def size(self) -> int:
        """Number of selectable values (the form's drop-down length)."""
        return len(self._values)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Value]:
        return iter(self._values)

    def __contains__(self, value: Value) -> bool:
        return value in self._values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return self.kind is other.kind and self._values == other._values and self._buckets == other._buckets

    def __hash__(self) -> int:
        return hash((self.kind, self._values, self._buckets))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Domain(kind={self.kind.value}, size={self.size})"

    def bucket_search_arrays(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[str, ...]]:
        """Parallel ``(lows, highs, labels)`` arrays sorted by bucket low edge.

        Precomputed at construction so callers (bucket lookup here, columnar
        encoding in :mod:`repro.database.index`) can bin a raw value with one
        :func:`bisect.bisect_right` instead of a linear bucket scan.
        """
        if self.kind is not AttributeKind.NUMERIC:
            raise SchemaError("bucket_search_arrays is only defined for numeric domains")
        return self._sorted_lows, self._sorted_highs, self._sorted_labels

    def bucket_for(self, raw_value: float) -> NumericBucket | None:
        """Return the bucket containing ``raw_value`` or ``None`` if out of range."""
        if self.kind is not AttributeKind.NUMERIC:
            raise SchemaError("bucket_for is only defined for numeric domains")
        value = float(raw_value)
        slot = bisect_right(self._sorted_lows, value) - 1
        if slot >= 0 and value < self._sorted_highs[slot]:
            return self._sorted_buckets[slot]
        return None

    def selectable_value_for(self, raw_value: Value) -> Value:
        """Map a raw tuple value to the form-selectable value that matches it.

        For categorical and boolean domains this is the identity (after a
        membership check); for numeric domains it is the label of the bucket
        containing the value, found by the same bisect as :meth:`bucket_for`
        and read from the labels computed at construction.
        """
        if self.kind is AttributeKind.NUMERIC:
            value = float(raw_value)  # type: ignore[arg-type]
            slot = bisect_right(self._sorted_lows, value) - 1
            if slot >= 0 and value < self._sorted_highs[slot]:
                return self._sorted_labels[slot]
            raise DomainValueError("<numeric>", raw_value)
        if raw_value not in self._values:
            raise DomainValueError("<categorical>", raw_value)
        return raw_value


@dataclass(frozen=True)
class Attribute:
    """A named, typed searchable column of a hidden database."""

    name: str
    domain: Domain
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise SchemaError("attribute names must be non-empty")
        if any(ch in self.name for ch in "&=?<>\"'"):
            raise SchemaError(f"attribute name {self.name!r} contains characters unusable in forms/URLs")

    @property
    def kind(self) -> AttributeKind:
        """Shorthand for ``self.domain.kind``."""
        return self.domain.kind

    @property
    def cardinality(self) -> int:
        """Number of selectable values of this attribute."""
        return self.domain.size

    def validate_value(self, value: Value) -> None:
        """Raise :class:`DomainValueError` if ``value`` is not selectable."""
        if value not in self.domain:
            raise DomainValueError(self.name, value)


class Schema:
    """An ordered, immutable collection of searchable attributes."""

    def __init__(self, attributes: Iterable[Attribute], name: str = "hidden") -> None:
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError("a schema needs at least one attribute")
        names = [attribute.name for attribute in attrs]
        if len(set(names)) != len(names):
            raise SchemaError("attribute names must be unique within a schema")
        self.name = name
        self._attributes = attrs
        self._by_name: Mapping[str, Attribute] = {attribute.name: attribute for attribute in attrs}

    # -- access -------------------------------------------------------------

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """All attributes, in declaration order."""
        return self._attributes

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names, in declaration order."""
        return tuple(attribute.name for attribute in self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __getitem__(self, name: str) -> Attribute:
        return self.attribute(name)

    def attribute(self, name: str) -> Attribute:
        """Return the attribute called ``name`` or raise :class:`UnknownAttributeError`."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownAttributeError(name, self.attribute_names) from None

    def validate_assignment(self, assignment: Mapping[str, Value]) -> None:
        """Validate a partial assignment of selectable values to attributes."""
        for name, value in assignment.items():
            self.attribute(name).validate_value(value)

    def project(self, names: Sequence[str], name: str | None = None) -> "Schema":
        """Return a sub-schema with only ``names`` (in the given order).

        This is what the HDSampler front end does when the analyst restricts
        sampling to a subset of attributes (paper Figure 3).
        """
        attributes = [self.attribute(n) for n in names]
        return Schema(attributes, name=name or f"{self.name}.projected")

    def total_combinations(self) -> int:
        """Number of distinct full assignments (leaves of the query tree)."""
        total = 1
        for attribute in self._attributes:
            total *= attribute.cardinality
        return total

    def describe(self) -> str:
        """A short human-readable description used by the CLI front end."""
        lines = [f"schema {self.name!r} with {len(self)} attributes:"]
        for attribute in self._attributes:
            lines.append(
                f"  - {attribute.name} ({attribute.kind.value}, {attribute.cardinality} values)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schema(name={self.name!r}, attributes={self.attribute_names})"
