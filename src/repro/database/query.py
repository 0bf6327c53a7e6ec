"""Conjunctive queries: the only language the web form interface accepts.

A :class:`ConjunctiveQuery` is a conjunction of equality predicates over
*selectable* values (categorical values, booleans, or numeric bucket labels).
That mirrors the paper's Conjunctive Web Form Interface: the user picks one
value per attribute from a drop-down and all picked conditions are ANDed.

The module also provides the little query algebra that HIDDEN-DB-SAMPLER and
the query-history optimisation need:

* ``specialise`` — extend a query with one more predicate (one step of the
  random drill-down);
* ``generalise`` — drop a predicate (walk back up the query tree);
* ``subsumes`` — does query ``A``'s result necessarily contain query ``B``'s?
  (used by :mod:`repro.backends.history` to infer answers without issuing queries);
* ``matches`` — evaluate the query against a raw table row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.database.schema import AttributeKind, Schema, Value
from repro.database.table import Row
from repro.exceptions import QueryError


class PredicateOperator(enum.Enum):
    """Operators a conjunctive form predicate can use.

    Real forms only offer equality over drop-down choices; numeric range
    choices are still equality over the *bucket label*.  The enum exists so
    the query printer and URL codec stay explicit about intent.
    """

    EQUALS = "="


@dataclass(frozen=True, order=True)
class Predicate:
    """A single ``attribute = value`` condition over selectable values."""

    attribute: str
    value: Value
    operator: PredicateOperator = PredicateOperator.EQUALS

    def __str__(self) -> str:
        return f"{self.attribute} {self.operator.value} {self.value!r}"


class ConjunctiveQuery:
    """An immutable conjunction of equality predicates over a schema.

    The empty query (no predicates) is the ``SELECT *`` root of the query tree
    in Figure 1 of the paper.
    """

    def __init__(self, schema: Schema, predicates: Iterable[Predicate] = ()) -> None:
        self.schema = schema
        ordered: list[Predicate] = []
        seen: dict[str, Predicate] = {}
        for predicate in predicates:
            attribute = schema.attribute(predicate.attribute)
            if predicate.attribute in seen:
                raise QueryError(
                    f"duplicate predicate on attribute {predicate.attribute!r}: "
                    f"{seen[predicate.attribute]} and {predicate}"
                )
            if predicate.value not in attribute.domain:
                raise QueryError(
                    f"value {predicate.value!r} is not selectable for attribute {predicate.attribute!r}"
                )
            seen[predicate.attribute] = predicate
            ordered.append(predicate)
        self._predicates: tuple[Predicate, ...] = tuple(ordered)
        self._by_attribute: Mapping[str, Predicate] = dict(seen)
        # Queries are immutable, so derived forms computed on hot paths (the
        # history cache keys every submission on the canonical form) are
        # memoised on first use.
        self._canonical_key: tuple[tuple[str, Value], ...] | None = None
        self._attribute_set: frozenset[str] | None = None
        self._hash: int | None = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def empty(cls, schema: Schema) -> "ConjunctiveQuery":
        """The unrestricted ``SELECT *`` query (root of the query tree)."""
        return cls(schema, ())

    @classmethod
    def from_assignment(cls, schema: Schema, assignment: Mapping[str, Value]) -> "ConjunctiveQuery":
        """Build a query from an ``{attribute: value}`` mapping."""
        return cls(schema, (Predicate(name, value) for name, value in assignment.items()))

    # -- basic protocol --------------------------------------------------------

    @property
    def predicates(self) -> tuple[Predicate, ...]:
        """Predicates in the order they were added (drill-down order)."""
        return self._predicates

    @property
    def constrained_attributes(self) -> tuple[str, ...]:
        """Names of attributes this query constrains, in drill-down order."""
        return tuple(predicate.attribute for predicate in self._predicates)

    @property
    def constrained_attribute_set(self) -> frozenset[str]:
        """The constrained attribute names as a (memoised) frozen set."""
        attribute_set = self._attribute_set
        if attribute_set is None:
            attribute_set = self._attribute_set = frozenset(self._by_attribute)
        return attribute_set

    @property
    def free_attributes(self) -> tuple[str, ...]:
        """Schema attributes not yet constrained (candidates for drill-down)."""
        constrained = self.constrained_attribute_set
        return tuple(name for name in self.schema.attribute_names if name not in constrained)

    def value_of(self, attribute: str) -> Value | None:
        """The value this query binds ``attribute`` to, or ``None`` if free."""
        predicate = self._by_attribute.get(attribute)
        return None if predicate is None else predicate.value

    def assignment(self) -> dict[str, Value]:
        """The query as an ``{attribute: value}`` mapping."""
        return {predicate.attribute: predicate.value for predicate in self._predicates}

    def __len__(self) -> int:
        return len(self._predicates)

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self._predicates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self.schema == other.schema and self._by_attribute == other._by_attribute

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash((self.schema, self.canonical_key()))
        return value

    def __str__(self) -> str:
        if not self._predicates:
            return f"SELECT * FROM {self.schema.name}"
        conditions = " AND ".join(str(predicate) for predicate in self._predicates)
        return f"SELECT * FROM {self.schema.name} WHERE {conditions}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConjunctiveQuery({self.assignment()!r})"

    # -- canonical form ----------------------------------------------------------

    def canonical_key(self) -> tuple[tuple[str, Value], ...]:
        """Order-independent key identifying the query's *semantics*.

        Two queries with the same predicates added in different orders answer
        identically, so the query-history cache (paper Section 3.2) keys its
        entries on this canonical form.  Memoised: the cache calls this on
        every submission.
        """
        key = self._canonical_key
        if key is None:
            key = self._canonical_key = tuple(
                sorted(((p.attribute, p.value) for p in self._predicates), key=lambda item: item[0])
            )
        return key

    # -- algebra ---------------------------------------------------------------

    def specialise(self, attribute: str, value: Value) -> "ConjunctiveQuery":
        """Return this query extended with ``attribute = value``.

        One downward step of the random drill-down.  Raises
        :class:`QueryError` if the attribute is already constrained.
        """
        return ConjunctiveQuery(self.schema, self._predicates + (Predicate(attribute, value),))

    def generalise(self, attribute: str) -> "ConjunctiveQuery":
        """Return this query with the predicate on ``attribute`` removed."""
        if attribute not in self._by_attribute:
            raise QueryError(f"query does not constrain attribute {attribute!r}")
        return ConjunctiveQuery(
            self.schema,
            (predicate for predicate in self._predicates if predicate.attribute != attribute),
        )

    def subsumes(self, other: "ConjunctiveQuery") -> bool:
        """True if every tuple matching ``other`` necessarily matches ``self``.

        ``self`` subsumes ``other`` when ``other`` carries every predicate of
        ``self`` (with the same values).  The empty query subsumes everything.
        """
        if self.schema != other.schema:
            return False
        for attribute, predicate in self._by_attribute.items():
            other_value = other.value_of(attribute)
            if other_value is None or other_value != predicate.value:
                return False
        return True

    def is_specialisation_of(self, other: "ConjunctiveQuery") -> bool:
        """True if ``self`` adds predicates to ``other`` without changing any."""
        return other.subsumes(self)

    def contradicts(self, other: "ConjunctiveQuery") -> bool:
        """True if the two queries bind some attribute to different values.

        Contradicting queries have disjoint result sets, which the history
        cache uses to infer emptiness of narrow queries from previously seen
        fully-specified results.
        """
        for attribute, predicate in self._by_attribute.items():
            other_value = other.value_of(attribute)
            if other_value is not None and other_value != predicate.value:
                return True
        return False

    def is_fully_specified(self) -> bool:
        """True when every schema attribute is constrained (a leaf of the tree)."""
        return len(self._predicates) == len(self.schema)

    # -- evaluation -----------------------------------------------------------

    def matches(self, row: Row) -> bool:
        """Evaluate the query against a *raw* table row.

        Numeric predicates compare the row's raw number against the bucket the
        query names; categorical and boolean predicates compare directly.
        """
        for predicate in self._predicates:
            attribute = self.schema.attribute(predicate.attribute)
            raw_value = row[predicate.attribute]
            if attribute.kind is AttributeKind.NUMERIC:
                selectable = attribute.domain.selectable_value_for(float(raw_value))  # type: ignore[arg-type]
            else:
                selectable = raw_value
            if selectable != predicate.value:
                return False
        return True

    def children(self, attribute: str) -> list["ConjunctiveQuery"]:
        """All one-step specialisations of this query along ``attribute``.

        These are the children of the current node in the query tree of
        Figure 1 when the drill-down chooses ``attribute`` as the next level.
        """
        if attribute in self._by_attribute:
            raise QueryError(f"attribute {attribute!r} is already constrained")
        domain = self.schema.attribute(attribute).domain
        return [self.specialise(attribute, value) for value in domain.values]


def enumerate_leaf_queries(schema: Schema, order: Sequence[str] | None = None) -> Iterator[ConjunctiveQuery]:
    """Yield every fully-specified query of ``schema`` (every leaf of the tree).

    Used by BRUTE-FORCE-SAMPLER and by exhaustive tests on tiny databases.
    The ``order`` argument fixes the attribute order of the enumeration.
    """
    names = tuple(order) if order is not None else schema.attribute_names
    if set(names) != set(schema.attribute_names):
        raise QueryError("order must be a permutation of the schema attributes")

    def expand(query: ConjunctiveQuery, depth: int) -> Iterator[ConjunctiveQuery]:
        if depth == len(names):
            yield query
            return
        attribute = names[depth]
        for child in query.children(attribute):
            yield from expand(child, depth + 1)

    yield from expand(ConjunctiveQuery.empty(schema), 0)
