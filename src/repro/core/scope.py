"""Scoping the sampler to a subset of attributes and value bindings.

The HDSampler front end lets the analyst "add and remove attributes and their
value bindings and point HDSampler to either the whole dataset or to a
specific selection of attributes" (paper Section 3.1, Figure 3).  Two kinds of
scoping exist:

* **attribute selection** — only some attributes participate in the drill-down
  and in the output histograms;
* **fixed value bindings** — predicates such as ``condition = "used"`` that are
  silently ANDed onto every issued query, so sampling targets the
  sub-population the analyst cares about.

:class:`ScopedDatabase` implements both as a thin adapter around any
:class:`~repro.database.interface.HiddenDatabase`: its advertised schema is the
projected one, and every submitted query is augmented with the fixed bindings
before being forwarded.  Samplers are completely unaware of the scoping.
"""

from __future__ import annotations

from typing import Mapping

from repro.database.interface import HiddenDatabase, InterfaceResponse
from repro.database.query import ConjunctiveQuery, Predicate
from repro.database.schema import Schema, Value
from repro.exceptions import ConfigurationError


class ScopedDatabase:
    """A view of a hidden database restricted to selected attributes and bindings."""

    def __init__(
        self,
        database: HiddenDatabase,
        attributes: tuple[str, ...] | None = None,
        bindings: Mapping[str, Value] | None = None,
    ) -> None:
        self._database = database
        full_schema = database.schema
        self._bindings = dict(bindings or {})

        for name, value in self._bindings.items():
            attribute = full_schema.attribute(name)
            if value not in attribute.domain:
                raise ConfigurationError(
                    f"binding {name}={value!r} is not a selectable value of that attribute"
                )

        if attributes is None:
            selected = [
                name for name in full_schema.attribute_names if name not in self._bindings
            ]
        else:
            selected = list(attributes)
            unknown_or_bound = [name for name in selected if name in self._bindings]
            if unknown_or_bound:
                raise ConfigurationError(
                    f"attributes {unknown_or_bound!r} are fixed by value bindings and cannot "
                    "also be selected for sampling"
                )
        if not selected:
            raise ConfigurationError("at least one attribute must remain selectable after scoping")
        self._schema = full_schema.project(selected, name=f"{full_schema.name}.scoped")
        #: The bindings as predicates, built once: every forwarded query
        #: starts with them, in binding order.
        self._binding_predicates = tuple(
            Predicate(name, value) for name, value in self._bindings.items()
        )

    # -- HiddenDatabase contract --------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The projected schema the sampler sees."""
        return self._schema

    @property
    def k(self) -> int:
        """Top-``k`` limit of the underlying interface."""
        return self._database.k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Forward ``query`` with the fixed bindings merged in.

        The response's query is rewritten back to the scoped form so that
        the sampler reasons in its own terms.
        """
        full_query = self.to_full_query(query)
        response = self._database.submit(full_query)
        return InterfaceResponse(
            query=query,
            tuples=response.tuples,
            overflow=response.overflow,
            reported_count=response.reported_count,
            k=response.k,
        )

    # -- helpers --------------------------------------------------------------------

    @property
    def bindings(self) -> dict[str, Value]:
        """The fixed value bindings applied to every query."""
        return dict(self._bindings)

    @property
    def inner(self) -> HiddenDatabase:
        """The wrapped database (for statistics inspection)."""
        return self._database

    def to_full_query(self, query: ConjunctiveQuery) -> ConjunctiveQuery:
        """``query`` over the wrapped schema, the fixed bindings first.

        The constructor validates the combined predicates against the wrapped
        schema; a scoped query cannot constrain a bound attribute, which the
        projected schema does not have.
        """
        return ConjunctiveQuery(self._database.schema, self._binding_predicates + query.predicates)
