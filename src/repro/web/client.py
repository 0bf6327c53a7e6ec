"""A scraping client that turns the HTML site back into the interface contract.

:class:`WebFormClient` is the reproduction of what HDSampler's Sample
Generator actually does against Google Base: fetch the form page, learn the
fields, encode each query as a form submission, fetch the result page and
parse the listed tuples, the overflow notice and the (possibly approximate)
count.  It implements the same :class:`~repro.database.interface.HiddenDatabase`
protocol as the direct in-process interface, so every sampler and the whole
HDSampler core run unchanged over either access path (benchmark E11 checks
they yield statistically identical samples).

Since the backend-stack refactor the client is a thin facade over
:func:`repro.backends.stack.web_stack`: the page scraping itself lives in
:class:`~repro.backends.adapters.WebPageBackend`, and the client's
bookkeeping is the stack's single
:class:`~repro.backends.layers.AccountingLayer` — the only counter on this
access path, so issued queries are never double-counted however the client
is further wrapped.  Passing ``history=True`` slots a
:class:`~repro.backends.history.HistoryLayer` on top, so repeated and
inferable queries stop costing page fetches at all (the statistics then
count *actual fetches*, and :attr:`history` reports the savings).

Configuration mirrors the paper's Section 3.1: "to customize HDSampler to a
specific data source, one needs to specify the attributes and their domain
values" — the client takes the schema as configuration and *verifies* it
against the fields advertised by the live form page.  A schema can also be
:meth:`discovered <WebFormClient.discover_schema>` from the form alone, with
every field treated as categorical text.
"""

from __future__ import annotations

from repro.database.interface import InterfaceResponse, InterfaceStatistics
from repro.database.limits import QueryBudget
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Schema
from repro.web.server import HiddenWebSite


class WebFormClient:
    """Access a :class:`~repro.web.server.HiddenWebSite` by scraping its pages."""

    def __init__(
        self,
        site: HiddenWebSite,
        schema: Schema,
        display_columns: tuple[str, ...] = (),
        budget: QueryBudget | None = None,
        history: bool = False,
    ) -> None:
        from repro.backends.stack import web_stack

        self.stack = web_stack(
            site,
            schema,
            display_columns=display_columns,
            budget=budget,
            history=history,
        )

    # -- contract ---------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The searchable schema the client was configured with."""
        return self.stack.schema

    @property
    def k(self) -> int:
        """Top-``k`` limit learned from the form page."""
        return self.stack.k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Submit ``query`` by fetching and parsing the corresponding result page.

        With ``history=True`` a repeated or inferable query is answered from
        the history layer without fetching any page.
        """
        return self.stack.submit(query)

    # -- layer-backed accessors ---------------------------------------------------

    @property
    def statistics(self) -> InterfaceStatistics:
        """The path's single statistics counter (actual page-backed queries)."""
        statistics = self.stack.statistics
        assert statistics is not None
        return statistics

    @property
    def history(self):
        """The history layer when built with ``history=True``, else ``None``."""
        return self.stack.history

    @property
    def display_columns(self) -> tuple[str, ...]:
        """Extra non-searchable columns parsed off result pages."""
        return self.stack.raw.display_columns  # type: ignore[attr-defined]

    # -- schema discovery ---------------------------------------------------------

    @classmethod
    def discover_schema(cls, site: HiddenWebSite, name: str | None = None) -> Schema:
        """Build a text-only schema from the site's form page alone.

        Every field becomes a categorical attribute over its option strings.
        Useful for quickly pointing the sampler at an unknown source; precise
        typing (booleans, numeric buckets) still requires operator-provided
        configuration, as in the paper.
        """
        from repro.backends.adapters import WebPageBackend

        return WebPageBackend.discover_schema(site, name=name)
