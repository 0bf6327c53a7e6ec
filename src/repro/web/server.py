"""An in-process "web site" serving the hidden database's pages.

:class:`HiddenWebSite` plays the role of the data provider's web server
(Apache + PHP + MySQL in the paper's implementation platform, Section 3.5):
it owns a :class:`~repro.database.interface.HiddenDatabaseInterface` and
serves two paths:

* ``/search`` — the form page;
* ``/results?<query string>`` — the result page for the encoded query.

There is no socket involved; ``get(path)`` returns the HTML string directly.
That keeps experiments hermetic while preserving the interesting part of the
problem — everything the client learns, it learns by parsing HTML.
"""

from __future__ import annotations

import threading

from repro.database.interface import HiddenDatabase
from repro.exceptions import PageNotFoundError
from repro.web import html as html_render
from repro.web.urlcodec import decode_query


class HiddenWebSite:
    """Serves the form page and result pages of one hidden database.

    ``interface`` is any object satisfying the
    :class:`~repro.database.interface.HiddenDatabase` protocol — the classic
    :class:`~repro.database.interface.HiddenDatabaseInterface`, a raw
    :class:`~repro.backends.adapters.QueryEngineBackend`, or a whole
    :class:`~repro.backends.stack.BackendStack` (including a sharded one).
    Serving from a stack *without* a statistics layer leaves the web client's
    own :class:`~repro.backends.layers.StatisticsLayer` as the one counter of
    issued queries end to end.
    """

    #: Path of the search form page.
    FORM_PATH = "/search"
    #: Path (before the query string) of result pages.
    RESULTS_PATH = "/results"

    #: Machine-checked by reprolint R1 (guarded-state): an HTTP server's
    #: handler threads fetch pages through one site concurrently.
    _guarded_by = {"pages_served": "_lock"}

    def __init__(self, interface: HiddenDatabase, site_name: str | None = None) -> None:
        self.interface = interface
        self.site_name = site_name or f"{interface.schema.name} search"
        self._lock = threading.Lock()
        self.pages_served = 0

    # -- request handling -------------------------------------------------------

    def get(self, path: str) -> str:
        """Serve the page at ``path`` (which may include a query string).

        Unknown paths raise :class:`~repro.exceptions.PageNotFoundError`, the
        in-process analogue of a 404.
        """
        base, _, query_string = path.partition("?")
        if base == self.FORM_PATH:
            self._count_page()
            return self._form_page()
        if base == self.RESULTS_PATH:
            self._count_page()
            return self._results_page(query_string)
        raise PageNotFoundError(path)

    def _count_page(self) -> None:
        with self._lock:
            self.pages_served += 1

    # -- page builders ----------------------------------------------------------

    def _form_page(self) -> str:
        return html_render.render_form_page(
            self.interface.schema,
            action=self.RESULTS_PATH,
            k=self.interface.k,
            title=self.site_name,
        )

    def _results_page(self, query_string: str) -> str:
        query = decode_query(self.interface.schema, query_string)
        response = self.interface.submit(query)
        return html_render.render_result_page(
            schema=self.interface.schema,
            query=response.query,
            tuples=response.tuples,
            overflow=response.overflow,
            reported_count=response.reported_count,
            k=response.k,
            display_columns=self.display_columns,
        )

    @property
    def display_columns(self) -> tuple[str, ...]:
        """Extra columns the backing interface exposes for result pages.

        Raw protocol objects (e.g. a bare :class:`BackendStack` over a shard
        router without display columns) may not declare any; the site then
        simply renders the searchable attributes.
        """
        backend = self.interface
        columns = getattr(backend, "display_columns", None)
        if columns is None:
            raw = getattr(backend, "raw", None)
            columns = getattr(raw, "display_columns", ())
        return tuple(columns)
