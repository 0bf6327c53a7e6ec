"""Curated layer compositions: one access path, assembled to order.

:class:`BackendStack` turns a raw backend plus a list of layer factories into
one composed access path, keeps handles to every layer for introspection, and
enforces the accounting invariant that a chain contains at most one counting
:class:`~repro.backends.layers.AccountingLayer` — the bug class where a
wrapped client double-counted issued queries is now a construction error.

Two builders encode the legacy access paths bit for bit:

* :func:`engine_stack` — what :class:`HiddenDatabaseInterface` always was:
  ``AccountingLayer(QueryEngineBackend)``, the engine adapter shaping its
  exact count through the requested
  :class:`~repro.backends.adapters.CountPolicy`;
* :func:`web_stack` — what :class:`WebFormClient` always was:
  ``AccountingLayer(WebPageBackend)``, optionally under a history layer so
  the scraping path deduplicates page fetches.

Both accept ``history=True`` to slot a
:class:`~repro.backends.history.HistoryLayer` on top, and the raw backend can
be anything — including a :class:`~repro.backends.shard.ShardRouter`, which
is how a sharded catalogue gets budgets, count modes and history in one line.

Two more builders cover the scaled-out deployments: :func:`sharded_stack`
puts the same layers over a :class:`~repro.backends.shard.ShardRouter` of
table partitions, and :func:`remote_stack` puts the usual layers — plus a
retrying
:class:`~repro.backends.layers.UnreliableLayer` — over a
:class:`~repro.backends.remote.RemoteBackend` talking to a
:mod:`repro.web.httpd` endpoint across a real socket, or, given a list of
URLs, over a :class:`~repro.backends.resilience.FailoverRouter` of them.

Every builder takes its layer order from one table, :data:`LAYER_ORDER`
(innermost first)::

    CircuitBreaker < Unreliable < Accounting < History < Dispatch

and :class:`BackendStack` refuses, at construction, any stack whose ranked
layers break it.  Retries below accounting mean a submission that needed
three attempts is charged and counted once; the breaker below the retry
layer sees every attempt and, once open, its fast-fail passes through
unretried.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Sequence

from repro.backends.adapters import CountPolicy, QueryEngineBackend, WebPageBackend
from repro.backends.base import RawBackend, forward_outcomes, iter_chain
from repro.backends.dispatch import DispatchLayer
from repro.backends.history import HistoryLayer
from repro.backends.layers import AccountingLayer, UnreliableLayer
from repro.backends.resilience import (
    CircuitBreakerLayer,
    CircuitBreakerPolicy,
    FailoverRouter,
    resilience_report,
)
from repro.backends.shard import ShardRouter
from repro.database.interface import CountMode, InterfaceResponse, InterfaceStatistics
from repro.database.limits import QueryBudget
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import RankingFunction
from repro.database.schema import Schema
from repro.database.table import Table
from repro.exceptions import ConfigurationError

#: A layer factory: given the backend to wrap, return the wrapping layer.
#: Layer classes whose remaining parameters all default qualify directly.
LayerFactory = Callable[[RawBackend], RawBackend]

#: The one layer order, innermost (closest to the raw backend) first.  A
#: stack may omit any of these, and layers of other types are unranked, but
#: the ranked layers a :class:`BackendStack` builds must follow this order.
LAYER_ORDER: tuple[type, ...] = (
    CircuitBreakerLayer,
    UnreliableLayer,
    AccountingLayer,
    HistoryLayer,
    DispatchLayer,
)


def _rank(layer: object) -> int | None:
    """The position of ``layer``'s kind in :data:`LAYER_ORDER`, if ranked."""
    for rank, kind in enumerate(LAYER_ORDER):
        if isinstance(layer, kind):
            return rank
    return None


class BackendStack:
    """A raw backend wrapped in middleware layers, innermost first.

    ``layers`` are factories applied bottom-up: ``BackendStack(raw, [a, b])``
    builds ``b(a(raw))``, so the *last* factory sees every submission first.
    Layers whose kind appears in :data:`LAYER_ORDER` must come in that order,
    and at most one counting :class:`AccountingLayer` may sit anywhere in
    the chain;
    either violation is a :class:`ConfigurationError`.  Only the layers built
    here are ranked, so wrapping a finished stack's ``top`` in one more layer
    (e.g. a fault injector over a clean stack) stays legal.  The stack
    itself satisfies the backend protocol, delegating to the outermost
    layer, and exposes each layer by type through :meth:`layer` plus
    convenience properties for the common ones.
    """

    def __init__(self, raw: RawBackend, layers: Sequence[LayerFactory] = ()) -> None:
        self.raw = raw
        backend: RawBackend = raw
        built: list[RawBackend] = []
        for factory in layers:
            backend = factory(backend)
            built.append(backend)
        self._layers = tuple(built)
        self.top: RawBackend = backend
        ranked = [(rank, layer) for layer in built if (rank := _rank(layer)) is not None]
        for (low, below), (high, above) in zip(ranked, ranked[1:]):
            if high < low:
                raise ConfigurationError(
                    f"{type(above).__name__} cannot sit above {type(below).__name__}: "
                    "stack layers go innermost-first as "
                    + " < ".join(kind.__name__ for kind in LAYER_ORDER)
                )
        counters = [
            node
            for node in iter_chain(self.top)
            if isinstance(node, AccountingLayer) and node.statistics is not None
        ]
        if len(counters) > 1:
            raise ConfigurationError(
                "a backend stack must contain at most one counting AccountingLayer — a "
                "second counter double-counts every issued query; reuse the existing "
                f"layer (found {len(counters)} in the chain)"
            )

    # -- backend protocol ------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The searchable schema advertised by the access path."""
        return self.top.schema

    @property
    def k(self) -> int:
        """The top-``k`` display limit."""
        return self.top.k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Submit one conjunctive query through every layer."""
        return self.top.submit(query)

    def submit_outcomes(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> list[InterfaceResponse | Exception]:
        """Submit a batch through every layer; one outcome per item, in input order."""
        return forward_outcomes(self.top, queries)

    def submit_many(self, queries: Sequence[ConjunctiveQuery]) -> list[InterfaceResponse]:
        """Submit a batch of independent queries, responses in input order.

        The one batch call that raises: every item is attempted first, then
        the first failed item's error (by input order) is raised.  When the
        outermost layer is a :class:`~repro.backends.dispatch.DispatchLayer`
        (``remote_stack(..., parallel=N)``) the batch is issued concurrently;
        otherwise it goes down the layers as one batch, so callers can
        always batch without caring how the stack was built.
        """
        outcomes = self.submit_outcomes(queries)
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        return outcomes  # type: ignore[return-value] - no exceptions left

    # -- introspection ---------------------------------------------------------

    @property
    def layers(self) -> tuple[RawBackend, ...]:
        """The constructed layers, innermost first."""
        return self._layers

    def layer(self, layer_type: type) -> object | None:
        """The unique layer of ``layer_type`` in this stack, or ``None``."""
        matches = [layer for layer in self._layers if isinstance(layer, layer_type)]
        if not matches:
            return None
        if len(matches) > 1:
            raise ConfigurationError(
                f"stack contains {len(matches)} {layer_type.__name__} layers; "
                "address them through .layers instead"
            )
        return matches[0]

    @property
    def statistics(self) -> InterfaceStatistics | None:
        """The single statistics counter of this access path, if it counts."""
        layer = self.layer(AccountingLayer)
        return layer.statistics if layer is not None else None

    def statistics_snapshot(self) -> InterfaceStatistics | None:
        """A locked point-in-time copy of the counters (``None`` when uncounted).

        Concurrent submissions mutate the live object under the accounting
        layer's lock; observers (dashboard, service endpoints) read this
        copy so they never see a half-applied update.
        """
        layer = self.layer(AccountingLayer)
        return layer.snapshot() if layer is not None else None

    @property
    def budget(self) -> QueryBudget | None:
        """The query budget of this access path, if layered in."""
        layer = self.layer(AccountingLayer)
        return layer.budget if layer is not None else None

    @property
    def history(self) -> HistoryLayer | None:
        """The history/dedup layer of this access path, if layered in."""
        return self.layer(HistoryLayer)  # type: ignore[return-value]

    def describe(self) -> str:
        """The chain as text, outermost first — e.g. for the CLI and docs."""
        return " → ".join(type(node).__name__ for node in iter_chain(self.top))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BackendStack({self.describe()})"


def introspect(backend: object) -> dict[str, object]:
    """Structured layer-level view of any access path, as plain dicts.

    Works on a :class:`BackendStack`, the thin facades over one
    (:class:`HiddenDatabaseInterface`, :class:`WebFormClient`), or any
    backend-shaped object; concerns a path does not carry report ``None``
    rather than guessing.  This is the single probe the service's
    ``backend_statistics`` and the dashboard's backend line both render.
    """
    stack = getattr(backend, "stack", backend)  # facades expose their stack

    def probe(name: str) -> object | None:
        # The stack knows its layers even when the facade exposes no
        # matching property (e.g. a budget-limited WebFormClient).
        value = getattr(stack, name, None)
        if value is None:
            value = getattr(backend, name, None)
        return value

    describe = getattr(stack, "describe", None)
    report: dict[str, object] = {
        "access_path": describe() if callable(describe) else type(backend).__name__,
    }
    # Prefer the locked snapshot when the path offers one: the dashboard and
    # the service render this report while submissions are in flight, and a
    # field-by-field read of the live counters can catch a half-applied
    # record() (reprolint R1's motivating read-side hazard).
    snapshot_probe = getattr(stack, "statistics_snapshot", None)
    statistics = snapshot_probe() if callable(snapshot_probe) else None
    if statistics is None:
        statistics = probe("statistics")
    report["statistics"] = statistics.as_dict() if statistics is not None else None
    budget = probe("budget")
    report["budget"] = (
        {"limit": budget.limit, "issued": budget.issued, "remaining": budget.remaining}
        if budget is not None
        else None
    )
    history = probe("history")
    if history is not None:
        history_snapshot = getattr(history, "snapshot", None)
        history_statistics = (
            history_snapshot() if callable(history_snapshot) else history.statistics
        )
        report["history"] = history_statistics.as_dict()
    else:
        report["history"] = None
    # Breaker / failover state anywhere in the chain (None when the path
    # carries no resilience nodes), same walking rules as the layers above.
    resilience = resilience_report(backend)
    report["breakers"] = resilience.get("breakers") if resilience else None
    report["failover"] = resilience.get("failover") if resilience else None
    return report


# -- curated compositions -------------------------------------------------------


def engine_stack(
    table: Table,
    k: int,
    ranking: RankingFunction | None = None,
    count_mode: CountMode = CountMode.NONE,
    count_noise: float = 0.3,
    budget: QueryBudget | None = None,
    display_columns: Sequence[str] = (),
    seed: int | random.Random | None = 0,
    use_index: bool = True,
    history: bool = False,
    statistics: bool = True,
) -> BackendStack:
    """The direct in-process access path as a stack.

    The engine adapter shapes its exact counts as ``count_mode`` asks (one
    ``NOISY`` generator seeded by ``seed``, shared by every thread that
    submits through the stack).  Above it the accounting layer charges the
    budget before anything executes and counts the answers, then —
    optionally — the history layer, whose hits never charge the budget nor
    count as issued queries.  This is exactly the legacy
    :class:`HiddenDatabaseInterface` behaviour, which is now built on this
    function.

    ``statistics=False`` makes the accounting layer charge only — the right
    choice when the stack serves a :class:`~repro.web.server.HiddenWebSite`
    whose *clients* own the counting, keeping one counter per end-to-end
    access path.
    """
    raw = QueryEngineBackend(
        table, k, ranking=ranking, display_columns=display_columns, use_index=use_index,
        counts=CountPolicy(count_mode, count_noise, seed),
    )
    return _compose(
        raw,
        budget=budget,
        history=history,
        statistics=statistics,
    )


def web_stack(
    site: object,
    schema: Schema,
    display_columns: Sequence[str] = (),
    budget: QueryBudget | None = None,
    history: bool = False,
) -> BackendStack:
    """The HTML-scraping access path as a stack.

    No count shaping: on this path it already happened on the server, the
    client sees only what the page displays.  The accounting layer sits
    directly on the page fetcher, so with ``history=True`` the counters
    report *actual page fetches* — every history hit is a whole round-trip
    saved, which ``benchmarks/bench_backend_stack.py`` measures.
    """
    raw = WebPageBackend(site, schema, display_columns=display_columns)
    return _compose(
        raw,
        budget=budget,
        history=history,
    )


def sharded_stack(
    table: Table,
    n_shards: int,
    k: int,
    ranking: RankingFunction | None = None,
    count_mode: CountMode = CountMode.NONE,
    count_noise: float = 0.3,
    budget: QueryBudget | None = None,
    display_columns: Sequence[str] = (),
    seed: int | random.Random | None = 0,
    history: bool = False,
    statistics: bool = True,
) -> BackendStack:
    """A sharded catalogue behind the same layer stack as the direct path.

    The raw backend is a :class:`~repro.backends.shard.ShardRouter` over
    ``n_shards`` partitions sharing one :class:`TableIndex`; everything the
    client sees (counts, budget, statistics, history) is identical to
    :func:`engine_stack` over the unsharded table.  The router shapes the
    merged count, drawing ``NOISY`` counts from one generator seeded by
    ``seed`` exactly as the flat engine adapter does.  The partitions share
    the table's index, so the router answers each query from one match mask
    on the calling thread and asks no shard.
    """
    raw = ShardRouter.over_table(
        table, n_shards, k, ranking=ranking, display_columns=display_columns,
        counts=CountPolicy(count_mode, count_noise, seed),
    )
    return _compose(
        raw,
        budget=budget,
        history=history,
        statistics=statistics,
    )


def remote_stack(
    url: str | Sequence[str],
    budget: QueryBudget | None = None,
    history: bool = False,
    statistics: bool = True,
    max_retries: int = 3,
    retry_backoff: float = 0.05,
    max_backoff: float | None = 1.0,
    timeout: float = 10.0,
    parallel: int | None = None,
    batch: int | None = None,
    pool_size: int | None = None,
    breaker: CircuitBreakerPolicy | bool | None = None,
) -> BackendStack:
    """A remote HTTP endpoint behind the same layer stack as the local paths.

    The raw backend is a :class:`~repro.backends.remote.RemoteBackend`
    speaking JSON-over-HTTP to a :mod:`repro.web.httpd` endpoint over a
    bounded pool of persistent keep-alive connections (``pool_size``; the
    adapter's default when ``None``); the construction-time schema fetch
    retries transient failures with the same ``max_retries``/``retry_backoff``
    policy as submissions, so a server that is momentarily 503 does not kill
    the stack.  Directly above the adapter sits a pure-retry
    :class:`~repro.backends.layers.UnreliableLayer` (no injection) so real
    429s and 5xxs self-heal with exponential backoff — set ``max_retries=0``
    to surface every network fault to the caller.  No count shaping: like
    the scraping path, whatever count the server reports was already shaped
    server-side.

    ``batch=M`` puts a :class:`~repro.backends.dispatch.DispatchLayer` on top
    that cuts every batch (``stack.submit_outcomes(queries)``, or
    ``stack.submit_many`` which raises the first failure) into chunks of
    ``M`` queries, each travelling down every layer's ``submit_outcomes`` as
    **one** ``POST /api/submit_batch`` round-trip (per-item statuses; the
    retry layer re-issues only failed items); ``parallel=N`` overlaps those
    chunks on ``N`` worker threads.  ``parallel=N`` alone sends each query
    of a batch as its own ``GET``, ``N`` at a time.  Both compose with
    ``history=True``: the thread-safe
    :class:`~repro.backends.history.HistoryLayer` legally sits under the
    dispatch layer and strips every hit and inferable item out of the wire
    batches.

    Retries sit *below* the accounting layer: a submission that needed
    three attempts still charges one budgeted query and counts once —
    the client asked once; the weather is the retry layer's business (its
    ``statistics`` records it).  Backoff sleeps are capped at ``max_backoff``
    and fully jittered, prefer a server ``Retry-After`` hint, and respect the
    ambient :class:`~repro.backends.resilience.Deadline` when the caller
    carries one.

    ``breaker`` slots a
    :class:`~repro.backends.resilience.CircuitBreakerLayer` directly above
    the remote adapter — *below* the retry layer, so each retry attempt is a
    real call the rolling failure window sees, and once the circuit opens
    the retry layer passes the fast-fail straight through instead of
    hammering a dead server.  ``True`` uses the default
    :class:`~repro.backends.resilience.CircuitBreakerPolicy`; pass a policy
    to tune the window; ``None`` (default) omits the layer.

    ``url`` may also be a list of URLs, primary first: the raw backend is
    then a :class:`~repro.backends.resilience.FailoverRouter` over one
    ``RemoteBackend`` per URL, each target behind its own circuit breaker.  A
    dead primary trips its breaker, traffic fails over to the replicas, and
    half-open probes — driven by real submissions or by the router's
    ``check_health()`` against ``GET /api/health`` — steer it back once the
    primary recovers.  Here a ``breaker`` policy tunes the router's
    per-target breakers instead of adding a layer.
    """
    from repro.backends.remote import RemoteBackend

    remote_kwargs: dict = {
        "timeout": timeout,
        "connect_retries": max_retries,
        "connect_backoff": retry_backoff,
    }
    if pool_size is not None:
        remote_kwargs["pool_size"] = pool_size
    policy = breaker if isinstance(breaker, CircuitBreakerPolicy) else None
    layers: dict[type, LayerFactory] = {
        UnreliableLayer: lambda inner: UnreliableLayer(
            inner, max_retries=max_retries, retry_backoff=retry_backoff, max_backoff=max_backoff
        )
    }
    if isinstance(url, str):
        raw: RawBackend = RemoteBackend(url, **remote_kwargs)
        if breaker:
            layers[CircuitBreakerLayer] = lambda inner: CircuitBreakerLayer(inner, policy=policy)
    else:
        if not url:
            raise ConfigurationError("remote_stack needs at least one URL")
        targets = [RemoteBackend(each, **remote_kwargs) for each in url]
        raw = FailoverRouter(targets[0], targets[1:], policy=policy)
    return _compose(
        raw,
        budget=budget,
        history=history,
        statistics=statistics,
        parallel=parallel,
        batch=batch,
        layers=layers,
    )


def _compose(
    raw: RawBackend,
    budget: QueryBudget | None = None,
    history: bool = False,
    statistics: bool = True,
    parallel: int | None = None,
    batch: int | None = None,
    layers: Mapping[type, LayerFactory] | None = None,
) -> BackendStack:
    """Stack the requested layers over ``raw`` in :data:`LAYER_ORDER`.

    ``layers`` adds factories keyed by their kind in the order table (the
    remote builder's breaker and retry layers).
    """
    if parallel is not None and parallel < 1:
        raise ConfigurationError("parallel must be at least 1 when given")
    if batch is not None and batch < 1:
        raise ConfigurationError("batch must be at least 1 when given")
    factories: dict[type, LayerFactory] = dict(layers or {})
    factories[AccountingLayer] = lambda inner: AccountingLayer(
        inner, budget=budget, statistics=statistics
    )
    if history:
        # The HistoryLayer is thread-safe, so it legally sits
        # *under* the dispatch layer: concurrent batch fan-out and the §3.2
        # history optimisation compose (earlier revisions refused this).
        factories[HistoryLayer] = lambda inner: HistoryLayer(inner)
    if (parallel is not None and parallel > 1) or batch is not None:
        factories[DispatchLayer] = lambda inner: DispatchLayer(
            inner, max_workers=parallel if parallel is not None else 1, batch_size=batch
        )
    return BackendStack(raw, [factories[kind] for kind in LAYER_ORDER if kind in factories])
