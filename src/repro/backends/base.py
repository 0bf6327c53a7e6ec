"""The bottom of the composable access-path stack: raw backends and layers.

The paper's central conceit is that a sampler "cannot tell the difference"
between access paths: the in-process query engine and the HTML-scraping
client answer the same conjunctive-query contract.  Before this package
existed, each access path also hand-rolled its own budget charging,
statistics bookkeeping and count-mode shaping.  :mod:`repro.backends`
separates the two concerns:

* a **raw backend** answers conjunctive queries and nothing else — it
  reports its match count as its count policy shapes it (exact by default)
  and never counts, charges or caches (:data:`RawBackend` names the
  structural protocol; the concrete adapters live in
  :mod:`repro.backends.adapters` and :mod:`repro.backends.shard`);
* a **layer** wraps any backend (raw or already-layered) and adds one
  client-visible concern — accounting (budget and statistics), history
  dedup/inference, injected unreliability (:mod:`repro.backends.layers`,
  :mod:`repro.backends.history`).

A batch has one method on every node: ``submit_outcomes(queries)`` returns
one outcome per item, the answer or the exception that item raised, so one
failed item never costs its siblings their answers.  :func:`forward_outcomes`
reaches it beneath any layer and degrades to a serial loop over a backend
that has only ``submit``;
:meth:`repro.backends.stack.BackendStack.submit_many` is the one call that
raises a batch's first error instead.  A node with a per-item policy
(retry, circuit breaker, failover) writes it once, as a loop over a batch's
outcomes: ``submit(query)`` runs that body over ``[query]`` with
:func:`outcomes_of` (the inner ``submit``) as its forward function, and
:func:`only_outcome` returns the one answer or raises the one error.

Every layer is itself a valid :data:`RawBackend`, so layers compose freely;
:class:`repro.backends.stack.BackendStack` is the curated composition the
rest of the system builds on.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.database.interface import HiddenDatabase, InterfaceResponse
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Schema


#: How a policy body reaches the backend beneath it: ``forward(backend,
#: queries)`` returns one outcome per query.  :func:`forward_outcomes` (the
#: batch method) and :func:`outcomes_of` (``submit`` per query) are the two.
Forward = Callable[[object, Sequence[ConjunctiveQuery]], list[InterfaceResponse | Exception]]


def outcome_of(backend: object, query: ConjunctiveQuery) -> "InterfaceResponse | Exception":
    """``backend.submit(query)``, with the exception it raises returned in place."""
    try:
        return backend.submit(query)
    except Exception as error:  # noqa: BLE001 - per-item outcome
        return error


def forward_outcomes(
    backend: object, queries: Sequence[ConjunctiveQuery]
) -> list["InterfaceResponse | Exception"]:
    """Submit a batch through ``backend``, reporting **per-item** outcomes.

    The one batch method of the backend protocol: a backend may expose
    ``submit_outcomes(queries) -> list[InterfaceResponse | Exception]``
    (:class:`~repro.backends.remote.RemoteBackend` does natively, every
    layer forwards it), in which case one failed item costs neither its
    siblings' answers nor — for the caching layer above — the round-trips
    already paid for them.  A failure that hits the whole batch at once (an
    unaffordable budget charge, a dropped round-trip) may still raise.
    Backends without it degrade to a serial loop that captures each item's
    exception in place.
    """
    submit_outcomes = getattr(backend, "submit_outcomes", None)
    if callable(submit_outcomes):
        return list(submit_outcomes(queries))
    return outcomes_of(backend, queries)


def outcomes_of(
    backend: object, queries: Sequence[ConjunctiveQuery]
) -> list["InterfaceResponse | Exception"]:
    """One :func:`outcome_of` per query: ``backend.submit`` in a serial loop.

    The forward function a policy body is given for single submissions: the
    one-item batch ``[query]`` still goes down through ``submit``, so the
    wire below sends it as a single request, not as a batch of one.
    """
    return [outcome_of(backend, query) for query in queries]


def only_outcome(outcomes: Sequence["InterfaceResponse | Exception"]) -> InterfaceResponse:
    """The answer of a one-item batch, or the exception it holds raised."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


#: Any hidden-database access path: the one structural protocol,
#: :class:`~repro.database.interface.HiddenDatabase`, under the name the
#: backend package uses.  A *raw* (unlayered) backend keeps a stricter
#: semantic contract: ``submit`` reports the match count as built (exact
#: unless the backend was given a count policy) and performs no accounting.
RawBackend = HiddenDatabase


class BackendLayer:
    """Base class of all middleware layers: a delegating wrapper.

    Subclasses override :meth:`submit` and :meth:`submit_outcomes` (calling
    the inner backend when they forward) and inherit the pass-through
    ``schema``/``k``.  The :attr:`inner` attribute is the hook stack
    introspection walks.
    """

    def __init__(self, inner: RawBackend) -> None:
        self.inner = inner

    @property
    def schema(self) -> Schema:
        """Schema of the wrapped backend."""
        return self.inner.schema

    @property
    def k(self) -> int:
        """Top-``k`` limit of the wrapped backend."""
        return self.inner.k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Forward ``query`` unchanged; subclasses add their one concern."""
        return self.inner.submit(query)

    def submit_outcomes(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> list["InterfaceResponse | Exception"]:
        """Forward a batch reporting per-item outcomes (the one batch method).

        A subclass overriding either submission entry point must override
        both — reprolint R2 (layer-contract) enforces exactly that, because
        a layer whose concern applies per submission must apply it on the
        batch path too.
        """
        return forward_outcomes(self.inner, queries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.inner!r})"


def iter_chain(backend: object) -> Iterator[object]:
    """Yield ``backend`` and every backend beneath it, outermost first.

    Follows ``.inner`` (layers) and ``.stack`` (prebuilt facades such as
    :class:`~repro.database.interface.HiddenDatabaseInterface` and
    :class:`~repro.web.client.WebFormClient`, which hold a
    :class:`~repro.backends.stack.BackendStack`), so accounting invariants —
    "exactly one statistics counter per access path" — can be checked across
    an arbitrarily composed chain.
    """
    seen: set[int] = set()
    node = backend
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        yield node
        nxt = getattr(node, "stack", None)        # facade -> its BackendStack
        if nxt is None or nxt is node:
            nxt = getattr(node, "top", None)      # BackendStack -> outermost layer
        if nxt is None:
            nxt = getattr(node, "inner", None)    # layer -> wrapped backend
        node = nxt
