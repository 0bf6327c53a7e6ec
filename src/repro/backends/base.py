"""The bottom of the composable access-path stack: raw backends and layers.

The paper's central conceit is that a sampler "cannot tell the difference"
between access paths: the in-process query engine and the HTML-scraping
client answer the same conjunctive-query contract.  Before this package
existed, each access path also hand-rolled its own budget charging,
statistics bookkeeping and count-mode shaping.  :mod:`repro.backends`
separates the two concerns:

* a **raw backend** answers conjunctive queries and nothing else — it
  reports its match count as its count policy shapes it (exact by default)
  and never counts, charges or caches (:class:`RawBackend` is the
  structural protocol; the concrete adapters live in
  :mod:`repro.backends.adapters` and :mod:`repro.backends.shard`);
* a **layer** wraps any backend (raw or already-layered) and adds one
  client-visible concern — accounting (budget and statistics), history
  dedup/inference, injected unreliability (:mod:`repro.backends.layers`,
  :mod:`repro.backends.history`).

Every layer is itself a valid :class:`RawBackend`, so layers compose freely;
:class:`repro.backends.stack.BackendStack` is the curated composition the
rest of the system builds on.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from repro.database.interface import InterfaceResponse
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Schema


def forward_many(
    backend: object, queries: Sequence[ConjunctiveQuery]
) -> list[InterfaceResponse]:
    """Submit a batch through ``backend``, using its batch path when it has one.

    The optional batch half of the backend protocol: a backend *may* expose
    ``submit_many(queries) -> list[InterfaceResponse]`` (responses in input
    order, first input-order failure raised).  Layers forward batches through
    this helper so a wire-level batch endpoint at the bottom of a stack is
    reached however many layers sit above it; backends without a batch path
    degrade to a serial loop with identical semantics.
    """
    submit_many = getattr(backend, "submit_many", None)
    if callable(submit_many):
        return list(submit_many(queries))
    return [backend.submit(query) for query in queries]


def forward_outcomes(
    backend: object, queries: Sequence[ConjunctiveQuery]
) -> list["InterfaceResponse | Exception"]:
    """Submit a batch through ``backend``, reporting **per-item** outcomes.

    The richer optional batch half of the protocol: a backend may expose
    ``submit_outcomes(queries) -> list[InterfaceResponse | Exception]``
    (:class:`~repro.backends.remote.RemoteBackend` does natively, the concern
    layers forward it), in which case one failed item costs neither its
    siblings' answers nor — for the caching layer above — the round-trips
    already paid for them.  Backends without it degrade to a serial loop
    that captures each item's exception in place.
    """
    submit_outcomes = getattr(backend, "submit_outcomes", None)
    if callable(submit_outcomes):
        return list(submit_outcomes(queries))
    outcomes: list[InterfaceResponse | Exception] = []
    for query in queries:
        try:
            outcomes.append(backend.submit(query))
        except Exception as error:  # noqa: BLE001 - per-item outcome
            outcomes.append(error)
    return outcomes


@runtime_checkable
class RawBackend(Protocol):
    """Structural protocol of any hidden-database access path.

    Identical in shape to :class:`repro.database.interface.HiddenDatabase` —
    deliberately so: samplers written against the old protocol run unchanged
    over a bare adapter, a single layer, or a whole stack.  The *semantic*
    contract of a raw (unlayered) backend is stricter: ``submit`` reports the
    match count as built (exact unless the backend was given a count
    policy) and performs no accounting.
    """

    @property
    def schema(self) -> Schema:  # pragma: no cover - protocol declaration
        ...

    @property
    def k(self) -> int:  # pragma: no cover - protocol declaration
        ...

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:  # pragma: no cover
        ...


class BackendLayer:
    """Base class of all middleware layers: a delegating wrapper.

    Subclasses override :meth:`submit` (calling ``self.inner.submit`` when
    they forward) and inherit the pass-through ``schema``/``k``.  The
    :attr:`inner` attribute is the hook stack introspection walks.
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

    def submit_many(self, queries: Sequence[ConjunctiveQuery]) -> list[InterfaceResponse]:
        """Forward a batch, reaching the inner backend's batch path when it
        has one.  Subclasses whose concern is per-submission (accounting,
        history, retries) override this so a batch is accounted exactly
        like the equivalent sequence of single submits.
        """
        return forward_many(self.inner, queries)

    def submit_outcomes(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> list["InterfaceResponse | Exception"]:
        """Forward a batch reporting per-item outcomes (the other batch half).

        Both batch halves forward by default so a pure pass-through subclass
        stays consistent; a subclass overriding any submission entry point
        must override both halves — reprolint R2 (layer-contract) enforces
        exactly that, because a layer whose concern applies per submission
        must apply it on every path a batch can take.
        """
        return forward_outcomes(self.inner, queries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.inner!r})"


def iter_chain(backend: object):
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
