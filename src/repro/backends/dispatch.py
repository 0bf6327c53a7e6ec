"""Concurrent dispatch: issue a batch of submissions over the shared worker pool.

The paper's sampler is rate-limited by round-trips to the hidden database:
every drill-down step is one form submission, and on real access paths —
sharded catalogues, HTTP backends — each submission spends most of its wall
clock *waiting*.  :class:`DispatchLayer` overlaps those waits for a *batch*
of independent submissions without changing a single byte of any answer:
its :meth:`~DispatchLayer.submit_outcomes` issues the batch through the
wrapped backend — one ``submit`` per query, or one inner
``submit_outcomes`` per ``batch_size`` chunk when a wire-level batch path
sits beneath — on a :class:`~repro.backends.resilience.LazyPool`, outcomes
returned in input order.  Single ``submit`` calls pass straight through.

Everything beneath the layer must be thread-safe — see
``docs/architecture.md``: :class:`~repro.backends.layers.AccountingLayer`
locks its budget and counters, and
:class:`~repro.backends.history.HistoryLayer` guards its state with one
lock, so history legally sits *under* a dispatch layer and deduplicates
concurrent submissions of the same canonical query.

The same pool type scatters a :class:`~repro.backends.shard.ShardRouter`'s
per-shard sub-queries (``max_workers``) and answers the HTTP server's batch
items.  Threads buy nothing for CPU-bound in-process work (the interpreter
lock serialises it) and nearly linear speedups for latency-bound work —
``benchmarks/bench_dispatch.py`` measures both and guards the latter with a
≥2× floor.  The pool starts no thread until a concurrent call needs one;
:meth:`DispatchLayer.close` releases them, and the layer is a context
manager.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from repro.backends.base import BackendLayer, RawBackend, forward_outcomes, outcome_of
from repro.backends.resilience import LazyPool
from repro.database.interface import InterfaceResponse
from repro.database.query import ConjunctiveQuery
from repro.exceptions import InterfaceError


class DispatchLayer(BackendLayer):
    """Adds concurrent *batch* submission to any thread-safe backend.

    ``submit`` is a plain pass-through — one query cannot be parallelised
    with itself.  :meth:`submit_outcomes` issues a batch of independent
    queries through the wrapped backend on a bounded pool and returns one
    outcome per item in input order, the response or the exception that
    item raised.  Without ``batch_size`` (the default) each query is one
    ``inner.submit`` — over a :func:`~repro.backends.stack.remote_stack`,
    one ``GET`` each.

    ``batch_size`` chains this layer to a wire-level batch path beneath it:
    the batch is cut into chunks of at most ``batch_size`` queries and each
    chunk travels as **one** inner ``submit_outcomes`` call — over a remote
    stack that is one ``POST /api/submit_batch`` round-trip per chunk, and
    the chunks themselves overlap on the worker pool.

    The layer composes like any other, but it is the *outermost* layer of
    the stack that carries it (``remote_stack(..., parallel=N, batch=M)``):
    the layers beneath see exactly the same calls
    they would see from ``N`` independent clients, which is why their
    counters lock (see :class:`~repro.backends.layers.AccountingLayer`).
    """

    def __init__(
        self,
        inner: RawBackend,
        max_workers: int = 4,
        batch_size: int | None = None,
    ) -> None:
        super().__init__(inner)
        if batch_size is not None and batch_size < 1:
            raise InterfaceError("batch_size must be positive when given")
        self.batch_size = batch_size
        self._pool = LazyPool(max_workers, thread_name_prefix="backend-dispatch")

    @property
    def max_workers(self) -> int:
        """The pool bound batches are dispatched under."""
        return self._pool.max_workers

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Pass one query straight through: it cannot overlap with itself."""
        return self.inner.submit(query)

    def submit_outcomes(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> list[InterfaceResponse | Exception]:
        """Issue the batch concurrently; one outcome per item, in input order.

        Without ``batch_size`` every query is one ``inner.submit`` on the
        pool; with it, every chunk is one inner ``submit_outcomes``.  Each
        worker returns its items' exceptions instead of raising them across
        the pool, so one failed item never discards its siblings' answers.
        """
        queries = list(queries)
        size = self.batch_size
        if size is None:
            return self._pool.map(partial(outcome_of, self.inner), queries)
        chunks = [queries[start : start + size] for start in range(0, len(queries), size)]
        return [
            outcome
            for outcomes in self._pool.map(partial(forward_outcomes, self.inner), chunks)
            for outcome in outcomes
        ]

    def close(self) -> None:
        """Release the worker threads (the layer stays usable)."""
        self._pool.close()

    def __enter__(self) -> "DispatchLayer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
