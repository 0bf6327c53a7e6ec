"""Concurrent dispatch: fan sub-queries out over a bounded thread pool.

The paper's sampler is rate-limited by round-trips to the hidden database:
every drill-down step is one form submission, and on real access paths —
sharded catalogues, HTTP backends — each submission spends most of its wall
clock *waiting*.  This module overlaps those waits without changing a single
byte of any answer:

* :class:`ConcurrentShardRouter` — a drop-in
  :class:`~repro.backends.shard.ShardRouter` whose scatter half issues the
  per-shard sub-queries through a bounded ``ThreadPoolExecutor``.  Responses
  are collected **in shard order** (``Executor.map`` preserves input order),
  and the merge half is inherited unchanged, so the merged response is
  provably byte-identical to serial dispatch whatever the thread timing —
  the property tests drive this across worker counts, shard counts and all
  four ranking functions.

* :class:`DispatchLayer` — a middleware layer whose
  :meth:`~DispatchLayer.submit_outcomes` issues a *batch* of independent
  submissions concurrently through the wrapped backend — one ``submit`` per
  query, or one inner ``submit_outcomes`` per ``batch_size`` chunk when a
  wire-level batch path sits beneath — outcomes returned in input order.
  Single ``submit`` calls pass straight through.
  Everything beneath the layer must be thread-safe — see
  ``docs/architecture.md``: :class:`~repro.backends.layers.AccountingLayer`
  locks its budget and counters, and
  :class:`~repro.backends.history.HistoryLayer` guards its state with one
  lock, so history legally sits *under* a dispatch layer and deduplicates concurrent
  submissions of the same canonical query.

Neither class changes what is computed, only when: threads buy nothing for
CPU-bound in-process shards (the interpreter lock serialises them) and
nearly linear speedups for latency-bound ones — ``benchmarks/
bench_dispatch.py`` measures both and guards the latter with a ≥2× floor.

Thread pools are created lazily on the first concurrent call, so building a
router (e.g. inside ``sharded_stack(parallel=N)``) costs no threads until it
is used; :meth:`close` releases them, and both classes are context managers.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Sequence, TypeVar

from repro.backends.adapters import CountPolicy
from repro.backends.base import BackendLayer, RawBackend, forward_outcomes, outcome_of
from repro.backends.resilience import scoped_to_current_deadline
from repro.backends.shard import MergeKey, ShardRouter
from repro.database.interface import InterfaceResponse
from repro.database.query import ConjunctiveQuery
from repro.exceptions import InterfaceError

_T = TypeVar("_T")

#: Upper bound on the pool size when the caller does not pick one; fanning
#: wider than this buys nothing for the shard counts this repo works with.
DEFAULT_MAX_WORKERS = 8


class _LazyPool:
    """A bounded ``ThreadPoolExecutor`` created on first use, shared via lock."""

    #: Machine-checked by reprolint R1 (guarded-state): the pool reference is
    #: only created/swapped while ``_lock`` is held, so concurrent first
    #: callers share one executor instead of leaking one each.
    _guarded_by = {"_pool": "_lock"}

    def __init__(self, max_workers: int, thread_name_prefix: str) -> None:
        if max_workers <= 0:
            raise InterfaceError("max_workers must be positive")
        self.max_workers = max_workers
        self._thread_name_prefix = thread_name_prefix
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def get(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix=self._thread_name_prefix,
                )
            return self._pool

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class ConcurrentShardRouter(ShardRouter):
    """A :class:`ShardRouter` that scatters sub-queries over a thread pool.

    Identical contract, identical responses: only
    :meth:`~ShardRouter._gather` changes, mapping the per-shard work over a
    bounded executor instead of a loop.  ``max_workers`` bounds the pool
    (default: one thread per shard, capped at :data:`DEFAULT_MAX_WORKERS`).

    On the :meth:`over_table` layout no work goes to the pool: the router
    answers from the shared match mask on the calling thread, with one
    top-``k`` cut of the whole mask.  Heterogeneous shards (e.g. remote or
    latency-wrapped backends) take the independent scatter path, where each
    ``shard.submit`` — the round-trip — runs on its own worker: the case
    concurrency was built for.
    """

    def __init__(
        self,
        shards: Sequence[object],
        merge_key: MergeKey | None = None,
        max_workers: int | None = None,
        counts: CountPolicy | None = None,
    ) -> None:
        super().__init__(shards, merge_key=merge_key, counts=counts)
        if max_workers is None:
            max_workers = min(len(self._shards), DEFAULT_MAX_WORKERS)
        self._pool = _LazyPool(max_workers, thread_name_prefix="shard-dispatch")

    @classmethod
    def over_table(cls, *args, max_workers: int | None = None, **kwargs) -> "ConcurrentShardRouter":
        """Like :meth:`ShardRouter.over_table`, plus the pool bound."""
        router = super().over_table(*args, **kwargs)
        assert isinstance(router, ConcurrentShardRouter)  # cls propagates
        if max_workers is not None:
            # Construction time: the router has not been shared yet, so the
            # swap cannot race a concurrent ``get()``.
            router._pool = _LazyPool(max_workers, thread_name_prefix="shard-dispatch")  # reprolint: disable=R1
        return router

    @property
    def max_workers(self) -> int:
        """The pool bound sub-queries are dispatched under."""
        return self._pool.max_workers

    def _gather(self, work: Callable[[Any], _T]) -> list[_T]:
        return list(self._pool.get().map(scoped_to_current_deadline(work), self._shards))

    def close(self) -> None:
        """Release the worker threads (the router stays usable; a new pool
        is created on the next submission)."""
        self._pool.close()

    def __enter__(self) -> "ConcurrentShardRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConcurrentShardRouter(shards={len(self._shards)}, k={self._k}, "
            f"max_workers={self.max_workers})"
        )


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
    the stacks that carry it (``web_stack(parallel=N)``, ``remote_stack(...,
    parallel=N, batch=M)``): the layers beneath see exactly the same calls
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
        self._pool = _LazyPool(max_workers, thread_name_prefix="backend-dispatch")

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
            return self._map(partial(outcome_of, self.inner), queries)
        chunks = [queries[start : start + size] for start in range(0, len(queries), size)]
        return [
            outcome
            for outcomes in self._map(partial(forward_outcomes, self.inner), chunks)
            for outcome in outcomes
        ]

    def _map(self, work: Callable[[Any], _T], items: list) -> list[_T]:
        """``work`` over ``items`` in input order, on the pool when there are several."""
        if len(items) <= 1:
            return [work(item) for item in items]
        # The workers run outside the caller's contextvar scope, so the
        # ambient deadline must travel with the callable.
        return list(self._pool.get().map(scoped_to_current_deadline(work), items))

    def close(self) -> None:
        """Release the worker threads (the layer stays usable)."""
        self._pool.close()

    def __enter__(self) -> "DispatchLayer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
