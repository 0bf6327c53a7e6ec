"""Composable middleware layers: one client-visible concern per layer.

Each layer wraps any backend (raw adapter, another layer, or a whole stack)
and adds one of the realities the old monolithic access paths hand-rolled:

* :class:`AccountingLayer` — the per-client query budget (paper Section 1:
  providers "limit the maximum number of queries that can be issued by an
  IP address") and the interaction bookkeeping every experiment reports,
  charged and counted in one node under one lock; by design the *only*
  place queries are counted on an access path;
* :class:`UnreliableLayer` — injectable rate-limit and transient-failure
  scenarios with retries, for exercising workloads against flaky sources.

Whether the client sees no count, the exact count or a noisy one (the
Google Base situation) is not a layer: the answer builders shape it through
a :class:`~repro.backends.adapters.CountPolicy`.

Layer order matters and is part of the contract: the curated compositions in
:mod:`repro.backends.stack` reproduce the legacy interface and web client
behaviour bit for bit.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
from typing import Sequence

from repro._rng import resolve_rng, spawn_rng
from repro.backends.base import BackendLayer, RawBackend, forward_many, forward_outcomes
from repro.backends.resilience import (
    Deadline,
    Fault,
    FaultSchedule,
    backoff_delay,
    current_deadline,
)
from repro.database.interface import InterfaceResponse, InterfaceStatistics
from repro.database.limits import QueryBudget
from repro.database.query import ConjunctiveQuery
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    InterfaceError,
    RateLimitedError,
    TransientBackendError,
)


class AccountingLayer(BackendLayer):
    """Charges a :class:`~repro.database.limits.QueryBudget` and counts answers.

    The charge happens *before* the inner backend is touched — a budget
    violation raises and leaves the hidden database unqueried, exactly like a
    site that starts refusing requests.  Only answers the client actually
    received are counted in :attr:`statistics`: a submission that raises
    below this layer (transient failure that exhausted its retries) counts
    nothing, matching the legacy interface bookkeeping.

    ``statistics=False`` charges only (``statistics`` is then ``None``): the
    right choice for a stack served to remote or scraping *clients* that own
    the counting.  A counting layer is the single source of truth for query
    accounting on its access path; :class:`repro.backends.stack.BackendStack`
    enforces that a composed chain never contains two of them, which is what
    used to let a wrapped web client double-count issued queries.
    """

    #: Machine-checked by reprolint R1 (guarded-state): the budget is only
    #: charged, and the counters only recorded/replaced, while ``_lock`` is
    #: held; read the counters via :meth:`snapshot`.
    _guarded_by = {"budget": "_lock", "statistics": "_lock"}

    def __init__(
        self, inner: RawBackend, budget: QueryBudget | None = None, statistics: bool = True
    ) -> None:
        super().__init__(inner)
        self.budget = budget if budget is not None else QueryBudget()
        self.statistics = InterfaceStatistics() if statistics else None
        # Charging is a read-check-increment and record() five read-modify-
        # write updates on shared counters; the lock keeps both exact when a
        # DispatchLayer fans submissions out over threads, so a nearly-
        # exhausted budget is never overspent and no count is lost.  It is
        # never held across the inner backend.  Whether ``statistics`` is
        # None is fixed here, so the submit paths test it without the lock.
        self._lock = threading.Lock()

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        with self._lock:
            self.budget.charge(1)
        response = self.inner.submit(query)
        if self.statistics is not None:
            with self._lock:
                self.statistics.record(response)
        return response

    def submit_many(self, queries: Sequence[ConjunctiveQuery]) -> list[InterfaceResponse]:
        """Charge the whole batch up front, all or nothing; count its answers.

        A batch the budget cannot afford raises before a single query is
        issued, exactly as a site that stops answering does; it never
        half-spends a nearly-exhausted budget on a partial batch.  A batch
        that raises below this layer counts nothing.
        """
        queries = list(queries)
        with self._lock:
            self.budget.charge(len(queries))
        responses = forward_many(self.inner, queries)
        if self.statistics is not None:
            with self._lock:
                for response in responses:
                    self.statistics.record(response)
        return responses

    def submit_outcomes(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> list[InterfaceResponse | Exception]:
        """Per-item outcomes, the batch charged up front like :meth:`submit_many`;
        only *answered* items are counted."""
        queries = list(queries)
        with self._lock:
            self.budget.charge(len(queries))
        outcomes = forward_outcomes(self.inner, queries)
        if self.statistics is not None:
            with self._lock:
                for outcome in outcomes:
                    if not isinstance(outcome, Exception):
                        self.statistics.record(outcome)
        return outcomes

    def reset(self) -> None:
        """Clear the counters (a fresh experiment over a warm backend); the
        budget is left untouched.

        Swapping the statistics object races against in-flight ``record``
        calls: without the lock a submission concurrent with the reset could
        record into the discarded object and vanish.
        """
        with self._lock:
            if self.statistics is not None:
                self.statistics = InterfaceStatistics()

    def snapshot(self) -> InterfaceStatistics | None:
        """A point-in-time copy of the counters, consistent under concurrency
        (``None`` when the layer does not count).

        Dashboards and service endpoints read counters while submissions are
        in flight; reading field-by-field off the live object can observe a
        half-applied ``record``.  The copy is taken under the lock, so the
        caller gets one coherent point in time.
        """
        with self._lock:
            if self.statistics is None:
                return None
            return dataclasses.replace(self.statistics)


@dataclasses.dataclass
class UnreliableStatistics:
    """How much chaos the layer produced (injected) and absorbed (either kind)."""

    attempts: int = 0            #: forwarded attempts, including retried ones
    transient_failures: int = 0  #: injected transient faults
    rate_limited: int = 0        #: injected rate-limit rejections
    backend_transient_failures: int = 0  #: real transient faults raised by the inner backend
    backend_rate_limited: int = 0        #: real rate-limit rejections raised by the inner backend
    retries: int = 0             #: attempts re-issued after a fault of either origin
    gave_up: int = 0             #: submissions that failed even after retrying
    injected_drops: int = 0      #: injected (scripted) connection drops
    deadline_exceeded: int = 0   #: submissions abandoned because their deadline ran out

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view used by reports and benchmarks."""
        return dataclasses.asdict(self)


class UnreliableLayer(BackendLayer):
    """Injects rate-limit / transient-failure scenarios — and retries both
    injected faults and the real ones the inner backend raises.

    Real scraping workloads see 429s and timeouts; samplers and services
    built on this stack can be exercised against those failure modes without
    a network.  Each forwarded attempt fails with probability
    ``failure_rate`` (a :class:`~repro.exceptions.TransientBackendError`),
    and every ``rate_limit_every``-th attempt is rejected once with a
    :class:`~repro.exceptions.RateLimitedError`.  The layer itself retries up
    to ``max_retries`` times, so with retries enabled the stack self-heals
    while :attr:`statistics` records the weather; with ``max_retries=0``
    every fault surfaces to the caller.

    The same retry loop covers :class:`TransientBackendError` /
    :class:`RateLimitedError` raised *by the inner backend* — which, now that
    :class:`~repro.backends.remote.RemoteBackend` maps HTTP 429/503 onto
    those exceptions, means real network faults recover exactly like injected
    ones (tracked separately as ``backend_*`` counters).  Non-transient
    errors (e.g. an exhausted budget) propagate immediately.  With all
    injection parameters at their defaults the layer is a pure retry layer —
    what :func:`~repro.backends.stack.remote_stack` builds on.

    ``retry_backoff`` starts an exponential backoff before each re-attempt
    (0 disables, the right setting for in-process chaos tests), ceilinged at
    ``max_backoff`` and — when backoff is enabled — fully jittered through a
    generator spawned off this layer's seed (deterministic per seed, but
    desynchronised across clients; see
    :func:`repro.backends.resilience.backoff_delay`).  A server-supplied
    ``retry_after`` hint on the fault is preferred over the computed backoff,
    and every sleep respects the ambient
    :class:`~repro.backends.resilience.Deadline`: a sleep that would outlive
    the remaining budget raises
    :class:`~repro.exceptions.DeadlineExceededError` instead.
    :class:`~repro.exceptions.CircuitOpenError` from beneath is *never*
    retried — retrying an open circuit is the hammering the breaker exists
    to stop.  ``latency`` sleeps before every forwarded attempt, simulating
    a network round-trip — how ``benchmarks/bench_dispatch.py`` makes shard
    fan-out latency-bound without a socket.

    ``schedule`` replaces the probabilistic fault menu with a *scripted*
    :class:`~repro.backends.resilience.FaultSchedule`: entry *i* decides the
    *i*-th forwarded attempt verbatim (transient fault, rate limit with
    hint, connection drop, latency spike), so breaker transitions and
    deadline behaviour are testable deterministically without a socket.
    """

    #: Machine-checked by reprolint R1 (guarded-state): the chaos counters and
    #: the injection schedule are only mutated while ``_lock`` is held (the
    #: ``*_locked`` helper relies on its caller holding it).
    _guarded_by = {"statistics": "_lock", "_since_rate_limit": "_lock"}

    def __init__(
        self,
        inner: RawBackend,
        failure_rate: float = 0.0,
        rate_limit_every: int | None = None,
        max_retries: int = 3,
        seed: int | random.Random | None = 0,
        retry_backoff: float = 0.0,
        max_backoff: float | None = None,
        latency: float = 0.0,
        schedule: FaultSchedule | Sequence[Fault | str] | None = None,
    ) -> None:
        if not 0.0 <= failure_rate < 1.0:
            raise InterfaceError("failure_rate must be in [0, 1)")
        if rate_limit_every is not None and rate_limit_every <= 0:
            raise InterfaceError("rate_limit_every must be positive when given")
        if max_retries < 0:
            raise InterfaceError("max_retries must be non-negative")
        if retry_backoff < 0 or latency < 0:
            raise InterfaceError("retry_backoff and latency must be non-negative")
        if max_backoff is not None and max_backoff < 0:
            raise InterfaceError("max_backoff must be non-negative when given")
        super().__init__(inner)
        self.failure_rate = failure_rate
        self.rate_limit_every = rate_limit_every
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.max_backoff = max_backoff
        self.latency = latency
        if schedule is None or isinstance(schedule, FaultSchedule):
            self.schedule = schedule
        else:
            self.schedule = FaultSchedule(schedule)
        self.statistics = UnreliableStatistics()
        self._rng = resolve_rng(seed)
        # The jitter stream is spawned (not shared) and only when backoff is
        # enabled, so zero-backoff configs keep their exact historical
        # fault-injection RNG stream.
        self._backoff_rng = spawn_rng(self._rng, "backoff") if retry_backoff > 0.0 else None
        self._since_rate_limit = 0
        # Counter updates and the injection schedule (_since_rate_limit, the
        # RNG) are read-modify-write on shared state; the lock keeps the
        # statistics exact when the layer sits under a DispatchLayer.  The
        # *interleaving* of the schedule across threads is still scheduling-
        # dependent — use per-thread instances when it must be deterministic.
        self._lock = threading.Lock()

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        last_error: Exception | None = None
        deadline = current_deadline()
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                with self._lock:
                    self.statistics.retries += 1
                    delay = self._retry_delay_locked(attempt, last_error)
                self._sleep_within_deadline(delay, deadline)
            elif deadline is not None and deadline.expired:
                with self._lock:
                    self.statistics.deadline_exceeded += 1
                deadline.check("submission")
            scripted = self.schedule.next_fault() if self.schedule is not None else None
            if scripted is not None and scripted.latency > 0.0:
                time.sleep(scripted.latency)
            if self.latency > 0.0:
                time.sleep(self.latency)
            with self._lock:
                self.statistics.attempts += 1
                if scripted is not None:
                    error = self._record_scripted_locked(scripted)
                else:
                    error = self._inject_fault_locked()
            if error is not None:
                last_error = error
                continue
            try:
                return self.inner.submit(query)
            except CircuitOpenError:
                # An open circuit beneath fails fast on purpose; retrying it
                # is exactly the hammering the breaker exists to stop.
                raise
            except RateLimitedError as backend_error:
                with self._lock:
                    self.statistics.backend_rate_limited += 1
                last_error = backend_error
            except TransientBackendError as backend_error:
                with self._lock:
                    self.statistics.backend_transient_failures += 1
                last_error = backend_error
        with self._lock:
            self.statistics.gave_up += 1
        assert last_error is not None
        raise last_error

    def submit_many(self, queries: Sequence[ConjunctiveQuery]) -> list[InterfaceResponse]:
        """Forward a batch with **per-item** retries; first input-order error raised.

        This is where the batch endpoint's per-item statuses pay off: one
        rate-limited item does not fail (or re-issue!) its siblings — only
        the items that actually faulted, injected or real, are re-sent on the
        next attempt, as one smaller batch.  Once retries are exhausted, or an
        item failed permanently (e.g. an exhausted budget), the first
        input-order error is raised — exactly what the equivalent serial loop
        would have surfaced.  Callers that want the surviving answers despite
        a failed sibling use :meth:`submit_outcomes` (the history layer does,
        so paid-for answers are cached even when the batch as a whole fails).
        """
        outcomes = self.submit_outcomes(queries)
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
        return outcomes  # type: ignore[return-value] - no exceptions left

    def submit_outcomes(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> list[InterfaceResponse | Exception]:
        """The retry loop of :meth:`submit_many`, reporting per-item outcomes."""
        queries = list(queries)
        if not queries:
            return []
        results: list[InterfaceResponse | Exception | None] = [None] * len(queries)
        retryable = list(range(len(queries)))
        deadline = current_deadline()
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                with self._lock:
                    self.statistics.retries += len(retryable)
                    delay = self._retry_delay_locked(
                        attempt, self._batch_hint_error(results, retryable)
                    )
                try:
                    self._sleep_within_deadline(delay, deadline)
                except DeadlineExceededError as expired:
                    # Per-item contract: the budget running out mid-batch is
                    # reported on the items still waiting, not thrown at the
                    # items already answered.
                    for index in retryable:
                        results[index] = expired
                    return results  # type: ignore[return-value] - every slot is filled
            elif deadline is not None and deadline.expired:
                with self._lock:
                    self.statistics.deadline_exceeded += 1
                expired_error = DeadlineExceededError(
                    "batch submission", remaining_ms=deadline.remaining_ms()
                )
                return [expired_error] * len(queries)
            if self.latency > 0.0:
                time.sleep(self.latency)  # one batch = one simulated round-trip
            issue: list[int] = []
            injected: list[int] = []
            spike = 0.0
            for index in retryable:
                scripted = self.schedule.next_fault() if self.schedule is not None else None
                if scripted is not None:
                    spike = max(spike, scripted.latency)
                with self._lock:
                    self.statistics.attempts += 1
                    if scripted is not None:
                        fault = self._record_scripted_locked(scripted)
                    else:
                        fault = self._inject_fault_locked()
                if fault is None:
                    issue.append(index)
                else:
                    results[index] = fault
                    injected.append(index)
            if spike > 0.0:
                time.sleep(spike)  # the batch is as slow as its slowest item
            outcomes = self._forward_batch([queries[index] for index in issue])
            still_retryable = list(injected)
            for index, outcome in zip(issue, outcomes):
                results[index] = outcome
                if isinstance(outcome, CircuitOpenError):
                    # Fail-fast by design: reported as-is, never retried.
                    with self._lock:
                        self.statistics.backend_transient_failures += 1
                elif isinstance(outcome, RateLimitedError):
                    with self._lock:
                        self.statistics.backend_rate_limited += 1
                    still_retryable.append(index)
                elif isinstance(outcome, TransientBackendError):
                    with self._lock:
                        self.statistics.backend_transient_failures += 1
                    still_retryable.append(index)
                # Any other exception is permanent: reported as-is, never
                # retried — mirroring the single-submit path.
            retryable = sorted(still_retryable)
            if not retryable:
                break
        if retryable:
            with self._lock:
                self.statistics.gave_up += len(retryable)
        return results  # type: ignore[return-value] - every slot is filled

    def _forward_batch(
        self, queries: list[ConjunctiveQuery]
    ) -> list[InterfaceResponse | Exception]:
        """Per-item outcomes from the inner backend, batched when it can.

        A backend with a wire batch (``RemoteBackend``) reports per-item
        outcomes natively via ``submit_outcomes``; anything else degrades to a
        serial loop that captures each item's exception instead of raising —
        the shape the retry loop needs either way.  A transient fault that
        takes down the *whole* batched round-trip (connection dropped, proxy
        503 on the POST itself) is spread onto every item, so the retry loop
        heals it exactly like per-item faults instead of letting it escape
        unretried.
        """
        if not queries:
            return []
        try:
            return forward_outcomes(self.inner, queries)
        except RateLimitedError as error:
            return [error] * len(queries)
        except TransientBackendError as error:
            return [error] * len(queries)

    def snapshot(self) -> UnreliableStatistics:
        """A point-in-time copy of the chaos counters (see ``AccountingLayer``)."""
        with self._lock:
            return dataclasses.replace(self.statistics)

    def _inject_fault_locked(self) -> Exception | None:
        # The ``_locked`` suffix is the reprolint R1 convention: the caller
        # holds ``self._lock`` for the whole call.
        if self.rate_limit_every is not None:
            self._since_rate_limit += 1
            if self._since_rate_limit >= self.rate_limit_every:
                self._since_rate_limit = 0
                self.statistics.rate_limited += 1
                return RateLimitedError(self.rate_limit_every)
        if self.failure_rate > 0.0 and self._rng.random() < self.failure_rate:
            self.statistics.transient_failures += 1
            return TransientBackendError()
        return None

    def _record_scripted_locked(self, fault: Fault) -> Exception | None:
        # Caller holds ``self._lock`` (reprolint R1 convention).  The scripted
        # counterpart of :meth:`_inject_fault_locked`: count the fault under
        # the matching counter and materialise its typed exception.
        error = fault.error()
        if fault.kind == "rate_limit":
            self.statistics.rate_limited += 1
        elif fault.kind == "drop":
            self.statistics.injected_drops += 1
        elif fault.kind == "transient":
            self.statistics.transient_failures += 1
        return error

    def _retry_delay_locked(self, attempt: int, last_error: Exception | None) -> float:
        # Caller holds ``self._lock`` (the jitter draw mutates shared RNG
        # state).  A server-supplied Retry-After hint beats the computed
        # backoff: the server knows when it will answer again; our exponential
        # curve is only a guess.
        if isinstance(last_error, TransientBackendError) and last_error.retry_after is not None:
            return last_error.retry_after
        return backoff_delay(
            self.retry_backoff, attempt - 1, self.max_backoff, self._backoff_rng
        )

    def _batch_hint_error(
        self,
        results: Sequence["InterfaceResponse | Exception | None"],
        retryable: Sequence[int],
    ) -> Exception | None:
        """The retryable item carrying the largest server Retry-After hint.

        One sleep covers the whole re-issued batch, so the batch must wait
        out the most-throttled item — sleeping any less would re-send that
        item early, exactly what the server asked us not to do.
        """
        hinted: Exception | None = None
        largest = -1.0
        for index in retryable:
            outcome = results[index]
            if (
                isinstance(outcome, TransientBackendError)
                and outcome.retry_after is not None
                and outcome.retry_after > largest
            ):
                hinted = outcome
                largest = outcome.retry_after
        return hinted

    def _sleep_within_deadline(self, delay: float, deadline: Deadline | None) -> None:
        """Sleep ``delay`` seconds — unless the deadline forbids it.

        A sleep that would consume the entire remaining budget (or a budget
        already spent) raises :class:`DeadlineExceededError` immediately:
        there would be no time left to actually use the retry the sleep was
        buying.
        """
        if deadline is not None and (deadline.expired or delay >= deadline.remaining()):
            with self._lock:
                self.statistics.deadline_exceeded += 1
            raise DeadlineExceededError(
                "retry backoff", remaining_ms=deadline.remaining_ms()
            )
        if delay > 0.0:
            time.sleep(delay)
