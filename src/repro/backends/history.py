"""The query-history layer: dedup and inference for *every* access path.

"Following an optimization proposed in [2], this module also keeps track of
the query history and results to ensure that the random query generation
process accumulates savings by not issuing the same query twice, or queries
whose results can be inferred from the query history."  (paper Section 3.2)

The optimisation is a middleware layer in the backend stack, so the direct
engine path *and* the page-scraping web path both dedup and short-circuit
known-empty/known-valid queries — on the web path every avoided submission is
a whole page fetch saved.  :class:`HistoryLayer` intercepts submissions:

* **exact hit** — a query with the same canonical predicate set was answered
  before: replay the stored response, issue nothing;
* **inference from a valid ancestor** — a previously-seen *valid*
  (non-overflowing) query subsumes the new one; because the valid query
  returned *all* of its matching tuples, the new query's answer is exactly the
  subset of those tuples that satisfy the extra predicates — compute it
  locally, issue nothing;
* **inference of emptiness** — a previously-seen *empty* query subsumes the
  new one, so the new one is empty too; issue nothing;
* otherwise forward the query to the inner backend and remember the answer.

Savings are tracked in :class:`HistoryStatistics`, which benchmark E7 and
``benchmarks/bench_backend_stack.py`` report.

One backend has one history level however many sampling jobs use it; each
job counts its own savings through a :class:`JobHistory` view on it.

Thread-safety contract: the layer can legally sit *under* a
:class:`~repro.backends.dispatch.DispatchLayer` or serve concurrent HTTP
clients.  One lock guards everything it keeps: the remembered responses in
insertion order, the dict of *usable* entries (those that are empty or did
not overflow: the only ones an ancestor search can use), the keys being
issued right now, and the statistics.  A submission answered from the
history — an exact hit, or an inference remembered as it is made — takes the
lock once and is counted in that same section; a miss takes it once to claim
its key and once more to remember and count the answer (an issue that raises
counts its submission alone), so a :meth:`HistoryLayer.snapshot` never sees a
submission without its outcome.  The **per-key in-flight guard** ensures that
when several threads miss on the same canonical query simultaneously, exactly
one issues it to the inner backend — the rest wait and replay the cached
answer (the cache never double-pays a round-trip for the same bytes).  The
guard records the owner without allocating anything; the first thread that
actually has to wait creates the wake-up event, and the owner sets it, outside
the lock, only if it exists.

Batch submissions (:meth:`HistoryLayer.submit_outcomes`, the protocol's one
batch method) answer every hit and inferable item locally, deduplicate
repeated canonical keys *within* the batch, and forward only the first
occurrence of each genuine miss — as one inner ``submit_outcomes``, which
reaches the wire batch of :class:`~repro.backends.remote.RemoteBackend`
beneath, so a warm history over a remote endpoint pays one small POST
instead of many GETs.  The whole batch is classified in one critical section
and its outcomes settled in one more.  Each item gets its own outcome: when
one fails, the answers its siblings paid for are still remembered.

Complexity contract: a subsuming ancestor's canonical key is, by definition,
a subset of the query's canonical key, so the default ``inference="indexed"``
mode probes the usable dict with the ≤ 2^|q| predicate subsets of the query
— or, while the usable dict holds fewer than 2^|q| keys, checks those keys
instead — so a miss costs O(min(2^|q|, usable entries)) dict operations.
``inference="scan"`` checks every stored response for subsumption; it ignores
the usable dict and is kept as the property-test oracle for it.  Bookkeeping
uses insertion-ordered dicts throughout, so remembering an entry is O(1).
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Iterable, Sequence

from repro.backends.base import BackendLayer, forward_outcomes, outcome_of
from repro.database.interface import HiddenDatabase, InterfaceResponse, ReturnedTuple
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Schema
from repro.exceptions import ConfigurationError

class CachedResponseSource(enum.Enum):
    """Where the answer of one submission came from."""

    INTERFACE = "interface"    #: actually issued to the hidden database
    EXACT_HIT = "exact_hit"    #: replayed verbatim from the cache
    INFERRED = "inferred"      #: computed from a subsuming valid/empty query


# Module-level aliases: a global read instead of an attribute lookup on the
# enum class on every submission.
_INTERFACE = CachedResponseSource.INTERFACE
_EXACT_HIT = CachedResponseSource.EXACT_HIT
_INFERRED = CachedResponseSource.INFERRED


@dataclass
class HistoryStatistics:
    """Counters of how many interface queries the cache saved."""

    submissions: int = 0
    issued_to_interface: int = 0
    exact_hits: int = 0
    inferred: int = 0

    @property
    def saved(self) -> int:
        """Queries the sampler asked for but never reached the interface."""
        return self.exact_hits + self.inferred

    @property
    def saving_ratio(self) -> float:
        """Fraction of submissions answered without touching the interface."""
        if self.submissions == 0:
            return 0.0
        return self.saved / self.submissions

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view used by reports and benchmarks."""
        return {
            "submissions": self.submissions,
            "issued_to_interface": self.issued_to_interface,
            "exact_hits": self.exact_hits,
            "inferred": self.inferred,
            "saved": self.saved,
            "saving_ratio": self.saving_ratio,
        }


class HistoryLayer(BackendLayer):
    """A caching / inferring middleware layer over any hidden-database backend.

    ``inference`` selects how subsuming ancestors are found: ``"indexed"``
    (default) looks them up in the dict of usable entries, by the ≤ 2^|q|
    predicate subsets of the submitted query; ``"scan"`` linearly scans the
    history, serving as the equivalence oracle.  Both modes return identical
    responses.
    """

    #: Machine-checked by reprolint R1 (guarded-state): every dict and the
    #: savings counters are only mutated under the one lock.
    _guarded_by = {
        "statistics": "_lock",
        "_responses": "_lock",
        "_usable": "_lock",
        "_in_flight": "_lock",
    }

    def __init__(self, database: HiddenDatabase, inference: str = "indexed") -> None:
        if inference not in ("indexed", "scan"):
            raise ConfigurationError(
                f"inference must be 'indexed' or 'scan', got {inference!r}"
            )
        super().__init__(database)
        self._inference = inference
        self._lock = threading.Lock()
        #: key -> cached response, in insertion order.
        self._responses: dict[tuple, InterfaceResponse] = {}
        #: key -> response for every stored entry that is empty or did not
        #: overflow, the candidates of an ancestor search.
        self._usable: dict[tuple, InterfaceResponse] = {}
        #: key -> ``None`` while one thread issues that key, or the event the
        #: issuer sets on release once another thread has come to wait for it.
        self._in_flight: dict[tuple, threading.Event | None] = {}
        self.statistics = HistoryStatistics()

    # -- HiddenDatabase contract -----------------------------------------------------

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Answer ``query`` from the cache if possible, else forward it."""
        return self.lookup(query)[0]

    def lookup(
        self, query: ConjunctiveQuery
    ) -> tuple[InterfaceResponse, CachedResponseSource]:
        """Answer ``query`` and say where the answer came from.

        Concurrent submissions of the *same* canonical query coalesce: one
        thread issues, the others wait on its in-flight event and replay the
        remembered answer (counted as exact hits — they paid nothing).
        """
        key = query.canonical_key()
        while True:
            with self._lock:
                answered = self._answer_locked(key, query)
                if answered is not None:
                    return answered
                waiter = self._claim_locked(key)
            if waiter is None:
                break  # we own the in-flight slot for this key
            waiter.wait()
        try:
            response = self.inner.submit(query)
        except BaseException:
            # Waiters re-run their own lookup (and may issue themselves);
            # a failed issue must never leave them parked forever.
            self._settle(key, None)
            raise
        self._settle(key, response)
        return response, _INTERFACE

    def submit_outcomes(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> list[InterfaceResponse | Exception]:
        """Answer a batch: cache hits locally, the misses as one inner batch.

        Repeated canonical keys *within* the batch are issued once; keys
        another thread is already issuing are awaited after our own forward
        rather than re-issued.  Outcomes come back in input order; a failed
        item reports its error in every slot of its key, and its siblings'
        answers are remembered all the same.

        Answers are identical to a serial loop's; the *savings* may be
        slightly smaller: a serial loop can infer item ``j`` from item
        ``i < j``'s fresh answer, while a batch decides every item against
        the history as of batch start — the answers it would have inferred
        ride along in the same single round-trip instead.
        """
        queries = list(queries)
        results: list[InterfaceResponse | Exception | None] = [None] * len(queries)
        owned: dict[tuple, list[int]] = {}      # key -> positions we must issue
        awaited: list[tuple[int, threading.Event]] = []  # positions another thread issues
        answered_here = 0
        with self._lock:
            for index, query in enumerate(queries):
                key = query.canonical_key()
                if key in owned:
                    owned[key].append(index)  # within-batch duplicate: issue once
                    continue
                answered = self._answer_locked(key, query)
                if answered is not None:
                    results[index] = answered[0]
                    answered_here += 1
                    continue
                waiter = self._claim_locked(key)
                if waiter is None:
                    owned[key] = [index]
                else:
                    awaited.append((index, waiter))
        if owned:
            keys = list(owned)
            try:
                outcomes = forward_outcomes(self.inner, [queries[owned[key][0]] for key in keys])
            except BaseException:
                with self._lock:
                    # Every item not answered locally still counts as submitted.
                    self.statistics.submissions += len(queries) - answered_here
                    events = [self._in_flight.pop(key) for key in keys]
                for event in events:
                    if event is not None:
                        event.set()
                raise
            events = []
            with self._lock:
                statistics = self.statistics
                for key, outcome in zip(keys, outcomes):
                    positions = owned[key]
                    statistics.submissions += len(positions)
                    # A failed key is only released: its waiters fend for
                    # themselves, while its siblings' paid-for answers are kept.
                    if not isinstance(outcome, Exception):
                        self._store_locked(key, outcome)
                        statistics.issued_to_interface += 1
                        # A within-batch repeat of an issued key is the batch
                        # shape of an exact hit: a serial loop replays it.
                        statistics.exact_hits += len(positions) - 1
                    events.append(self._in_flight.pop(key))
                    for index in positions:
                        results[index] = outcome
            for event in events:
                if event is not None:
                    event.set()
        for index, waiter in awaited:
            # Another thread owned these keys; its answer is cached by now (or
            # it failed, in which case lookup() re-guards and issues).
            waiter.wait()
            results[index] = outcome_of(self, queries[index])  # lookup() counts it
        return results  # type: ignore[return-value] - every slot is filled

    # -- lookup, with the lock held ------------------------------------------------------

    def _answer_locked(
        self, key: tuple, query: ConjunctiveQuery
    ) -> tuple[InterfaceResponse, CachedResponseSource] | None:
        """An exact hit or inferred answer, counted; ``None`` on a miss."""
        cached = self._responses.get(key)
        if cached is not None:
            self.statistics.submissions += 1
            self.statistics.exact_hits += 1
            return cached, _EXACT_HIT
        inferred = self._infer_locked(query)
        if inferred is None:
            return None
        self._store_locked(key, inferred)
        self.statistics.submissions += 1
        self.statistics.inferred += 1
        return inferred, _INFERRED

    def _settle(self, key: tuple, response: InterfaceResponse | None) -> None:
        """Count one issued submission, remember its answer (``None`` when the
        issue raised), and free its in-flight slot, waking any waiter."""
        with self._lock:
            self.statistics.submissions += 1
            if response is not None:
                self._store_locked(key, response)
                self.statistics.issued_to_interface += 1
            event = self._in_flight.pop(key)
        if event is not None:
            event.set()

    def _claim_locked(self, key: tuple) -> threading.Event | None:
        """Become the issuer of ``key`` (``None``), or the event to wait on.

        The owner is recorded as ``None``: the event exists only once some
        thread has to wait for it.
        """
        if key not in self._in_flight:
            self._in_flight[key] = None
            return None
        event = self._in_flight[key]
        if event is None:
            event = self._in_flight[key] = threading.Event()
        return event

    # -- inference ---------------------------------------------------------------------

    def _infer_locked(self, query: ConjunctiveQuery) -> InterfaceResponse | None:
        ancestor = self._find_subsuming_locked(query)
        if ancestor is None:
            return None
        if ancestor.empty:
            # Emptiness: a cached empty query subsuming this one proves this
            # one is empty as well.
            tuples: tuple[ReturnedTuple, ...] = ()
        else:
            # Subset inference: a cached valid query returned *all* of its
            # matches, so a specialisation's answer is the filtered subset.
            tuples = tuple(t for t in ancestor.tuples if self._tuple_matches(query, t))
        return InterfaceResponse(
            query=query,
            tuples=tuples,
            overflow=False,
            reported_count=len(tuples) if ancestor.reported_count is not None else None,
            k=self.k,
        )

    def _find_subsuming_locked(self, query: ConjunctiveQuery) -> InterfaceResponse | None:
        """A cached empty or non-overflowing response subsuming ``query``.

        Any such ancestor yields the same inferred answer (an empty ancestor
        proves emptiness outright; a valid ancestor holds the complete result
        set, whose filtered-by-``query`` subset is the same rows in the same
        rank order whichever ancestor is used), so the lookup strategies —
        and the order they visit candidates in — are interchangeable.
        """
        if self._inference == "scan":
            for cached in self._responses.values():
                if (cached.empty or not cached.overflow) and cached.query.subsumes(query):
                    return cached
            return None
        key = query.canonical_key()
        n_predicates = len(key)
        usable = self._usable
        if len(usable) < 1 << n_predicates:
            # Fewer usable keys than predicate subsets (a young history, or a
            # very wide query): check each usable key instead.
            if usable:
                pairs = set(key)
                for subset, cached in usable.items():
                    if pairs.issuperset(subset):
                        return cached
            return None
        get = usable.get
        for size in range(n_predicates + 1):
            # combinations() keeps the sorted order of the canonical key, so
            # each subset is itself a canonical key.
            for subset in combinations(key, size):
                cached = get(subset)
                if cached is not None:
                    return cached
        return None

    @staticmethod
    def _tuple_matches(query: ConjunctiveQuery, returned: ReturnedTuple) -> bool:
        for predicate in query.predicates:
            if returned.selectable_values.get(predicate.attribute) != predicate.value:
                return False
        return True

    # -- cache maintenance ----------------------------------------------------------------

    def _store_locked(self, key: tuple, response: InterfaceResponse) -> None:
        self._responses[key] = response
        if response.empty or not response.overflow:
            self._usable[key] = response
        else:
            # Overwritten with an overflowing answer: no longer usable.
            self._usable.pop(key, None)

    def snapshot(self) -> HistoryStatistics:
        """A point-in-time copy of the savings counters, taken under the lock.

        Concurrent submissions update the live object; reading it field by
        field can observe a half-applied update, so dashboards and service
        endpoints report from this copy instead.
        """
        with self._lock:
            return replace(self.statistics)

    def clear(self) -> None:
        """Forget every cached response (statistics are kept)."""
        with self._lock:
            self._responses.clear()
            self._usable.clear()

    def _entries(self) -> list[tuple[tuple, InterfaceResponse]]:
        """Snapshot of every (key, response) in insertion order."""
        with self._lock:
            return list(self._responses.items())

    def valid_keys(self) -> frozenset:
        """Snapshot of the canonical keys usable for subset inference."""
        return frozenset(key for key, response in self._entries() if response.valid)

    def empty_keys(self) -> frozenset:
        """Snapshot of the canonical keys usable for emptiness inference."""
        return frozenset(key for key, response in self._entries() if response.empty)

    def cached(self, key: tuple) -> InterfaceResponse | None:
        """The response remembered under canonical ``key``, if any."""
        with self._lock:
            return self._responses.get(key)

    def remember(self, response: InterfaceResponse) -> None:
        """Store an answer paid for earlier (a checkpoint); statistics untouched."""
        with self._lock:
            self._store_locked(response.query.canonical_key(), response)

    def __len__(self) -> int:
        return len(self._responses)


class JobHistory:
    """One sampling job's counting view on a shared :class:`HistoryLayer`.

    Submissions go to the level's :meth:`HistoryLayer.lookup`; the view
    counts the job's own :class:`HistoryStatistics` from the source it
    reports — an answer another job paid for is a hit here — and keeps the
    job's keys in first-submission order for its checkpoint.

    Thread-safety contract: one job, one thread at a time; the view is
    unlocked, the level beneath is what concurrent jobs share.
    """

    def __init__(self, level: HistoryLayer) -> None:
        self.inner = level
        self.statistics = HistoryStatistics()
        self._keys: dict[tuple, None] = {}

    @property
    def schema(self) -> Schema:
        """Schema of the shared level."""
        return self.inner.schema

    @property
    def k(self) -> int:
        """Top-``k`` limit of the shared level."""
        return self.inner.k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Answer ``query`` through the level and count where it came from."""
        response, source = self.inner.lookup(query)
        self._keys[query.canonical_key()] = None  # re-assigning keeps the first position
        statistics = self.statistics
        statistics.submissions += 1
        if source is _INTERFACE:
            statistics.issued_to_interface += 1
        elif source is _EXACT_HIT:
            statistics.exact_hits += 1
        else:
            statistics.inferred += 1
        return response

    def snapshot(self) -> HistoryStatistics:
        """A copy of the job's savings counters."""
        return replace(self.statistics)

    def export_entries(self) -> list[dict]:
        """The job's answers as JSON-serialisable dicts, first submission first
        (keys the level has forgotten since, by :meth:`HistoryLayer.clear`,
        are left out)."""
        entries = []
        for key in self._keys:
            response = self.inner.cached(key)
            if response is not None:
                entries.append(
                    {
                        "query": response.query.assignment(),
                        "tuples": [
                            {
                                "tuple_id": t.tuple_id,
                                "values": dict(t.values),
                                "selectable_values": dict(t.selectable_values),
                            }
                            for t in response.tuples
                        ],
                        "overflow": response.overflow,
                        "reported_count": response.reported_count,
                    }
                )
        return entries

    def import_entries(
        self, entries: Iterable[dict], parse: Callable[[dict], ConjunctiveQuery]
    ) -> int:
        """Refill the level from :meth:`export_entries` output, as this job's keys.

        ``parse`` turns an entry's ``query`` assignment into the query its
        answer is stored under.  Returns the number of entries loaded;
        statistics are untouched, the answers were paid for before.
        """
        loaded = 0
        for entry in entries:
            query = parse(entry["query"])
            tuples = tuple(
                ReturnedTuple(
                    tuple_id=t["tuple_id"],
                    values=dict(t["values"]),
                    selectable_values=dict(t["selectable_values"]),
                )
                for t in entry["tuples"]
            )
            self.inner.remember(
                InterfaceResponse(
                    query=query,
                    tuples=tuples,
                    overflow=bool(entry["overflow"]),
                    reported_count=entry.get("reported_count"),
                    k=self.k,
                )
            )
            self._keys[query.canonical_key()] = None
            loaded += 1
        return loaded

    def __len__(self) -> int:
        return len(self._keys)
