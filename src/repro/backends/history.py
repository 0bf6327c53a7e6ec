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

Thread-safety contract: the layer is **lock-striped** so it can legally sit
*under* a :class:`~repro.backends.dispatch.DispatchLayer` or serve concurrent
HTTP clients.  The canonical-key space is partitioned over ``stripes``
independent stripes, each holding its own insertion-ordered dicts behind its
own lock.  Beside them sits one dict of the *usable* entries (those that are
empty or did not overflow: the only ones an ancestor search can use) behind
its own lock; every write to a stripe's responses updates it in the same
critical section, taking the stripe lock first and the usable-dict lock
second, never the reverse.  Statistics update under a third lock, each
answered submission counted together with its outcome in one section, so a
:meth:`HistoryLayer.snapshot` never sees a submission without its outcome
(an issue that raises counts its submission alone).  A **per-key in-flight
guard** ensures that when several threads miss on the same canonical query
simultaneously, exactly one issues it to the inner backend — the rest wait
and replay the cached answer (the cache never double-pays a round-trip for
the same bytes).  The guard records the owner without allocating anything;
the first thread that actually has to wait creates the wake-up event under
the stripe lock, and the owner sets it on release only if it exists.  One
deliberate exception to the striping: a *bounded* cache (``max_entries``)
collapses to a single stripe, preserving the exact global oldest-first
eviction order of the serial implementation.

Batch submissions (:meth:`HistoryLayer.submit_outcomes`, the protocol's one
batch method) answer every hit and inferable item locally, deduplicate
repeated canonical keys *within* the batch, and forward only the first
occurrence of each genuine miss — as one inner ``submit_outcomes``, which
reaches the wire batch of :class:`~repro.backends.remote.RemoteBackend`
beneath, so a warm history over a remote endpoint pays one small POST
instead of many GETs.  Each item gets its own outcome: when one fails, the
answers its siblings paid for are still remembered.

Complexity contract: a subsuming ancestor's canonical key is, by definition,
a subset of the query's canonical key, so the default ``inference="indexed"``
mode answers a miss with one acquire of the usable-dict lock, inside which
it probes the dict with the ≤ 2^|q| predicate subsets of the query — or,
while the usable dict holds fewer than 2^|q| keys, checks those keys
instead — so a miss costs O(min(2^|q|, usable entries)) dict operations and
never touches a stripe lock.  ``inference="scan"`` checks every stored
response for subsumption, stripe by stripe; it ignores the usable dict and is
kept as the property-test oracle for it.  Bookkeeping uses insertion-ordered
dicts throughout, so remembering and evicting an entry are O(1).
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

#: Default stripe count: plenty of parallelism for the 4–16 worker pools the
#: dispatch layers run, while keeping per-instance overhead negligible.
DEFAULT_STRIPES = 8


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


class _Stripe:
    """One shard of the canonical-key space: its own dicts, its own lock."""

    __slots__ = ("lock", "responses", "in_flight")

    #: Machine-checked by reprolint R1 (guarded-state): every dict of the
    #: stripe is only touched while that same stripe's ``lock`` is held.
    _guarded_by = {
        "responses": "lock",
        "in_flight": "lock",
    }

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: key -> cached response, in insertion order (O(1) oldest eviction).
        self.responses: dict[tuple, InterfaceResponse] = {}
        #: key -> ``None`` while one thread issues that key, or the event the
        #: issuer sets on release once another thread has come to wait for it.
        self.in_flight: dict[tuple, threading.Event | None] = {}


class HistoryLayer(BackendLayer):
    """A caching / inferring middleware layer over any hidden-database backend.

    ``inference`` selects how subsuming ancestors are found: ``"indexed"``
    (default) looks them up in the dict of usable entries, by the ≤ 2^|q|
    predicate subsets of the submitted query; ``"scan"`` linearly scans the
    history, serving as the equivalence oracle.  Both modes return identical
    responses.

    ``stripes`` bounds the lock striping (see the module docstring); a cache
    bounded by ``max_entries`` always uses one stripe so eviction order stays
    exactly the serial oldest-first order.
    """

    #: Machine-checked by reprolint R1 (guarded-state): the savings counters
    #: are only mutated under the dedicated statistics lock, the usable dict
    #: under its own lock (stripe dicts are declared on :class:`_Stripe`).
    _guarded_by = {"statistics": "_stats_lock", "_usable": "_usable_lock"}

    def __init__(
        self,
        database: HiddenDatabase,
        max_entries: int | None = None,
        inference: str = "indexed",
        stripes: int = DEFAULT_STRIPES,
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ConfigurationError("max_entries must be positive when given")
        if inference not in ("indexed", "scan"):
            raise ConfigurationError(
                f"inference must be 'indexed' or 'scan', got {inference!r}"
            )
        if stripes < 1:
            raise ConfigurationError("stripes must be at least 1")
        super().__init__(database)
        self._max_entries = max_entries
        self._inference = inference
        if max_entries is not None:
            # A bounded cache keeps ONE stripe: global oldest-first eviction
            # cannot be decided stripe-locally, and bounded caches are the
            # checkpoint/test configuration, not the concurrent hot path.
            stripes = 1
        self._stripe_list = tuple(_Stripe() for _ in range(stripes))
        #: key -> response for every stored entry that is empty or did not
        #: overflow, the candidates of an ancestor search.  Written only
        #: while the key's stripe lock is held as well (stripe lock first).
        self._usable_lock = threading.Lock()
        self._usable: dict[tuple, InterfaceResponse] = {}
        #: Statistics update under their own lock so counter maintenance never
        #: contends with (or deadlocks against) stripe bookkeeping.  The lock
        #: is global — every submission touches it once — but each critical
        #: section is a couple of integer increments (~100 ns); against the
        #: microsecond-to-millisecond engine/network work a submission fronts,
        #: it is noise, so per-stripe counter sharding is not worth its
        #: aggregation complexity.
        self._stats_lock = threading.Lock()
        self.statistics = HistoryStatistics()

    # -- HiddenDatabase contract -----------------------------------------------------

    @property
    def stripes(self) -> int:
        """How many lock stripes partition the canonical-key space."""
        return len(self._stripe_list)

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
        stripe = self._stripe_for(key)
        while True:
            answered = self._answer_locally(key, stripe, query)
            if answered is not None:
                self._count(1, answered[1])
                return answered
            claim = self._claim(key, stripe)
            if claim is True:
                break  # we own the in-flight slot for this key
            if isinstance(claim, threading.Event):
                claim.wait()
            # Otherwise the key got cached between lookup and claim: re-read it.
        try:
            response = self.inner.submit(query)
        except BaseException:
            # Waiters re-run their own lookup (and may issue themselves);
            # a failed issue must never leave them parked forever.
            self._release(key, stripe)
            self._count(1)
            raise
        self._remember(key, response)
        self._release(key, stripe)
        self._count(1, _INTERFACE)
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
        events: list[tuple[int, threading.Event]] = []  # positions awaiting another thread
        hits = inferred = 0
        for index, query in enumerate(queries):
            key = query.canonical_key()
            stripe = self._stripe_for(key)
            if key in owned:
                owned[key].append(index)  # within-batch duplicate: issue once
                continue
            # Same lookup-then-claim loop as lookup(): a key cached between
            # lookup and claim is re-read, never issued without owning the
            # in-flight slot (an eviction race must not double-issue).
            while True:
                answered = self._answer_locally(key, stripe, query)
                if answered is not None:
                    results[index] = answered[0]
                    if answered[1] is _EXACT_HIT:
                        hits += 1
                    else:
                        inferred += 1
                    break
                claim = self._claim(key, stripe)
                if claim is True:
                    owned[key] = [index]
                    break
                if isinstance(claim, threading.Event):
                    events.append((index, claim))
                    break
        self._count_batch(hits + inferred, exact_hits=hits, inferred=inferred)
        if owned:
            keys = list(owned)
            try:
                outcomes = forward_outcomes(self.inner, [queries[owned[key][0]] for key in keys])
            except BaseException:
                for key in keys:
                    self._release(key, self._stripe_for(key))
                # Every item not answered locally still counts as submitted.
                self._count_batch(len(queries) - hits - inferred)
                raise
            issued = 0
            extra_hits = 0
            for key, outcome in zip(keys, outcomes):
                # A failed key is only released: its waiters fend for
                # themselves, while its siblings' paid-for answers are kept.
                if not isinstance(outcome, Exception):
                    issued += 1
                    # A within-batch repeat of an issued key is the batch shape
                    # of an exact hit: the serial loop would have replayed it.
                    extra_hits += len(owned[key]) - 1
                    self._remember(key, outcome)
                self._release(key, self._stripe_for(key))
                for index in owned[key]:
                    results[index] = outcome
            self._count_batch(
                sum(len(positions) for positions in owned.values()),
                issued=issued,
                exact_hits=extra_hits,
            )
        for index, event in events:
            # Another thread owned these keys; its answer is cached by now
            # (or it failed, in which case lookup() re-guards and issues).
            event.wait()
            query = queries[index]
            key = query.canonical_key()
            answered = self._answer_locally(key, self._stripe_for(key), query)
            if answered is None:
                results[index] = outcome_of(self, query)  # lookup() counts it
            else:
                self._count(1, answered[1])
                results[index] = answered[0]
        return results  # type: ignore[return-value] - every slot is filled

    # -- lookup ------------------------------------------------------------------------

    def _stripe_for(self, key: tuple) -> _Stripe:
        return self._stripe_list[hash(key) % len(self._stripe_list)]

    def _answer_locally(
        self, key: tuple, stripe: _Stripe, query: ConjunctiveQuery
    ) -> tuple[InterfaceResponse, CachedResponseSource] | None:
        """An exact hit or inferred answer, ``None`` on miss; the caller counts it."""
        with stripe.lock:
            cached = stripe.responses.get(key)
        if cached is not None:
            return cached, _EXACT_HIT
        inferred = self._infer(query)
        if inferred is not None:
            self._remember(key, inferred)
            return inferred, _INFERRED
        return None

    def _count(self, submissions: int, source: CachedResponseSource | None = None) -> None:
        """Count submissions and the source that answered them, in one section.

        ``source`` is ``None`` for submissions that got no answer (the issue
        raised).
        """
        with self._stats_lock:
            self.statistics.submissions += submissions
            if source is _INTERFACE:
                self.statistics.issued_to_interface += submissions
            elif source is _EXACT_HIT:
                self.statistics.exact_hits += submissions
            elif source is _INFERRED:
                self.statistics.inferred += submissions

    def _count_batch(
        self, submissions: int, issued: int = 0, exact_hits: int = 0, inferred: int = 0
    ) -> None:
        """Count a batch's submissions together with their outcomes."""
        if not submissions:
            return
        with self._stats_lock:
            self.statistics.submissions += submissions
            self.statistics.issued_to_interface += issued
            self.statistics.exact_hits += exact_hits
            self.statistics.inferred += inferred

    def _claim(self, key: tuple, stripe: _Stripe) -> threading.Event | bool:
        """Try to become the issuer of ``key``.

        Returns ``True`` when this thread must issue, the event to wait on
        when another thread already is, and ``False`` when the key got cached
        in the meantime (caller re-reads).  The owner is recorded as ``None``:
        the event exists only once some thread has to wait for it.
        """
        with stripe.lock:
            if key in stripe.responses:
                return False
            if key not in stripe.in_flight:
                stripe.in_flight[key] = None
                return True
            event = stripe.in_flight[key]
            if event is None:
                event = stripe.in_flight[key] = threading.Event()
            return event

    def _release(self, key: tuple, stripe: _Stripe) -> None:
        """Give up the in-flight slot of ``key``, waking its waiters if any."""
        with stripe.lock:
            event = stripe.in_flight.pop(key, None)
        if event is not None:
            event.set()

    # -- inference ---------------------------------------------------------------------

    def _infer(self, query: ConjunctiveQuery) -> InterfaceResponse | None:
        ancestor = self._find_subsuming(query)
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

    def _find_subsuming(self, query: ConjunctiveQuery) -> InterfaceResponse | None:
        """A cached empty or non-overflowing response subsuming ``query``.

        Any such ancestor yields the same inferred answer (an empty ancestor
        proves emptiness outright; a valid ancestor holds the complete result
        set, whose filtered-by-``query`` subset is the same rows in the same
        rank order whichever ancestor is used), so the lookup strategies —
        and the order they visit candidates in — are interchangeable.
        """
        if self._inference == "scan":
            for stripe in self._stripe_list:
                with stripe.lock:
                    for cached in stripe.responses.values():
                        if (cached.empty or not cached.overflow) and cached.query.subsumes(query):
                            return cached
            return None
        key = query.canonical_key()
        n_predicates = len(key)
        with self._usable_lock:
            usable = self._usable
            if len(usable) < 1 << n_predicates:
                # Fewer usable keys than predicate subsets (a young history,
                # or a very wide query): check each usable key instead.
                if usable:
                    pairs = set(key)
                    for subset, cached in usable.items():
                        if pairs.issuperset(subset):
                            return cached
                return None
            get = usable.get
            for size in range(n_predicates + 1):
                # combinations() keeps the sorted order of the canonical key,
                # so each subset is itself a canonical key.
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

    def _remember(self, key: tuple, response: InterfaceResponse) -> None:
        usable = response.empty or not response.overflow
        stripe = self._stripe_for(key)
        with stripe.lock:
            evicted = None
            if key not in stripe.responses:
                # Only a genuinely new key can push the cache over its limit;
                # overwriting in place (e.g. re-importing a checkpoint) must
                # not evict an unrelated entry.  max_entries forces a single
                # stripe, so the stripe-local size IS the cache size and the
                # evicted entry is the globally oldest one.
                if self._max_entries is not None and len(stripe.responses) >= self._max_entries:
                    # The stripe's least recently *inserted* entry goes.
                    evicted = next(iter(stripe.responses))
                    del stripe.responses[evicted]
            stripe.responses[key] = response
            # Lock order: stripe, then usable dict — never the reverse.
            with self._usable_lock:
                if evicted is not None:
                    self._usable.pop(evicted, None)
                if usable:
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
        with self._stats_lock:
            return replace(self.statistics)

    def clear(self) -> None:
        """Forget every cached response (statistics are kept)."""
        for stripe in self._stripe_list:
            with stripe.lock:
                with self._usable_lock:
                    for key in stripe.responses:
                        self._usable.pop(key, None)
                stripe.responses.clear()

    def _entries(self) -> list[tuple[tuple, InterfaceResponse]]:
        """Snapshot of every (key, response), each stripe in insertion order."""
        entries: list[tuple[tuple, InterfaceResponse]] = []
        for stripe in self._stripe_list:
            with stripe.lock:
                entries.extend(stripe.responses.items())
        return entries

    def valid_keys(self) -> frozenset:
        """Snapshot of the canonical keys usable for subset inference."""
        return frozenset(key for key, response in self._entries() if response.valid)

    def empty_keys(self) -> frozenset:
        """Snapshot of the canonical keys usable for emptiness inference."""
        return frozenset(key for key, response in self._entries() if response.empty)

    def cached(self, key: tuple) -> InterfaceResponse | None:
        """The response remembered under canonical ``key``, if any."""
        stripe = self._stripe_for(key)
        with stripe.lock:
            return stripe.responses.get(key)

    def remember(self, response: InterfaceResponse) -> None:
        """Store an answer paid for earlier (a checkpoint); statistics untouched."""
        self._remember(response.query.canonical_key(), response)

    def __len__(self) -> int:
        return sum(len(stripe.responses) for stripe in self._stripe_list)


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
        (keys a bounded level has since evicted are left out)."""
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
