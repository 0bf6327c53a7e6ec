"""The thread-safe HistoryLayer: concurrent submits, serial answers.

The contract its locking must uphold is absolute (acceptance criterion of
the remote-hot-path change): answers produced by a history under
8-way concurrent submission are **byte-identical** to the serial
``HistoryLayer``'s answers for the same queries, and the per-key in-flight
guard ensures the same canonical query is never issued to the inner backend
twice — however many threads miss on it simultaneously.
"""

import random
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import BackendStack, HistoryLayer, QueryEngineBackend
from repro.backends.history import CachedResponseSource, JobHistory
from repro.database.interface import HiddenDatabaseInterface
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import HashRanking, StaticScoreRanking

from tests.property.test_properties import table_and_query

N_THREADS = 8


class CountingBackend:
    """Counts how often each canonical query actually reaches the backend."""

    def __init__(self, inner, delay: float = 0.0):
        self.inner = inner
        self.delay = delay
        self.counts: dict[tuple, int] = {}
        self._lock = threading.Lock()

    @property
    def schema(self):
        return self.inner.schema

    @property
    def k(self):
        return self.inner.k

    def submit(self, query):
        key = query.canonical_key()
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1
        if self.delay:
            time.sleep(self.delay)
        return self.inner.submit(query)


def _query_sequence(schema, rng: random.Random, count: int):
    """Random queries with deliberate repeats and specialisations."""
    queries = [ConjunctiveQuery.empty(schema)]
    while len(queries) < count:
        roll = rng.random()
        if roll < 0.35 and len(queries) > 1:
            queries.append(rng.choice(queries))  # exact repeat
        elif roll < 0.6 and len(queries) > 1:
            base = rng.choice(queries)  # specialisation (inference bait)
            free = [a for a in schema if base.value_of(a.name) is None]
            if free:
                attribute = rng.choice(free)
                queries.append(
                    base.specialise(attribute.name, rng.choice(attribute.domain.values))
                )
                continue
            queries.append(base)
        else:
            assignment = {}
            for attribute in schema:
                if rng.random() < 0.5:
                    assignment[attribute.name] = rng.choice(attribute.domain.values)
            queries.append(ConjunctiveQuery.from_assignment(schema, assignment))
    return queries


class TestStripedEqualsSerial:
    @given(
        data=table_and_query(),
        k=st.integers(min_value=1, max_value=8),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_concurrent_striped_answers_equal_serial_answers(self, data, k, seed):
        """The acceptance property: 8-way concurrent submits through one
        history return byte-for-byte what the serial layer returns."""
        schema, table, _ = data
        rng = random.Random(seed)
        queries = _query_sequence(schema, rng, 24)
        shared = HistoryLayer(
            HiddenDatabaseInterface(table, k=k, ranking=HashRanking("x"))
        )
        serial = HistoryLayer(HiddenDatabaseInterface(table, k=k, ranking=HashRanking("x")))
        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            concurrent_responses = list(pool.map(shared.submit, queries))
        serial_responses = [serial.submit(query) for query in queries]
        for concurrent, expected, query in zip(concurrent_responses, serial_responses, queries):
            assert concurrent == expected, str(query)

    def test_concurrent_submit_outcomes_answers_equal_serial(self, tiny_table, tiny_schema):
        shared = HistoryLayer(
            QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())
        )
        oracle = QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())
        rng = random.Random(4)
        batches = [_query_sequence(tiny_schema, rng, 12) for _ in range(N_THREADS)]
        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            all_responses = list(pool.map(shared.submit_outcomes, batches))
        for batch, responses in zip(batches, all_responses):
            assert responses == [oracle.submit(query) for query in batch]


class TestInFlightGuard:
    def test_same_query_from_eight_threads_is_issued_once(self, tiny_table, tiny_schema):
        counting = CountingBackend(
            QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()),
            delay=0.02,
        )
        layer = HistoryLayer(counting)
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        barrier = threading.Barrier(N_THREADS)

        def hammer():
            barrier.wait()
            return layer.submit(query)

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            responses = [future.result() for future in [pool.submit(hammer) for _ in range(N_THREADS)]]
        assert counting.counts == {query.canonical_key(): 1}
        assert all(response == responses[0] for response in responses)
        stats = layer.statistics
        assert stats.submissions == N_THREADS
        assert stats.issued_to_interface == 1
        assert stats.saved == N_THREADS - 1

    def test_mixed_concurrent_workload_never_double_issues(self, tiny_table, tiny_schema):
        """Across an 8-thread hammering of a repeat-heavy workload, no
        canonical key is ever paid for twice (no eviction configured)."""
        counting = CountingBackend(
            QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()),
            delay=0.002,
        )
        layer = HistoryLayer(counting)
        rng = random.Random(11)
        queries = _query_sequence(tiny_schema, rng, 60)
        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            list(pool.map(layer.submit, queries))
        assert all(count == 1 for count in counting.counts.values()), counting.counts

    def test_job_views_count_exactly_under_concurrency(self, tiny_table, tiny_schema):
        """Eight jobs, each counting through its own view on one level: every
        query the backend answered is charged to exactly one job."""
        counting = CountingBackend(
            QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()),
            delay=0.001,
        )
        level = HistoryLayer(counting)
        views = [JobHistory(level) for _ in range(N_THREADS)]
        workloads = [_query_sequence(tiny_schema, random.Random(seed), 40) for seed in range(N_THREADS)]
        barrier = threading.Barrier(N_THREADS)

        def run(view, queries):
            barrier.wait(timeout=10)
            for query in queries:
                view.submit(query)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
                for future in [pool.submit(run, v, q) for v, q in zip(views, workloads)]:
                    future.result(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        issued = sum(view.statistics.issued_to_interface for view in views)
        assert issued == sum(counting.counts.values()) == level.statistics.issued_to_interface
        for view, queries in zip(views, workloads):
            stats = view.statistics
            assert stats.submissions == len(queries)
            assert stats.issued_to_interface + stats.saved == stats.submissions

    def test_failed_issue_releases_waiters(self, tiny_schema, tiny_table):
        """If the issuing thread's submit raises, parked waiters wake up and
        issue for themselves instead of deadlocking."""
        from repro.exceptions import TransientBackendError

        class FailsOnce:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0
                self._lock = threading.Lock()

            @property
            def schema(self):
                return self.inner.schema

            @property
            def k(self):
                return self.inner.k

            def submit(self, query):
                with self._lock:
                    self.calls += 1
                    first = self.calls == 1
                if first:
                    time.sleep(0.02)
                    raise TransientBackendError("first issue dies")
                return self.inner.submit(query)

        flaky = FailsOnce(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        layer = HistoryLayer(flaky)
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"})
        barrier = threading.Barrier(2)
        outcomes = []

        def hammer():
            barrier.wait()
            try:
                outcomes.append(layer.submit(query))
            except TransientBackendError as error:
                outcomes.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads), "a waiter deadlocked"
        assert len(outcomes) == 2
        # At least one caller got the real answer; the failure surfaced at
        # most once (to the thread whose issue died).
        answers = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(answers) >= 1
        assert all(a == answers[0] for a in answers)


class GatedBackend:
    """Parks every submit on ``gate`` after signalling ``entered``."""

    def __init__(self, inner):
        self.inner = inner
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.calls = 0

    @property
    def schema(self):
        return self.inner.schema

    @property
    def k(self):
        return self.inner.k

    def submit(self, query):
        self.calls += 1
        self.entered.set()
        assert self.gate.wait(timeout=10), "the test never opened the gate"
        return self.inner.submit(query)


class TestCountsAndEvents:
    def test_snapshot_during_an_issue_keeps_counts_consistent(self, tiny_schema, tiny_table):
        """A snapshot taken while another thread is parked inside an issue
        never shows a submission without its outcome."""
        backend = GatedBackend(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        layer = HistoryLayer(backend)
        warm = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"})
        backend.gate.set()
        layer.submit(warm)
        layer.submit(warm)  # one issue, one exact hit
        backend.gate.clear()
        backend.entered.clear()
        parked = threading.Thread(
            target=layer.submit,
            args=(ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"}),),
        )
        parked.start()
        try:
            assert backend.entered.wait(timeout=10)
            during = layer.snapshot()
        finally:
            backend.gate.set()
            parked.join(timeout=10)
        assert during.issued_to_interface + during.saved == during.submissions == 2
        after = layer.snapshot()
        assert after.issued_to_interface + after.saved == after.submissions == 3

    def test_failed_issue_still_counts_its_submission(self, tiny_schema, tiny_interface):
        from repro.exceptions import TransientBackendError

        class Fails:
            schema = tiny_interface.schema
            k = tiny_interface.k

            def submit(self, query):
                raise TransientBackendError("down")

        layer = HistoryLayer(Fails())
        with pytest.raises(TransientBackendError):
            layer.submit(ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"}))
        stats = layer.snapshot()
        assert (stats.submissions, stats.issued_to_interface, stats.saved) == (1, 0, 0)

    def test_in_flight_event_is_created_only_for_a_waiter(
        self, tiny_schema, tiny_table, monkeypatch
    ):
        """An uncontended miss constructs no event; a thread that arrives
        while the owner is issuing creates one, parks on it and wakes."""
        from repro.backends import history

        created = []

        class CountingEvent(threading.Event):
            def __init__(self):
                super().__init__()
                created.append(self)

        monkeypatch.setattr(
            history, "threading", types.SimpleNamespace(Lock=threading.Lock, Event=CountingEvent)
        )
        backend = GatedBackend(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        layer = HistoryLayer(backend)
        backend.gate.set()
        layer.submit(ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"}))
        assert created == []

        backend.gate.clear()
        backend.entered.clear()
        contended = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        outcomes = {}

        def run(role):
            outcomes[role] = layer.lookup(contended)

        owner = threading.Thread(target=run, args=("owner",))
        waiter = threading.Thread(target=run, args=("waiter",))
        owner.start()
        assert backend.entered.wait(timeout=10)
        waiter.start()
        try:
            deadline = time.monotonic() + 10
            while not created and time.monotonic() < deadline:
                time.sleep(0.001)
            assert len(created) == 1, "the waiter did not park on an event"
        finally:
            backend.gate.set()
            owner.join(timeout=10)
            waiter.join(timeout=10)
        assert not owner.is_alive() and not waiter.is_alive()
        assert backend.calls == 2
        assert outcomes["owner"][1] is CachedResponseSource.INTERFACE
        assert outcomes["waiter"][1] is CachedResponseSource.EXACT_HIT
        assert outcomes["waiter"][0] is outcomes["owner"][0]
        assert len(created) == 1


class TestBatchSemantics:
    def test_submit_outcomes_dedupes_within_the_batch(self, tiny_table, tiny_schema):
        counting = CountingBackend(
            QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())
        )
        layer = HistoryLayer(counting)
        a = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        b = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"})
        responses = layer.submit_outcomes([a, b, a, a, b])
        assert counting.counts == {a.canonical_key(): 1, b.canonical_key(): 1}
        assert responses[0] == responses[2] == responses[3]
        assert responses[1] == responses[4]
        stats = layer.statistics
        assert stats.submissions == 5
        assert stats.issued_to_interface == 2
        assert stats.exact_hits == 3
        # The statistics invariant a serial loop upholds survives batching.
        assert stats.submissions == stats.issued_to_interface + stats.saved

    def test_submit_outcomes_answers_hits_and_inference_locally(self, tiny_table, tiny_schema):
        counting = CountingBackend(
            QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())
        )
        layer = HistoryLayer(counting)
        broad = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        layer.submit(broad)  # valid: 2 tuples at k=2, no overflow
        issued_before = sum(counting.counts.values())
        narrow = broad.specialise("color", "red")
        responses = layer.submit_outcomes([broad, narrow])
        assert sum(counting.counts.values()) == issued_before  # nothing forwarded
        oracle = QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())
        assert responses == [oracle.submit(broad), oracle.submit(narrow)]

    def test_batch_matches_serial_loop(self, tiny_table, tiny_schema):
        rng = random.Random(21)
        queries = _query_sequence(tiny_schema, rng, 30)
        batched = HistoryLayer(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        looped = HistoryLayer(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        assert batched.submit_outcomes(queries) == [looped.submit(q) for q in queries]
        # Savings may be smaller (a batch cannot infer item j from item i's
        # not-yet-issued answer) but never larger, and the accounting
        # invariant a serial loop upholds survives batching.
        batch_stats, loop_stats = batched.statistics, looped.statistics
        assert batch_stats.submissions == loop_stats.submissions == len(queries)
        assert batch_stats.saved <= loop_stats.saved
        assert (
            batch_stats.submissions
            == batch_stats.issued_to_interface + batch_stats.exact_hits + batch_stats.inferred
        )


class CountingLock:
    """A ``threading.Lock`` stand-in that counts its acquisitions."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquires = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquires += 1
        return self

    def __exit__(self, *exc_info):
        self._lock.release()


class TestOneLock:
    """One lock guards the whole level: a hit or an inference is one
    critical section, a miss is two (claim, then settle)."""

    @pytest.fixture()
    def layer(self, tiny_table):
        layer = HistoryLayer(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        layer._lock = CountingLock()
        return layer

    def test_a_miss_takes_two_lock_acquires(self, layer, tiny_schema):
        _, source = layer.lookup(ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"}))
        assert source is CachedResponseSource.INTERFACE
        assert layer._lock.acquires == 2

    def test_an_exact_hit_takes_one_lock_acquire(self, layer, tiny_schema):
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"})
        layer.submit(query)
        before = layer._lock.acquires
        _, source = layer.lookup(query)
        assert source is CachedResponseSource.EXACT_HIT
        assert layer._lock.acquires == before + 1

    def test_an_inference_takes_one_lock_acquire(self, layer, tiny_schema):
        broad = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        layer.submit(broad)  # valid: 2 tuples at k=2, no overflow
        before = layer._lock.acquires
        _, source = layer.lookup(broad.specialise("color", "red"))
        assert source is CachedResponseSource.INFERRED
        assert layer._lock.acquires == before + 1

    def test_a_batch_takes_one_section_to_classify_and_one_to_settle(
        self, layer, tiny_schema
    ):
        queries = [
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": make})
            for make in ("Toyota", "Honda", "Ford", "Honda")
        ]
        layer.submit_outcomes(queries)
        assert layer._lock.acquires == 2
        # An all-hit batch is answered in the classifying section alone.
        layer.submit_outcomes(queries)
        assert layer._lock.acquires == 3
        assert layer.statistics.issued_to_interface == 3


class TestBatchFaultHandling:
    """Review-batch regressions: outcomes flow through the layer chain."""

    def test_siblings_of_a_failed_item_are_still_cached(self, tiny_table, tiny_schema):
        """When one batch item fails permanently, the answers its siblings
        paid for are remembered — a retried batch re-pays only the failure."""
        from repro.exceptions import QueryBudgetExceededError

        inner = QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())
        poison = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"})
        issued: list[tuple] = []

        class OutcomeBackend:
            schema = inner.schema
            k = inner.k

            def submit(self, query):
                issued.append(query.canonical_key())
                if query.canonical_key() == poison.canonical_key():
                    raise QueryBudgetExceededError(1, 1)
                return inner.submit(query)

            def submit_outcomes(self, queries):
                outcomes = []
                for query in queries:
                    try:
                        outcomes.append(self.submit(query))
                    except Exception as error:
                        outcomes.append(error)
                return outcomes

        layer = HistoryLayer(OutcomeBackend())
        good_a = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        good_b = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota"})
        import pytest as _pytest

        with _pytest.raises(QueryBudgetExceededError):
            BackendStack(layer).submit_many([good_a, poison, good_b])
        paid = len(issued)
        # The two good answers were paid for once and are now cached:
        assert layer.submit(good_a) == inner.submit(good_a)
        assert layer.submit(good_b) == inner.submit(good_b)
        assert len(issued) == paid  # zero new round-trips
        assert layer.statistics.exact_hits == 2

    def test_unreliable_layer_heals_whole_batch_transport_failures(
        self, tiny_table, tiny_schema
    ):
        """A transient fault on the batched round-trip ITSELF (dropped POST,
        proxy 503) retries like per-item faults instead of escaping."""
        from repro.backends import UnreliableLayer
        from repro.exceptions import TransientBackendError

        inner = QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())
        calls = {"n": 0}

        class FlakyBatchBackend:
            schema = inner.schema
            k = inner.k

            def submit(self, query):
                return inner.submit(query)

            def submit_outcomes(self, queries):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise TransientBackendError("POST dropped mid-flight")
                return [inner.submit(query) for query in queries]

        layer = UnreliableLayer(FlakyBatchBackend(), max_retries=3, retry_backoff=0.0)
        queries = _query_sequence(tiny_schema, random.Random(31), 6)
        assert layer.submit_outcomes(queries) == [inner.submit(q) for q in queries]
        assert calls["n"] == 2  # the one failed POST, then the healed retry
        assert layer.statistics.backend_transient_failures == len(queries)
        assert layer.statistics.gave_up == 0
