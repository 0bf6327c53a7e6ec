"""Runtime half of the R5 lock-order invariant.

Synthetic tests pin down :class:`OrderedLock` / :class:`LockOrderRegistry`
semantics (inversions fail loudly *before* blocking); the integration test
instruments a real ``HistoryLayer`` with an ordered lock, hammers it
from eight threads, and checks the observed acquisition edges against the
statically-extracted graph.  The tree deliberately never nests its locks —
the static graph over ``src/repro`` is empty — so the instrumented run must
observe no held-while-acquiring edges at all.
"""

import random
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.analysis.rules.lock_order import extract_lock_graph
from repro.analysis.runtime import LockOrderError, LockOrderRegistry, OrderedLock
from repro.backends import HistoryLayer, QueryEngineBackend
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import StaticScoreRanking

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"
N_THREADS = 8


class TestOrderedLockSemantics:
    def test_consistent_nesting_is_fine(self):
        registry = LockOrderRegistry()
        outer = OrderedLock("A._lock", registry)
        inner = OrderedLock("A._stats_lock", registry)
        for _ in range(3):
            with outer:
                with inner:
                    pass
        assert registry.edges() == {"A._lock": {"A._stats_lock"}}

    def test_inversion_raises_instead_of_deadlocking(self):
        registry = LockOrderRegistry()
        outer = OrderedLock("A._lock", registry)
        inner = OrderedLock("A._stats_lock", registry)
        with outer:
            with inner:
                pass
        with pytest.raises(LockOrderError):
            with inner:
                with outer:
                    pass

    def test_non_nested_use_records_no_edges(self):
        registry = LockOrderRegistry()
        lock_a = OrderedLock("A._lock", registry)
        lock_b = OrderedLock("B._lock", registry)
        with lock_a:
            pass
        with lock_b:
            pass
        with lock_a:
            pass
        assert registry.edges() == {}

    def test_failed_nonblocking_acquire_leaves_no_held_entry(self):
        registry = LockOrderRegistry()
        lock = OrderedLock("A._lock", registry)
        other = OrderedLock("B._lock", registry)
        blocker = threading.Thread(target=lock.acquire)
        blocker.start()
        blocker.join()
        # The lock is now held by a finished thread; a try-acquire fails and
        # must not leave a phantom entry on this thread's held stack.
        assert not lock.acquire(blocking=False)
        with other:
            pass
        assert registry.edges() == {}


def _workload(schema, seed: int, count: int):
    rng = random.Random(seed)
    queries = [ConjunctiveQuery.empty(schema)]
    while len(queries) < count:
        if rng.random() < 0.4 and len(queries) > 1:
            queries.append(rng.choice(queries))
        else:
            assignment = {
                attribute.name: rng.choice(attribute.domain.values)
                for attribute in schema
                if rng.random() < 0.5
            }
            queries.append(ConjunctiveQuery.from_assignment(schema, assignment))
    return queries


class TestRuntimeMatchesStaticGraph:
    def test_instrumented_history_layer_confirms_the_static_graph(self, tiny_table, tiny_schema):
        static = extract_lock_graph([SRC_REPRO])
        registry = LockOrderRegistry()
        layer = HistoryLayer(
            QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())
        )
        layer._lock = OrderedLock("HistoryLayer._lock", registry)
        queries = _workload(tiny_schema, seed=13, count=64)
        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            responses = list(pool.map(layer.submit, queries))
        assert len(responses) == len(queries)
        observed = registry.edges()
        for source, targets in observed.items():
            assert targets <= static.get(source, set()), (
                f"runtime observed lock edge(s) {source} -> {sorted(targets)} "
                f"that the static R5 graph does not predict"
            )
        # The codebase's locking style is deliberately flat: the layer's one
        # lock guards all of its state, so it never nests.  The static graph
        # over src/repro is empty, so the run must observe no nesting.
        assert not any(source.startswith("HistoryLayer.") for source in observed)
