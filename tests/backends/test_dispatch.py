"""Concurrent dispatch: byte-identical to serial, whatever the thread timing.

The contract under test is absolute: a :class:`ShardRouter` with a worker
pool (any worker count, any shard count, any ranking) returns *exactly* the
response a serial :class:`ShardRouter` over the same shards returns, and
``DispatchLayer.submit_outcomes`` returns exactly what a serial loop would,
in input order.  Concurrency may only change the wall clock.  A pool bound
of one overlaps nothing, so it answers on the calling thread.
"""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    AccountingLayer,
    BackendLayer,
    BackendStack,
    Deadline,
    DispatchLayer,
    HistoryLayer,
    QueryEngineBackend,
    ShardRouter,
    TableShardBackend,
    UnreliableLayer,
    WebPageBackend,
    current_deadline,
    deadline_scope,
    engine_stack,
    sharded_stack,
    web_stack,
)
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import (
    AttributeWeightedRanking,
    HashRanking,
    RowIdRanking,
    StaticScoreRanking,
)
from repro.database.schema import Attribute, Domain, Schema
from repro.database.table import Table
from repro.exceptions import InterfaceError, TransientBackendError
from repro.web.server import HiddenWebSite

from tests.property.test_properties import schema_and_table


def _rankings():
    return [
        RowIdRanking(),
        StaticScoreRanking("score"),
        AttributeWeightedRanking({"score": 1.0, "attr0": -0.5}),
        HashRanking("dispatch"),
    ]


def _random_queries(schema, rng, count):
    queries = [ConjunctiveQuery.empty(schema)]
    for _ in range(count):
        assignment = {}
        for attribute in schema:
            if rng.random() < 0.5:
                assignment[attribute.name] = rng.choice(attribute.domain.values)
        queries.append(ConjunctiveQuery.from_assignment(schema, assignment))
    return queries


class ThreadRecorder:
    """Raw-contract shim noting the thread and ambient deadline of each submit."""

    def __init__(self, inner, seen):
        self.inner = inner
        self.seen = seen

    @property
    def schema(self):
        return self.inner.schema

    @property
    def k(self):
        return self.inner.k

    def submit(self, query):
        self.seen.append((threading.current_thread().name, current_deadline()))
        return self.inner.submit(query)


class TestShardRouterWorkers:
    def test_partitioned_layout_is_byte_identical(self, tiny_table, tiny_schema):
        serial = ShardRouter.over_table(tiny_table, 3, k=2, ranking=StaticScoreRanking())
        with ShardRouter.over_table(
            tiny_table, 3, k=2, ranking=StaticScoreRanking(), max_workers=2
        ) as parallel:
            for query in _random_queries(tiny_schema, random.Random(0), 30):
                assert parallel.submit(query) == serial.submit(query)

    def test_heterogeneous_shards_are_byte_identical(self, tiny_table, tiny_schema):
        # Latency-wrapped shards defeat the shared-index fast path, taking
        # the independent scatter branch — the round-trip-bound case the
        # router's worker pool exists for.
        def shards():
            return [
                UnreliableLayer(TableShardBackend(tiny_table, 2, i, 3), latency=0.001)
                for i in range(3)
            ]

        serial = ShardRouter(shards())
        with ShardRouter(shards(), max_workers=3) as parallel:
            for query in _random_queries(tiny_schema, random.Random(1), 15):
                assert parallel.submit(query) == serial.submit(query)

    @given(data=schema_and_table(), n_shards=st.integers(1, 6), max_workers=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_property_any_shard_and_worker_count_all_rankings(
        self, data, n_shards, max_workers
    ):
        """Parallel dispatch (any worker count, any shard count, either
        path) is byte-identical to serial across the four rankings."""
        schema, table = data
        queries = _random_queries(schema, random.Random(42), 6)
        for ranking in _rankings():
            serial = ShardRouter.over_table(table, n_shards, k=3, ranking=ranking)
            with ShardRouter.over_table(
                table, n_shards, k=3, ranking=ranking, max_workers=max_workers
            ) as parallel, ShardRouter.over_table(
                table, n_shards, k=3, ranking=ranking, max_workers=max_workers,
                shard_layer=BackendLayer,
            ) as scatter:
                for query in queries:
                    assert parallel.submit(query) == serial.submit(query)
                    assert scatter.submit(query) == serial.submit(query)

    def test_a_scatter_carries_the_ambient_deadline_into_its_workers(
        self, tiny_table, tiny_schema
    ):
        seen = []
        shards = [ThreadRecorder(TableShardBackend(tiny_table, 2, i, 3), seen) for i in range(3)]
        serial = ShardRouter([TableShardBackend(tiny_table, 2, i, 3) for i in range(3)])
        deadline = Deadline.after(60.0)
        with ShardRouter(shards, max_workers=3) as parallel, deadline_scope(deadline):
            for query in _random_queries(tiny_schema, random.Random(10), 10):
                assert parallel.submit(query) == serial.submit(query)
        assert len(seen) == 33
        assert {name.rsplit("_", 1)[0] for name, _ in seen} == {"shard-dispatch"}
        assert {id(ambient) for _, ambient in seen} == {id(deadline)}

    def test_a_one_worker_router_scatters_on_the_calling_thread(self, tiny_table, tiny_schema):
        seen = []
        shards = [ThreadRecorder(TableShardBackend(tiny_table, 2, i, 3), seen) for i in range(3)]
        router = ShardRouter(shards, max_workers=1)
        router.submit(ConjunctiveQuery.empty(tiny_schema))
        assert [name for name, _ in seen] == [threading.current_thread().name] * 3
        assert router._pool._executor is None

    def test_the_sharded_stack_has_no_parallel_option(self, tiny_table):
        with pytest.raises(TypeError):
            sharded_stack(tiny_table, 2, k=2, parallel=2)

    def test_worker_validation(self, tiny_table):
        with pytest.raises(InterfaceError):
            ShardRouter.over_table(tiny_table, 2, k=2, max_workers=0)

    def test_close_releases_and_the_router_stays_usable(self, tiny_table, tiny_schema):
        router = ShardRouter.over_table(
            tiny_table, 2, k=2, max_workers=2, shard_layer=BackendLayer
        )
        query = ConjunctiveQuery.empty(tiny_schema)
        first = router.submit(query)
        assert router._pool._executor is not None
        router.close()
        assert router._pool._executor is None
        assert router.submit(query) == first  # a fresh pool is created lazily
        router.close()

    def test_the_default_bound_is_serial(self, tiny_table):
        assert ShardRouter.over_table(tiny_table, 3, k=2).max_workers == 1
        assert ShardRouter.over_table(tiny_table, 3, k=2, max_workers=3).max_workers == 3


class TestDispatchLayer:
    def test_submit_outcomes_matches_a_serial_loop_in_input_order(self, tiny_table, tiny_schema):
        serial = engine_stack(tiny_table, k=2, ranking=StaticScoreRanking())
        layer = DispatchLayer(
            engine_stack(tiny_table, k=2, ranking=StaticScoreRanking()).top, max_workers=4
        )
        queries = _random_queries(tiny_schema, random.Random(3), 25)
        assert layer.submit_outcomes(queries) == [serial.submit(q) for q in queries]
        layer.close()

    def test_single_submit_passes_straight_through(self, tiny_table, tiny_schema):
        stack = engine_stack(tiny_table, k=2, ranking=StaticScoreRanking())
        layer = DispatchLayer(stack.top)
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        assert layer.submit(query) == stack.submit(query)

    def test_statistics_layer_counts_exactly_under_concurrency(self, tiny_table, tiny_schema):
        # The lock regression test: 60 concurrent submissions must count as
        # exactly 60, with per-outcome buckets intact.
        stack = engine_stack(tiny_table, k=2, ranking=StaticScoreRanking())
        layer = DispatchLayer(stack.top, max_workers=8)
        queries = _random_queries(tiny_schema, random.Random(4), 59)
        responses = layer.submit_outcomes(queries)
        stats = stack.statistics.as_dict()
        assert stats["queries_issued"] == 60
        assert (
            stats["empty_results"] + stats["valid_results"] + stats["overflow_results"] == 60
        )
        assert stats["tuples_returned"] == sum(len(r.tuples) for r in responses)
        layer.close()

    def test_unreliable_layer_counts_exactly_under_concurrency(self, tiny_table, tiny_schema):
        raw = QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())
        chaos = UnreliableLayer(raw, rate_limit_every=5, max_retries=3)
        layer = DispatchLayer(chaos, max_workers=8)
        queries = _random_queries(tiny_schema, random.Random(9), 79)
        layer.submit_outcomes(queries)
        stats = chaos.statistics
        # Every submission succeeded, every attempt and injected fault counted:
        # attempts = submissions + retries exactly, no lost increments.
        assert stats.attempts == 80 + stats.retries
        assert stats.retries == stats.rate_limited > 0
        assert stats.gave_up == 0
        layer.close()

    def test_budget_is_never_overspent_under_concurrency(self, tiny_table, tiny_schema):
        from repro.database.limits import QueryBudget
        from repro.exceptions import QueryBudgetExceededError

        stack = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(), budget=QueryBudget(limit=10)
        )
        layer = DispatchLayer(stack.top, max_workers=8)
        with pytest.raises(QueryBudgetExceededError):
            BackendStack(layer).submit_many(_random_queries(tiny_schema, random.Random(5), 39))
        assert stack.budget.issued == 10  # charged to the limit, not past it
        layer.close()

    def test_a_web_stack_under_dispatch_fetches_batches_concurrently(
        self, tiny_table, tiny_schema
    ):
        site = HiddenWebSite(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        stack = _dispatched_web_stack(site, tiny_schema)
        assert stack.describe().startswith("DispatchLayer")
        queries = _random_queries(tiny_schema, random.Random(6), 12)
        oracle = web_stack(
            HiddenWebSite(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())),
            tiny_schema,
        )
        assert stack.submit_many(queries) == [oracle.submit(q) for q in queries]
        assert stack.statistics.queries_issued == len(queries)

    def test_submit_many_without_a_dispatch_layer_degrades_to_a_loop(
        self, tiny_table, tiny_schema
    ):
        stack = engine_stack(tiny_table, k=2, ranking=StaticScoreRanking())
        queries = _random_queries(tiny_schema, random.Random(7), 5)
        assert stack.submit_many(queries) == [
            engine_stack(tiny_table, k=2, ranking=StaticScoreRanking()).submit(q)
            for q in queries
        ]

    def test_parallel_composes_with_history(self, tiny_table, tiny_schema):
        """The thread-safe HistoryLayer legally sits under the dispatch layer:
        concurrent batches answer identically AND repeats cost no fetches."""
        site = HiddenWebSite(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        stack = _dispatched_web_stack(site, tiny_schema, HistoryLayer)
        assert stack.describe() == (
            "DispatchLayer → HistoryLayer → AccountingLayer → WebPageBackend"
        )
        queries = _random_queries(tiny_schema, random.Random(9), 12)
        oracle = web_stack(
            HiddenWebSite(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())),
            tiny_schema,
        )
        assert stack.submit_many(queries) == [oracle.submit(q) for q in queries]
        # A second pass over the same batch is answered wholly from history.
        issued = stack.statistics.queries_issued
        assert stack.submit_many(queries) == [oracle.submit(q) for q in queries]
        assert stack.statistics.queries_issued == issued

    def test_batch_exception_propagates_first_by_input_order(self, tiny_table, tiny_schema):
        class ExplodesOnHonda:
            def __init__(self, inner):
                self.inner = inner

            @property
            def schema(self):
                return self.inner.schema

            @property
            def k(self):
                return self.inner.k

            def submit(self, query):
                if query.value_of("make") == "Honda":
                    raise TransientBackendError("boom")
                return self.inner.submit(query)

        raw = ExplodesOnHonda(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        layer = DispatchLayer(raw, max_workers=4)
        queries = [
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota"}),
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"}),
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"}),
        ]
        with pytest.raises(TransientBackendError):
            BackendStack(layer).submit_many(queries)
        outcomes = layer.submit_outcomes(queries)
        assert isinstance(outcomes[1], TransientBackendError)
        assert outcomes[0] == raw.inner.submit(queries[0])
        assert outcomes[2] == raw.inner.submit(queries[2])
        layer.close()

    def test_dispatch_runs_on_worker_threads(self, tiny_table, tiny_schema):
        seen = []
        raw = ThreadRecorder(
            QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()), seen
        )
        layer = DispatchLayer(raw, max_workers=4)
        layer.submit_outcomes(_random_queries(tiny_schema, random.Random(8), 20))
        assert all(name.startswith("backend-dispatch") for name, _ in seen)
        layer.close()

    def test_a_one_worker_layer_answers_on_the_calling_thread(self, tiny_table, tiny_schema):
        seen = []
        raw = ThreadRecorder(
            QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()), seen
        )
        layer = DispatchLayer(raw, max_workers=1)
        queries = _random_queries(tiny_schema, random.Random(11), 8)
        assert layer.submit_outcomes(queries) == [raw.inner.submit(q) for q in queries]
        assert [name for name, _ in seen] == [threading.current_thread().name] * 9
        assert layer._pool._executor is None


def _dispatched_web_stack(site, schema, *upper):
    """``AccountingLayer(WebPageBackend)``, then ``upper``, under a 4-worker
    :class:`DispatchLayer`."""
    return BackendStack(
        WebPageBackend(site, schema),
        [AccountingLayer, *upper, lambda inner: DispatchLayer(inner, max_workers=4)],
    )
