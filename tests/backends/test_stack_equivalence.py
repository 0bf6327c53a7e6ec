"""The stack must be indistinguishable from the access paths it replaced.

Three equivalence obligations, each checked response-for-response:

* a full ``engine_stack`` (and the :class:`HiddenDatabaseInterface` facade
  over it) answers exactly like a frozen copy of the pre-refactor monolithic
  interface, across all count modes;
* every sampler configuration × ranking function draws the *identical*
  sample sequence through the facade and through a hand-assembled stack;
* a :class:`ShardRouter` over four partitions sharing one table index
  answers exactly like the unsharded backend — for deterministic workloads,
  for hypothesis-generated random tables, and through a whole sampling run.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro._rng import resolve_rng
from repro.backends import (
    AccountingLayer,
    BackendLayer,
    BackendStack,
    CountPolicy,
    QueryEngineBackend,
    ShardRouter,
    engine_stack,
    sharded_stack,
)
from repro.core.config import HDSamplerConfig, SamplerAlgorithm
from repro.core.tradeoff import TradeoffSlider
from repro.database.engine import QueryEngine, QueryOutcome
from repro.database.interface import (
    CountMode,
    HiddenDatabaseInterface,
    InterfaceResponse,
    InterfaceStatistics,
    ReturnedTuple,
)
from repro.database.limits import QueryBudget
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import (
    AttributeWeightedRanking,
    HashRanking,
    RowIdRanking,
    StaticScoreRanking,
)
from repro.database.schema import Attribute, Domain, Schema
from repro.database.table import Table
from repro.service import SamplingService

# ---------------------------------------------------------------------------
# A frozen copy of the pre-refactor HiddenDatabaseInterface, kept verbatim as
# the behavioural oracle: whatever the stack becomes, it must answer like this.
# ---------------------------------------------------------------------------


class LegacyInterfaceOracle:
    """The monolithic interface exactly as it was before the backend stack."""

    def __init__(
        self,
        table,
        k,
        ranking=None,
        count_mode=CountMode.NONE,
        count_noise=0.3,
        budget=None,
        display_columns=(),
        seed=0,
        use_index=True,
    ):
        self._engine = QueryEngine(table, k=k, ranking=ranking, use_index=use_index)
        self._table = table
        self.count_mode = count_mode
        self.count_noise = count_noise
        self.budget = budget if budget is not None else QueryBudget()
        self.display_columns = tuple(display_columns)
        self.statistics = InterfaceStatistics()
        self._rng = resolve_rng(seed)

    @property
    def schema(self):
        return self._table.schema

    @property
    def k(self):
        return self._engine.k

    def submit(self, query):
        self.budget.charge(1)
        result = self._engine.execute(query)
        tuples = tuple(self._returned_tuple(row_id) for row_id in result.returned_row_ids)
        response = InterfaceResponse(
            query=result.query,
            tuples=tuples,
            overflow=result.outcome is QueryOutcome.OVERFLOW,
            reported_count=self._reported_count(result.total_count),
            k=result.k,
        )
        self.statistics.record(response)
        return response

    def _returned_tuple(self, row_id):
        row = self._table[row_id]
        values = {attribute.name: row[attribute.name] for attribute in self._table.schema}
        for column in self.display_columns:
            if column in row:
                values[column] = row[column]
        selectable = self._table.selectable_row(row)
        return ReturnedTuple(tuple_id=row_id, values=values, selectable_values=selectable)

    def _reported_count(self, true_count):
        if self.count_mode is CountMode.NONE:
            return None
        if self.count_mode is CountMode.EXACT:
            return true_count
        if true_count == 0:
            return 0
        spread = self.count_noise * true_count
        noisy = true_count + self._rng.uniform(-spread, spread)
        return max(0, int(round(noisy)))


RANKINGS = {
    "row_id": RowIdRanking,
    "static_score": StaticScoreRanking,
    "hash": lambda: HashRanking("equiv"),
    "weighted": lambda: AttributeWeightedRanking({"price": -0.001, "year": 1.0}),
}

#: The four sampler configurations of the equivalence matrix: the paper's
#: random walk at both ends of the efficiency↔skew slider, the count-aided
#: drill-down, and the brute-force baseline.
SAMPLERS = {
    "walk_low_skew": dict(algorithm=SamplerAlgorithm.RANDOM_WALK, tradeoff=TradeoffSlider(0.1)),
    "walk_efficient": dict(algorithm=SamplerAlgorithm.RANDOM_WALK, tradeoff=TradeoffSlider(0.9)),
    "count_aided": dict(algorithm=SamplerAlgorithm.COUNT_AIDED),
    "brute_force": dict(algorithm=SamplerAlgorithm.BRUTE_FORCE),
}


def _random_queries(schema: Schema, rng: random.Random, count: int):
    queries = [ConjunctiveQuery.empty(schema)]
    for _ in range(count):
        n = rng.randint(1, len(schema))
        attributes = rng.sample(schema.attribute_names, n)
        assignment = {
            name: rng.choice(schema.attribute(name).domain.values) for name in attributes
        }
        queries.append(ConjunctiveQuery.from_assignment(schema, assignment))
    return queries


def _sample_fingerprint(result):
    return [
        (s.tuple_id, dict(s.selectable_values), s.selection_probability, s.queries_spent)
        for s in result.samples
    ]


class TestStackMatchesLegacyOracle:
    @pytest.mark.parametrize("count_mode", list(CountMode))
    @pytest.mark.parametrize("ranking_name", sorted(RANKINGS))
    def test_responses_identical_query_for_query(
        self, small_vehicles_table, count_mode, ranking_name
    ):
        build = dict(
            k=25, count_mode=count_mode, count_noise=0.4, seed=99,
            display_columns=("title",),
        )
        oracle = LegacyInterfaceOracle(
            small_vehicles_table, ranking=RANKINGS[ranking_name](), **build
        )
        facade = HiddenDatabaseInterface(
            small_vehicles_table, ranking=RANKINGS[ranking_name](), **build
        )
        stacks = [
            engine_stack(small_vehicles_table, ranking=RANKINGS[ranking_name](), **build),
            # The shard router draws its NOISY counts itself: same seed, same
            # stream, whether the shards answer serially or from a pool.
            sharded_stack(small_vehicles_table, 4, ranking=RANKINGS[ranking_name](), **build),
            BackendStack(
                ShardRouter.over_table(
                    small_vehicles_table, 4, 25, ranking=RANKINGS[ranking_name](),
                    display_columns=("title",), shard_layer=BackendLayer, max_workers=4,
                    counts=CountPolicy(count_mode, 0.4, 99),
                ),
                [AccountingLayer],
            ),
        ]
        rng = random.Random(4)
        for query in _random_queries(small_vehicles_table.schema, rng, 40):
            expected = oracle.submit(query)
            assert facade.submit(query) == expected
            for stack in stacks:
                assert stack.submit(query) == expected, stack.describe()
        assert facade.statistics.as_dict() == oracle.statistics.as_dict()
        for stack in stacks:
            assert stack.statistics.as_dict() == oracle.statistics.as_dict()
            assert stack.budget.issued == oracle.budget.issued

    def test_budget_violation_identical(self, tiny_table, tiny_schema):
        oracle = LegacyInterfaceOracle(tiny_table, k=2, budget=QueryBudget(limit=1))
        stack = engine_stack(tiny_table, k=2, budget=QueryBudget(limit=1))
        query = ConjunctiveQuery.empty(tiny_schema)
        assert stack.submit(query) == oracle.submit(query)
        for database in (oracle, stack):
            with pytest.raises(Exception) as caught:
                database.submit(query)
            assert type(caught.value).__name__ == "QueryBudgetExceededError"
        assert stack.statistics.queries_issued == oracle.statistics.queries_issued == 1


class TestSamplersOverTheStack:
    """All four sampler configs × all four rankings draw identical samples."""

    @pytest.mark.parametrize("sampler_name", sorted(SAMPLERS))
    @pytest.mark.parametrize("ranking_name", sorted(RANKINGS))
    def test_run_is_byte_identical_over_facade_and_stack(
        self, boolean_table, sampler_name, ranking_name
    ):
        count_mode = (
            CountMode.EXACT
            if SAMPLERS[sampler_name]["algorithm"] is SamplerAlgorithm.COUNT_AIDED
            else CountMode.NONE
        )
        config = HDSamplerConfig(
            n_samples=12, seed=17, max_attempts=4_000, **SAMPLERS[sampler_name]
        )

        def run(database):
            return SamplingService(database).submit(config).run()

        facade_result = run(
            HiddenDatabaseInterface(
                boolean_table, k=6, ranking=RANKINGS[ranking_name](), count_mode=count_mode
            )
        )
        stack_result = run(
            engine_stack(
                boolean_table, k=6, ranking=RANKINGS[ranking_name](), count_mode=count_mode
            )
        )
        assert _sample_fingerprint(stack_result) == _sample_fingerprint(facade_result)
        assert stack_result.queries_issued == facade_result.queries_issued
        assert stack_result.sample_count == facade_result.sample_count > 0


class TestShardRouterEquivalence:
    @pytest.mark.parametrize("ranking_name", sorted(RANKINGS))
    def test_four_shards_answer_like_the_unsharded_backend(
        self, small_vehicles_table, ranking_name
    ):
        ranking = RANKINGS[ranking_name]()
        unsharded = QueryEngineBackend(
            small_vehicles_table, k=25, ranking=ranking, display_columns=("title",)
        )
        router = ShardRouter.over_table(
            small_vehicles_table, 4, k=25, ranking=ranking, display_columns=("title",)
        )
        rng = random.Random(11)
        for query in _random_queries(small_vehicles_table.schema, rng, 60):
            assert router.submit(query) == unsharded.submit(query)

    def test_default_merge_key_is_tuple_id_order(self, tiny_table, tiny_schema):
        # No explicit merge_key: tuples merge by tuple id, which matches the
        # unsharded backend whenever the ranking is row-id order (the shard
        # default).  Regression: this construction path used to crash.
        from repro.backends import TableShardBackend

        router = ShardRouter(
            [TableShardBackend(tiny_table, 3, shard, 2) for shard in range(2)]
        )
        unsharded = QueryEngineBackend(tiny_table, k=3)
        for query in _random_queries(tiny_schema, random.Random(5), 15):
            assert router.submit(query) == unsharded.submit(query)

    def test_router_advertises_the_shards_display_columns(self, tiny_table):
        router = ShardRouter.over_table(tiny_table, 3, k=2, display_columns=("score",))
        assert router.display_columns == ("score",)
        response = router.submit(ConjunctiveQuery.empty(tiny_table.schema))
        assert all("score" in t.values for t in response.tuples)

    def test_sharded_site_renders_display_columns_like_the_flat_one(self, tiny_table):
        from repro.backends import sharded_stack
        from repro.web.server import HiddenWebSite

        flat_site = HiddenWebSite(
            engine_stack(tiny_table, k=2, display_columns=("score",), statistics=False)
        )
        sharded_site = HiddenWebSite(
            sharded_stack(tiny_table, 2, k=2, display_columns=("score",), statistics=False)
        )
        assert sharded_site.display_columns == flat_site.display_columns == ("score",)
        assert sharded_site.get("/results?make=Honda") == flat_site.get("/results?make=Honda")

    def test_shards_share_one_table_index(self, small_vehicles_table):
        router = ShardRouter.over_table(small_vehicles_table, 4, k=10)
        indexes = {id(shard._index) for shard in router.shards}
        assert indexes == {id(small_vehicles_table.index)}

    def test_more_shards_than_rows(self, tiny_table, tiny_schema):
        unsharded = QueryEngineBackend(tiny_table, k=3)
        router = ShardRouter.over_table(tiny_table, 16, k=3)
        for query in _random_queries(tiny_schema, random.Random(2), 20):
            assert router.submit(query) == unsharded.submit(query)

    @pytest.mark.parametrize("sampler_name", sorted(SAMPLERS))
    def test_sampling_runs_identically_over_a_sharded_stack(
        self, boolean_table, sampler_name
    ):
        count_mode = (
            CountMode.EXACT
            if SAMPLERS[sampler_name]["algorithm"] is SamplerAlgorithm.COUNT_AIDED
            else CountMode.NONE
        )
        config = HDSamplerConfig(
            n_samples=10, seed=23, max_attempts=4_000, **SAMPLERS[sampler_name]
        )
        ranking = HashRanking("shards")

        def run(database):
            return SamplingService(database).submit(config).run()

        flat = run(engine_stack(boolean_table, k=6, ranking=ranking, count_mode=count_mode))
        sharded = run(
            sharded_stack(boolean_table, 4, k=6, ranking=ranking, count_mode=count_mode)
        )
        assert _sample_fingerprint(sharded) == _sample_fingerprint(flat)
        assert sharded.queries_issued == flat.queries_issued

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_shards=st.integers(min_value=1, max_value=5))
    def test_property_random_tables(self, data, n_shards):
        schema = Schema(
            [
                Attribute("a", Domain.categorical(("x", "y", "z"))),
                Attribute("b", Domain.boolean()),
                Attribute("c", Domain.numeric_buckets((0.0, 10.0, 20.0, 30.0))),
            ],
            name="prop",
        )
        n_rows = data.draw(st.integers(min_value=0, max_value=40))
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        rows = []
        for _ in range(n_rows):
            rows.append(
                {
                    "a": rng.choice(("x", "y", "z")),
                    "b": rng.choice((True, False)),
                    "c": rng.uniform(0.0, 29.9),
                    "score": rng.random(),
                }
            )
        table = Table(schema, rows, name="prop")
        k = data.draw(st.integers(min_value=1, max_value=8))
        ranking = StaticScoreRanking()
        unsharded = QueryEngineBackend(table, k=k, ranking=ranking)
        router = ShardRouter.over_table(table, n_shards, k=k, ranking=ranking)
        for query in _random_queries(schema, rng, 15):
            assert router.submit(query) == unsharded.submit(query)
