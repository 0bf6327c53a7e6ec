"""Edge cases of the rank-ordered bitmap engine, each checked against the scan oracle.

Every case runs under all four ranking functions, through the flat engine,
the flat engine backend and the sharded router over the same table.
"""

import random
import sys
import threading

import pytest

from repro.backends import QueryEngineBackend, ShardRouter
from repro.database.engine import QueryEngine, QueryOutcome
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import (
    AttributeWeightedRanking,
    HashRanking,
    RowIdRanking,
    StaticScoreRanking,
)
from repro.database.schema import Attribute, Domain, Schema
from repro.database.table import Table
from repro.exceptions import DomainValueError


def _rankings():
    return [
        RowIdRanking(),
        StaticScoreRanking("score"),
        AttributeWeightedRanking({"score": 1.0}),
        HashRanking("edges"),
    ]


def _assert_matches_scan(table, queries, k):
    for ranking in _rankings():
        indexed = QueryEngine(table, k=k, ranking=ranking)
        scan = QueryEngine(table, k=k, ranking=ranking, use_index=False)
        flat = QueryEngineBackend(table, k=k, ranking=ranking)
        sharded = ShardRouter.over_table(table, 3, k=k, ranking=ranking)
        for query in queries:
            fast, slow = indexed.execute(query), scan.execute(query)
            assert fast == slow, (ranking, str(query))
            assert indexed.count(query) == scan.count(query) == slow.total_count
            assert indexed.matching_row_ids(query) == scan.matching_row_ids(query)
            assert sharded.submit(query) == flat.submit(query)


@pytest.fixture()
def wide_table():
    """A 300-value categorical: more distinct values than one byte can code."""
    rng = random.Random(300)
    schema = Schema(
        [
            Attribute("sku", Domain.categorical(tuple(f"v{i}" for i in range(300)))),
            Attribute("colour", Domain.categorical(("red", "blue", "green"))),
        ],
        name="wide",
    )
    rows = [
        {
            "sku": f"v{rng.randrange(300)}",
            "colour": rng.choice(("red", "blue", "green")),
            "score": rng.random(),
        }
        for _ in range(1_200)
    ]
    return Table(schema, rows, name="wide")


class TestEdgeCases:
    def test_empty_table(self, tiny_schema):
        table = Table(tiny_schema, [], name="empty")
        queries = [
            ConjunctiveQuery.empty(tiny_schema),
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford", "price": "0-10000"}),
        ]
        _assert_matches_scan(table, queries, k=3)
        assert QueryEngine(table, k=3).execute(queries[0]).outcome is QueryOutcome.EMPTY

    def test_attribute_with_more_than_255_values(self, wide_table):
        schema = wide_table.schema
        queries = [ConjunctiveQuery.empty(schema)]
        for value in ("v0", "v17", "v255", "v256", "v299"):
            queries.append(ConjunctiveQuery.from_assignment(schema, {"sku": value}))
            queries.append(
                ConjunctiveQuery.from_assignment(schema, {"sku": value, "colour": "green"})
            )
        _assert_matches_scan(wide_table, queries, k=3)
        cache = wide_table.index.rank_cache(RowIdRanking())
        assert sum(cache.bitmap("sku", f"v{i}").bit_count() for i in range(300)) == 1_200

    @pytest.mark.parametrize(
        "k, expected",
        [(4, QueryOutcome.VALID), (3, QueryOutcome.OVERFLOW)],
        ids=["total-equals-k", "total-is-k-plus-one"],
    )
    def test_total_at_the_top_k_boundary(self, tiny_table, tiny_schema, k, expected):
        red = ConjunctiveQuery.from_assignment(tiny_schema, {"color": "red"})
        assert QueryEngine(tiny_table, k=k).count(red) == 4
        assert QueryEngine(tiny_table, k=k).execute(red).outcome is expected
        _assert_matches_scan(tiny_table, [red], k=k)

    @pytest.mark.parametrize("k", [8, 11])
    def test_empty_query_when_the_table_fits_in_k(self, tiny_table, tiny_schema, k):
        root = ConjunctiveQuery.empty(tiny_schema)
        result = QueryEngine(tiny_table, k=k, ranking=HashRanking("root")).execute(root)
        assert result.outcome is QueryOutcome.VALID
        assert sorted(result.returned_row_ids) == list(range(8))
        _assert_matches_scan(tiny_table, [root], k=k)


class TestUnvalidatedRows:
    @pytest.fixture()
    def dirty_table(self, tiny_schema):
        rows = [
            {"make": "Ford", "color": "red", "price": 5_000.0, "score": 3.0},
            {"make": "Ford", "color": "blue", "price": 999_999.0, "score": 2.0},
            {"make": "Tesla", "color": "red", "price": 15_000.0, "score": 1.0},
            {"make": "Honda", "color": "blue", "price": 15_000.0, "score": 0.0},
        ]
        return Table(tiny_schema, rows, name="dirty", validate=False)

    def test_out_of_domain_rows_match_no_predicate(self, dirty_table, tiny_schema):
        assert dirty_table.index.unbinnable_rows == {1, 2}
        # Queries that leave the bad attribute unconstrained agree with the scan.
        queries = [
            ConjunctiveQuery.from_assignment(tiny_schema, {"color": "red"}),
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"}),
        ]
        for ranking in _rankings():
            indexed = QueryEngine(dirty_table, k=1, ranking=ranking)
            scan = QueryEngine(dirty_table, k=1, ranking=ranking, use_index=False)
            for query in queries:
                assert indexed.execute(query) == scan.execute(query)
        # Row 1's out-of-bucket price and row 2's unknown make match no value.
        engine = QueryEngine(dirty_table, k=5)
        for name, missing in (("price", 1), ("make", 2)):
            matched = set()
            for value in tiny_schema.attribute(name).domain.values:
                query = ConjunctiveQuery.from_assignment(tiny_schema, {name: value})
                matched.update(engine.execute(query).returned_row_ids)
            assert matched == {0, 1, 2, 3} - {missing}

    @pytest.mark.parametrize("row_id", [1, 2])
    def test_rendering_an_out_of_domain_row_raises_like_selectable_row(
        self, dirty_table, tiny_schema, row_id
    ):
        with pytest.raises(DomainValueError) as expected:
            dirty_table.selectable_row(dirty_table[row_id])
        color = dirty_table[row_id]["color"]
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"color": color})
        for backend in (
            QueryEngineBackend(dirty_table, k=5),
            ShardRouter.over_table(dirty_table, 2, k=5),
        ):
            with pytest.raises(DomainValueError) as raised:
                backend.submit(query)
            assert (raised.value.attribute, raised.value.value) == (
                expected.value.attribute,
                expected.value.value,
            )

    def test_rendered_clean_rows_carry_no_sentinel(self, dirty_table, tiny_schema):
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        (returned,) = QueryEngineBackend(dirty_table, k=5).submit(query).tuples
        assert returned.selectable_values == dirty_table.selectable_row(dirty_table[3])


class TestColdCacheConcurrency:
    def test_eight_threads_on_a_cold_cache_get_identical_results(self, small_vehicles_table):
        table = small_vehicles_table
        schema = table.schema
        rng = random.Random(8)
        queries = [ConjunctiveQuery.empty(schema)]
        for _ in range(40):
            names = rng.sample(schema.attribute_names, rng.randint(1, 3))
            queries.append(
                ConjunctiveQuery.from_assignment(
                    schema, {name: rng.choice(schema.attribute(name).domain.values) for name in names}
                )
            )
        ranking = HashRanking("cold")  # a fresh instance: its rank cache is cold
        expected = [
            QueryEngineBackend(table, k=10, ranking=ranking, use_index=False).submit(q)
            for q in queries
        ]
        engine_backend = QueryEngineBackend(table, k=10, ranking=ranking)
        router = ShardRouter.over_table(table, 4, k=10, ranking=ranking, max_workers=4)
        assert table.index.rank_cache(ranking).bitmap_bytes() == 0
        barrier = threading.Barrier(8)
        results: dict[int, list] = {}

        def worker(slot: int) -> None:
            backend = router if slot % 2 else engine_backend
            barrier.wait()
            results[slot] = [backend.submit(query) for query in queries]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
            router.close()
        assert len(results) == 8
        for answers in results.values():
            assert answers == expected
