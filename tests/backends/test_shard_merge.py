"""The sharded router's shared-rank path: the router cuts once and renders once."""

import pytest

from repro.backends import QueryEngineBackend, ShardRouter
from repro.backends import adapters as adapters_module
from repro.backends import shard as shard_module
from repro.backends.base import BackendLayer
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import (
    AttributeWeightedRanking,
    HashRanking,
    RowIdRanking,
    StaticScoreRanking,
)
from repro.web.html import render_result_page

RANKINGS = {
    "row_id": RowIdRanking,
    "static_score": lambda: StaticScoreRanking("score"),
    "attribute_weighted": lambda: AttributeWeightedRanking({"score": 1.0}),
    "hash": lambda: HashRanking("edges"),
}


def _queries(schema):
    return [
        ConjunctiveQuery.empty(schema),
        ConjunctiveQuery.from_assignment(schema, {"color": "red"}),
        ConjunctiveQuery.from_assignment(schema, {"make": "Toyota"}),
        ConjunctiveQuery.from_assignment(schema, {"make": "Ford", "color": "blue"}),
        ConjunctiveQuery.from_assignment(schema, {"make": "Honda", "price": "0-10000"}),
    ]


@pytest.fixture()
def build_calls(monkeypatch):
    """Row counts of every ``build_returned_tuples`` call, the one response builder's."""
    calls = []
    original = adapters_module.build_returned_tuples

    def counting(table, row_ids, display_columns=()):
        calls.append(len(row_ids))
        return original(table, row_ids, display_columns)

    monkeypatch.setattr(adapters_module, "build_returned_tuples", counting)
    return calls


class TestOneBuildPerQuery:
    @pytest.mark.parametrize("max_workers", [None, 3], ids=["serial", "pooled"])
    def test_shared_path_builds_once_with_at_most_k_rows(
        self, tiny_table, tiny_schema, build_calls, max_workers
    ):
        router = ShardRouter.over_table(
            tiny_table, 3, k=2, ranking=StaticScoreRanking(), max_workers=max_workers
        )
        for query in _queries(tiny_schema):
            del build_calls[:]
            response = router.submit(query)
            assert build_calls == [len(response.tuples)]
            assert build_calls[0] <= router.k

    def test_merged_ids_are_the_first_k_of_the_mask(self, small_vehicles_table):
        table = small_vehicles_table
        schema = table.schema
        for name, make_ranking in RANKINGS.items():
            ranking = make_ranking()
            ranks = table.index.rank_cache(ranking)
            router = ShardRouter.over_table(table, 4, k=7, ranking=ranking)
            for attribute in schema:
                for value in attribute.domain.values[:3]:
                    query = ConjunctiveQuery.from_assignment(schema, {attribute.name: value})
                    mask = ranks.mask(query)
                    response = router.submit(query)
                    assert [t.tuple_id for t in response.tuples] == ranks.first(mask, 7), name
                    assert response.reported_count == mask.bit_count()

    @pytest.mark.parametrize("max_workers", [None, 3], ids=["serial", "pooled"])
    def test_shared_path_asks_no_shard_and_scans_once_on_read(
        self, small_vehicles_table, monkeypatch, bit_scans, max_workers
    ):
        table = small_vehicles_table
        router = ShardRouter.over_table(
            table, 4, k=20, ranking=StaticScoreRanking("score"), max_workers=max_workers
        )

        def refuse(*args):
            raise AssertionError("the shared-rank path cut a shard")

        monkeypatch.setattr(shard_module.TableShardBackend, "cut", refuse)
        response = router.submit(ConjunctiveQuery.empty(table.schema))
        assert response.overflow and len(response.tuples) == 20
        assert bit_scans == []
        assert response.tuples[5] == response.tuples[:][5]
        assert bit_scans == [20]
        assert router._pool._executor is None  # no work went to the pool
        router.close()

    def test_cut_returns_the_shards_count_and_first_k(self, tiny_table, tiny_schema):
        router = ShardRouter.over_table(tiny_table, 2, k=2)
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"color": "red"})
        mask = tiny_table.index.rank_cache(RowIdRanking()).mask(query)
        # Red rows are 0, 2, 4, 6: all even, all on shard 0.
        assert router.shards[0].cut(mask) == (4, [0, 2])
        assert router.shards[1].cut(mask) == (0, [])

    def test_wrapped_shards_keep_the_independent_scatter(self, tiny_table, tiny_schema, build_calls):
        router = ShardRouter.over_table(tiny_table, 3, k=2, shard_layer=BackendLayer)
        router.submit(ConjunctiveQuery.empty(tiny_schema))
        assert len(build_calls) == 3  # one full response per shard


class TestByteIdenticalAtTheTopKBoundary:
    @pytest.mark.parametrize("ranking_name", sorted(RANKINGS))
    @pytest.mark.parametrize("extra", [0, 1], ids=["total-equals-k", "total-is-k-plus-one"])
    def test_every_router_answers_like_the_flat_backend(
        self, tiny_table, tiny_schema, ranking_name, extra
    ):
        ranking = RANKINGS[ranking_name]()
        columns = ("score",)
        for query, total in [
            (ConjunctiveQuery.empty(tiny_schema), 8),
            (ConjunctiveQuery.from_assignment(tiny_schema, {"color": "red"}), 4),
            (ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota"}), 4),
        ]:
            k = total - extra
            flat = QueryEngineBackend(tiny_table, k=k, ranking=ranking, display_columns=columns)
            expected = flat.submit(query)
            assert expected.reported_count == total
            with ShardRouter.over_table(
                tiny_table, 3, k=k, ranking=ranking, display_columns=columns, max_workers=3
            ) as concurrent:
                routers = [
                    ShardRouter.over_table(
                        tiny_table, 3, k=k, ranking=ranking, display_columns=columns
                    ),
                    concurrent,
                    ShardRouter.over_table(
                        tiny_table, 3, k=k, ranking=ranking, display_columns=columns,
                        shard_layer=BackendLayer,
                    ),
                ]
                for router in routers:
                    response = router.submit(query)
                    assert response == expected
                    assert _page(tiny_schema, response, columns) == _page(
                        tiny_schema, expected, columns
                    )


def _page(schema, response, columns):
    return render_result_page(
        schema, response.query, response.tuples, response.overflow,
        response.reported_count, response.k, display_columns=columns,
    )
