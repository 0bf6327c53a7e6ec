"""Unit tests for the top-k query engine and ranking functions."""

import sys
import threading

import pytest

from repro.database.engine import QueryEngine, QueryOutcome
from repro.database.index import TopRowIds
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import (
    AttributeWeightedRanking,
    HashRanking,
    RowIdRanking,
    StaticScoreRanking,
)
from repro.exceptions import SchemaError


class TestRankingFunctions:
    def test_static_score_ranks_higher_scores_first(self, tiny_table):
        ranking = StaticScoreRanking()
        order = ranking.order(tiny_table, list(range(len(tiny_table))))
        scores = [tiny_table[row_id]["score"] for row_id in order]
        assert scores == sorted(scores, reverse=True)

    def test_static_score_missing_scores_rank_last(self, tiny_schema):
        from repro.database.table import Table

        rows = [
            {"make": "Ford", "color": "red", "price": 5_000.0},
            {"make": "Honda", "color": "red", "price": 5_000.0, "score": 1.0},
        ]
        table = Table(tiny_schema, rows)
        order = StaticScoreRanking().order(table, [0, 1])
        assert order == [1, 0]

    def test_static_score_requires_column_name(self):
        with pytest.raises(SchemaError):
            StaticScoreRanking("")

    def test_attribute_weighted_ranking(self, tiny_table):
        ranking = AttributeWeightedRanking({"price": -1.0})
        order = ranking.order(tiny_table, list(range(len(tiny_table))))
        prices = [tiny_table[row_id]["price"] for row_id in order]
        assert prices == sorted(prices)

    def test_attribute_weighted_requires_weights(self):
        with pytest.raises(SchemaError):
            AttributeWeightedRanking({})

    def test_hash_ranking_is_deterministic_and_salt_dependent(self, tiny_table):
        ids = list(range(len(tiny_table)))
        a = HashRanking("salt-a").order(tiny_table, ids)
        b = HashRanking("salt-a").order(tiny_table, ids)
        c = HashRanking("salt-b").order(tiny_table, ids)
        assert a == b
        assert set(a) == set(ids)
        assert a != c  # overwhelmingly likely for 8 rows

    def test_row_id_ranking_keeps_insertion_order(self, tiny_table):
        assert RowIdRanking().order(tiny_table, [3, 1, 2]) == [1, 2, 3]

    def test_top_k_truncates(self, tiny_table):
        assert len(RowIdRanking().top_k(tiny_table, list(range(8)), 3)) == 3
        with pytest.raises(ValueError):
            RowIdRanking().top_k(tiny_table, [0], -1)


class TestQueryEngine:
    def test_k_must_be_positive(self, tiny_table):
        with pytest.raises(ValueError):
            QueryEngine(tiny_table, k=0)

    def test_empty_result(self, tiny_table, tiny_schema):
        engine = QueryEngine(tiny_table, k=2)
        query = ConjunctiveQuery.from_assignment(
            tiny_schema, {"make": "Honda", "price": "0-10000"}
        )
        result = engine.execute(query)
        assert result.outcome is QueryOutcome.EMPTY
        assert result.empty and not result.overflow
        assert result.returned_row_ids == ()
        assert result.total_count == 0

    def test_valid_result_returns_all_matches(self, tiny_table, tiny_schema):
        engine = QueryEngine(tiny_table, k=5)
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        result = engine.execute(query)
        assert result.outcome is QueryOutcome.VALID
        assert result.returned_count == result.total_count == 2

    def test_overflow_returns_top_k_by_ranking(self, tiny_table, tiny_schema):
        engine = QueryEngine(tiny_table, k=2, ranking=StaticScoreRanking())
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota"})
        result = engine.execute(query)
        assert result.outcome is QueryOutcome.OVERFLOW
        assert result.overflow
        assert result.total_count == 4
        assert result.returned_count == 2
        # The two highest-score Toyotas are rows 0 and 1.
        assert set(result.returned_row_ids) == {0, 1}

    def test_count_and_matching_row_ids(self, tiny_table, tiny_schema):
        engine = QueryEngine(tiny_table, k=2)
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"color": "red"})
        assert engine.count(query) == 4
        assert engine.matching_row_ids(query) == [0, 2, 4, 6]

    def test_rows_materialisation(self, tiny_table):
        engine = QueryEngine(tiny_table, k=2)
        rows = engine.rows([1, 3])
        assert [row["score"] for row in rows] == [9.0, 7.0]

    def test_empty_query_overflow_on_small_k(self, tiny_table, tiny_schema):
        engine = QueryEngine(tiny_table, k=2)
        result = engine.execute(ConjunctiveQuery.empty(tiny_schema))
        assert result.overflow
        assert result.total_count == len(tiny_table)


RANKINGS = {
    "row_id": RowIdRanking,
    "static_score": lambda: StaticScoreRanking("score"),
    "attribute_weighted": lambda: AttributeWeightedRanking({"score": 1.0}),
    "hash": lambda: HashRanking("edges"),
}


class TestDeferredRowIds:
    def test_an_answer_read_for_its_flag_and_length_runs_no_bit_scan(
        self, small_vehicles_table, bit_scans
    ):
        engine = QueryEngine(small_vehicles_table, k=50)
        result = engine.execute(ConjunctiveQuery.empty(small_vehicles_table.schema))
        ids = result.returned_row_ids
        assert isinstance(ids, TopRowIds)
        assert result.overflow and not result.empty
        assert len(ids) == result.returned_count == 50 and ids
        assert bit_scans == []
        assert ids[3] == 3
        assert len(bit_scans) == 1
        assert list(ids) == list(range(50)) and ids[-1] == 49
        assert len(bit_scans) == 1

    def test_an_empty_answer_never_scans(self, tiny_table, tiny_schema, bit_scans):
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda", "price": "0-10000"})
        ids = QueryEngine(tiny_table, k=2).execute(query).returned_row_ids
        assert ids == () and not ids and list(ids) == []
        assert bit_scans == []

    @pytest.mark.parametrize("ranking_name", sorted(RANKINGS))
    @pytest.mark.parametrize("extra", [0, 1], ids=["total-equals-k", "total-is-k-plus-one"])
    def test_deferred_ids_equal_the_eager_cut(self, small_vehicles_table, ranking_name, extra):
        table = small_vehicles_table
        ranking = RANKINGS[ranking_name]()
        ranks = table.index.rank_cache(ranking)
        for attribute in table.schema:
            for value in attribute.domain.values[:2]:
                query = ConjunctiveQuery.from_assignment(table.schema, {attribute.name: value})
                total = ranks.mask(query).bit_count()
                if total <= extra:
                    continue
                k = total - extra
                fast = QueryEngine(table, k=k, ranking=ranking).execute(query)
                slow = QueryEngine(table, k=k, ranking=ranking, use_index=False).execute(query)
                eager = tuple(ranks.first(ranks.mask(query), k))
                assert fast.outcome is slow.outcome and fast.total_count == slow.total_count
                ids = fast.returned_row_ids
                assert ids == slow.returned_row_ids == eager and eager == ids
                assert len(ids) == len(eager) and hash(ids) == hash(eager)
                assert ids[1:-1] == eager[1:-1] and type(ids[::2]) is tuple
                assert repr(ids) == repr(eager) and eager[-1] in ids
                other = QueryEngine(table, k=k, ranking=ranking).execute(query)
                assert ids == other.returned_row_ids

    def test_compares_like_the_tuple_it_stands_for(self, tiny_table, tiny_schema):
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"color": "red"})
        ids = QueryEngine(tiny_table, k=3).execute(query).returned_row_ids
        assert ids == (0, 2, 4) and (0, 2, 4) == ids
        assert ids != (0, 2) and ids != (0, 2, 6)
        assert ids != [0, 2, 4] and [0, 2, 4] != ids  # as the tuple would
        assert ids.index(4) == 2 and ids.count(2) == 1

    def test_eight_threads_reading_one_cold_answer_get_equal_ids(self, small_vehicles_table):
        ranking = StaticScoreRanking("score")
        engine = QueryEngine(small_vehicles_table, k=200, ranking=ranking)
        ids = engine.execute(ConjunctiveQuery.empty(small_vehicles_table.schema)).returned_row_ids
        barrier = threading.Barrier(8)
        seen = [None] * 8

        def read(slot):
            barrier.wait()
            seen[slot] = [ids[position] for position in range(len(ids))]

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = small_vehicles_table.index.rank_cache(ranking).by_rank[:200]
        assert all(reads == expected for reads in seen)

    def test_holds_the_query_not_the_match_mask(self, small_vehicles_table):
        result = QueryEngine(small_vehicles_table, k=10).execute(
            ConjunctiveQuery.empty(small_vehicles_table.schema)
        )
        ids = result.returned_row_ids
        held = [getattr(ids, name) for name in type(ids).__slots__]
        assert not any(isinstance(value, int) and value.bit_length() > 64 for value in held)
        list(ids)
        held = [getattr(ids, name) for name in type(ids).__slots__]
        assert not any(isinstance(value, int) and value.bit_length() > 64 for value in held)
