"""Unit tests for the inverted-index subsystem (posting lists, rank caches)."""

import pytest

from repro.database.engine import QueryEngine, QueryOutcome
from repro.database.index import RankCache, TableIndex
from repro.database.interface import HiddenDatabaseInterface
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import HashRanking, RowIdRanking, StaticScoreRanking
from repro.database.table import Table


class TestTableIndex:
    def test_index_is_built_once_and_shared(self, tiny_table):
        index = tiny_table.index
        assert index is tiny_table.index
        assert QueryEngine(tiny_table, k=2).table.index is index

    def test_bitmaps_set_one_bit_per_matching_rank_position(self, tiny_table):
        cache = tiny_table.index.rank_cache(RowIdRanking())
        assert cache.bitmap("make", "Toyota") == 0b1111
        assert cache.bitmap("color", "red") == 0b1010101
        assert cache.bitmap("price", "0-10000") == 0b1001001
        assert cache.bitmap("make", "Tesla") == 0
        # Under a permuting ranking the bits sit at the rows' rank positions.
        permuted = tiny_table.index.rank_cache(HashRanking("bits"))
        toyota = permuted.bitmap("make", "Toyota")
        assert {p for p in range(8) if toyota >> p & 1} == {permuted.position[r] for r in range(4)}

    def test_bitmaps_are_built_lazily_per_attribute(self, tiny_table, tiny_schema):
        ranking = HashRanking("lazy")
        engine = QueryEngine(tiny_table, k=2, ranking=ranking)
        cache = tiny_table.index.rank_cache(ranking)
        engine.execute(ConjunctiveQuery.empty(tiny_schema))
        assert cache.bitmap_bytes() == 0
        engine.execute(ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"}))
        assert set(cache._bitmaps) == {"make"}
        assert cache.bitmap_bytes() > 0

    def test_numeric_column_is_binned_once_into_labels(self, tiny_table):
        column = tiny_table.index.selectable_column("price")
        assert list(column)[:3] == ["0-10000", "10000-20000", "20000-40000"]

    def test_matching_row_ids_intersects_ascending(self, tiny_table, tiny_schema):
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota", "color": "red"})
        assert tiny_table.index.matching_row_ids(query) == [0, 2]
        root = ConjunctiveQuery.empty(tiny_schema)
        assert tiny_table.index.matching_row_ids(root) == list(range(8))

    def test_count_without_materialising_rows(self, tiny_table, tiny_schema):
        index = tiny_table.index
        assert index.count(ConjunctiveQuery.empty(tiny_schema)) == 8
        assert index.count(ConjunctiveQuery.from_assignment(tiny_schema, {"color": "red"})) == 4
        assert index.count(
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda", "price": "0-10000"})
        ) == 0

    def test_unvalidated_out_of_bucket_rows_match_nothing(self, tiny_schema):
        table = Table(
            tiny_schema,
            [{"make": "Ford", "color": "red", "price": 999_999.0}],
            validate=False,
        )
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"price": "0-10000"})
        assert table.index.matching_row_ids(query) == []
        cache = table.index.rank_cache(RowIdRanking())
        assert cache.bitmap("make", "Ford") == 0b1
        assert cache.bitmap("price", "0-10000") == 0
        assert table.index.unbinnable_rows == {0}

    def test_rank_cache_is_memoised_per_ranking_instance(self, tiny_table):
        index = tiny_table.index
        ranking = StaticScoreRanking()
        assert index.rank_cache(ranking) is index.rank_cache(ranking)
        assert index.rank_cache(ranking) is not index.rank_cache(StaticScoreRanking())

    def test_rank_caches_die_with_their_ranking(self, tiny_table):
        """Caches are weakly keyed so churning engines cannot accrete memory
        on the table-lifetime index."""
        import gc

        index = tiny_table.index
        baseline = len(index._rank_caches)
        ranking = StaticScoreRanking()
        index.rank_cache(ranking)
        assert len(index._rank_caches) == baseline + 1
        del ranking
        gc.collect()
        assert len(index._rank_caches) == baseline


class TestRankCache:
    @pytest.mark.parametrize("ranking", [StaticScoreRanking(), HashRanking("idx")])
    def test_first_set_bits_match_the_naive_ranking(self, tiny_table, ranking):
        cache = RankCache(tiny_table, ranking)
        ids = [5, 0, 7, 2, 3]
        mask = sum(1 << cache.position[row_id] for row_id in ids)
        assert cache.first(mask, 2) == ranking.top_k(tiny_table, ids, 2)
        assert cache.first(mask, 99) == ranking.order(tiny_table, ids)
        assert cache.first(0, 3) == []

    def test_by_rank_is_a_permutation_of_all_rows(self, tiny_table):
        cache = RankCache(tiny_table, HashRanking("perm"))
        assert sorted(cache.by_rank) == list(range(len(tiny_table)))
        assert [cache.position[row_id] for row_id in cache.by_rank] == list(range(len(tiny_table)))

    def test_residue_masks_partition_the_rank_order(self, tiny_table):
        cache = RankCache(tiny_table, HashRanking("residue"))
        residues = [cache.residue(3, shard) for shard in range(3)]
        assert residues[0] | residues[1] | residues[2] == (1 << len(tiny_table)) - 1
        assert residues[0] & residues[1] == residues[1] & residues[2] == 0
        assert sorted(cache.first(residues[1], 8)) == [1, 4, 7]


class TestEngineFlag:
    def test_scan_engine_never_touches_the_index_rank_caches(self, tiny_table, tiny_schema):
        engine = QueryEngine(tiny_table, k=2, ranking=StaticScoreRanking(), use_index=False)
        result = engine.execute(ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota"}))
        assert result.outcome is QueryOutcome.OVERFLOW
        assert engine._rank_cache is None

    def test_interface_forwards_use_index(self, tiny_table, tiny_schema):
        fast = HiddenDatabaseInterface(tiny_table, k=2, use_index=True)
        slow = HiddenDatabaseInterface(tiny_table, k=2, use_index=False)
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"color": "blue"})
        assert [t.tuple_id for t in fast.submit(query).tuples] == [
            t.tuple_id for t in slow.submit(query).tuples
        ]
