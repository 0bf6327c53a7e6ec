"""Engine and shard answers build their returned tuples on first read.

``build_returned_tuples`` hands back a :class:`LazyTuples`: the row ids are
known at once, each :class:`ReturnedTuple` is built the first time it is
read.  Everything a caller can do with the tuple it replaced must behave the
same — checked here against an eager oracle built straight from the table's
rows and :meth:`Table.selectable_row`, through the flat backend and every
router flavour.
"""

import json
import sys
import threading

import pytest

from repro.backends import (
    AccountingLayer,
    HistoryLayer,
    QueryEngineBackend,
    ShardRouter,
    build_returned_tuples,
)
from repro.backends import adapters as adapters_module
from repro.backends.adapters import LazyTuples
from repro.backends.base import BackendLayer
from repro.backends.dispatch import ConcurrentShardRouter
from repro.backends.history import JobHistory
from repro.database.interface import InterfaceResponse, ReturnedTuple
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import (
    AttributeWeightedRanking,
    HashRanking,
    RowIdRanking,
    StaticScoreRanking,
)
from repro.database.table import Table
from repro.exceptions import DomainValueError
from repro.web.html import render_result_page
from repro.web.jsoncodec import response_to_dict

RANKINGS = {
    "row_id": RowIdRanking,
    "static_score": lambda: StaticScoreRanking("score"),
    "attribute_weighted": lambda: AttributeWeightedRanking({"score": 1.0}),
    "hash": lambda: HashRanking("edges"),
}

COLUMNS = ("score", "title")


def _eager(table, row_ids, display_columns=()):
    """The tuple an eager build would return, from the raw rows alone."""
    names = table.schema.attribute_names
    built = []
    for row_id in row_ids:
        row = table.rows[row_id]
        values = {name: row[name] for name in names}
        values.update({column: row[column] for column in display_columns if column in row})
        built.append(ReturnedTuple(row_id, values, table.selectable_row(row)))
    return tuple(built)


def _backends(table, k, ranking):
    """``(label, backend)`` for the flat backend and every router flavour."""
    options = dict(k=k, ranking=ranking, display_columns=COLUMNS)
    return [
        ("flat", QueryEngineBackend(table, **options)),
        ("router", ShardRouter.over_table(table, 3, **options)),
        ("concurrent", ConcurrentShardRouter.over_table(table, 3, **options)),
        ("shard_layer", ShardRouter.over_table(table, 3, shard_layer=BackendLayer, **options)),
    ]


def _queries(schema):
    queries = [ConjunctiveQuery.empty(schema)]
    for attribute in schema:
        for value in attribute.domain.values[:2]:
            queries.append(ConjunctiveQuery.from_assignment(schema, {attribute.name: value}))
    return queries


def _assert_behaves_like(lazy, eager):
    """Every tuple operation on ``lazy`` agrees with ``eager``."""
    assert lazy == eager and eager == lazy
    assert not (lazy != eager) and not (eager != lazy)
    assert len(lazy) == len(eager)
    assert bool(lazy) == bool(eager)
    for position in range(-len(eager), len(eager)):
        assert lazy[position] == eager[position]
    for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -2), slice(5, 2)):
        assert lazy[cut] == eager[cut]
        assert type(lazy[cut]) is tuple
    for position in (len(eager), -len(eager) - 1):
        with pytest.raises(IndexError):
            lazy[position]
    assert list(lazy) == list(eager)
    assert repr(lazy) == repr(eager)


class TestAgainstTheEagerBuild:
    @pytest.mark.parametrize("ranking_name", sorted(RANKINGS))
    def test_every_access_path_answers_like_the_eager_build(
        self, small_vehicles_table, ranking_name
    ):
        table = small_vehicles_table
        ranking = RANKINGS[ranking_name]()
        ranks = table.index.rank_cache(ranking)
        k = 7
        backends = _backends(table, k, ranking)
        try:
            for query in _queries(table.schema):
                eager = _eager(table, ranks.first(ranks.mask(query), k), COLUMNS)
                for label, backend in backends:
                    tuples = backend.submit(query).tuples
                    _assert_behaves_like(tuples, eager)
                    if label != "shard_layer":  # that merge lists a plain tuple
                        assert isinstance(tuples, LazyTuples), label
        finally:
            backends[2][1].close()

    def test_wrapped_shards_answer_with_lazy_tuples(self, small_vehicles_table):
        table = small_vehicles_table
        ranking = StaticScoreRanking("score")
        router = ShardRouter.over_table(
            table, 3, k=5, ranking=ranking, display_columns=COLUMNS, shard_layer=BackendLayer
        )
        ranks = table.index.rank_cache(ranking)
        query = ConjunctiveQuery.from_assignment(table.schema, {"color": "red"})
        for index, shard in enumerate(router.shards):
            tuples = shard.submit(query).tuples
            mine = ranks.mask(query) & ranks.residue(3, index)
            assert isinstance(tuples, LazyTuples)
            _assert_behaves_like(tuples, _eager(table, ranks.first(mine, 5), COLUMNS))

    def test_two_lazy_sequences_compare_by_their_tuples(self, tiny_table):
        first = build_returned_tuples(tiny_table, [3, 1], ("score",))
        assert first == build_returned_tuples(tiny_table, (3, 1), ("score",))
        assert first != build_returned_tuples(tiny_table, [3, 1])  # no score column
        assert first != build_returned_tuples(tiny_table, [1, 3], ("score",))
        assert first != build_returned_tuples(tiny_table, [3], ("score",))
        assert first != list(first) and list(first) != first  # as a tuple would
        assert build_returned_tuples(tiny_table, []) == ()

    def test_empty_answer_and_unhashability(self, tiny_table):
        empty = build_returned_tuples(tiny_table, [])
        _assert_behaves_like(empty, ())
        with pytest.raises(TypeError):
            hash(empty)
        with pytest.raises(TypeError):
            hash(build_returned_tuples(tiny_table, [0]))


@pytest.fixture()
def built(monkeypatch):
    """Counts every :class:`ReturnedTuple` the adapters module builds."""
    counter = {"tuples": 0}

    def counting(*args, **kwargs):
        counter["tuples"] += 1
        return ReturnedTuple(*args, **kwargs)

    monkeypatch.setattr(adapters_module, "ReturnedTuple", counting)
    return counter


class TestNothingIsBuiltUntilRead:
    def test_a_counted_overflowing_answer_builds_no_tuples(self, small_vehicles_table, built):
        table = small_vehicles_table
        query = ConjunctiveQuery.empty(table.schema)
        stacks = [
            QueryEngineBackend(table, k=50),
            AccountingLayer(HistoryLayer(QueryEngineBackend(table, k=50))),
            ShardRouter.over_table(table, 4, k=50),
        ]
        for backend in stacks:
            response = backend.submit(query)
            assert response.overflow and not response.valid and not response.empty
            assert len(response.tuples) == 50
        assert built["tuples"] == 0

    def test_each_tuple_is_built_once_on_first_read(self, small_vehicles_table, built):
        table = small_vehicles_table
        tuples = QueryEngineBackend(table, k=10).submit(ConjunctiveQuery.empty(table.schema)).tuples
        first = tuples[-3]
        assert built["tuples"] == 1
        assert tuples[7] is first and tuples[-3] is first
        assert built["tuples"] == 1
        assert [t.tuple_id for t in tuples] == [t.tuple_id for t in tuples[:]]
        assert built["tuples"] == 10


class TestNoBitScanUntilRead:
    @pytest.mark.parametrize("path", ["flat", "history", "router", "concurrent"])
    def test_a_counted_overflowing_answer_runs_no_bit_scan(
        self, small_vehicles_table, bit_scans, path
    ):
        table = small_vehicles_table
        schema = table.schema
        backends = {
            "flat": lambda: QueryEngineBackend(table, k=50),
            "history": lambda: AccountingLayer(HistoryLayer(QueryEngineBackend(table, k=50))),
            "router": lambda: ShardRouter.over_table(table, 4, k=50),
            "concurrent": lambda: ConcurrentShardRouter.over_table(table, 4, k=50),
        }
        backend = backends[path]()
        query = ConjunctiveQuery.from_assignment(schema, {"color": "red"})
        narrower = query.specialise("condition", schema.attribute("condition").domain.values[0])
        response = backend.submit(query)
        # A repeat (an exact history hit) and a specialisation (a history
        # lookup that finds only an overflowing ancestor, then issues).
        again, deeper = backend.submit(query), backend.submit(narrower)
        for answer in (response, again, deeper):
            assert answer.overflow and not answer.valid and not answer.empty
            assert len(answer.tuples) == 50 and answer.tuples
        assert bit_scans == []
        first = response.tuples[0]
        assert len(bit_scans) == 1
        assert [t.tuple_id for t in response.tuples][0] == first.tuple_id
        assert len(bit_scans) == 1
        if path == "concurrent":
            backend.close()


class TestDeferredAnswersEncodeLikeEagerOnes:
    """A deferred answer and one cut at submit (as before) ship the same bytes."""

    @pytest.mark.parametrize("ranking_name", sorted(RANKINGS))
    @pytest.mark.parametrize("path", ["flat", "router"])
    def test_wire_page_and_history_bytes(self, small_vehicles_table, ranking_name, path):
        table = small_vehicles_table
        schema = table.schema
        ranking = RANKINGS[ranking_name]()
        ranks = table.index.rank_cache(ranking)
        options = dict(k=9, ranking=ranking, display_columns=COLUMNS)
        if path == "flat":
            backend = QueryEngineBackend(table, **options)
        else:
            backend = ShardRouter.over_table(table, 3, **options)
        for query in _queries(schema):
            deferred = backend.submit(query)
            eager = InterfaceResponse(
                query=query,
                tuples=build_returned_tuples(
                    table, tuple(ranks.first(ranks.mask(query), 9)), COLUMNS
                ),
                overflow=deferred.overflow,
                reported_count=deferred.reported_count,
                k=9,
            )
            assert json.dumps(response_to_dict(deferred)) == json.dumps(response_to_dict(eager))
            assert _page(schema, backend.submit(query)) == _page(schema, eager)
            assert _remembered(table, backend.submit(query)) == _remembered(table, eager)


def _page(schema, response):
    return render_result_page(
        schema, response.query, response.tuples, response.overflow,
        response.reported_count, response.k, display_columns=COLUMNS,
    )


def _remembered(table, response):
    """The checkpoint text of a history that remembered ``response`` and replayed it."""
    level = HistoryLayer(QueryEngineBackend(table, k=response.k))
    level.remember(response)
    job = JobHistory(level)
    assert job.submit(response.query) is response
    assert job.statistics.exact_hits == 1
    return json.dumps(job.export_entries())


class TestConcurrentFirstReads:
    @pytest.mark.parametrize("path", ["flat", "router"])
    def test_eight_threads_reading_one_cold_answer_get_equal_tuples(
        self, small_vehicles_table, path
    ):
        table = small_vehicles_table
        ranking = StaticScoreRanking("score")
        options = dict(k=100, ranking=ranking, display_columns=COLUMNS)
        if path == "flat":
            backend = QueryEngineBackend(table, **options)
        else:
            backend = ShardRouter.over_table(table, 4, **options)
        # Cold on both levels: neither the row ids nor any tuple is cut yet.
        tuples = backend.submit(ConjunctiveQuery.empty(table.schema)).tuples
        barrier = threading.Barrier(8)
        seen = [None] * 8

        def read(slot):
            barrier.wait()
            seen[slot] = [tuples[position] for position in range(len(tuples))]

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the cold builds as finely as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        ranks = table.index.rank_cache(ranking)
        expected = list(_eager(table, ranks.by_rank[:100], COLUMNS))
        assert all(reads == expected for reads in seen)
        assert list(tuples) == expected


class TestDomainErrorsStayEager:
    @pytest.fixture()
    def dirty_table(self, tiny_schema):
        rows = [
            {"make": "Ford", "color": "red", "price": 5_000.0},
            {"make": "Ford", "color": "red", "price": 999_999.0},
            {"make": "Tesla", "color": "red", "price": 15_000.0},
        ]
        return Table(tiny_schema, rows, name="dirty", validate=False)

    @pytest.mark.parametrize("path", ["flat", "router"])
    def test_an_answer_listing_an_out_of_domain_row_raises_at_submit(self, dirty_table, path):
        if path == "flat":
            backend = QueryEngineBackend(dirty_table, k=3)
        else:
            backend = ShardRouter.over_table(dirty_table, 2, k=3)
        with pytest.raises(DomainValueError):
            backend.submit(ConjunctiveQuery.empty(dirty_table.schema))
        clean = ConjunctiveQuery.from_assignment(dirty_table.schema, {"price": "0-10000"})
        assert [t.tuple_id for t in backend.submit(clean).tuples] == [0]

    def test_the_first_out_of_domain_row_listed_raises_at_build(self, dirty_table):
        with pytest.raises(DomainValueError) as raised:
            build_returned_tuples(dirty_table, [0, 2, 1])
        assert raised.value.value == "Tesla"
        with pytest.raises(DomainValueError) as raised:
            build_returned_tuples(dirty_table, [1, 2])
        assert raised.value.value == 999_999.0
        assert build_returned_tuples(dirty_table, [0]) == _eager(dirty_table, [0])
