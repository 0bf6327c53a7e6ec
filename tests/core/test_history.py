"""Unit tests for the query-history cache and inference optimisation."""

import pytest

from repro.backends.history import CachedResponseSource, HistoryLayer, JobHistory
from repro.exceptions import ConfigurationError
from repro.database.interface import HiddenDatabaseInterface
from repro.database.query import ConjunctiveQuery


@pytest.fixture()
def cached(tiny_interface):
    return HistoryLayer(tiny_interface)


class TestExactHits:
    def test_identical_query_is_not_reissued(self, cached, tiny_schema, tiny_interface):
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        first = cached.submit(query)
        issued_after_first = tiny_interface.statistics.queries_issued
        second, source = cached.lookup(query)
        assert tiny_interface.statistics.queries_issued == issued_after_first
        assert source is CachedResponseSource.EXACT_HIT
        assert [t.tuple_id for t in second.tuples] == [t.tuple_id for t in first.tuples]

    def test_predicate_order_does_not_matter_for_the_cache(self, cached, tiny_schema, tiny_interface):
        a = ConjunctiveQuery.empty(tiny_schema).specialise("make", "Ford").specialise("color", "red")
        b = ConjunctiveQuery.empty(tiny_schema).specialise("color", "red").specialise("make", "Ford")
        cached.submit(a)
        issued = tiny_interface.statistics.queries_issued
        cached.submit(b)
        assert tiny_interface.statistics.queries_issued == issued


class TestInference:
    def test_specialisation_of_a_valid_query_is_inferred(self, cached, tiny_schema, tiny_interface):
        broad = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        cached.submit(broad)  # valid: 2 tuples, no overflow
        issued = tiny_interface.statistics.queries_issued
        narrow = broad.specialise("color", "red")
        response, source = cached.lookup(narrow)
        assert tiny_interface.statistics.queries_issued == issued
        assert source is CachedResponseSource.INFERRED
        assert len(response.tuples) == 1
        assert response.tuples[0].selectable_values["color"] == "red"
        assert not response.overflow

    def test_inferred_answer_matches_the_real_interface(self, cached, tiny_schema, tiny_table):
        broad = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota", "color": "red"})
        cached.submit(broad)
        narrow = broad.specialise("price", "0-10000")
        inferred = cached.submit(narrow)
        fresh_interface = HiddenDatabaseInterface(tiny_table, k=2)
        direct = fresh_interface.submit(narrow)
        assert sorted(t.tuple_id for t in inferred.tuples) == sorted(t.tuple_id for t in direct.tuples)

    def test_specialisation_of_an_empty_query_is_inferred_empty(self, cached, tiny_schema, tiny_interface):
        empty = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda", "price": "0-10000"})
        cached.submit(empty)
        issued = tiny_interface.statistics.queries_issued
        narrower = empty.specialise("color", "blue")
        response, source = cached.lookup(narrower)
        assert tiny_interface.statistics.queries_issued == issued
        assert response.empty
        assert source is CachedResponseSource.INFERRED

    def test_overflowing_queries_are_never_used_for_subset_inference(self, cached, tiny_schema, tiny_interface):
        overflowing = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota"})
        cached.submit(overflowing)  # 4 tuples > k=2: overflow
        issued = tiny_interface.statistics.queries_issued
        narrow = overflowing.specialise("color", "red")
        _, source = cached.lookup(narrow)
        # The narrow query had to be issued for real.
        assert tiny_interface.statistics.queries_issued == issued + 1
        assert source is CachedResponseSource.INTERFACE

    def test_statistics_accumulate(self, cached, tiny_schema):
        broad = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        cached.submit(broad)
        cached.submit(broad)
        cached.submit(broad.specialise("color", "red"))
        stats = cached.statistics
        assert stats.submissions == 3
        assert stats.issued_to_interface == 1
        assert stats.exact_hits == 1
        assert stats.inferred == 1
        assert stats.saved == 2
        assert stats.saving_ratio == pytest.approx(2 / 3)
        as_dict = stats.as_dict()
        assert as_dict["saved"] == 2


class TestCacheMaintenance:
    def test_clear_forgets_responses_but_keeps_statistics(self, cached, tiny_schema, tiny_interface):
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"})
        cached.submit(query)
        cached.clear()
        assert len(cached) == 0
        issued = tiny_interface.statistics.queries_issued
        cached.submit(query)
        assert tiny_interface.statistics.queries_issued == issued + 1
        assert cached.statistics.submissions == 2

    def test_history_is_unbounded(self, cached, tiny_schema, tiny_interface):
        """Every answer stays remembered: nothing is ever evicted, so no
        query is paid for twice."""
        queries = [
            ConjunctiveQuery.from_assignment(tiny_schema, {"make": make, "color": color})
            for make in ("Toyota", "Honda", "Ford")
            for color in ("red", "blue")
        ] + [ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota"})]
        for query in queries:
            cached.submit(query)
        assert len(cached) == len(queries)
        issued = tiny_interface.statistics.queries_issued
        for query in queries:
            cached.submit(query)
        assert tiny_interface.statistics.queries_issued == issued

    def test_reimporting_existing_entries_overwrites_in_place(self, tiny_table, tiny_schema):
        """Re-importing keys already cached (checkpoint re-import) replaces
        them in place rather than adding entries."""
        interface = HiddenDatabaseInterface(tiny_table, k=2)
        cached = HistoryLayer(interface)
        view = JobHistory(cached)
        first = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"})
        second = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        view.submit(first)
        view.submit(second)
        snapshot = view.export_entries()
        assert view.import_entries(snapshot, lambda a: ConjunctiveQuery.from_assignment(tiny_schema, a)) == 2
        assert len(cached) == 2
        assert cached.valid_keys() == {first.canonical_key(), second.canonical_key()}
        # Both original entries are still answerable without the interface.
        issued = interface.statistics.queries_issued
        cached.submit(first)
        cached.submit(second)
        assert interface.statistics.queries_issued == issued

    def test_inference_mode_is_validated(self, tiny_interface):
        with pytest.raises(ConfigurationError):
            HistoryLayer(tiny_interface, inference="magic")

    def test_cache_exposes_schema_k_and_inner(self, cached, tiny_interface):
        assert cached.schema == tiny_interface.schema
        assert cached.k == tiny_interface.k
        assert cached.inner is tiny_interface
