"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.acceptance_rejection import (
    ScaledAcceptancePolicy,
    minimum_selection_probability,
    scale_for_tradeoff,
)
from repro.algorithms.base import Candidate, WalkTrace
from repro.analytics.histogram import Histogram
from repro.analytics.skew import kl_divergence, total_variation_distance
from repro.backends.history import HistoryLayer
from repro.database.engine import QueryEngine
from repro.database.interface import CountMode, HiddenDatabaseInterface
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import (
    AttributeWeightedRanking,
    HashRanking,
    RowIdRanking,
    StaticScoreRanking,
)
from repro.database.schema import Attribute, Domain, Schema
from repro.database.table import Table
from repro.web.urlcodec import decode_query, encode_query


# --------------------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------------------

_CATEGORY_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789_.- "


@st.composite
def schemas(draw) -> Schema:
    """Random small schemas with categorical, boolean and numeric attributes."""
    n_attributes = draw(st.integers(min_value=1, max_value=4))
    attributes = []
    for index in range(n_attributes):
        kind = draw(st.sampled_from(["categorical", "boolean", "numeric"]))
        name = f"attr{index}"
        if kind == "categorical":
            size = draw(st.integers(min_value=2, max_value=5))
            values = tuple(
                draw(
                    st.text(alphabet=_CATEGORY_ALPHABET, min_size=1, max_size=8).filter(
                        lambda s: s.strip()
                    )
                )
                + f"_{j}"
                for j in range(size)
            )
            attributes.append(Attribute(name, Domain.categorical(values)))
        elif kind == "boolean":
            attributes.append(Attribute(name, Domain.boolean()))
        else:
            n_edges = draw(st.integers(min_value=2, max_value=4))
            edges = sorted(
                set(draw(st.lists(st.integers(0, 1000), min_size=n_edges, max_size=n_edges, unique=True)))
            )
            if len(edges) < 2:
                edges = [0, 1000]
            attributes.append(Attribute(name, Domain.numeric_buckets([float(e) for e in edges])))
    return Schema(attributes, name="prop")


@st.composite
def schema_and_table(draw) -> tuple[Schema, Table]:
    """A random schema together with a random table conforming to it."""
    schema = draw(schemas())
    n_rows = draw(st.integers(min_value=0, max_value=30))
    rng = random.Random(draw(st.integers(0, 2**16)))
    rows = []
    for _ in range(n_rows):
        row: dict[str, object] = {}
        for attribute in schema:
            if attribute.domain.buckets:
                bucket = rng.choice(attribute.domain.buckets)
                row[attribute.name] = rng.uniform(bucket.low, min(bucket.high - 1e-6, bucket.low + 1e6))
            else:
                row[attribute.name] = rng.choice(attribute.domain.values)
        row["score"] = rng.random()
        rows.append(row)
    return schema, Table(schema, rows, name="prop")


@st.composite
def queries_for(draw, schema: Schema) -> ConjunctiveQuery:
    """A random (possibly empty) conjunctive query over ``schema``."""
    assignment = {}
    for attribute in schema:
        if draw(st.booleans()):
            assignment[attribute.name] = draw(st.sampled_from(list(attribute.domain.values)))
    return ConjunctiveQuery.from_assignment(schema, assignment)


@st.composite
def table_and_query(draw) -> tuple[Schema, Table, ConjunctiveQuery]:
    schema, table = draw(schema_and_table())
    query = draw(queries_for(schema))
    return schema, table, query


# --------------------------------------------------------------------------------------
# Query algebra and URL codec
# --------------------------------------------------------------------------------------


class TestQueryProperties:
    @given(data=table_and_query())
    @settings(max_examples=60, deadline=None)
    def test_url_codec_round_trip(self, data):
        schema, _, query = data
        assert decode_query(schema, encode_query(query)) == query

    @given(data=table_and_query())
    @settings(max_examples=60, deadline=None)
    def test_specialisation_shrinks_the_result_set(self, data):
        schema, table, query = data
        free = query.free_attributes
        matching_before = {i for i in table.row_ids() if query.matches(table[i])}
        if not free:
            return
        attribute = schema.attribute(free[0])
        for value in attribute.domain.values:
            narrower = query.specialise(attribute.name, value)
            matching_after = {i for i in table.row_ids() if narrower.matches(table[i])}
            assert matching_after <= matching_before

    @given(data=table_and_query())
    @settings(max_examples=60, deadline=None)
    def test_children_partition_the_parent_result_set(self, data):
        schema, table, query = data
        free = query.free_attributes
        if not free:
            return
        attribute = free[0]
        parent_matches = [i for i in table.row_ids() if query.matches(table[i])]
        child_matches: list[int] = []
        for child in query.children(attribute):
            child_matches.extend(i for i in parent_matches if child.matches(table[i]))
        assert sorted(child_matches) == sorted(parent_matches)

    @given(data=table_and_query())
    @settings(max_examples=60, deadline=None)
    def test_subsumption_is_reflexive_and_respects_evaluation(self, data):
        schema, table, query = data
        assert query.subsumes(query)
        root = ConjunctiveQuery.empty(schema)
        assert root.subsumes(query)
        for row_id in table.row_ids():
            if query.matches(table[row_id]):
                assert root.matches(table[row_id])


# --------------------------------------------------------------------------------------
# Engine invariants
# --------------------------------------------------------------------------------------


class TestEngineProperties:
    @given(data=table_and_query(), k=st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_topk_overflow_invariants(self, data, k):
        _, table, query = data
        engine = QueryEngine(table, k=k, ranking=HashRanking("prop"))
        result = engine.execute(query)
        true_count = sum(1 for i in table.row_ids() if query.matches(table[i]))
        assert result.total_count == true_count
        assert result.returned_count <= k
        assert result.overflow == (true_count > k)
        if 0 < true_count <= k:
            assert result.returned_count == true_count
        # Every returned tuple really matches the query.
        for row_id in result.returned_row_ids:
            assert query.matches(table[row_id])

    @given(data=table_and_query(), k=st.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_interface_agrees_with_engine(self, data, k):
        _, table, query = data
        interface = HiddenDatabaseInterface(table, k=k, ranking=HashRanking("prop"))
        engine = QueryEngine(table, k=k, ranking=HashRanking("prop"))
        response = interface.submit(query)
        result = engine.execute(query)
        assert [t.tuple_id for t in response.tuples] == list(result.returned_row_ids)
        assert response.overflow == result.overflow


# --------------------------------------------------------------------------------------
# Indexed evaluation == naive scan (the PR 2 equivalence oracle)
# --------------------------------------------------------------------------------------


def _rankings():
    """One instance of each concrete ranking function (fresh per example)."""
    return [
        RowIdRanking(),
        StaticScoreRanking("score"),
        AttributeWeightedRanking({"score": 1.0, "attr0": -0.5}),
        HashRanking("equivalence"),
    ]


def _random_query_sequence(schema: Schema, rng: random.Random, length: int) -> list[ConjunctiveQuery]:
    queries = []
    for _ in range(length):
        assignment = {}
        for attribute in schema:
            if rng.random() < 0.5:
                assignment[attribute.name] = rng.choice(attribute.domain.values)
        queries.append(ConjunctiveQuery.from_assignment(schema, assignment))
    # Re-submit specialisations and repeats to exercise inference and hits.
    specialised = [
        q.specialise(q.free_attributes[0], schema.attribute(q.free_attributes[0]).domain.values[0])
        for q in queries
        if q.free_attributes
    ]
    return queries + specialised + queries


class TestIndexedScanEquivalence:
    @given(data=table_and_query(), k=st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_execute_is_identical_under_all_rankings(self, data, k):
        """Indexed and scan engines return byte-identical QueryResults."""
        _, table, query = data
        for ranking in _rankings():
            indexed = QueryEngine(table, k=k, ranking=ranking, use_index=True)
            scan = QueryEngine(table, k=k, ranking=ranking, use_index=False)
            fast = indexed.execute(query)
            slow = scan.execute(query)
            assert fast.outcome is slow.outcome
            assert fast.returned_row_ids == slow.returned_row_ids
            assert fast.total_count == slow.total_count
            assert fast.k == slow.k
            assert indexed.count(query) == scan.count(query)
            assert indexed.matching_row_ids(query) == scan.matching_row_ids(query)

    @given(
        data=table_and_query(),
        k=st.integers(min_value=1, max_value=8),
        seed=st.integers(0, 1000),
        root=st.sampled_from(["drawn", "valid", "empty"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_history_inference_modes_are_equivalent(self, data, k, seed, root):
        """Subset-key probing and the linear scan infer identical answers,
        along drill-down prefix chains, across ``remember()`` overwrites that flip an entry
        between usable and overflowing, across ``clear()``, and when the root
        query is answered valid or empty."""
        schema, table, _ = data
        if root == "valid":
            table = Table(schema, table.rows[:k], name="prop")  # SELECT * fits one page
        elif root == "empty":
            table = Table(schema, [], name="prop")

        def interface(page_size):
            return HiddenDatabaseInterface(
                table, k=page_size, ranking=HashRanking("x"), count_mode=CountMode.EXACT
            )

        rng = random.Random(seed)
        indexed_cache = HistoryLayer(interface(k), inference="indexed")
        scan_cache = HistoryLayer(interface(k), inference="scan")
        # True answers of either kind for the overwrites: one row per page
        # overflows as soon as two rows match; a page as large as the table
        # never overflows.
        narrow, complete = interface(1), interface(len(table) + 1)
        for operation, query in _history_operations(schema, rng):
            if operation == "clear":
                indexed_cache.clear()
                scan_cache.clear()
            elif operation == "overwrite":
                stored = indexed_cache.cached(query.canonical_key())
                answer = complete.submit(query)
                if stored is not None and (stored.empty or not stored.overflow):
                    answer = narrow.submit(query)  # usable -> overflowing when it can
                indexed_cache.remember(answer)
                scan_cache.remember(answer)
            else:
                via_indexed, indexed_source = indexed_cache.lookup(query)
                via_scan, scan_source = scan_cache.lookup(query)
                assert via_indexed.overflow == via_scan.overflow
                assert via_indexed.reported_count == via_scan.reported_count
                assert [t.tuple_id for t in via_indexed.tuples] == [t.tuple_id for t in via_scan.tuples]
                assert indexed_source is scan_source
            assert len(indexed_cache) == len(scan_cache)
            # The usable dict mirrors the stored entries after every step.
            assert set(indexed_cache._usable) == indexed_cache.valid_keys() | indexed_cache.empty_keys()
        assert indexed_cache.statistics.as_dict() == scan_cache.statistics.as_dict()


def _history_operations(schema: Schema, rng: random.Random) -> list[tuple[str, ConjunctiveQuery | None]]:
    """Lookups of random queries and of drill-down prefix chains from the
    root (the sampler's shape), with overwrites and one ``clear`` mixed in."""
    chains = []
    for _ in range(2):
        query = ConjunctiveQuery.empty(schema)
        chains.append(query)
        for attribute in rng.sample(schema.attribute_names, len(schema)):
            query = query.specialise(attribute, rng.choice(schema.attribute(attribute).domain.values))
            chains.append(query)
    lookups = chains + _random_query_sequence(schema, rng, 8) + chains
    operations: list[tuple[str, ConjunctiveQuery | None]] = [("lookup", q) for q in lookups]
    for _ in range(3):
        operations.insert(rng.randrange(len(operations) + 1), ("overwrite", rng.choice(lookups)))
    operations.insert(rng.randrange(len(operations) + 1), ("clear", None))
    return operations


# --------------------------------------------------------------------------------------
# History-cache soundness
# --------------------------------------------------------------------------------------


class TestHistoryProperties:
    @given(data=table_and_query(), k=st.integers(min_value=1, max_value=8), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_cached_answers_equal_fresh_answers(self, data, k, seed):
        """Submitting random query sequences through the cache never changes answers."""
        schema, table, _ = data
        rng = random.Random(seed)
        cached_interface = HistoryLayer(HiddenDatabaseInterface(table, k=k, ranking=HashRanking("x")))
        fresh_interface = HiddenDatabaseInterface(table, k=k, ranking=HashRanking("x"))

        queries = []
        for _ in range(8):
            assignment = {}
            for attribute in schema:
                if rng.random() < 0.5:
                    assignment[attribute.name] = rng.choice(attribute.domain.values)
            queries.append(ConjunctiveQuery.from_assignment(schema, assignment))
        # Re-submit some queries to exercise exact hits and inference.
        sequence = queries + [q.specialise(q.free_attributes[0], schema.attribute(q.free_attributes[0]).domain.values[0])
                              for q in queries if q.free_attributes] + queries

        for query in sequence:
            via_cache = cached_interface.submit(query)
            direct = fresh_interface.submit(query)
            assert via_cache.overflow == direct.overflow
            assert via_cache.empty == direct.empty
            assert sorted(t.tuple_id for t in via_cache.tuples) == sorted(t.tuple_id for t in direct.tuples)

        stats = cached_interface.statistics
        assert stats.issued_to_interface + stats.saved == stats.submissions


# --------------------------------------------------------------------------------------
# Acceptance-rejection and metric properties
# --------------------------------------------------------------------------------------


def _candidate(probability: float) -> Candidate:
    return Candidate(
        tuple_id=0, values={}, selectable_values={}, selection_probability=probability,
        trace=WalkTrace(steps=(), attribute_order=()), source="prop",
    )


class TestAcceptanceProperties:
    @given(
        scale=st.floats(min_value=1e-9, max_value=1.0),
        probability=st.floats(min_value=1e-9, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_acceptance_probability_is_always_a_probability(self, scale, probability):
        value = ScaledAcceptancePolicy(scale).acceptance_probability(_candidate(probability))
        assert 0.0 <= value <= 1.0

    @given(data=schemas(), k=st.integers(min_value=1, max_value=50),
           position=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_tradeoff_scale_is_bounded_by_its_endpoints(self, data, k, position):
        scale = scale_for_tradeoff(data, k, position)
        floor = minimum_selection_probability(data, k)
        assert floor <= scale <= 1.0 or scale == pytest.approx(floor)


class TestMetricProperties:
    @given(
        counts_a=st.lists(st.integers(0, 50), min_size=2, max_size=6),
        counts_b=st.lists(st.integers(0, 50), min_size=2, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_total_variation_is_a_bounded_symmetric_distance(self, counts_a, counts_b):
        size = min(len(counts_a), len(counts_b))
        keys = [f"v{i}" for i in range(size)]
        total_a = sum(counts_a[:size]) or 1
        total_b = sum(counts_b[:size]) or 1
        p = {key: counts_a[i] / total_a for i, key in enumerate(keys)}
        q = {key: counts_b[i] / total_b for i, key in enumerate(keys)}
        distance = total_variation_distance(p, q)
        assert 0.0 <= distance <= 1.0 + 1e-9
        assert distance == pytest.approx(total_variation_distance(q, p))
        assert total_variation_distance(p, p) == pytest.approx(0.0)

    @given(values=st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_histogram_counts_always_sum_to_total(self, values):
        histogram = Histogram("prop", categories=("a", "b", "c"))
        histogram.update(values)
        assert sum(histogram.counts.values()) == histogram.total == len(values)
        proportions = histogram.proportions()
        if values:
            assert sum(proportions.values()) == pytest.approx(1.0)
        assert kl_divergence(proportions, proportions) == pytest.approx(0.0, abs=1e-6)
