"""Unit tests for the Sample Generator, Sample Processor and Output Module."""

import pytest

from repro.algorithms.base import Candidate, SampleRecord, WalkTrace
from repro.algorithms.brute_force import BruteForceSampler
from repro.backends.history import HistoryLayer, JobHistory
from repro.core.config import HDSamplerConfig, SamplerAlgorithm
from repro.core.output import OutputModule
from repro.core.sample_generator import SampleGenerator
from repro.core.sample_processor import SampleProcessor
from repro.database.interface import CountMode, HiddenDatabaseInterface
from repro.database.limits import QueryBudget
from repro.exceptions import ConfigurationError, SamplingError


def _make_sample(tuple_id: int, make: str, price: float, price_bucket: str) -> SampleRecord:
    return SampleRecord(
        tuple_id=tuple_id,
        values={"make": make, "price": price},
        selectable_values={"make": make, "price": price_bucket},
        selection_probability=0.1,
        acceptance_probability=1.0,
        queries_spent=2,
        source="test",
    )


class TestSampleGenerator:
    def test_builds_the_configured_algorithm(self, tiny_interface):
        for algorithm, name in [
            (SamplerAlgorithm.RANDOM_WALK, "hidden-db-sampler"),
            (SamplerAlgorithm.BRUTE_FORCE, "brute-force-sampler"),
        ]:
            generator = SampleGenerator(tiny_interface, HDSamplerConfig(algorithm=algorithm))
            assert generator.sampler.name == name

    def test_count_aided_algorithm_requires_counts_exposed(self, tiny_table):
        interface = HiddenDatabaseInterface(tiny_table, k=2, count_mode=CountMode.EXACT)
        generator = SampleGenerator(
            interface, HDSamplerConfig(algorithm=SamplerAlgorithm.COUNT_AIDED, seed=1)
        )
        candidate = None
        for _ in range(50):
            candidate = generator.next_candidate()
            if candidate is not None:
                break
        assert candidate is not None

    def test_history_cache_is_wired_in_by_default(self, tiny_interface):
        """scope → the job's view → one private level → the backend it was given."""
        generator = SampleGenerator(tiny_interface, HDSamplerConfig())
        assert isinstance(generator.history, JobHistory)
        assert generator.database.inner is generator.history
        level = generator.history.inner
        assert isinstance(level, HistoryLayer)
        assert level.inner is tiny_interface

    def test_a_given_history_level_is_used_not_wrapped(self, tiny_interface):
        level = HistoryLayer(tiny_interface)
        generator = SampleGenerator(level, HDSamplerConfig())
        assert generator.history.inner is level
        assert level.inner is tiny_interface

    def test_history_can_be_disabled(self, tiny_interface):
        generator = SampleGenerator(tiny_interface, HDSamplerConfig(use_history=False))
        assert generator.history is None
        assert generator.database.inner is tiny_interface

    def test_scoping_is_applied(self, tiny_interface):
        config = HDSamplerConfig(attributes=("make",), bindings={"color": "red"})
        generator = SampleGenerator(tiny_interface, config)
        assert generator.database.schema.attribute_names == ("make",)

    def test_budget_exhaustion_is_absorbed(self, tiny_table):
        interface = HiddenDatabaseInterface(tiny_table, k=2, budget=QueryBudget(limit=3))
        generator = SampleGenerator(interface, HDSamplerConfig(use_history=False, seed=0))
        for _ in range(30):
            generator.next_candidate()
        assert generator.budget_exhausted
        assert generator.next_candidate() is None

    def test_interface_queries_issued_counts_real_queries_only(self, tiny_interface):
        generator = SampleGenerator(tiny_interface, HDSamplerConfig(seed=1))
        for _ in range(30):
            generator.next_candidate()
        issued = generator.interface_queries_issued()
        assert issued == tiny_interface.statistics.queries_issued
        assert issued <= generator.report.queries_issued


class TestSampleProcessor:
    def _candidate(self, tuple_id: int = 1, probability: float = 0.25) -> Candidate:
        return Candidate(
            tuple_id=tuple_id,
            values={"make": "Ford"},
            selectable_values={"make": "Ford"},
            selection_probability=probability,
            trace=WalkTrace(steps=(), attribute_order=()),
            source="test",
        )

    class _FixedAcceptanceSampler:
        """A stand-in sampler whose acceptance probability is a constant."""

        def __init__(self, probability: float) -> None:
            self.probability = probability

        def acceptance_probability(self, candidate: Candidate) -> float:
            return self.probability

    def test_accepts_and_rejects_according_to_the_sampler(self):
        always = SampleProcessor(self._FixedAcceptanceSampler(1.0), seed=0)
        never = SampleProcessor(self._FixedAcceptanceSampler(0.0), seed=0)
        assert always.process(self._candidate()) is not None
        assert never.process(self._candidate()) is None
        assert always.statistics.accepted == 1
        assert never.statistics.rejected == 1

    def test_sample_record_carries_probabilities_and_cost(self):
        processor = SampleProcessor(self._FixedAcceptanceSampler(1.0), seed=0)
        record = processor.process(self._candidate(probability=0.125))
        assert record.selection_probability == pytest.approx(0.125)
        assert record.acceptance_probability == 1.0
        assert record.source == "test"

    def test_deduplication_drops_repeat_tuples(self):
        processor = SampleProcessor(self._FixedAcceptanceSampler(1.0), deduplicate=True, seed=0)
        assert processor.process(self._candidate(tuple_id=7)) is not None
        assert processor.process(self._candidate(tuple_id=7)) is None
        assert processor.statistics.duplicates_dropped == 1

    def test_reset_clears_state(self):
        processor = SampleProcessor(self._FixedAcceptanceSampler(1.0), deduplicate=True, seed=0)
        processor.process(self._candidate(tuple_id=7))
        processor.reset()
        assert processor.statistics.candidates_seen == 0
        assert processor.process(self._candidate(tuple_id=7)) is not None

    def test_acceptance_rate_statistic(self):
        processor = SampleProcessor(self._FixedAcceptanceSampler(0.5), seed=3)
        for _ in range(200):
            processor.process(self._candidate())
        assert 0.3 < processor.statistics.acceptance_rate < 0.7


class TestOutputModule:
    def test_histograms_update_incrementally(self, tiny_schema):
        output = OutputModule(tiny_schema)
        output.add(_make_sample(0, "Toyota", 5_000.0, "0-10000"))
        output.add(_make_sample(1, "Toyota", 15_000.0, "10000-20000"))
        output.add(_make_sample(2, "Ford", 5_000.0, "0-10000"))
        histogram = output.histogram("make")
        assert histogram.count("Toyota") == 2
        assert histogram.count("Ford") == 1
        assert histogram.count("Honda") == 0
        assert output.marginal_distribution("make")["Toyota"] == pytest.approx(2 / 3)

    def test_unknown_attribute_is_rejected(self, tiny_schema):
        output = OutputModule(tiny_schema)
        with pytest.raises(ConfigurationError):
            output.histogram("engine")

    def test_count_aggregate_without_population_size_is_a_fraction(self, tiny_schema):
        output = OutputModule(tiny_schema)
        output.extend([
            _make_sample(0, "Toyota", 5_000.0, "0-10000"),
            _make_sample(1, "Ford", 15_000.0, "10000-20000"),
            _make_sample(2, "Toyota", 25_000.0, "20000-40000"),
            _make_sample(3, "Toyota", 5_000.0, "0-10000"),
        ])
        estimate = output.aggregate("count", condition={"make": "Toyota"})
        assert estimate.relative
        assert estimate.value == pytest.approx(0.75)

    def test_count_aggregate_scales_with_population_size(self, tiny_schema):
        output = OutputModule(tiny_schema, population_size=1_000)
        output.extend([
            _make_sample(0, "Toyota", 5_000.0, "0-10000"),
            _make_sample(1, "Ford", 15_000.0, "10000-20000"),
        ])
        estimate = output.aggregate("count", condition={"make": "Toyota"})
        assert not estimate.relative
        assert estimate.value == pytest.approx(500.0)

    def test_avg_and_sum_aggregates(self, tiny_schema):
        output = OutputModule(tiny_schema, population_size=100)
        output.extend([
            _make_sample(0, "Toyota", 10_000.0, "10000-20000"),
            _make_sample(1, "Toyota", 20_000.0, "20000-40000"),
            _make_sample(2, "Ford", 30_000.0, "20000-40000"),
        ])
        avg = output.aggregate("avg", measure_attribute="price", condition={"make": "Toyota"})
        assert avg.value == pytest.approx(15_000.0)
        total = output.aggregate("sum", measure_attribute="price")
        assert total.value == pytest.approx(100 * 20_000.0)

    def test_aggregate_validation(self, tiny_schema):
        output = OutputModule(tiny_schema)
        output.add(_make_sample(0, "Toyota", 10_000.0, "10000-20000"))
        with pytest.raises(ConfigurationError):
            output.aggregate("median")
        with pytest.raises(ConfigurationError):
            output.aggregate("sum")
        from repro.exceptions import UnknownAttributeError

        with pytest.raises(UnknownAttributeError):
            output.aggregate("count", condition={"engine": "V8"})

    def test_render_histogram_and_summary(self, tiny_schema):
        output = OutputModule(tiny_schema)
        output.add(_make_sample(0, "Toyota", 5_000.0, "0-10000"))
        assert "Toyota" in output.render_histogram("make")
        assert "1 samples collected" in output.render_summary()
