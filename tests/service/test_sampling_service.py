"""Tests for the job-oriented service API: SamplingService and SamplingJob."""

import json
from pathlib import Path

import pytest

from repro.core.config import HDSamplerConfig
from repro.core.session import SessionState
from repro.core.tradeoff import TradeoffSlider
from repro.database.interface import HiddenDatabaseInterface
from repro.database.query import ConjunctiveQuery
from repro.datasets.boolean import BooleanConfig, generate_boolean_table
from repro.exceptions import ConfigurationError, SessionStateError, UnknownBackendError, UnknownJobError
from repro.service import SamplingJob, SamplingService

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def boolean_interface():
    """A correlated boolean database: repeated sub-queries make the cache bite."""
    table = generate_boolean_table(
        BooleanConfig(
            n_rows=1_000, n_attributes=8, distribution="correlated",
            probability=0.6, skew=0.7, seed=41,
        )
    )
    return HiddenDatabaseInterface(table, k=15, seed=0)


def _config(n_samples: int, seed: int = 5, **kwargs) -> HDSamplerConfig:
    return HDSamplerConfig(
        n_samples=n_samples, tradeoff=TradeoffSlider(0.9), seed=seed, **kwargs
    )


class TestServiceBasics:
    def test_single_backend_service_submits_and_tracks_jobs(self, tiny_interface):
        service = SamplingService(tiny_interface)
        job = service.submit(_config(5))
        assert job.state is SessionState.READY
        assert service.job(job.job_id) is job
        assert job in service.jobs
        assert len(service) == 1
        assert job.backend == service.backend_names[0]

    def test_named_backends(self, tiny_interface, figure1_interface):
        service = SamplingService({"tiny": tiny_interface, "figure1": figure1_interface})
        assert service.backend_names == ("tiny", "figure1")
        job = service.submit(_config(3), backend="figure1")
        assert job.backend == "figure1"
        assert job.schema == figure1_interface.schema
        with pytest.raises(UnknownBackendError):
            service.submit(_config(3), backend="nope")

    def test_add_backend_and_duplicate_rejection(self, tiny_interface, figure1_interface):
        service = SamplingService(tiny_interface)
        service.add_backend("figure1", figure1_interface)
        assert "figure1" in service.backend_names
        with pytest.raises(ConfigurationError):
            service.add_backend("figure1", figure1_interface)

    def test_unknown_and_duplicate_job_ids(self, tiny_interface):
        service = SamplingService(tiny_interface)
        service.submit(_config(3), job_id="alpha")
        with pytest.raises(ConfigurationError):
            service.submit(_config(3), job_id="alpha")
        with pytest.raises(UnknownJobError):
            service.job("missing")
        service.forget("alpha")
        with pytest.raises(UnknownJobError):
            service.job("alpha")

    def test_empty_backend_mapping_is_rejected(self):
        with pytest.raises(ConfigurationError):
            SamplingService({})


class TestStreaming:
    def test_stream_yields_samples_incrementally(self, tiny_interface):
        service = SamplingService(tiny_interface)
        job = service.submit(_config(8, seed=2))
        collected = []
        for sample in job.stream():
            collected.append(sample)
            # Incrementality: the output module has exactly the samples
            # yielded so far — nothing is buffered to the end.
            assert job.samples_collected == len(collected)
        assert len(collected) == 8
        assert job.state is SessionState.COMPLETED

    def test_stream_honours_the_kill_switch(self, tiny_interface):
        service = SamplingService(tiny_interface)
        job = service.submit(_config(1_000, seed=3))
        seen = 0
        for _ in job.stream():
            seen += 1
            if seen == 4:
                job.stop()
        assert job.state is SessionState.STOPPED
        assert job.samples_collected == 4

    def test_stream_respects_limit_and_can_continue(self, tiny_interface):
        service = SamplingService(tiny_interface)
        job = service.submit(_config(10, seed=4))
        first = list(job.stream(limit=3))
        assert len(first) == 3
        assert not job.done
        rest = list(job.stream())
        assert len(first) + len(rest) == 10
        assert job.state is SessionState.COMPLETED

    def test_stream_stops_at_a_pause_and_resumes(self, tiny_interface):
        service = SamplingService(tiny_interface)
        job = service.submit(_config(10, seed=5))
        seen = []
        for sample in job.stream():
            seen.append(sample)
            if len(seen) == 2:
                job.pause()
        assert job.state is SessionState.PAUSED
        assert len(seen) == 2
        job.resume()
        seen.extend(job.stream())
        assert len(seen) == 10
        assert job.state is SessionState.COMPLETED


class TestExtend:
    def test_extend_reuses_the_history_cache(self, boolean_interface):
        """The warm continuation must beat a cold run of the same extra count."""
        base, extra = 150, 50
        table = boolean_interface  # alias for clarity: same physical database

        service = SamplingService(table)
        job = service.submit(_config(base, seed=9))
        job.run()
        assert job.state is SessionState.COMPLETED
        queries_before = job.queries_issued

        job.extend(extra)
        result = job.run()
        assert result.sample_count == base + extra
        warm_delta = job.queries_issued - queries_before

        # Cold reference: a fresh job collecting only the extra count against
        # an identical fresh interface (so budgets/counters don't interfere).
        cold_interface = HiddenDatabaseInterface(table.table, k=table.k, seed=0)
        cold_job = SamplingService(cold_interface).submit(_config(extra, seed=9))
        cold_job.run()
        cold_queries = cold_job.queries_issued

        assert cold_job.samples_collected == extra
        assert warm_delta < cold_queries

    def test_extend_after_stop_clears_the_kill_switch(self, tiny_interface):
        service = SamplingService(tiny_interface)
        job = service.submit(_config(100, seed=10))
        for _ in job.stream(limit=3):
            pass
        job.stop()
        list(job.stream())  # drains to STOPPED
        assert job.state is SessionState.STOPPED
        job.extend(2)
        assert not job.done
        job.run()
        assert job.done

    def test_extend_rejects_non_positive(self, tiny_interface):
        job = SamplingService(tiny_interface).submit(_config(5))
        with pytest.raises(ConfigurationError):
            job.extend(0)

    def test_extend_with_a_spent_attempt_cap_raises_loudly(self, tiny_interface):
        job = SamplingService(tiny_interface).submit(
            _config(10_000, seed=60, max_attempts=20)
        )
        job.run()
        assert job.state is SessionState.EXHAUSTED
        with pytest.raises(ConfigurationError, match="attempt cap"):
            job.extend(5)

    def test_extend_with_extra_attempts_grants_a_fresh_attempt_budget(self, tiny_interface):
        job = SamplingService(tiny_interface).submit(
            _config(10_000, seed=61, max_attempts=15)
        )
        job.run()
        assert job.state is SessionState.EXHAUSTED
        collected_before = job.samples_collected
        job.extend(2, extra_attempts=200).run()
        assert job.samples_collected > collected_before
        assert job.config.max_attempts == 15 + 200


class TestSnapshotRestore:
    def test_snapshot_restore_round_trip_equality(self, boolean_interface):
        service = SamplingService(boolean_interface)
        job = service.submit(_config(30, seed=11), job_id="checkpointed")
        for _ in job.stream(limit=12):
            pass
        job.pause()

        payload = json.dumps(job.snapshot())          # genuinely JSON
        restored = SamplingJob.restore(json.loads(payload), boolean_interface)

        assert restored.job_id == "checkpointed"
        assert restored.state is SessionState.PAUSED
        assert restored.samples_collected == job.samples_collected
        assert restored.session.attempts == job.session.attempts
        assert restored.config == job.config
        assert [s.tuple_id for s in restored.output.samples] == [
            s.tuple_id for s in job.output.samples
        ]
        # Round-trip equality: snapshotting the restored job reproduces the
        # original checkpoint bit for bit.
        assert restored.snapshot() == json.loads(payload)

    def test_restore_carries_the_warm_cache(self, boolean_interface):
        service = SamplingService(boolean_interface)
        job = service.submit(_config(40, seed=12))
        for _ in job.stream(limit=20):
            pass
        job.pause()
        cache_size = len(job.session.generator.history)

        restored = SamplingJob.restore(job.snapshot(), boolean_interface)
        assert cache_size > 0
        assert len(restored.session.generator.history) == cache_size

        restored.resume()
        restored.run()
        assert restored.state is SessionState.COMPLETED
        assert restored.samples_collected == 40

    def test_restore_through_a_service_adopt(self, tiny_interface):
        service = SamplingService(tiny_interface)
        job = service.submit(_config(6, seed=13), job_id="migrating")
        job.run()
        snapshot = job.snapshot()

        other = SamplingService(tiny_interface)
        adopted = other.adopt(snapshot)
        assert adopted.job_id == "migrating"
        assert other.job("migrating") is adopted
        assert adopted.done
        assert adopted.samples_collected == 6

    def test_restore_preserves_deduplication_state(self, tiny_interface):
        service = SamplingService(tiny_interface)
        job = service.submit(_config(8, seed=62, deduplicate=True))
        for _ in job.stream(limit=4):
            pass
        job.pause()
        restored = SamplingJob.restore(job.snapshot(), tiny_interface)
        restored.resume()
        restored.run()
        tuple_ids = [sample.tuple_id for sample in restored.output.samples]
        assert len(tuple_ids) == len(set(tuple_ids))

    def test_restore_keeps_query_accounting_consistent(self, boolean_interface):
        service = SamplingService(boolean_interface)
        job = service.submit(_config(30, seed=63))
        for _ in job.stream(limit=15):
            pass
        job.pause()
        checkpoint_queries = job.queries_issued
        checkpoint_attempts = job.session.attempts
        assert checkpoint_queries > 0

        restored = SamplingJob.restore(job.snapshot(), boolean_interface)
        assert restored.queries_issued == checkpoint_queries
        restored.resume()
        result = restored.run()
        # Pre-checkpoint queries and attempts both survive, so the per-sample
        # cost is computed over the job's whole life, not just the tail.
        assert result.queries_issued >= checkpoint_queries
        assert result.attempts >= checkpoint_attempts
        assert result.queries_per_sample >= 1.0

    def test_adopt_refuses_to_replace_a_registered_job(self, tiny_interface):
        service = SamplingService(tiny_interface)
        job = service.submit(_config(3, seed=64), job_id="busy")
        with pytest.raises(ConfigurationError):
            service.adopt(job.snapshot())

    def test_auto_ids_skip_adopted_ids(self, tiny_interface):
        donor = SamplingService(tiny_interface)
        snapshot = donor.submit(_config(3, seed=65)).snapshot()
        fresh = SamplingService(tiny_interface)
        adopted = fresh.adopt(snapshot)
        # The fresh service's counter must not collide with the adopted id.
        submitted = fresh.submit(_config(3, seed=66))
        assert submitted.job_id != adopted.job_id
        assert len(fresh) == 2

    def test_restore_rejects_unknown_versions(self, tiny_interface):
        job = SamplingService(tiny_interface).submit(_config(2, seed=14))
        snapshot = job.snapshot()
        snapshot["version"] = 99
        with pytest.raises(ConfigurationError):
            SamplingJob.restore(snapshot, tiny_interface)

    def test_histograms_rebuild_from_restored_samples(self, tiny_interface):
        service = SamplingService(tiny_interface)
        job = service.submit(_config(10, seed=15))
        job.run()
        restored = SamplingJob.restore(job.snapshot(), tiny_interface)
        assert restored.output.histogram("make").counts == job.output.histogram("make").counts


    def test_job_with_bindings_round_trips(self, tiny_interface):
        """History entries are checkpointed in the job's scoped terms and
        restored under the full query, bindings added back."""
        job = SamplingService(tiny_interface).submit(
            _config(8, seed=16, bindings={"color": "red"})
        )
        for _ in job.stream(limit=4):
            pass
        job.pause()
        payload = json.loads(json.dumps(job.snapshot()))
        assert payload["history"]
        assert all("color" not in entry["query"] for entry in payload["history"])

        restored = SamplingJob.restore(payload, tiny_interface)
        assert restored.snapshot() == payload
        level = restored.session.generator.history.inner
        assert all(("color", "red") in key for key in level.valid_keys() | level.empty_keys())
        restored.resume()
        assert restored.run().sample_count == 8

    def test_parent_format_payload_with_bindings_restores(self, tiny_interface):
        """A version-1 checkpoint of a bound job, written before jobs shared
        one history level, still restores and continues."""
        payload = json.loads((FIXTURES / "bound_job_snapshot_v1.json").read_text())
        restored = SamplingJob.restore(payload, tiny_interface)
        assert restored.state is SessionState.PAUSED
        assert restored.queries_issued == payload["counters"]["history"]["issued_to_interface"]
        assert len(restored.session.generator.history) == len(payload["history"])
        assert restored.snapshot() == payload

        issued = tiny_interface.statistics.queries_issued
        for entry in payload["history"]:
            restored.session.generator.database.submit(
                ConjunctiveQuery.from_assignment(restored.schema, entry["query"])
            )
        assert tiny_interface.statistics.queries_issued == issued  # all replayed
        restored.resume()
        assert restored.run().sample_count == payload["config"]["n_samples"]

    def test_adopted_bound_entries_do_not_leak_into_unbound_jobs(self, tiny_interface):
        """After a bound job is adopted into a service, an unbound job on it
        samples exactly what it samples on a cold service."""
        payload = json.loads((FIXTURES / "bound_job_snapshot_v1.json").read_text())
        service = SamplingService(tiny_interface)
        service.adopt(payload)
        assert len(service.shared_history()) == len(payload["history"])
        warm = service.submit(_config(8, seed=17)).run()
        cold = SamplingService(tiny_interface).submit(_config(8, seed=17)).run()
        assert service.shared_history().statistics.saved > 0
        assert [s.tuple_id for s in warm.samples] == [s.tuple_id for s in cold.samples]


class TestRunAll:
    def test_run_all_completes_every_job(self, tiny_interface):
        service = SamplingService(tiny_interface)
        jobs = [service.submit(_config(5, seed=20 + i)) for i in range(3)]
        results = service.run_all()
        assert set(results) == {job.job_id for job in jobs}
        for job in jobs:
            assert job.state is SessionState.COMPLETED
            assert results[job.job_id].sample_count == 5

    def test_run_all_is_round_robin_fair(self, tiny_interface):
        """Active jobs' attempt counts never drift apart by more than one."""
        service = SamplingService(tiny_interface)
        jobs = [service.submit(_config(10_000, seed=30 + i)) for i in range(3)]
        service.run_all(max_steps=31)
        attempts = [job.session.attempts for job in jobs]
        assert sum(attempts) == 31
        assert max(attempts) - min(attempts) <= 1

    def test_run_all_skips_paused_jobs(self, tiny_interface):
        service = SamplingService(tiny_interface)
        active = service.submit(_config(4, seed=35))
        parked = service.submit(_config(4, seed=36))
        parked.pause()
        service.run_all()
        assert active.state is SessionState.COMPLETED
        assert parked.state is SessionState.PAUSED
        assert parked.samples_collected == 0
        parked.resume()
        service.run_all()
        assert parked.state is SessionState.COMPLETED

    def test_stop_all_throws_every_kill_switch(self, tiny_interface):
        service = SamplingService(tiny_interface)
        jobs = [service.submit(_config(10_000, seed=40 + i)) for i in range(3)]
        service.run_all(max_steps=9)
        service.stop_all()
        service.run_all()
        assert all(job.state is SessionState.STOPPED for job in jobs)

    def test_describe_lists_every_job(self, tiny_interface):
        service = SamplingService(tiny_interface)
        assert service.describe() == "no jobs submitted"
        job = service.submit(_config(3, seed=50), job_id="alpha")
        job.run()
        text = service.describe()
        assert "alpha" in text and "completed" in text

    def test_backend_statistics_surfaces_the_layer_stack(self, tiny_table, tiny_interface):
        from repro.backends import sharded_stack
        from repro.database.limits import QueryBudget

        stack = sharded_stack(tiny_table, 2, k=2, budget=QueryBudget(limit=99), history=True)
        service = SamplingService({"classic": tiny_interface, "sharded": stack})
        service.submit(_config(3, seed=60), backend="sharded").run()

        report = service.backend_statistics("sharded")
        assert report["access_path"].endswith("ShardRouter")
        assert report["statistics"]["queries_issued"] > 0
        assert report["budget"]["limit"] == 99
        assert report["history"]["submissions"] >= report["statistics"]["queries_issued"]

        classic = service.backend_statistics("classic")
        assert classic["access_path"].endswith("QueryEngineBackend")
        assert classic["history"] is None


class TestSharedHistory:
    """One thread-safe HistoryLayer per backend, shared by every job on it."""

    def test_jobs_share_one_history_layer_per_backend(self, tiny_interface):
        service = SamplingService(tiny_interface)
        first = service.submit(_config(3, seed=70))
        second = service.submit(_config(3, seed=71))
        shared = service.shared_history()
        assert shared.inner is tiny_interface
        # Each job counts through its own view on the one shared level.
        assert first.session.generator.history is not second.session.generator.history
        assert first.session.generator.history.inner is shared
        assert second.session.generator.history.inner is shared
        assert first.session.generator.database.inner is first.session.generator.history

    def test_second_job_accumulates_the_firsts_savings(self, boolean_interface):
        """The ROADMAP payoff: a job re-running the same workload on a warm
        service pays measurably fewer interface queries."""
        shared_service = SamplingService(boolean_interface)
        shared_service.submit(_config(8, seed=9)).run()
        issued_after_first = boolean_interface.statistics.queries_issued
        shared_service.submit(_config(8, seed=9)).run()
        shared_delta = boolean_interface.statistics.queries_issued - issued_after_first

        cold = SamplingService(boolean_interface)
        before = boolean_interface.statistics.queries_issued
        cold.submit(_config(8, seed=9)).run()
        cold_delta = boolean_interface.statistics.queries_issued - before

        assert shared_delta == 0  # an identical workload is replayed entirely
        assert cold_delta > 0
        assert shared_service.shared_history().statistics.saved > 0

    def test_shared_history_is_per_backend_not_per_service(self, tiny_interface, figure1_interface):
        service = SamplingService({"tiny": tiny_interface, "figure1": figure1_interface})
        assert service.shared_history("tiny") is not service.shared_history("figure1")
        assert service.shared_history("tiny") is service.shared_history("tiny")

    def test_backend_with_own_history_layer_is_not_double_wrapped(self, tiny_table):
        from repro.backends import engine_stack

        stack = engine_stack(tiny_table, k=2, history=True)
        service = SamplingService(stack)
        assert service.shared_history() is stack.history
        job = service.submit(_config(2, seed=72))
        assert job.session.generator.history.inner is stack.history

    def test_backend_statistics_surface_shared_savings(self, tiny_interface):
        service = SamplingService(tiny_interface)
        service.submit(_config(3, seed=74)).run()
        service.submit(_config(3, seed=74)).run()
        report = service.backend_statistics()
        assert report["shared_history"] is not None
        assert report["shared_history"]["submissions"] > 0
        assert report["shared_history"]["saved"] > 0

    def test_dashboard_line_renders_shared_savings(self, tiny_interface):
        from repro.frontend.dashboard import Dashboard

        service = SamplingService(tiny_interface)
        job = service.submit(_config(3, seed=75))
        dashboard = Dashboard(job, backend=service)
        job.run()
        line = dashboard.render_backend_line()
        assert "shared history saved" in line

    def test_results_identical_with_and_without_sharing(self, tiny_interface):
        """Sharing changes round-trip accounting, never answers: a job on a
        warm shared service samples the same tuples as on a cold one."""
        warm = SamplingService(tiny_interface)
        warm.submit(_config(6, seed=78)).run()
        warm.submit(_config(6, seed=79, bindings={"color": "red"})).run()
        with_sharing = warm.submit(_config(6, seed=76)).run()
        cold = SamplingService(tiny_interface).submit(_config(6, seed=76)).run()
        assert warm.shared_history().statistics.saved > 0
        assert [s.tuple_id for s in with_sharing.samples] == [
            s.tuple_id for s in cold.samples
        ]

    def test_no_history_jobs_bypass_the_shared_layer(self, tiny_interface):
        """A use_history=False job must measure genuinely uncached round-trips:
        neither its own cache NOR the service's shared layer may absorb them."""
        service = SamplingService(tiny_interface)
        spec = _config(4, seed=77, use_history=False)
        job = service.submit(spec)
        assert job.session.generator.history is None
        assert job.session.generator.database.inner is tiny_interface
        job.run()
        before = tiny_interface.statistics.queries_issued
        rerun = service.submit(_config(4, seed=77, use_history=False))
        rerun.run()
        # The identical workload re-pays every interface query.
        assert tiny_interface.statistics.queries_issued - before == job.queries_issued


class TestOneHistoryLevel:
    """Exactly one HistoryLayer between any job and its raw backend."""

    @staticmethod
    def _history_layers(job):
        from repro.backends import HistoryLayer, iter_chain

        return [node for node in iter_chain(job.session.generator.database) if isinstance(node, HistoryLayer)]

    def test_job_query_counts_sum_to_what_the_backend_counted(self, boolean_interface):
        """Per-job accounting counts only the queries the job's own
        submissions sent: a second identical job pays nothing."""
        from repro.backends import engine_stack

        stack = engine_stack(boolean_interface.table, k=15, seed=0)
        service = SamplingService(stack)
        first = service.submit(_config(8, seed=9))
        first.run()
        second = service.submit(_config(8, seed=9))
        second.run()
        assert first.queries_issued > 0
        assert second.queries_issued == 0
        assert first.queries_issued + second.queries_issued == stack.statistics.queries_issued
        statistics = second.session.generator.history.statistics
        assert statistics.exact_hits == statistics.submissions > 0
        assert [s.tuple_id for s in first.output.samples] == [
            s.tuple_id for s in second.output.samples
        ]

    def test_stack_with_history_gives_every_job_exactly_one_level(self, tiny_table):
        from repro.backends import engine_stack

        stack = engine_stack(tiny_table, k=2, history=True)
        service = SamplingService(stack)
        jobs = [
            service.submit(_config(3, seed=80)),
            service.submit(_config(3, seed=81, bindings={"color": "red"})),
            service.submit(_config(3, seed=82, attributes=("make",))),
        ]
        service.run_all()
        for job in jobs:
            assert self._history_layers(job) == [stack.history]
        assert stack.history.statistics.submissions == sum(
            job.session.generator.history.statistics.submissions for job in jobs
        )

    def test_jobs_attach_through_a_dispatch_layer(self, tiny_table):
        from repro.backends import BackendStack, DispatchLayer, HistoryLayer, QueryEngineBackend

        stack = BackendStack(
            QueryEngineBackend(tiny_table, 2),
            [HistoryLayer, lambda inner: DispatchLayer(inner, max_workers=2)],
        )
        service = SamplingService(stack)
        assert service.shared_history() is stack.history
        job = service.submit(_config(3, seed=83))
        job.run()
        assert self._history_layers(job) == [stack.history]

    def test_a_wrapper_above_a_history_layer_is_never_bypassed(self, tiny_table):
        """The service puts its own level on top of a hand-added wrapper, and
        the wrapper sees every submission that level forwards."""
        from repro.backends import UnreliableLayer, engine_stack

        stack = engine_stack(tiny_table, k=2, history=True)
        wrapper = UnreliableLayer(stack.top)
        service = SamplingService(wrapper)
        level = service.shared_history()
        assert level is not stack.history
        assert level.inner is wrapper
        job = service.submit(_config(4, seed=84))
        job.run()
        assert self._history_layers(job) == [level, stack.history]
        assert wrapper.statistics.attempts == level.statistics.issued_to_interface > 0
