"""Health-checked failover: primary, replicas, and per-target breakers.

In-process tests drive the router over shim backends (deterministic, no
sockets); the HTTP end of failover — live endpoints, ``/api/health`` probes
— lives in ``tests/web/test_deadline_http.py``.
"""

import pytest

from repro.backends import (
    CircuitBreakerPolicy,
    FailoverRouter,
    engine_stack,
)
from repro.backends.resilience import resilience_report
from repro.database.interface import CountMode
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import StaticScoreRanking
from repro.exceptions import (
    ConfigurationError,
    FormParseError,
    TransientBackendError,
)


class FlakyBackend:
    """Raw-contract shim whose availability the test scripts directly."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.health_probes = 0
        self.failing = False

    @property
    def schema(self):
        return self.inner.schema

    @property
    def k(self):
        return self.inner.k

    def submit(self, query):
        self.calls += 1
        if self.failing:
            raise TransientBackendError("target down")
        return self.inner.submit(query)

    def health(self):
        self.health_probes += 1
        if self.failing:
            raise TransientBackendError("target down")
        return {"status": "ok"}


@pytest.fixture()
def engine(tiny_table):
    return engine_stack(
        tiny_table, k=2, ranking=StaticScoreRanking(),
        count_mode=CountMode.EXACT, statistics=False,
    ).top


@pytest.fixture()
def empty_query(tiny_schema):
    return ConjunctiveQuery.empty(tiny_schema)


def make_router(engine, n_replicas=1, **policy):
    policy = CircuitBreakerPolicy(
        **{"window": 4, "failure_threshold": 2, "reset_timeout": 60.0, **policy}
    )
    primary = FlakyBackend(engine)
    replicas = [FlakyBackend(engine) for _ in range(n_replicas)]
    return primary, replicas, FailoverRouter(primary, replicas, policy=policy)


class TestRouting:
    def test_primary_serves_while_healthy(self, engine, empty_query):
        primary, (replica,), router = make_router(engine)
        for _ in range(3):
            assert router.submit(empty_query) == engine.submit(empty_query)
        assert primary.calls == 3 and replica.calls == 0
        assert router.statistics.failovers == 0

    def test_failover_to_replica_on_primary_fault(self, engine, empty_query):
        primary, (replica,), router = make_router(engine)
        primary.failing = True
        assert router.submit(empty_query) == engine.submit(empty_query)
        assert primary.calls == 1 and replica.calls == 1
        assert router.statistics.failovers == 1

    def test_open_primary_circuit_is_skipped_without_a_call(self, engine, empty_query):
        primary, (replica,), router = make_router(engine)
        primary.failing = True
        for _ in range(2):
            router.submit(empty_query)  # two faults trip the primary breaker
        calls_before = primary.calls
        router.submit(empty_query)
        assert primary.calls == calls_before  # fast-skipped, not re-tried
        assert replica.calls == 3

    def test_all_targets_down_raises_the_last_fault(self, engine, empty_query):
        primary, (replica,), router = make_router(engine)
        primary.failing = replica.failing = True
        with pytest.raises(TransientBackendError):
            router.submit(empty_query)
        assert router.statistics.exhausted == 1

    def test_permanent_refusals_are_not_failed_over(self, engine, empty_query, tiny_schema):
        class Refusing(FlakyBackend):
            def submit(self, query):
                self.calls += 1
                raise FormParseError("your query is malformed")

        primary = Refusing(engine)
        replica = FlakyBackend(engine)
        router = FailoverRouter(primary, [replica])
        with pytest.raises(FormParseError):
            router.submit(empty_query)
        # The primary *answered*; asking a replica the same bad question
        # would just double the damage.
        assert replica.calls == 0

    def test_batch_outcomes_fail_over_only_all_transient_batches(self, engine, empty_query):
        primary, (replica,), router = make_router(engine)
        primary.failing = True
        outcomes = router.submit_outcomes([empty_query, empty_query])
        assert all(not isinstance(outcome, Exception) for outcome in outcomes)
        assert replica.calls >= 1
        assert router.submit_outcomes([empty_query]) == [engine.submit(empty_query)]

    def test_mismatched_targets_rejected(self, engine, tiny_table):
        other_k = engine_stack(
            tiny_table, k=5, ranking=StaticScoreRanking(), statistics=False
        ).top
        with pytest.raises(ConfigurationError):
            FailoverRouter(engine, [other_k])


class TestHealthChecks:
    def test_check_health_reports_and_drives_the_breakers(self, engine, empty_query):
        primary, (replica,), router = make_router(engine, reset_timeout=0.0)
        primary.failing = True
        for _ in range(2):
            router.submit(empty_query)  # trip the primary breaker
        report = router.check_health()
        assert report["primary"]["healthy"] is False
        assert report["replica-1"]["healthy"] is True
        # Recovery: with reset_timeout=0 the next health probe is admitted
        # immediately and walks the breaker back to CLOSED...
        primary.failing = False
        report = router.check_health()
        assert report["primary"]["healthy"] is True
        assert report["primary"]["breaker"]["state"] == "closed"
        # ...which steers real traffic back to the primary.
        calls_before = primary.calls
        router.submit(empty_query)
        assert primary.calls == calls_before + 1

    def test_untyped_health_error_does_not_strand_the_probe(self, engine, empty_query):
        """A ``health()`` that raises outside the library's taxonomy ends the
        half-open probe as a failure; once it recovers, traffic returns."""
        primary, (replica,), router = make_router(engine, reset_timeout=0.0)
        primary.failing = True
        for _ in range(2):
            router.submit(empty_query)  # trip the primary breaker

        def broken_health():
            raise OSError("connection reset")

        primary.health = broken_health
        with pytest.raises(OSError):
            router.check_health()
        assert router.breaker("primary").would_allow()
        del primary.health
        primary.failing = False
        report = router.check_health()
        assert report["primary"]["breaker"]["state"] == "closed"
        calls_before = primary.calls
        router.submit(empty_query)
        assert primary.calls == calls_before + 1

    def test_targets_without_health_report_unknown(self, engine):
        router = FailoverRouter(engine)  # a bare engine has no health()
        report = router.check_health()
        assert report["primary"]["healthy"] is None

    def test_snapshot_and_report_surface_per_target_state(self, engine, empty_query):
        primary, (replica,), router = make_router(engine)
        primary.failing = True
        router.submit(empty_query)
        snapshot = router.snapshot()
        assert snapshot["submissions"] == 1 and snapshot["failovers"] == 1
        assert snapshot["served"] == {"primary": 0, "replica-1": 1}
        assert set(snapshot["targets"]) == {"primary", "replica-1"}
        report = resilience_report(router)
        assert report["failover"]["submissions"] == 1
