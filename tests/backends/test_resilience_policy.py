"""One policy body per resilience node, and one walk over every breaker.

The retry layer, the breaker layer and the failover router each write their
policy once, over a batch of outcomes; ``submit(q)`` is that body over
``[q]``.  These tests pin what follows from it: a single submission and a
one-item batch leave the same counters and give the same outcome, an
outcome outside the library's exception taxonomy still closes a half-open
probe, and the chain helpers see per-shard breakers.
"""

import pytest

from repro.backends import (
    BreakerState,
    CircuitBreaker,
    CircuitBreakerLayer,
    CircuitBreakerPolicy,
    FailoverRouter,
    ShardRouter,
    UnreliableLayer,
    engine_stack,
)
from repro.backends.resilience import chain_retry_after, chain_would_allow
from repro.database.interface import CountMode
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import StaticScoreRanking
from repro.exceptions import FormParseError, TransientBackendError
from repro.web.httpd import DatabaseEndpoint


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class ScriptedBackend:
    """Raw-contract shim: each submit plays the next scripted behaviour.

    ``"ok"`` answers, ``"transient"`` raises a transient fault, ``"refuse"``
    a permanent typed refusal, ``"keyerror"`` an exception outside the
    library's taxonomy; after the script runs out every call answers.
    """

    def __init__(self, inner, script=()):
        self.inner = inner
        self.script = list(script)
        self.calls = 0

    @property
    def schema(self):
        return self.inner.schema

    @property
    def k(self):
        return self.inner.k

    def submit(self, query):
        self.calls += 1
        behaviour = self.script.pop(0) if self.script else "ok"
        if behaviour == "transient":
            raise TransientBackendError("scripted transient fault")
        if behaviour == "refuse":
            raise FormParseError("scripted refusal")
        if behaviour == "keyerror":
            raise KeyError("scripted bug")
        return self.inner.submit(query)


class BatchRaisingBackend(ScriptedBackend):
    """A shim whose batch method fails the whole batch with a ``KeyError``
    while ``raising`` is set."""

    raising = True

    def submit_outcomes(self, queries):
        if self.raising:
            raise KeyError("scripted bug")
        return [self.inner.submit(query) for query in queries]


@pytest.fixture()
def engine(tiny_table):
    return engine_stack(
        tiny_table, k=2, ranking=StaticScoreRanking(),
        count_mode=CountMode.EXACT, statistics=False,
    ).top


@pytest.fixture()
def empty_query(tiny_schema):
    return ConjunctiveQuery.empty(tiny_schema)


def via_submit(node, query):
    try:
        return node.submit(query)
    except Exception as error:  # noqa: BLE001 - the outcome under test
        return error


def via_batch(node, query):
    try:
        (outcome,) = node.submit_outcomes([query])
    except Exception as error:  # noqa: BLE001 - the outcome under test
        return error
    return outcome


def same_outcome(left, right):
    if isinstance(left, Exception) or isinstance(right, Exception):
        return type(left) is type(right)
    return left == right


def tripping_policy(**overrides):
    return CircuitBreakerPolicy(
        **{"window": 4, "failure_threshold": 1, "reset_timeout": 30.0, **overrides}
    )


class TestOneItemEquivalence:
    """``submit(q)`` and ``submit_outcomes([q])`` are the same policy."""

    @pytest.mark.parametrize(
        "schedule",
        [
            ["ok"],
            ["transient"],
            ["rate_limit:0"],
            ["drop"],
            ["transient", "rate_limit:0", "drop", "ok"],
            ["transient", "transient", "drop", "rate_limit:0"],  # gives up
        ],
    )
    @pytest.mark.parametrize("inner_script", [(), ("transient",), ("refuse",), ("keyerror",)])
    def test_retry_layer(self, engine, empty_query, schedule, inner_script):
        def build():
            return UnreliableLayer(
                ScriptedBackend(engine, inner_script), max_retries=3, schedule=schedule
            )

        single, batch = build(), build()
        answered = via_submit(single, empty_query)
        batched = via_batch(batch, empty_query)
        assert same_outcome(answered, batched)
        assert single.snapshot() == batch.snapshot()
        assert single.inner.calls == batch.inner.calls

    @pytest.mark.parametrize(
        "script", [("ok",), ("transient",), ("refuse",), ("keyerror",), ("transient", "ok")]
    )
    @pytest.mark.parametrize("opened", [False, True])
    def test_breaker_layer(self, engine, empty_query, script, opened):
        def build():
            breaker = CircuitBreaker(tripping_policy(failure_threshold=2))
            if opened:
                breaker.record_failure()
                breaker.record_failure()
            return CircuitBreakerLayer(ScriptedBackend(engine, script), breaker=breaker)

        single, batch = build(), build()
        for _ in script:
            assert same_outcome(via_submit(single, empty_query), via_batch(batch, empty_query))
        assert single.breaker.snapshot() == batch.breaker.snapshot()
        assert single.inner.calls == batch.inner.calls

    @pytest.mark.parametrize(
        "primary_script, replica_script",
        [
            (("ok",), ()),
            (("transient",), ()),                    # fails over
            (("refuse",), ()),                       # the primary answered
            (("keyerror",), ()),
            (("transient",), ("transient",)),        # exhausted
            (("transient", "transient"), ("ok", "ok")),  # trips, then skips
        ],
    )
    def test_failover_router(self, engine, empty_query, primary_script, replica_script):
        def build():
            return FailoverRouter(
                ScriptedBackend(engine, primary_script),
                [ScriptedBackend(engine, replica_script)],
                policy=tripping_policy(failure_threshold=2),
            )

        single, batch = build(), build()
        for _ in range(max(len(primary_script), len(replica_script))):
            assert same_outcome(via_submit(single, empty_query), via_batch(batch, empty_query))
        assert single.snapshot() == batch.snapshot()
        assert [t.calls for t in single.targets] == [t.calls for t in batch.targets]

    def test_a_permanent_refusal_counts_as_answered(self, engine, empty_query):
        router = FailoverRouter(
            ScriptedBackend(engine, ("refuse",)), [ScriptedBackend(engine)]
        )
        with pytest.raises(FormParseError):
            router.submit(empty_query)
        snapshot = router.snapshot()
        assert snapshot["submissions"] == 1 and snapshot["exhausted"] == 0
        assert snapshot["served"] == {"primary": 1, "replica-1": 0}


class TestHalfOpenProbeOutsideTheTaxonomy:
    """A probe that raises a non-library exception must not stay in flight."""

    def _half_open_layer(self, backend, clock):
        breaker = CircuitBreaker(tripping_policy(), clock=clock)
        breaker.record_failure()  # open at t=0
        clock.now = 31.0          # past reset_timeout: the next call probes
        return CircuitBreakerLayer(backend, breaker=breaker)

    def test_layer_submit(self, engine, empty_query):
        clock = FakeClock()
        layer = self._half_open_layer(ScriptedBackend(engine, ("keyerror",)), clock)
        with pytest.raises(KeyError):
            layer.submit(empty_query)
        clock.now += 98.0
        assert layer.submit(empty_query) == engine.submit(empty_query)
        assert layer.breaker.state is BreakerState.CLOSED

    def test_layer_batch(self, engine, empty_query):
        clock = FakeClock()
        backend = BatchRaisingBackend(engine)
        layer = self._half_open_layer(backend, clock)
        with pytest.raises(KeyError):
            layer.submit_outcomes([empty_query])
        backend.raising = False
        clock.now += 98.0
        assert layer.submit_outcomes([empty_query]) == [engine.submit(empty_query)]
        assert layer.breaker.state is BreakerState.CLOSED

    def _half_open_router(self, backend):
        # reset_timeout=0: the call after the trip is the half-open probe.
        router = FailoverRouter(backend, policy=tripping_policy(reset_timeout=0.0))
        router.breaker().record_failure()
        return router

    def test_router_submit(self, engine, empty_query):
        router = self._half_open_router(ScriptedBackend(engine, ("keyerror",)))
        with pytest.raises(KeyError):
            router.submit(empty_query)
        assert router.submit(empty_query) == engine.submit(empty_query)
        assert router.breaker().state is BreakerState.CLOSED

    def test_router_batch(self, engine, empty_query):
        backend = BatchRaisingBackend(engine)
        router = self._half_open_router(backend)
        with pytest.raises(KeyError):
            router.submit_outcomes([empty_query])
        backend.raising = False
        assert router.submit_outcomes([empty_query]) == [engine.submit(empty_query)]
        assert router.breaker().state is BreakerState.CLOSED


class TestPerShardBreakerWaits:
    def test_an_open_shard_breaker_reports_its_wait(self, tiny_table):
        router = ShardRouter.over_table(
            tiny_table, 2, 2,
            shard_layer=lambda shard: CircuitBreakerLayer(shard, policy=tripping_policy()),
        )
        router.shards[0].breaker.record_failure()  # open, 30 s to wait
        assert not chain_would_allow(router)
        assert chain_retry_after(router) > 0.0

        status, payload = DatabaseEndpoint(router).health_payload()
        assert status == 503
        assert payload["retry_after"] > 0.0
