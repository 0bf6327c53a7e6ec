"""Deadlines, health and failover over real loopback HTTP.

The acceptance contract of the resilience tier, end to end:

* a deadline installed on the client clips every retry sleep — a chaotic
  endpoint with a pathological 30-second backoff surfaces
  ``DeadlineExceededError`` within the budget, never after it;
* the remaining budget travels on ``X-Repro-Deadline-Ms`` and the server
  sheds already-expired work with 503 *before* touching its backend;
* ``GET /api/health`` answers 200 while the served chain would admit work
  and 503 (with ``Retry-After``) once a circuit in it is open;
* a ``remote_stack`` over two live endpoints' URLs keeps answering when
  the primary process dies mid-run.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.backends import (
    BackendStack,
    CircuitBreakerLayer,
    CircuitBreakerPolicy,
    Deadline,
    FailoverRouter,
    RemoteBackend,
    UnreliableLayer,
    deadline_scope,
    engine_stack,
    iter_chain,
    remote_stack,
)
from repro.backends.resilience import DEADLINE_HEADER
from repro.database.interface import CountMode
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import StaticScoreRanking
from repro.exceptions import (
    DeadlineExceededError,
    TransientBackendError,
)
from repro.web.httpd import HiddenDatabaseHTTPServer


@pytest.fixture()
def served(tiny_table):
    return engine_stack(
        tiny_table, k=2, ranking=StaticScoreRanking(),
        count_mode=CountMode.EXACT, statistics=False,
    )


@pytest.fixture()
def server(served):
    with HiddenDatabaseHTTPServer(served) as endpoint:
        yield endpoint


def _get(url, headers=None, timeout=5):
    request = urllib.request.Request(url, headers=headers or {})
    return urllib.request.urlopen(request, timeout=timeout)


class TestServerShedding:
    def test_expired_wire_deadline_is_shed_with_503(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(server.url + "/api/submit?make=Honda", headers={DEADLINE_HEADER: "0"})
        assert info.value.code == 503
        payload = json.loads(info.value.read().decode())
        assert payload["error"] == "deadline"
        assert server.deadline_shed == 1

    def test_expired_wire_deadline_sheds_batches_too(self, server, tiny_schema):
        from repro.web.jsoncodec import batch_request_to_dict

        query = ConjunctiveQuery.empty(tiny_schema)
        body = json.dumps(batch_request_to_dict([query])).encode()
        request = urllib.request.Request(
            server.url + "/api/submit_batch",
            data=body,
            headers={"Content-Type": "application/json", DEADLINE_HEADER: "0"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=5)
        assert info.value.code == 503
        assert server.deadline_shed == 1

    def test_generous_deadline_header_is_honoured_not_shed(self, server):
        with _get(
            server.url + "/api/submit?make=Honda", headers={DEADLINE_HEADER: "30000"}
        ) as response:
            assert response.status == 200
        assert server.deadline_shed == 0

    def test_malformed_deadline_header_is_a_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(server.url + "/api/submit?make=Honda", headers={DEADLINE_HEADER: "soon"})
        assert info.value.code == 400


class TestClientDeadline:
    def test_remote_backend_attaches_the_remaining_budget(self, server, tiny_schema):
        remote = RemoteBackend(server.url)
        query = ConjunctiveQuery.empty(tiny_schema)
        with deadline_scope(Deadline.after(30.0)):
            remote.submit(query)  # served fine, header attached
        assert server.deadline_shed == 0

    def test_expired_deadline_never_reaches_the_wire(self, server, tiny_schema):
        remote = RemoteBackend(server.url)
        served_before = server.requests_served
        with deadline_scope(Deadline.after(0.0)):
            with pytest.raises(DeadlineExceededError):
                remote.submit(ConjunctiveQuery.empty(tiny_schema))
        assert server.requests_served == served_before

    def test_retry_loop_never_sleeps_past_the_budget_end_to_end(
        self, tiny_table, tiny_schema
    ):
        # A permanently-failing endpoint plus a 30-second configured backoff:
        # without deadline clipping this submission would sleep for minutes.
        chaotic = BackendStack(
            engine_stack(
                tiny_table, k=2, ranking=StaticScoreRanking(), statistics=False
            ).top,
            [lambda inner: UnreliableLayer(inner, max_retries=0, failure_rate=0.999, seed=5)],
        )
        query = ConjunctiveQuery.empty(tiny_schema)
        with HiddenDatabaseHTTPServer(chaotic) as endpoint:
            stack = remote_stack(
                endpoint.url, max_retries=10, retry_backoff=30.0, max_backoff=30.0
            )
            started = time.monotonic()
            with deadline_scope(Deadline.after(0.4)):
                with pytest.raises(DeadlineExceededError):
                    for _ in range(50):
                        stack.submit(query)
            elapsed = time.monotonic() - started
        assert elapsed < 2.0  # budget 0.4s + one slow round-trip of slack
        retry_layer = stack.layer(UnreliableLayer)
        assert retry_layer.statistics.deadline_exceeded >= 1


class TestHealthEndpoint:
    def test_healthy_endpoint_answers_ok_with_counters(self, server):
        with _get(server.url + "/api/health") as response:
            payload = json.loads(response.read().decode())
        assert response.status == 200
        assert payload["status"] == "ok"
        assert {"requests_served", "fault_responses", "deadline_shed"} <= set(payload)
        assert RemoteBackend(server.url).health()["status"] == "ok"

    def test_open_circuit_in_the_served_chain_degrades_health(
        self, tiny_table, tiny_schema
    ):
        # The scripted fault source is the raw backend beneath the breaker.
        faulty = UnreliableLayer(
            engine_stack(
                tiny_table, k=2, ranking=StaticScoreRanking(), statistics=False
            ).top,
            max_retries=0,
            schedule=["transient"],
        )
        guarded = BackendStack(
            faulty,
            [
                lambda inner: CircuitBreakerLayer(
                    inner,
                    policy=CircuitBreakerPolicy(
                        window=4, failure_threshold=1, reset_timeout=60.0
                    ),
                ),
            ],
        )
        query = ConjunctiveQuery.empty(tiny_schema)
        with HiddenDatabaseHTTPServer(guarded) as endpoint:
            remote = RemoteBackend(endpoint.url)
            with pytest.raises(TransientBackendError):
                remote.submit(query)  # trips the served chain's breaker
            with pytest.raises(urllib.error.HTTPError) as info:
                _get(endpoint.url + "/api/health")
            assert info.value.code == 503
            payload = json.loads(info.value.read().decode())
            assert payload["status"] == "degraded"
            assert float(info.value.headers["Retry-After"]) > 0
            with pytest.raises(TransientBackendError) as probe:
                remote.health()
            assert probe.value.retry_after is not None


class TestFailoverOverHTTP:
    def test_remote_stack_over_two_urls_survives_a_dead_primary(self, tiny_table, tiny_schema):
        backend = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(),
            count_mode=CountMode.EXACT, statistics=False,
        )
        oracle = backend.submit(ConjunctiveQuery.empty(tiny_schema))
        primary = HiddenDatabaseHTTPServer(backend)
        with HiddenDatabaseHTTPServer(backend) as replica:
            with primary:
                stack = remote_stack(
                    [primary.url, replica.url],
                    retry_backoff=0.0,
                    breaker=CircuitBreakerPolicy(
                        window=4, failure_threshold=1, reset_timeout=60.0
                    ),
                )
                query = ConjunctiveQuery.empty(tiny_schema)
                assert stack.submit(query) == oracle  # primary serving
            router = next(
                node for node in iter_chain(stack) if isinstance(node, FailoverRouter)
            )
            # The primary endpoint is gone.  Drop the client's pooled
            # keep-alive connection too — a lingering handler thread of the
            # shut-down server could otherwise keep answering on it.
            router.targets[0].close()
            assert stack.submit(query) == oracle
            assert router.statistics.failovers >= 1
            report = router.check_health()
            assert report["primary"]["healthy"] is False
            assert report["replica-1"]["healthy"] is True
