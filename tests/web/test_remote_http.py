"""The remote HTTP access path, exercised over real loopback sockets.

Every test here binds an actual TCP port (``port=0``, OS-assigned) and runs
real HTTP requests through the stdlib stack — no mocking.  The contract:

* ``RemoteBackend`` round-trips schemas and responses byte-identically to
  the backend the server wraps;
* server-side faults surface as the library's own exception vocabulary
  (429 → ``RateLimitedError``, 503 → ``TransientBackendError``, 403 →
  ``QueryBudgetExceededError``, 400 → ``FormParseError``), so a retrying
  ``UnreliableLayer`` above the remote adapter recovers *real* network
  faults — the whole point of the reliability-layer bug batch;
* a full sampling run through ``SamplingService`` over the socket yields
  exactly the samples a local run yields;
* many client threads multiplex over a small keep-alive pool, a stalled
  client is reclaimed by ``request_timeout`` without disturbing others, and
  a reclaimed keep-alive connection is replaced transparently.
"""

import json
import random
import socket
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.backends import (
    BackendStack,
    CircuitBreakerPolicy,
    FailoverRouter,
    QueryEngineBackend,
    RemoteBackend,
    UnreliableLayer,
    engine_stack,
    remote_stack,
)
from repro.core.config import HDSamplerConfig
from repro.database.interface import CountMode
from repro.database.limits import QueryBudget
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import StaticScoreRanking
from repro.datasets.vehicles import (
    VehiclesConfig,
    default_vehicles_ranking,
    generate_vehicles_table,
)
from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    FormParseError,
    QueryBudgetExceededError,
    RateLimitedError,
    TransientBackendError,
)
from repro.service import SamplingService
from repro.web.httpd import HiddenDatabaseHTTPServer
from repro.web.jsoncodec import (
    response_from_dict,
    response_to_dict,
    schema_from_dict,
    schema_to_dict,
)


@pytest.fixture()
def tiny_backend(tiny_table):
    """A counter-free backend for serving: clients own the accounting."""
    return engine_stack(
        tiny_table, k=2, ranking=StaticScoreRanking(),
        count_mode=CountMode.EXACT, statistics=False,
    )


@pytest.fixture()
def server(tiny_backend):
    with HiddenDatabaseHTTPServer(tiny_backend) as endpoint:
        yield endpoint


class TestJsonCodec:
    def test_schema_round_trips_through_json_text(self, tiny_schema):
        payload = json.loads(json.dumps(schema_to_dict(tiny_schema, k=7)))
        schema, k = schema_from_dict(payload)
        assert schema == tiny_schema and schema.name == tiny_schema.name and k == 7

    def test_response_round_trips_through_json_text(self, tiny_backend, tiny_schema):
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        response = tiny_backend.submit(query)
        payload = json.loads(json.dumps(response_to_dict(response)))
        assert response_from_dict(tiny_schema, payload) == response

    def test_wire_version_mismatch_is_a_clear_error(self, tiny_schema):
        with pytest.raises(FormParseError, match="wire version"):
            schema_from_dict({"version": 999, "name": "x", "k": 1, "attributes": []})
        with pytest.raises(FormParseError, match="wire version"):
            response_from_dict(tiny_schema, {"version": 0})


class TestRemoteRoundTrip:
    def test_schema_and_k_learned_from_the_endpoint(self, server, tiny_backend):
        remote = RemoteBackend(server.url)
        assert remote.schema == tiny_backend.schema
        assert remote.k == tiny_backend.k

    def test_responses_identical_query_for_query(self, server, tiny_backend, tiny_schema):
        remote = RemoteBackend(server.url)
        rng = random.Random(0)
        queries = [ConjunctiveQuery.empty(tiny_schema)]
        for _ in range(25):
            assignment = {}
            for attribute in tiny_schema:
                if rng.random() < 0.5:
                    assignment[attribute.name] = rng.choice(attribute.domain.values)
            queries.append(ConjunctiveQuery.from_assignment(tiny_schema, assignment))
        for query in queries:
            assert remote.submit(query) == tiny_backend.submit(query), str(query)

    def test_html_dialect_served_over_the_same_socket(self, server):
        page = urllib.request.urlopen(server.url + "/search", timeout=5).read().decode()
        assert "<form" in page
        results = urllib.request.urlopen(
            server.url + "/results?make=Honda", timeout=5
        ).read().decode()
        assert "Honda" in results

    def test_pages_can_be_disabled(self, tiny_backend):
        with HiddenDatabaseHTTPServer(tiny_backend, serve_pages=False) as endpoint:
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(endpoint.url + "/search", timeout=5)
            assert info.value.code == 404
            with urllib.request.urlopen(endpoint.url + "/api/schema", timeout=5) as response:
                assert response.status == 200

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(server.url + "/nope", timeout=5)
        assert info.value.code == 404

    def test_malformed_query_string_is_400_and_formparseerror(self, server, tiny_schema):
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(server.url + "/api/submit?bogus=1", timeout=5)
        assert info.value.code == 400
        remote = RemoteBackend(server.url)
        other_schema = generate_vehicles_table(VehiclesConfig(n_rows=10, seed=0)).schema
        foreign = next(a for a in other_schema if a.name not in ("make", "color", "price"))
        with pytest.raises(FormParseError):
            remote.submit(
                ConjunctiveQuery.from_assignment(
                    other_schema, {foreign.name: foreign.domain.values[0]}
                )
            )

    def test_dead_endpoint_fails_fast_as_transient(self):
        with pytest.raises(TransientBackendError):
            RemoteBackend("http://127.0.0.1:9", timeout=0.5)

    def test_connection_dropped_mid_response_is_transient(self):
        # A server that accepts and immediately closes (RemoteDisconnected)
        # and one that truncates the body mid-flight (IncompleteRead) must
        # both surface as TransientBackendError so the retry layer heals them
        # — not as raw http.client exceptions that crash a sampling run.
        import socket
        import threading

        def serve_once(payload: bytes):
            listener = socket.create_server(("127.0.0.1", 0))
            port = listener.getsockname()[1]

            def run():
                conn, _ = listener.accept()
                conn.recv(4096)
                if payload:
                    conn.sendall(payload)
                conn.close()
                listener.close()

            threading.Thread(target=run, daemon=True).start()
            return port

        port = serve_once(b"")  # closes with no status line at all
        with pytest.raises(TransientBackendError, match="dropped the connection"):
            RemoteBackend(f"http://127.0.0.1:{port}", timeout=2)

        truncated = b"HTTP/1.1 200 OK\r\nContent-Length: 50000\r\n\r\n{\"version\""
        port = serve_once(truncated)  # promises 50000 bytes, sends 10
        with pytest.raises(TransientBackendError, match="dropped the connection"):
            RemoteBackend(f"http://127.0.0.1:{port}", timeout=2)

    def test_malformed_json_body_is_a_parse_error(self):
        import socket
        import threading

        body = b"<html>a proxy error page</html>"
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def run():
            conn, _ = listener.accept()
            conn.recv(4096)
            conn.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            conn.close()
            listener.close()

        threading.Thread(target=run, daemon=True).start()
        with pytest.raises(FormParseError, match="malformed payload"):
            RemoteBackend(f"http://127.0.0.1:{port}", timeout=2)

    def test_unexpected_server_error_is_500_with_the_real_message(self, tiny_table, tiny_schema):
        # A server-side bug must come back as a 500 carrying the message, not
        # as a dropped connection the client would misread as "unreachable".
        class Exploding:
            schema = tiny_table.schema
            k = 2

            def submit(self, query):
                raise RuntimeError("wired up wrong")

        with HiddenDatabaseHTTPServer(Exploding()) as endpoint:
            remote = RemoteBackend(endpoint.url)
            with pytest.raises(TransientBackendError, match="wired up wrong"):
                remote.submit(ConjunctiveQuery.empty(tiny_schema))
            assert endpoint.fault_responses == 1

    def test_history_layered_backend_is_served_safely_under_concurrent_clients(
        self, tiny_table, tiny_schema
    ):
        # The thread-safe HistoryLayer serves the threaded endpoint without
        # any serialising lock; hammering it from 8 client threads must
        # neither corrupt the cache nor change any answer.
        from concurrent.futures import ThreadPoolExecutor

        served = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(),
            count_mode=CountMode.EXACT, statistics=False, history=True,
        )
        oracle = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(),
            count_mode=CountMode.EXACT, statistics=False,
        )
        rng = random.Random(3)
        queries = []
        for _ in range(40):
            assignment = {}
            for attribute in tiny_schema:
                if rng.random() < 0.5:
                    assignment[attribute.name] = rng.choice(attribute.domain.values)
            queries.append(ConjunctiveQuery.from_assignment(tiny_schema, assignment))
        with HiddenDatabaseHTTPServer(served) as endpoint:
            remote = RemoteBackend(endpoint.url)
            with ThreadPoolExecutor(max_workers=8) as pool:
                responses = list(pool.map(remote.submit, queries))
        assert responses == [oracle.submit(q) for q in queries]

    def test_non_http_url_rejected(self):
        with pytest.raises(ConfigurationError):
            RemoteBackend("ftp://example.com")


class TestClientValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"pool_size": -1},
            {"connect_retries": -1},
            {"connect_backoff": -0.1},
            {"compress_threshold": -5},
        ],
        ids=["timeout", "pool_size", "connect_retries", "connect_backoff", "compress_threshold"],
    )
    def test_bad_parameters_rejected_before_any_connect(self, kwargs):
        # Nothing listens on port 9: a connect attempt would surface as a
        # TransientBackendError, so ConfigurationError means validation ran first.
        with pytest.raises(ConfigurationError):
            RemoteBackend("http://127.0.0.1:9", **kwargs)

    def test_close_is_idempotent_and_leaves_the_backend_usable(
        self, server, tiny_backend, tiny_schema
    ):
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        remote = RemoteBackend(server.url)
        assert remote.submit(query) == tiny_backend.submit(query)
        remote.close()
        remote.close()
        assert remote.pool_statistics["idle"] == 0
        assert remote.submit(query) == tiny_backend.submit(query)
        remote.close()


class TestFaultTranslation:
    def _chaotic_server(self, tiny_table, **chaos):
        served = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(), statistics=False
        )
        chaotic = BackendStack(
            served.top, [lambda inner: UnreliableLayer(inner, max_retries=0, **chaos)]
        )
        return HiddenDatabaseHTTPServer(chaotic)

    def test_server_side_429_raises_ratelimitederror(self, tiny_table, tiny_schema):
        query = ConjunctiveQuery.empty(tiny_schema)
        with self._chaotic_server(tiny_table, rate_limit_every=2) as endpoint:
            remote = RemoteBackend(endpoint.url)
            remote.submit(query)
            with pytest.raises(RateLimitedError) as info:
                remote.submit(query)
            assert info.value.every == 2
            assert endpoint.fault_responses == 1

    def test_server_side_503_raises_transienterror(self, tiny_table, tiny_schema):
        query = ConjunctiveQuery.empty(tiny_schema)
        with self._chaotic_server(tiny_table, failure_rate=0.999, seed=1) as endpoint:
            remote = RemoteBackend(endpoint.url)
            with pytest.raises(TransientBackendError):
                for _ in range(20):
                    remote.submit(query)

    def test_budget_exhaustion_is_403_and_not_retried(self, tiny_table, tiny_schema):
        served = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(),
            budget=QueryBudget(limit=1), statistics=False,
        )
        query = ConjunctiveQuery.empty(tiny_schema)
        with HiddenDatabaseHTTPServer(served) as endpoint:
            stack = remote_stack(endpoint.url, max_retries=5, retry_backoff=0.0)
            stack.submit(query)
            with pytest.raises(QueryBudgetExceededError):
                stack.submit(query)
            retry_layer = stack.layer(UnreliableLayer)
            assert retry_layer.statistics.retries == 0  # permanent errors never retry

    def test_retry_layer_recovers_real_429s_end_to_end(self, tiny_table, tiny_schema):
        """The bug-batch payoff: UnreliableLayer retries recover *actual*
        HTTP 429s from a live socket, not just injected exceptions."""
        query = ConjunctiveQuery.empty(tiny_schema)
        with self._chaotic_server(tiny_table, rate_limit_every=2) as endpoint:
            stack = remote_stack(endpoint.url, max_retries=3, retry_backoff=0.0)
            expected = stack.submit(query)
            for _ in range(7):
                assert stack.submit(query) == expected
            retry_layer = stack.layer(UnreliableLayer)
            assert retry_layer.statistics.backend_rate_limited > 0
            assert retry_layer.statistics.gave_up == 0
            # Statistics sit above the retry layer: 8 answered submissions,
            # however many attempts the weather cost beneath.
            assert stack.statistics.queries_issued == 8


class TestRemoteStackAndService:
    def test_remote_stack_layers(self, server):
        stack = remote_stack(server.url, history=True)
        assert stack.describe() == (
            "HistoryLayer → AccountingLayer → UnreliableLayer → RemoteBackend"
        )

    def test_breaker_sits_below_the_retry_layer(self, server):
        stack = remote_stack(server.url, parallel=2, breaker=True)
        assert stack.describe() == (
            "DispatchLayer → AccountingLayer → UnreliableLayer "
            "→ CircuitBreakerLayer → RemoteBackend"
        )

    def test_url_list_builds_a_failover_router(self, tiny_backend, tiny_schema):
        policy = CircuitBreakerPolicy(window=4, failure_threshold=1, reset_timeout=60.0)
        with HiddenDatabaseHTTPServer(tiny_backend) as primary, HiddenDatabaseHTTPServer(
            tiny_backend
        ) as replica:
            stack = remote_stack([primary.url, replica.url], history=True, breaker=policy)
            assert stack.describe() == (
                "HistoryLayer → AccountingLayer → UnreliableLayer → FailoverRouter"
            )
            router = stack.raw
            assert isinstance(router, FailoverRouter)
            assert [target.base_url for target in router.targets] == [primary.url, replica.url]
            assert router.breaker("primary").policy is policy
            assert router.breaker("replica-1").policy is policy
            query = ConjunctiveQuery.empty(tiny_schema)
            assert stack.submit(query) == tiny_backend.submit(query)

    def test_empty_url_list_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            remote_stack([])

    def test_history_layer_saves_round_trips_over_the_socket(self, server, tiny_schema):
        stack = remote_stack(server.url, history=True)
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        before = server.requests_served
        first = stack.submit(query)
        assert stack.submit(query) == first
        assert server.requests_served == before + 1  # one HTTP request, not two
        assert stack.history.statistics.exact_hits == 1

    def test_service_accepts_url_backends(self, server):
        service = SamplingService(server.url)
        assert service.backend().k == 2
        report = service.backend_statistics()
        assert report["access_path"].endswith("RemoteBackend")

    def test_service_rejects_non_url_strings(self):
        with pytest.raises(ConfigurationError):
            SamplingService("not-a-url")

    def test_service_accepts_url_lists_as_failover_backends(self, server, tiny_backend):
        service = SamplingService([server.url])
        assert service.backend().k == 2
        report = service.backend_statistics()
        assert report["access_path"].endswith("UnreliableLayer → FailoverRouter")
        assert report["failover"] is not None
        config = HDSamplerConfig(n_samples=3, seed=2)
        listed = service.submit(config).run()
        single = SamplingService(server.url).submit(config).run()
        assert [s.tuple_id for s in listed.samples] == [s.tuple_id for s in single.samples]

    @pytest.mark.parametrize("urls", [[], ["not-a-url"]], ids=["empty", "non-url"])
    def test_service_rejects_bad_url_lists(self, urls):
        with pytest.raises(ConfigurationError):
            SamplingService(urls)

    def test_full_sampling_run_identical_over_http_and_local(self):
        table = generate_vehicles_table(VehiclesConfig(n_rows=600, seed=9))
        ranking = default_vehicles_ranking()
        config = HDSamplerConfig(n_samples=6, seed=4)
        served = engine_stack(table, 30, ranking=ranking, statistics=False)
        with HiddenDatabaseHTTPServer(served) as endpoint:
            remote_result = SamplingService(endpoint.url).submit(config).run()
        local_result = SamplingService(
            engine_stack(table, 30, ranking=ranking)
        ).submit(config).run()
        assert [s.tuple_id for s in remote_result.samples] == [
            s.tuple_id for s in local_result.samples
        ]
        assert remote_result.queries_issued == local_result.queries_issued

    def test_full_sampling_run_identical_batched_dispatched_and_compressed(self):
        # Same seeds, same samples, whether the run went plainly over the
        # socket or batched, concurrent and gzip-compressed.
        table = generate_vehicles_table(VehiclesConfig(n_rows=600, seed=9))
        ranking = default_vehicles_ranking()
        config = HDSamplerConfig(n_samples=6, seed=4)
        served = engine_stack(table, 30, ranking=ranking, statistics=False)
        with HiddenDatabaseHTTPServer(served) as endpoint:
            plain_result = SamplingService(endpoint.url).submit(config).run()
        with HiddenDatabaseHTTPServer(served, compress_threshold=1) as endpoint:
            stack = remote_stack(endpoint.url, parallel=4, batch=8)
            batched_result = SamplingService(stack).submit(config).run()
            assert stack.raw.compression_statistics["responses_decompressed"] >= 1
        assert [s.tuple_id for s in batched_result.samples] == [
            s.tuple_id for s in plain_result.samples
        ]
        assert batched_result.queries_issued == plain_result.queries_issued

    def test_mixed_local_and_remote_backends_in_one_service(self, server, tiny_table):
        service = SamplingService(
            {
                "local": engine_stack(tiny_table, k=2, ranking=StaticScoreRanking()),
                "remote": server.url,
            }
        )
        assert set(service.backend_names) == {"local", "remote"}
        job = service.submit(HDSamplerConfig(n_samples=2, seed=1), backend="remote")
        result = job.run()
        assert result.sample_count == 2


class TestConcurrentClients:
    def test_hundreds_in_flight_multiplex_over_a_small_pool(
        self, server, tiny_backend, tiny_schema
    ):
        rng = random.Random(2)
        queries = [ConjunctiveQuery.empty(tiny_schema)]
        for _ in range(25):
            assignment = {
                a.name: rng.choice(a.domain.values) for a in tiny_schema if rng.random() < 0.5
            }
            queries.append(ConjunctiveQuery.from_assignment(tiny_schema, assignment))
        queries *= 8  # 208 submissions
        expected = [tiny_backend.submit(q) for q in queries]
        with RemoteBackend(server.url, pool_size=8) as backend:
            with ThreadPoolExecutor(max_workers=8) as workers:
                responses = list(workers.map(backend.submit, queries))
            pool = backend.pool_statistics
        assert responses == expected
        # At most one connection per worker thread: the 208 submissions
        # multiplexed over kept-alive sockets, not stampeded.
        assert pool["opened"] <= 8
        assert pool["reused"] >= len(queries) - 8


class TestSlowClientReclaim:
    def test_stalled_connection_is_closed_and_service_continues(self, tiny_backend):
        # A client that opens a connection and sends half a request line must
        # not pin a handler thread forever: the per-connection timeout
        # reclaims it, and well-behaved clients are still served.
        with HiddenDatabaseHTTPServer(tiny_backend, request_timeout=0.3) as endpoint:
            port = int(endpoint.url.rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), timeout=5) as stalled:
                stalled.sendall(b"GET /api/sch")  # ...and never finishes
                stalled.settimeout(5)
                assert stalled.recv(4096) == b""  # server closed on us
            with urllib.request.urlopen(endpoint.url + "/api/schema", timeout=5) as response:
                assert response.status == 200


class TestClientConnectionLifecycle:
    def test_idle_reclaimed_keep_alive_reconnects_transparently(
        self, tiny_backend, tiny_schema
    ):
        # The server reclaims the idle connection after 0.3s; the next submit
        # must notice the clean pre-response EOF on the reused socket and
        # re-send on a fresh connection instead of surfacing an error.
        with HiddenDatabaseHTTPServer(tiny_backend, request_timeout=0.3) as endpoint:
            with RemoteBackend(endpoint.url) as remote:
                query = ConjunctiveQuery.empty(tiny_schema)
                expected = remote.submit(query)
                time.sleep(0.8)
                assert remote.submit(query) == expected
                assert remote.pool_statistics["stale_reconnects"] >= 1

    def test_open_breaker_fast_fails_without_touching_the_wire(self, tiny_table, tiny_schema):
        flaky = BackendStack(
            engine_stack(
                tiny_table, k=2, ranking=StaticScoreRanking(), statistics=False
            ).top,
            [lambda inner: UnreliableLayer(inner, max_retries=0, schedule=["transient"])],
        )
        query = ConjunctiveQuery.empty(tiny_schema)
        with HiddenDatabaseHTTPServer(flaky) as endpoint:
            stack = remote_stack(
                endpoint.url,
                max_retries=0,
                breaker=CircuitBreakerPolicy(
                    window=4, failure_threshold=1, reset_timeout=60.0
                ),
            )
            with pytest.raises(TransientBackendError):
                stack.submit(query)  # a real 503 over the wire
            served_after_failure = endpoint.requests_served
            with pytest.raises(CircuitOpenError):
                stack.submit(query)  # the circuit is open: no round trip at all
            assert endpoint.requests_served == served_after_failure
