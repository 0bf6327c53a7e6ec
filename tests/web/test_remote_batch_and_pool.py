"""The remote hot path: pooled keep-alive connections and batched submits.

Everything here runs over real loopback sockets.  The contracts under test:

* **Pooling** — submissions reuse one persistent connection (the pool
  statistics prove it); ``pool_size=0`` restores the one-connect-per-request
  baseline; a keep-alive connection that went stale while idle is replaced
  with one transparent reconnect, invisible to the caller.
* **Batching** — ``submit_outcomes`` ships N queries in one POST and returns
  byte-identical answers in input order; per-item statuses mean one 429 or
  exhausted budget fails only its item, and the retry layer above re-issues
  only the failed items.
* **Fault typing** — 401/403-without-budget surface as ``BackendAuthError``
  (never retried, never mistaken for a parse failure); a momentarily-503
  server at construction time is survived by the stack's bounded
  constructor retry.
"""

import json
import socket
import threading
import urllib.request

import pytest

from repro.backends import (
    BackendStack,
    HistoryLayer,
    QueryEngineBackend,
    RemoteBackend,
    UnreliableLayer,
    engine_stack,
    remote_stack,
)
from repro.database.interface import CountMode
from repro.database.limits import QueryBudget
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import StaticScoreRanking
from repro.exceptions import (
    BackendAuthError,
    QueryBudgetExceededError,
    TransientBackendError,
)
from repro.web.httpd import API_SUBMIT_BATCH_PATH, HiddenDatabaseHTTPServer
from repro.web.jsoncodec import response_to_dict, schema_to_dict


@pytest.fixture()
def tiny_backend(tiny_table):
    return engine_stack(
        tiny_table, k=2, ranking=StaticScoreRanking(),
        count_mode=CountMode.EXACT, statistics=False,
    )


@pytest.fixture()
def server(tiny_backend):
    with HiddenDatabaseHTTPServer(tiny_backend) as endpoint:
        yield endpoint


def _random_queries(schema, seed: int, count: int):
    import random

    rng = random.Random(seed)
    queries = [ConjunctiveQuery.empty(schema)]
    for _ in range(count):
        assignment = {}
        for attribute in schema:
            if rng.random() < 0.5:
                assignment[attribute.name] = rng.choice(attribute.domain.values)
        queries.append(ConjunctiveQuery.from_assignment(schema, assignment))
    return queries


def _distinct_misses(schema):
    """Ten queries of two predicates each: none subsumes another."""
    assignments = [
        {"make": make, "price": price}
        for make in schema["make"].domain.values
        for price in schema["price"].domain.values
    ]
    assignments.append({"make": "Toyota", "color": "red"})
    return [ConjunctiveQuery.from_assignment(schema, each) for each in assignments]


def _wire_traffic(server, submit, queries):
    """``submit(queries)``'s answers and the requests and batch items it cost."""
    before = server.wire_statistics()
    answers = submit(queries)
    after = server.wire_statistics()
    return (
        answers,
        after["requests_served"] - before["requests_served"],
        after["batch_items_served"] - before["batch_items_served"],
    )


class TestConnectionPool:
    def test_submissions_reuse_one_keepalive_connection(self, server, tiny_schema, tiny_backend):
        remote = RemoteBackend(server.url)
        queries = _random_queries(tiny_schema, 1, 10)
        for query in queries:
            assert remote.submit(query) == tiny_backend.submit(query)
        stats = remote.pool_statistics
        # The schema fetch opened the one socket; every submit reused it.
        assert stats["opened"] == 1
        assert stats["reused"] == len(queries)
        assert stats["stale_reconnects"] == 0

    def test_pool_size_zero_connects_per_request(self, server, tiny_schema):
        remote = RemoteBackend(server.url, pool_size=0)
        queries = _random_queries(tiny_schema, 2, 5)
        for query in queries:
            remote.submit(query)
        stats = remote.pool_statistics
        assert stats["opened"] == len(queries) + 1  # one per submit + the schema fetch
        assert stats["reused"] == 0
        assert stats["idle"] == 0  # nothing is kept alive

    def test_concurrent_submits_share_the_bounded_pool(self, server, tiny_schema, tiny_backend):
        from concurrent.futures import ThreadPoolExecutor

        remote = RemoteBackend(server.url, pool_size=4)
        queries = _random_queries(tiny_schema, 3, 40)
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(remote.submit, queries))
        assert responses == [tiny_backend.submit(query) for query in queries]
        stats = remote.pool_statistics
        assert stats["reused"] > 0
        assert stats["idle"] <= 4  # never pools past its bound
        remote.close()
        assert remote.pool_statistics["idle"] == 0

    def test_stale_keepalive_reconnects_transparently(self, tiny_schema, tiny_backend):
        """A server that closes each keep-alive after one response: the pooled
        connection is stale on reuse and must be replaced with one reconnect,
        without the caller ever seeing a fault."""
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        expected = tiny_backend.submit(query)
        payloads = [
            json.dumps(schema_to_dict(tiny_backend.schema, tiny_backend.k)).encode(),
            json.dumps(response_to_dict(expected)).encode(),
        ]
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def run():
            for body in payloads:
                conn, _ = listener.accept()
                conn.recv(65536)
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                conn.close()  # breaks the promised keep-alive
            listener.close()

        threading.Thread(target=run, daemon=True).start()
        remote = RemoteBackend(f"http://127.0.0.1:{port}", timeout=5)
        assert remote.submit(query) == expected
        stats = remote.pool_statistics
        assert stats["stale_reconnects"] == 1
        assert stats["opened"] == 2

    def test_proxy_error_page_stays_transient(self):
        """A 502 with an HTML body (a proxy, not our server) must translate by
        status — transient — not morph into a parse error."""
        body = b"<html>bad gateway</html>"
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def run():
            conn, _ = listener.accept()
            conn.recv(65536)
            conn.sendall(
                b"HTTP/1.1 502 Bad Gateway\r\nContent-Type: text/html\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            conn.close()
            listener.close()

        threading.Thread(target=run, daemon=True).start()
        with pytest.raises(TransientBackendError):
            RemoteBackend(f"http://127.0.0.1:{port}", timeout=5)


class TestBatchWire:
    def test_batch_answers_identical_in_input_order(self, server, tiny_schema, tiny_backend):
        remote = RemoteBackend(server.url)
        queries = _random_queries(tiny_schema, 4, 15)
        served_before = server.requests_served
        responses = remote.submit_outcomes(queries)
        assert responses == [tiny_backend.submit(query) for query in queries]
        assert server.requests_served == served_before + 1  # ONE round-trip
        assert server.batch_items_served == len(queries)

    def test_batch_round_trip_beats_per_query_round_trips(self, server, tiny_schema):
        remote = RemoteBackend(server.url)
        queries = _random_queries(tiny_schema, 5, 8)
        before = server.requests_served
        remote.submit_outcomes(queries)
        batched_requests = server.requests_served - before
        before = server.requests_served
        for query in queries:
            remote.submit(query)
        single_requests = server.requests_served - before
        assert batched_requests == 1
        assert single_requests == len(queries)

    def test_per_item_status_survives_budget_exhaustion(self, tiny_table, tiny_schema):
        served = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(),
            budget=QueryBudget(limit=3), statistics=False,
        )
        queries = _random_queries(tiny_schema, 6, 5)[:6]
        with HiddenDatabaseHTTPServer(served, batch_workers=1) as endpoint:
            remote = RemoteBackend(endpoint.url)
            outcomes = remote.submit_outcomes(queries)
        answered = [o for o in outcomes if not isinstance(o, Exception)]
        refused = [o for o in outcomes if isinstance(o, Exception)]
        assert len(answered) == 3  # the budget's worth
        assert refused and all(isinstance(o, QueryBudgetExceededError) for o in refused)

    def test_retry_layer_reissues_only_failed_items(self, tiny_table, tiny_schema):
        """A server that rate-limits every 3rd submission: the batch heals
        through per-item retries without re-paying answered items."""
        served = engine_stack(tiny_table, k=2, ranking=StaticScoreRanking(), statistics=False)
        chaotic = BackendStack(
            served.top,
            [lambda inner: UnreliableLayer(inner, max_retries=0, rate_limit_every=3)],
        )
        queries = _random_queries(tiny_schema, 8, 11)
        oracle = engine_stack(tiny_table, k=2, ranking=StaticScoreRanking(), statistics=False)
        with HiddenDatabaseHTTPServer(chaotic, batch_workers=1) as endpoint:
            stack = remote_stack(endpoint.url, max_retries=6, retry_backoff=0.0, batch=32)
            responses = stack.submit_outcomes(queries)
            retry_layer = stack.layer(UnreliableLayer)
            assert retry_layer.statistics.backend_rate_limited > 0
            assert retry_layer.statistics.gave_up == 0
        assert responses == [oracle.submit(query) for query in queries]
        # Statistics sit above the retry layer: every submission counted once.
        assert stack.statistics.queries_issued == len(queries)

    def test_dispatch_without_batch_size_sends_one_get_per_query(
        self, server, tiny_schema, tiny_backend
    ):
        queries = _distinct_misses(tiny_schema)[:4]
        for entry in ("stack", "top"):
            stack = remote_stack(server.url, parallel=2)
            submit = stack.submit_outcomes if entry == "stack" else stack.top.submit_outcomes
            answers, requests, items = _wire_traffic(server, submit, queries)
            assert answers == [tiny_backend.submit(q) for q in queries], entry
            assert (requests, items) == (4, 0), entry

    def test_a_history_level_over_a_parallel_batching_remote_stack(
        self, server, tiny_schema, tiny_backend
    ):
        stack = remote_stack(server.url, parallel=4, batch=4)
        level = HistoryLayer(stack)
        assert stack.describe() == (
            "DispatchLayer → AccountingLayer → UnreliableLayer → RemoteBackend"
        )
        queries = _random_queries(tiny_schema, 9, 20)
        assert level.submit_outcomes(queries) == [tiny_backend.submit(q) for q in queries]
        # A warm second pass is answered from the level without the wire.
        served_before = server.requests_served
        assert level.submit_outcomes(queries) == [tiny_backend.submit(q) for q in queries]
        assert server.requests_served == served_before
        assert level.statistics.saved >= len(queries)

    def test_a_history_level_over_a_batching_dispatch_asks_its_misses_one_by_one(
        self, server, tiny_schema, tiny_backend
    ):
        """A history level's batch is a serial loop of ``submit``: ten misses
        travel as ten GETs, with the answers a loop gets."""
        queries = _distinct_misses(tiny_schema)
        level = HistoryLayer(remote_stack(server.url, parallel=2, batch=5))
        answers, requests, items = _wire_traffic(server, level.submit_outcomes, queries)
        assert answers == [tiny_backend.submit(q) for q in queries]
        assert (requests, items) == (10, 0)
        assert level.statistics.issued_to_interface == len(queries)

    def test_unknown_batch_request_version_is_a_clear_400(self, server):
        body = json.dumps({"version": 999, "queries": []}).encode()
        request = urllib.request.Request(
            server.url + API_SUBMIT_BATCH_PATH,
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=5)
        assert info.value.code == 400
        payload = json.loads(info.value.read().decode())
        assert "batch wire version" in payload["message"]

    def test_batch_items_answered_concurrently(self, tiny_table, tiny_schema):
        """With a thread-safe served stack, batch items fan out over the
        server's worker pool (different handler threads)."""
        seen: set[str] = set()
        lock = threading.Lock()

        class ThreadRecorder:
            def __init__(self, inner):
                self.inner = inner

            @property
            def schema(self):
                return self.inner.schema

            @property
            def k(self):
                return self.inner.k

            def submit(self, query):
                with lock:
                    seen.add(threading.current_thread().name)
                return self.inner.submit(query)

        recorder = ThreadRecorder(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        with HiddenDatabaseHTTPServer(recorder, batch_workers=4) as endpoint:
            remote = RemoteBackend(endpoint.url)
            remote.submit_outcomes(_random_queries(tiny_schema, 10, 12))
        assert any(name.startswith("httpd-batch") for name in seen)


class FlakySchemaBackend:
    """A backend whose schema fetch fails transiently ``failures`` times."""

    def __init__(self, inner, failures: int):
        self.inner = inner
        self.failures = failures
        self.schema_calls = 0
        self._lock = threading.Lock()

    @property
    def schema(self):
        with self._lock:
            self.schema_calls += 1
            if self.schema_calls <= self.failures:
                raise TransientBackendError("warming up")
        return self.inner.schema

    @property
    def k(self):
        return self.inner.k

    def submit(self, query):
        return self.inner.submit(query)


class TestConstructionContract:
    def test_bare_backend_fails_fast_on_a_503ing_server(self, tiny_table):
        flaky = FlakySchemaBackend(
            QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()), failures=2
        )
        with HiddenDatabaseHTTPServer(flaky, serve_pages=False) as endpoint:
            # The documented default: no constructor retries, fail fast.
            with pytest.raises(TransientBackendError):
                RemoteBackend(endpoint.url)

    def test_constructor_retry_survives_a_momentary_503(self, tiny_table, tiny_schema):
        flaky = FlakySchemaBackend(
            QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()), failures=2
        )
        with HiddenDatabaseHTTPServer(flaky, serve_pages=False) as endpoint:
            remote = RemoteBackend(endpoint.url, connect_retries=3, connect_backoff=0.0)
            assert remote.schema == flaky.inner.schema
            assert flaky.schema_calls == 3  # two 503s, then success

    def test_remote_stack_applies_its_retry_policy_at_construction(self, tiny_table):
        flaky = FlakySchemaBackend(
            QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()), failures=2
        )
        with HiddenDatabaseHTTPServer(flaky, serve_pages=False) as endpoint:
            stack = remote_stack(endpoint.url, max_retries=3, retry_backoff=0.0)
            assert stack.k == 2

    def test_auth_errors_never_count_as_retries(self, tiny_table):
        flaky = FlakySchemaBackend(
            QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()), failures=99
        )
        with HiddenDatabaseHTTPServer(flaky, serve_pages=False) as endpoint:
            with pytest.raises(TransientBackendError):
                RemoteBackend(endpoint.url, connect_retries=1, connect_backoff=0.0)
            assert flaky.schema_calls == 2  # initial + exactly one retry


class AuthRefusingBackend:
    """A backend guarded by an auth proxy that rejects this client."""

    def __init__(self, inner, status: int = 403):
        self.inner = inner
        self.status = status

    @property
    def schema(self):
        return self.inner.schema

    @property
    def k(self):
        return self.inner.k

    def submit(self, query):
        raise BackendAuthError(self.status, "api key revoked")


class TestAuthTranslation:
    @pytest.mark.parametrize("status", [401, 403])
    def test_auth_status_is_typed_not_a_parse_error(self, tiny_table, tiny_schema, status):
        guarded = AuthRefusingBackend(
            QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()), status
        )
        with HiddenDatabaseHTTPServer(guarded, serve_pages=False) as endpoint:
            remote = RemoteBackend(endpoint.url)
            with pytest.raises(BackendAuthError) as info:
                remote.submit(ConjunctiveQuery.empty(tiny_schema))
            assert info.value.status == status
            assert "api key revoked" in str(info.value)

    def test_retry_layer_passes_auth_errors_straight_through(self, tiny_table, tiny_schema):
        guarded = AuthRefusingBackend(
            QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())
        )
        with HiddenDatabaseHTTPServer(guarded, serve_pages=False) as endpoint:
            stack = remote_stack(endpoint.url, max_retries=5, retry_backoff=0.0)
            with pytest.raises(BackendAuthError):
                stack.submit(ConjunctiveQuery.empty(tiny_schema))
            assert stack.layer(UnreliableLayer).statistics.retries == 0

    def test_budget_403_still_wins_over_auth(self, tiny_table, tiny_schema):
        served = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(),
            budget=QueryBudget(limit=1), statistics=False,
        )
        with HiddenDatabaseHTTPServer(served) as endpoint:
            remote = RemoteBackend(endpoint.url)
            remote.submit(ConjunctiveQuery.empty(tiny_schema))
            with pytest.raises(QueryBudgetExceededError):
                remote.submit(ConjunctiveQuery.empty(tiny_schema))


class TestBaseUrlPathPrefix:
    def test_path_prefixed_base_url_reaches_prefixed_endpoints(self, tiny_backend, tiny_schema):
        """A reverse proxy may mount the endpoint under a path prefix; every
        request path must be joined onto it (a regression of the urllib port)."""
        request_lines = []
        body = json.dumps(schema_to_dict(tiny_backend.schema, tiny_backend.k)).encode()
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def run():
            conn, _ = listener.accept()
            request_lines.append(conn.recv(65536).split(b"\r\n", 1)[0])
            conn.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            conn.close()
            listener.close()

        threading.Thread(target=run, daemon=True).start()
        remote = RemoteBackend(f"http://127.0.0.1:{port}/hidden-db/", timeout=5)
        assert remote.schema == tiny_backend.schema
        assert request_lines == [b"GET /hidden-db/api/schema HTTP/1.1"]


class TestMalformedBatchItems:
    def test_half_shaped_ok_item_is_a_typed_parse_error(self, tiny_schema):
        from repro.exceptions import FormParseError
        from repro.web.jsoncodec import BATCH_WIRE_VERSION, batch_response_from_dict

        with pytest.raises(FormParseError, match="malformed"):
            batch_response_from_dict(
                tiny_schema,
                {"version": BATCH_WIRE_VERSION, "items": [{"status": "ok"}]},
            )
        with pytest.raises(FormParseError, match="expected an object"):
            batch_response_from_dict(
                tiny_schema, {"version": BATCH_WIRE_VERSION, "items": [None]}
            )
        # A garbage http_status / payload shape degrades to a transient 500,
        # never an untyped crash.
        [outcome] = batch_response_from_dict(
            tiny_schema,
            {
                "version": BATCH_WIRE_VERSION,
                "items": [{"status": "error", "http_status": "soon", "payload": []}],
            },
        )
        assert isinstance(outcome, TransientBackendError)


class TestNoSilentResend:
    def test_timeout_on_reused_connection_is_not_resent(self, tiny_backend, tiny_schema):
        """A request the server may have already EXECUTED (response timed out)
        must surface as transient — never be silently re-sent, which would
        double-charge server-side budgets.  Only provably-unanswered stale
        keep-alive failures earn the transparent reconnect."""
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        schema_body = json.dumps(schema_to_dict(tiny_backend.schema, tiny_backend.k)).encode()
        submit_body = json.dumps(response_to_dict(tiny_backend.submit(query))).encode()
        requests_seen = []
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        done = threading.Event()

        def respond(conn, body):
            conn.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )

        def run():
            # Connection 1: schema, then one good submit — stays open.
            conn, _ = listener.accept()
            requests_seen.append(conn.recv(65536))
            respond(conn, schema_body)
            requests_seen.append(conn.recv(65536))
            respond(conn, submit_body)
            # Next request arrives on the SAME (reused) connection; read it
            # and go silent past the client timeout.
            requests_seen.append(conn.recv(65536))
            done.wait(timeout=10)
            conn.close()
            listener.close()

        threading.Thread(target=run, daemon=True).start()
        remote = RemoteBackend(f"http://127.0.0.1:{port}", timeout=0.5)
        assert remote.submit(query) == tiny_backend.submit(query)
        with pytest.raises(TransientBackendError, match="dropped the connection"):
            remote.submit(query)
        done.set()
        # Exactly three requests ever reached the server: schema, the good
        # submit, the timed-out submit — NO silent duplicate of the last one.
        assert len(requests_seen) == 3
        assert remote.pool_statistics["stale_reconnects"] == 0
