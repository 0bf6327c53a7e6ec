"""Byte-level edges of the threaded server and the remote client.

The threaded handler writes each response through a buffered write side, so
status line, headers and body leave in one send.  Checked here over raw
sockets: the responses the standard library writes outside ``_respond`` (a
400 for a garbage request line, an interim ``100 Continue``) still reach the
peer, one keep-alive connection carries many requests, an oversized batch
body is refused and its connection closed, and a client gone before the
flush ends the connection quietly.  A malformed batch body answers 400,
and the connection closes exactly when the body was left unread; the
``Retry-After`` header follows a fault payload's hint; the deadline header,
the fault counters, the compression policy and the batch pool hold at their
edges.  The server's lifecycle: a listen backlog that queues a whole wave of
arriving clients (and holds a request sent before ``start``), an idempotent
``start`` and ``stop``, and a ``stop()`` that returns on a server that never
started.  On the client side, :data:`~repro.backends.remote.MAX_RESPONSE_BYTES` caps
every response body — plain, compressed or of unknown length — and an
oversized answer never returns its connection to the pool.
"""

import json
import socket
import threading
import time
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from repro.backends import RemoteBackend, engine_stack
from repro.backends import remote as remote_module
from repro.database.query import ConjunctiveQuery
from repro.exceptions import ConfigurationError, FormParseError
from repro.web.httpd import (
    DEADLINE_HEADER,
    DatabaseEndpoint,
    HiddenDatabaseHTTPServer,
    _Handler,
    fault_headers,
)
from repro.web.jsoncodec import (
    BATCH_WIRE_VERSION,
    batch_request_to_dict,
    response_to_dict,
    schema_to_dict,
)


@pytest.fixture()
def served(small_vehicles_table):
    return engine_stack(small_vehicles_table, k=50, display_columns=("title",), statistics=False)


@pytest.fixture(scope="class")
def shared_server(small_vehicles_table):
    """One running server for a class whose tests only read deltas of its
    counters (each started server costs a ~0.5 s shutdown poll)."""
    served = engine_stack(
        small_vehicles_table, k=50, display_columns=("title",), statistics=False
    )
    with HiddenDatabaseHTTPServer(served) as server:
        yield server


def _port(url: str) -> int:
    return int(url.rsplit(":", 1)[1])


def _read_until(connection: socket.socket, marker: bytes) -> bytes:
    data = b""
    while marker not in data:
        chunk = connection.recv(65536)
        if not chunk:
            break
        data += chunk
    return data


def _read_response(reader) -> tuple[bytes, dict[bytes, bytes], bytes]:
    """One HTTP response off a buffered socket reader: status line, headers, body."""
    status = reader.readline()
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, reader.read(int(headers.get(b"content-length", b"0")))


def _connect(server: HiddenDatabaseHTTPServer) -> socket.socket:
    return socket.create_connection(("127.0.0.1", _port(server.url)), timeout=5)


_BATCH_HEAD = b"POST /api/submit_batch HTTP/1.1\r\nHost: x\r\n"


def _post_batch(body: bytes) -> bytes:
    """A raw ``POST /api/submit_batch`` request carrying ``body``."""
    return _BATCH_HEAD + f"Content-Length: {len(body)}\r\n\r\n".encode() + body


def _stop_within(server: HiddenDatabaseHTTPServer, seconds: float) -> bool:
    """Run ``server.stop()`` on a daemon thread; whether it returned in time."""
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=seconds)
    return not stopper.is_alive()


class TestThreadedHandlerWrites:
    def test_keep_alive_serves_many_requests_on_one_connection(self, served):
        with HiddenDatabaseHTTPServer(served) as server:
            with socket.create_connection(("127.0.0.1", _port(server.url)), timeout=5) as peer:
                reader = peer.makefile("rb")
                for _ in range(3):
                    peer.sendall(b"GET /api/schema HTTP/1.1\r\nHost: x\r\n\r\n")
                    status, _, body = _read_response(reader)
                    assert status.startswith(b"HTTP/1.1 200 ")
                    assert json.loads(body)["k"] == served.k
            assert server.requests_served == 3

    def test_an_oversized_batch_body_is_refused_and_the_connection_closed(self, served):
        # urllib refuses to lie about Content-Length, so speak raw HTTP: a
        # declared 1 GiB body is refused before any of it is read, and the
        # connection closes, since the unread body would otherwise be parsed
        # as the next request.
        with HiddenDatabaseHTTPServer(served) as server:
            with socket.create_connection(("127.0.0.1", _port(server.url)), timeout=5) as peer:
                peer.sendall(
                    b"POST /api/submit_batch HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 1073741824\r\n\r\n"
                )
                reader = peer.makefile("rb")
                status, headers, body = _read_response(reader)
                assert reader.read() == b""  # the server hung up
        assert status.startswith(b"HTTP/1.1 400 ")
        assert headers[b"connection"] == b"close"
        assert "1073741824 bytes" in json.loads(body)["message"]

    def test_a_garbage_request_line_still_gets_its_400(self, served):
        with HiddenDatabaseHTTPServer(served) as server:
            with socket.create_connection(("127.0.0.1", _port(server.url)), timeout=5) as peer:
                peer.sendall(b"NOT A REQUEST LINE\r\n\r\n")
                answer = _read_until(peer, b"</html>")
        assert b"Error code: 400" in answer

    def test_expect_100_continue_is_answered_before_the_body(self, served, small_vehicles_table):
        query = ConjunctiveQuery.from_assignment(small_vehicles_table.schema, {"color": "red"})
        body = json.dumps(batch_request_to_dict([query])).encode()
        head = (
            "POST /api/submit_batch HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nExpect: 100-continue\r\n\r\n"
        ).encode()
        with HiddenDatabaseHTTPServer(served) as server:
            with socket.create_connection(("127.0.0.1", _port(server.url)), timeout=5) as peer:
                peer.sendall(head)
                interim = _read_until(peer, b"\r\n\r\n")
                assert interim.startswith(b"HTTP/1.1 100 Continue\r\n")
                peer.sendall(body)
                answer = _read_until(peer, b"\r\n\r\n")
                header, _, rest = answer.partition(b"\r\n\r\n")
                assert header.startswith(b"HTTP/1.1 200 ")
                length = next(
                    int(line.split(b":", 1)[1])
                    for line in header.split(b"\r\n")
                    if line.lower().startswith(b"content-length:")
                )
                while len(rest) < length:
                    rest += peer.recv(65536)
        [item] = json.loads(rest)["items"]
        assert item["status"] == "ok"
        assert item["response"] == response_to_dict(served.submit(query))

    def test_a_peer_gone_before_the_flush_closes_the_connection_quietly(self, served):
        class GoneWriter:
            def write(self, data):
                return len(data)

            def flush(self):
                raise BrokenPipeError("the peer went away")

        handler = _Handler.__new__(_Handler)  # no socket: only the write side matters
        handler.server = SimpleNamespace(endpoint=DatabaseEndpoint(served, serve_pages=False))
        handler.wfile = GoneWriter()
        handler.headers = Message()
        handler.request_version = "HTTP/1.1"
        handler.requestline = "GET /api/health HTTP/1.1"
        handler.close_connection = False
        handler._respond(200, b"{}", "application/json", {})
        assert handler.close_connection is True


class TestBatchBodyValidation:
    # Each request is refused with its status.  A request whose body the
    # server never read must close its connection (the unread bytes would be
    # parsed as the next request); one whose body was read keeps it, and the
    # same connection then serves the next request.
    @pytest.mark.parametrize(
        ("request_bytes", "status", "kept_alive"),
        [
            (_BATCH_HEAD + b"Content-Length: many\r\n\r\n", 400, False),
            (_BATCH_HEAD + b"Content-Length: 0\r\n\r\n", 400, False),
            (_BATCH_HEAD + b"Content-Length: -5\r\n\r\n", 400, False),
            # The declared body is never sent: the server must not wait for it.
            (b"POST /api/submit HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n", 404, False),
            (_post_batch(b"not json"), 400, True),
            (_post_batch(b"\xff\xfe{}"), 400, True),
            (_post_batch(b"[1, 2]"), 400, True),
            (_post_batch(json.dumps({"version": BATCH_WIRE_VERSION}).encode()), 400, True),
            # A malformed item is the client's fault (400), not a transient
            # server fault (500) a retry layer would re-send.
            (
                _post_batch(
                    json.dumps(
                        {"version": BATCH_WIRE_VERSION, "queries": [{"color": "red"}, {"nope": "x"}]}
                    ).encode()
                ),
                400,
                True,
            ),
            (
                _post_batch(json.dumps({"version": BATCH_WIRE_VERSION, "queries": [1]}).encode()),
                400,
                True,
            ),
        ],
        ids=[
            "unreadable-length",
            "zero-length",
            "negative-length",
            "post-to-a-get-path",
            "not-json",
            "not-utf8",
            "not-an-object",
            "no-queries-list",
            "item-names-an-unknown-attribute",
            "item-not-an-object",
        ],
    )
    def test_a_bad_batch_request_is_refused(
        self, shared_server, request_bytes, status, kept_alive
    ):
        with _connect(shared_server) as peer:
            reader = peer.makefile("rb")
            peer.sendall(request_bytes)
            answer, headers, body = _read_response(reader)
            assert answer.startswith(f"HTTP/1.1 {status} ".encode())
            assert json.loads(body)["message"]
            if kept_alive:
                assert b"connection" not in headers
                peer.sendall(b"GET /api/schema HTTP/1.1\r\nHost: x\r\n\r\n")
                assert _read_response(reader)[0].startswith(b"HTTP/1.1 200 ")
            else:
                assert headers[b"connection"] == b"close"
                assert reader.read() == b""  # the server hung up
        assert shared_server.batch_items_served == 0

    def test_an_empty_batch_answers_an_empty_item_list(self, served):
        with HiddenDatabaseHTTPServer(served) as server:
            with _connect(server) as peer:
                peer.sendall(_post_batch(json.dumps(batch_request_to_dict([])).encode()))
                status, _, body = _read_response(peer.makefile("rb"))
        assert status.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body)["items"] == []
        assert server.batch_items_served == 0


class TestBatchPool:
    def test_a_one_item_batch_never_starts_the_pool(self, served, small_vehicles_table):
        schema = small_vehicles_table.schema
        one = [ConjunctiveQuery.from_assignment(schema, {"color": "red"})]
        with HiddenDatabaseHTTPServer(served) as server:
            with RemoteBackend(server.url) as client:
                assert client.submit_outcomes(one) == [served.submit(one[0])]
                assert server._pool._executor is None
                assert client.submit_outcomes(one * 2) == [served.submit(one[0])] * 2
                assert server._pool._executor is not None
        assert server._pool._executor is None  # stop() released it

    def test_one_batch_worker_answers_in_order_without_a_pool(
        self, served, small_vehicles_table
    ):
        schema = small_vehicles_table.schema
        queries = [
            ConjunctiveQuery.from_assignment(schema, {"color": value})
            for value in schema.attribute("color").domain.values
        ]
        with HiddenDatabaseHTTPServer(served, batch_workers=1) as server:
            with RemoteBackend(server.url) as client:
                assert client.submit_outcomes(queries) == [served.submit(q) for q in queries]
            assert server._pool._executor is None
            assert server.batch_items_served == len(queries)


class TestFaultHeaders:
    @pytest.mark.parametrize(
        ("status", "payload", "expected"),
        [
            (429, {}, {"Retry-After": "1"}),
            (429, {"retry_after": 2.5}, {"Retry-After": "2.5"}),
            (429, {"retry_after": "soon"}, {"Retry-After": "1"}),
            (503, {"retry_after": 30.0}, {"Retry-After": "30"}),
            (503, {"retry_after": 0}, {"Retry-After": "0"}),
            (503, {}, {}),
            (503, {"retry_after": True}, {}),
            (503, {"retry_after": -1.0}, {}),
        ],
        ids=[
            "429-without-hint",
            "429-with-hint",
            "429-with-unreadable-hint",
            "503-with-whole-hint",
            "503-with-zero-hint",
            "503-without-hint",
            "503-with-bool-hint",
            "503-with-negative-hint",
        ],
    )
    def test_retry_after_follows_the_payload_hint(self, status, payload, expected):
        assert fault_headers(status, payload) == expected


class TestDeadlineHeaderEdges:
    @pytest.mark.parametrize(
        ("value", "status", "shed"),
        [
            (b"  5000  ", 200, 0),
            (b"-250", 503, 1),
            (b"1.5", 400, 0),
            (b"", 400, 0),
        ],
        ids=["padded", "negative", "fractional", "empty"],
    )
    def test_the_wire_deadline_is_integer_milliseconds(self, shared_server, value, status, shed):
        before = shared_server.deadline_shed
        with _connect(shared_server) as peer:
            peer.sendall(
                b"GET /api/submit HTTP/1.1\r\nHost: x\r\n"
                + DEADLINE_HEADER.encode() + b": " + value + b"\r\n\r\n"
            )
            answer, _, _ = _read_response(peer.makefile("rb"))
        assert answer.startswith(f"HTTP/1.1 {status} ".encode())
        assert shared_server.deadline_shed - before == shed


class TestCountersAndCompressionPolicy:
    def test_faults_are_counted_and_reported_by_health(self, served):
        with HiddenDatabaseHTTPServer(served) as server:
            with _connect(server) as peer:
                reader = peer.makefile("rb")
                statuses = []
                for path in (b"/api/schema", b"/no/such/page", b"/api/submit?color=%%%"):
                    peer.sendall(b"GET " + path + b" HTTP/1.1\r\nHost: x\r\n\r\n")
                    statuses.append(_read_response(reader)[0].split()[1])
                peer.sendall(b"GET /api/health HTTP/1.1\r\nHost: x\r\n\r\n")
                _, _, health = _read_response(reader)
            assert statuses == [b"200", b"404", b"400"]
            wire = server.wire_statistics()
        assert (wire["requests_served"], wire["fault_responses"]) == (4, 2)
        health = json.loads(health)
        assert (health["requests_served"], health["fault_responses"]) == (3, 2)

    def test_html_pages_are_never_compressed(self, served):
        gzip_get = b" HTTP/1.1\r\nHost: x\r\nAccept-Encoding: gzip\r\n\r\n"
        with HiddenDatabaseHTTPServer(served, compress_threshold=0) as server:
            with _connect(server) as peer:
                reader = peer.makefile("rb")
                peer.sendall(b"GET /results?color=red" + gzip_get)
                _, page_headers, page = _read_response(reader)
                peer.sendall(b"GET /api/schema" + gzip_get)
                _, api_headers, _ = _read_response(reader)
            assert server.compressed_responses == 1
        assert page_headers[b"content-type"].startswith(b"text/html")
        assert b"content-encoding" not in page_headers
        assert page.rstrip().endswith(b"</html>")
        assert api_headers[b"content-encoding"] == b"gzip"

    def test_no_threshold_means_no_response_is_compressed(self, served):
        with HiddenDatabaseHTTPServer(served, compress_threshold=None) as server:
            with _connect(server) as peer:
                peer.sendall(
                    b"GET /api/submit HTTP/1.1\r\nHost: x\r\nAccept-Encoding: gzip\r\n\r\n"
                )
                _, headers, body = _read_response(peer.makefile("rb"))
            assert server.compressed_responses == 0
        assert b"content-encoding" not in headers
        assert len(body) > 1024  # far over the default threshold
        assert len(json.loads(body)["rows"]) == served.k


class TestServerLifecycle:
    def test_stop_returns_on_a_server_that_never_started(self, served):
        server = HiddenDatabaseHTTPServer(served)
        port = _port(server.url)
        # A started batch pool, which stop() must release too.
        assert server._pool.map(abs, [-1, -2]) == [1, 2]
        assert server._pool._executor is not None
        assert _stop_within(server, 5), "stop() hung on a server that never started"
        assert server._pool._executor is None
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()

    def test_the_listen_backlog_queues_a_64_client_wave(self, served):
        # Nothing accepts yet: every connection the kernel completes waits in
        # the listen backlog.  The stdlib default backlog (5) queues 6 of 64
        # and drops the rest's SYNs, which then wait out the retransmit timer.
        server = HiddenDatabaseHTTPServer(served)
        clients, accepted = [], []
        try:
            for _ in range(64):
                client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                client.setblocking(False)
                client.connect_ex(("127.0.0.1", _port(server.url)))
                clients.append(client)
            time.sleep(0.3)
            listener = server._server.socket
            listener.setblocking(False)
            while True:
                try:
                    accepted.append(listener.accept()[0])
                except BlockingIOError:
                    break
        finally:
            for connection in accepted + clients:
                connection.close()
            stopped = _stop_within(server, 5)
        assert len(accepted) == 64
        assert stopped

    def test_a_request_sent_before_start_is_answered_once_started(self, served):
        server = HiddenDatabaseHTTPServer(served)
        try:
            with _connect(server) as peer:
                peer.sendall(b"GET /api/schema HTTP/1.1\r\nHost: x\r\n\r\n")
                server.start()
                status, _, body = _read_response(peer.makefile("rb"))
        finally:
            stopped = _stop_within(server, 5)
        assert status.startswith(b"HTTP/1.1 200 ")
        assert json.loads(body)["k"] == served.k
        assert stopped

    def test_start_twice_keeps_one_serving_thread(self, served):
        server = HiddenDatabaseHTTPServer(served)
        try:
            assert server.start() is server
            thread = server._thread
            assert server.start() is server
            assert server._thread is thread
        finally:
            server.stop()
        assert not thread.is_alive()

    def test_stop_twice_is_harmless(self, served):
        server = HiddenDatabaseHTTPServer(served).start()
        port = _port(server.url)
        server.stop()
        assert _stop_within(server, 5)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()

    def test_the_context_manager_stops_on_an_exception(self, served):
        with pytest.raises(RuntimeError, match="inside the block"):
            with HiddenDatabaseHTTPServer(served) as server:
                port = _port(server.url)
                thread = server._thread
                raise RuntimeError("inside the block")
        assert server._thread is None
        assert not thread.is_alive()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()

    @pytest.mark.parametrize(
        "option",
        [{"batch_workers": 0}, {"request_timeout": 0}, {"compress_threshold": -1}],
    )
    def test_bad_endpoint_options_are_rejected(self, served, option):
        with pytest.raises(ConfigurationError):
            DatabaseEndpoint(served, **option)


class _StubEndpoint:
    """Serves a schema, then ``/api/submit`` bodies without a ``Content-Length``.

    Speaks HTTP/1.0, so such a body ends when the connection closes.
    """

    def __init__(self, schema_payload: dict, submit_payload: dict) -> None:
        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server naming
                api_schema = self.path.startswith("/api/schema")
                body = json.dumps(schema_payload if api_schema else submit_payload).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                if api_schema:
                    self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}"
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)


class TestResponseBodyCap:
    @pytest.fixture()
    def query(self, served):
        return ConjunctiveQuery.empty(served.schema)

    @pytest.mark.parametrize("compress_threshold", [None, 1024], ids=["plain", "gzip"])
    def test_an_answer_over_the_cap_is_refused_and_its_connection_dropped(
        self, served, query, monkeypatch, compress_threshold
    ):
        with HiddenDatabaseHTTPServer(served, compress_threshold=compress_threshold) as server:
            with RemoteBackend(server.url) as client:
                assert client.submit(query) == served.submit(query)
                assert client.pool_statistics["idle"] == 1
                monkeypatch.setattr(remote_module, "MAX_RESPONSE_BYTES", 1_000)
                with pytest.raises(FormParseError, match="1000-byte limit"):
                    client.submit(query)
                assert client.pool_statistics["idle"] == 0
                monkeypatch.undo()
                assert client.submit(query) == served.submit(query)
                assert client.pool_statistics["opened"] == 2

    def test_a_body_of_unknown_length_is_read_to_the_cap_at_most(self, served, query, monkeypatch):
        stub = _StubEndpoint(
            schema_to_dict(served.schema, served.k),
            response_to_dict(served.submit(query)),
        )
        try:
            with RemoteBackend(stub.url) as client:
                assert client.submit(query) == served.submit(query)
                monkeypatch.setattr(remote_module, "MAX_RESPONSE_BYTES", 1_000)
                with pytest.raises(FormParseError, match="1000-byte limit"):
                    client.submit(query)
        finally:
            stub.close()
