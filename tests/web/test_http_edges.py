"""Byte-level edges of the threaded server and the remote client.

The threaded handler writes each response through a buffered write side, so
status line, headers and body leave in one send.  Checked here over raw
sockets: the responses the standard library writes outside ``_respond`` (a
400 for a garbage request line, an interim ``100 Continue``) still reach the
peer, and a client gone before the flush ends the connection quietly.  On
the client side, :data:`~repro.backends.remote.MAX_RESPONSE_BYTES` caps
every response body — plain, compressed or of unknown length — and an
oversized answer never returns its connection to the pool.
"""

import json
import socket
import threading
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from repro.backends import RemoteBackend, engine_stack
from repro.backends import remote as remote_module
from repro.database.query import ConjunctiveQuery
from repro.exceptions import FormParseError
from repro.web.httpd import DatabaseEndpoint, HiddenDatabaseHTTPServer, _Handler
from repro.web.jsoncodec import batch_request_to_dict, response_to_dict, schema_to_dict


@pytest.fixture()
def served(small_vehicles_table):
    return engine_stack(small_vehicles_table, k=50, display_columns=("title",), statistics=False)


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


class TestThreadedHandlerWrites:
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
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
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
