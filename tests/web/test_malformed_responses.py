"""Half-shaped single-submit answers surface as typed ``FormParseError``s.

A 200 body that parses as JSON but lacks fields (or holds the wrong types)
must not escape the remote clients as a bare ``KeyError``/``TypeError``: the
sampler's fault handling only knows the library's own vocabulary.  A stub
endpoint serves a correct schema, then whatever body the test sets for
``/api/submit``.
"""

import copy
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.backends import AsyncRemoteBackend, QueryEngineBackend, RemoteBackend
from repro.database.query import ConjunctiveQuery
from repro.exceptions import FormParseError
from repro.web.jsoncodec import WIRE_VERSION, response_from_dict, response_to_dict, schema_to_dict


class _StubEndpoint:
    """A loopback JSON endpoint answering ``/api/submit`` with a settable body."""

    def __init__(self, schema_payload):
        stub = self
        self.submit_body = {}

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):  # noqa: N802 - http.server naming
                payload = schema_payload if self.path.startswith("/api/schema") else stub.submit_body
                body = json.dumps(payload).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
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

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)


@pytest.fixture()
def backend(tiny_table):
    return QueryEngineBackend(tiny_table, k=2)


@pytest.fixture()
def endpoint(backend):
    stub = _StubEndpoint(schema_to_dict(backend.schema, backend.k))
    yield stub
    stub.close()


def _good_body(backend):
    return response_to_dict(backend.submit(ConjunctiveQuery.empty(backend.schema)))


def _half_shaped_bodies(backend):
    """``(label, body)`` pairs: each a 200 JSON object missing or mis-typing a field."""
    no_values = _good_body(backend)
    del no_values["tuples"][0]["values"]
    null_tuples = _good_body(backend)
    null_tuples["tuples"] = None
    bad_count = _good_body(backend)
    bad_count["reported_count"] = "many"
    return [
        ("version-only", {"version": WIRE_VERSION}),
        ("tuple-without-values", no_values),
        ("null-tuples", null_tuples),
        ("unparseable-count", bad_count),
    ]


class TestResponseFromDict:
    def test_half_shaped_payloads_raise_formparseerror(self, backend):
        for _, body in _half_shaped_bodies(backend):
            with pytest.raises(FormParseError, match="malformed"):
                response_from_dict(backend.schema, body)
        with pytest.raises(FormParseError, match="malformed"):
            response_from_dict(backend.schema, None)

    def test_a_whole_payload_still_decodes(self, backend):
        response = backend.submit(ConjunctiveQuery.empty(backend.schema))
        assert response_from_dict(backend.schema, copy.deepcopy(response_to_dict(response))) == response


@pytest.mark.parametrize("client_class", [RemoteBackend, AsyncRemoteBackend])
def test_both_clients_raise_formparseerror_on_half_shaped_answers(
    endpoint, backend, client_class
):
    query = ConjunctiveQuery.empty(backend.schema)
    with client_class(endpoint.url, timeout=5) as client:
        endpoint.submit_body = _good_body(backend)
        assert client.submit(query) == backend.submit(query)
        for _, body in _half_shaped_bodies(backend):
            endpoint.submit_body = body
            with pytest.raises(FormParseError, match="malformed"):
                client.submit(query)
