"""Malformed answers never escape the remote client as untyped errors.

A 200 body that parses as JSON but lacks fields (or holds the wrong types)
must not escape the remote client as a bare ``KeyError``/``TypeError``: the
sampler's fault handling only knows the library's own vocabulary.  Likewise
a retry hint no one could sleep on (``Retry-After: inf``, ``1e12`` seconds)
is ignored rather than handed to ``time.sleep``, which would raise
``OverflowError``.  A stub endpoint serves a correct schema, then any queued
fault answers, then whatever body the test sets for ``/api/submit``.
"""

import copy
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.backends import QueryEngineBackend, RemoteBackend, remote_stack
from repro.database.query import ConjunctiveQuery
from repro.exceptions import FormParseError, RateLimitedError, TransientBackendError
from repro.web.jsoncodec import (
    WIRE_VERSION,
    error_from_payload,
    response_from_dict,
    response_to_dict,
    schema_to_dict,
)


class _StubEndpoint:
    """A loopback JSON endpoint answering ``/api/submit`` with a settable body.

    ``faults`` queues ``(status, headers, payload)`` answers that
    ``/api/submit`` serves first, one per request.
    """

    def __init__(self, schema_payload):
        stub = self
        self.submit_body = {}
        self.faults = []

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):  # noqa: N802 - http.server naming
                status, headers = 200, {}
                if self.path.startswith("/api/schema"):
                    payload = schema_payload
                elif stub.faults:
                    status, headers, payload = stub.faults.pop(0)
                else:
                    payload = stub.submit_body
                body = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in headers.items():
                    self.send_header(name, value)
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
    del no_values["rows"][0][1]
    null_rows = _good_body(backend)
    null_rows["rows"] = None
    short_row = _good_body(backend)
    short_row["rows"][0][1].pop()
    bad_count = _good_body(backend)
    bad_count["reported_count"] = "many"
    return [
        ("version-only", {"version": WIRE_VERSION}),
        ("row-without-values", no_values),
        ("null-rows", null_rows),
        ("short-row", short_row),
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


def test_client_raises_formparseerror_on_half_shaped_answers(endpoint, backend):
    query = ConjunctiveQuery.empty(backend.schema)
    with RemoteBackend(endpoint.url, timeout=5) as client:
        endpoint.submit_body = _good_body(backend)
        assert client.submit(query) == backend.submit(query)
        for _, body in _half_shaped_bodies(backend):
            endpoint.submit_body = body
            with pytest.raises(FormParseError, match="malformed"):
                client.submit(query)


class TestUnusableRetryHints:
    @pytest.mark.parametrize(
        "hint",
        [float("inf"), 1e12, float("nan"), 10**400, "Infinity", -1],
        ids=["inf", "1e12", "nan", "huge-int", "Infinity-text", "negative"],
    )
    def test_payload_hint_that_cannot_be_slept_on_is_absent(self, hint):
        error = error_from_payload(503, {"error": "transient", "retry_after": hint})
        assert isinstance(error, TransientBackendError)
        assert error.retry_after is None
        throttled = error_from_payload(429, {"retry_after": hint})
        assert isinstance(throttled, RateLimitedError)
        assert throttled.retry_after is None

    def test_unusable_payload_hint_falls_back_to_the_header(self):
        error = error_from_payload(503, {"retry_after": float("inf")}, retry_after=0.5)
        assert error.retry_after == 0.5

    @pytest.mark.parametrize(
        "headers, payload",
        [
            ({"Retry-After": "inf"}, {"error": "transient", "message": "busy"}),
            ({"Retry-After": "1e12"}, {"error": "transient", "message": "busy"}),
            ({}, {"error": "transient", "message": "busy", "retry_after": float("inf")}),
        ],
        ids=["header-inf", "header-1e12", "payload-Infinity"],
    )
    def test_retry_layer_survives_an_unsleepable_hint(self, endpoint, backend, headers, payload):
        query = ConjunctiveQuery.empty(backend.schema)
        endpoint.submit_body = _good_body(backend)
        endpoint.faults.append((503, headers, payload))
        stack = remote_stack(endpoint.url, retry_backoff=0.0)
        try:
            assert stack.submit(query) == backend.submit(query)
        finally:
            stack.raw.close()
