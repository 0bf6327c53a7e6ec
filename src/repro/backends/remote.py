"""The remote HTTP access path: the raw backend contract over a real socket.

:class:`RemoteBackend` is the client half of :mod:`repro.web.httpd`: it
learns the searchable schema and top-``k`` from ``GET /api/schema`` at
construction, then answers every ``submit`` with one
``GET /api/submit?<query string>`` round-trip — the query travels in the
ordinary :mod:`repro.web.urlcodec` form encoding, the response comes back as
the :mod:`repro.web.jsoncodec` JSON payload — and every ``submit_outcomes``
with one ``POST /api/submit_batch`` carrying the whole batch.

The paper's entire cost model is round-trips to the hidden database, so the
transport is built not to waste any:

* **Connection pooling.**  Requests travel over a small thread-safe pool of
  persistent HTTP/1.1 ``http.client.HTTPConnection`` objects (keep-alive)
  instead of a fresh TCP connect per query.  The pool is bounded
  (``pool_size`` kept-alive connections; bursts beyond it open extra
  connections that are closed, not pooled, on release), and a connection
  that went stale while idle — the server timed it out or restarted — is
  detected on reuse and replaced with **one** transparent reconnect before
  the usual :class:`~repro.exceptions.TransientBackendError` translation
  applies.  :attr:`pool_statistics` counts opened / reused / stale
  connections so benchmarks and tests can see the reuse rate.
* **Batched wire submits.**  ``submit_outcomes`` ships N queries in one
  POST; the server answers each item with its own status
  (:func:`repro.web.jsoncodec.batch_response_from_dict`), so one 429 or
  exhausted budget fails only its item.  The per-item outcomes come back
  as responses and exception objects, which is what lets
  :class:`~repro.backends.layers.UnreliableLayer` retry just the failed
  items instead of re-paying the whole batch.

Like every raw backend it does **no** accounting, no caching, no retrying —
it reports exactly what the server said.  What it adds to the raw contract
is honest *fault translation* (shared with the server in
:func:`repro.web.jsoncodec.error_from_payload`): an HTTP 429 is raised as
:class:`~repro.exceptions.RateLimitedError`, a 5xx (and any socket-level
failure) as :class:`~repro.exceptions.TransientBackendError`, a 403 carrying
a budget payload as :class:`~repro.exceptions.QueryBudgetExceededError`, a
401/403 *without* one as :class:`~repro.exceptions.BackendAuthError` (so
retry layers neither retry it nor misread it as a parse failure), and a 400
as :class:`~repro.exceptions.FormParseError`.  Stack an
:class:`~repro.backends.layers.UnreliableLayer` above it (what
:func:`~repro.backends.stack.remote_stack` does) and real network faults
self-heal through the very retry loop the chaos tests exercise.

Only the Python standard library is used (``http.client``), so the remote
path works wherever the rest of the reproduction does.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from typing import Sequence
from urllib.parse import urlsplit

from repro._rng import resolve_rng, stable_hash
from repro.backends.resilience import DEADLINE_HEADER, backoff_delay, current_deadline
from repro.database.interface import InterfaceResponse
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Schema
from repro.exceptions import (
    ConfigurationError,
    ConnectionDroppedError,
    DeadlineExceededError,
    FormParseError,
    TransientBackendError,
)
from repro.web.compress import (
    DEFAULT_COMPRESS_THRESHOLD,
    GZIP_ENCODING,
    CompressionCounters,
    decompress,
    maybe_compress,
)
from repro.web.httpd import (
    API_HEALTH_PATH,
    API_SCHEMA_PATH,
    API_SUBMIT_BATCH_PATH,
    API_SUBMIT_PATH,
)
from repro.web.jsoncodec import (
    batch_request_to_dict,
    batch_response_from_dict,
    error_from_payload,
    response_from_dict,
    retry_after_seconds,
    schema_from_dict,
)
from repro.web.urlcodec import encode_query

#: Default bound on kept-alive connections per backend: enough for the
#: dispatch pools this repo runs (4–8 workers) without hoarding sockets.
DEFAULT_POOL_SIZE = 8

#: Ceiling on the construction-time connect backoff, seconds.  Without a cap
#: the exponential curve reaches minutes within a dozen attempts — far past
#: the point where waiting longer tells us anything new about the server.
MAX_CONNECT_BACKOFF = 2.0

#: Ceiling on a response body, bytes: as sent, and for a compressed body
#: also once inflated.  Batch answers legitimately dwarf their requests
#: (every item carries up to ``k`` tuples), so this is generous — its job is
#: only to keep a corrupt or hostile stream from exhausting client memory.
MAX_RESPONSE_BYTES = 128 * 1024 * 1024


def _read_capped(response: http.client.HTTPResponse) -> bytes | None:
    """The response body, or ``None`` when it exceeds :data:`MAX_RESPONSE_BYTES`.

    A declared ``Content-Length`` above the cap is refused before any body
    byte is read; a body of unknown length is read to at most one byte past
    the cap.  A body shorter than its ``Content-Length`` still raises
    ``IncompleteRead``.
    """
    if response.length is not None:
        return response.read() if response.length <= MAX_RESPONSE_BYTES else None
    body = response.read(MAX_RESPONSE_BYTES + 1)
    return body if len(body) <= MAX_RESPONSE_BYTES else None


class _PooledConnection:
    """One pooled connection plus the flag stale-detection hinges on."""

    __slots__ = ("raw", "reused")

    def __init__(self, raw: http.client.HTTPConnection, reused: bool) -> None:
        self.raw = raw
        #: True when the connection already served a request and sat idle in
        #: the pool — the only case where a send/recv failure may mean
        #: "server dropped the idle keep-alive" rather than "server is down",
        #: and therefore the only case that earns a transparent reconnect.
        self.reused = reused


class _ConnectionPool:
    """A small thread-safe pool of persistent HTTP connections.

    ``size`` bounds how many idle connections are *kept*; concurrent bursts
    beyond it still get a (fresh) connection, which is closed instead of
    pooled on release — the pool never blocks a worker thread waiting for a
    socket.  ``size=0`` disables keep-alive entirely: every request opens and
    closes its own connection (the per-connect baseline the dispatch
    benchmark measures pooling against).
    """

    #: Machine-checked by reprolint R1 (guarded-state): the idle list and the
    #: reuse counters are only mutated while ``_lock`` is held.
    _guarded_by = {
        "_idle": "_lock",
        "opened": "_lock",
        "reused": "_lock",
        "stale_reconnects": "_lock",
    }

    def __init__(self, scheme: str, host: str, port: int, timeout: float, size: int) -> None:
        if size < 0:
            raise ConfigurationError("pool_size must be non-negative")
        self._scheme = scheme
        self._host = host
        self._port = port
        self._timeout = timeout
        self.size = size
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        self.opened = 0
        self.reused = 0
        self.stale_reconnects = 0

    def acquire(self) -> _PooledConnection:
        """An idle kept-alive connection when one exists, else a fresh one."""
        with self._lock:
            if self._idle:
                self.reused += 1
                return _PooledConnection(self._idle.pop(), reused=True)
            self.opened += 1
        if self._scheme == "https":
            raw: http.client.HTTPConnection = http.client.HTTPSConnection(
                self._host, self._port, timeout=self._timeout
            )
        else:
            raw = http.client.HTTPConnection(self._host, self._port, timeout=self._timeout)
        try:
            raw.connect()
            # Batch POSTs leave http.client as separate header/body writes;
            # without TCP_NODELAY each one can stall behind the server's
            # delayed ACK, wiping out exactly the latency pooling buys back.
            raw.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as error:
            raw.close()
            raise TransientBackendError(f"remote backend unreachable: {error}") from error
        return _PooledConnection(raw, reused=False)

    def release(self, connection: _PooledConnection, reusable: bool) -> None:
        """Return a connection to the pool, or close it when it cannot serve
        another request (server said ``Connection: close``, pool full, or
        keep-alive is disabled)."""
        if reusable and self.size > 0:
            with self._lock:
                if len(self._idle) < self.size:
                    self._idle.append(connection.raw)
                    return
        connection.raw.close()

    def discard(self, connection: _PooledConnection, stale: bool) -> None:
        """Close a connection that failed mid-request."""
        if stale:
            with self._lock:
                self.stale_reconnects += 1
        connection.raw.close()

    def close(self) -> None:
        """Close every idle connection (the pool stays usable)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for raw in idle:
            raw.close()

    def statistics(self) -> dict[str, int]:
        """Plain-dict reuse counters for benchmarks and tests."""
        with self._lock:
            return {
                "opened": self.opened,
                "reused": self.reused,
                "stale_reconnects": self.stale_reconnects,
                "idle": len(self._idle),
            }


class RemoteBackend:
    """Answer conjunctive queries by calling a remote HTTP endpoint.

    ``base_url`` is the endpoint root (e.g. ``http://127.0.0.1:8080``);
    ``timeout`` is the per-request socket timeout in seconds (positive); ``pool_size``
    bounds the kept-alive connection pool (0 disables keep-alive — one
    connect per request).  The constructor performs one round-trip to fetch
    the schema, so a dead or unreachable endpoint fails fast with a
    :class:`~repro.exceptions.TransientBackendError` instead of on the first
    sample; ``connect_retries`` > 0 instead re-attempts that first fetch with
    the same exponential ``connect_backoff`` policy the retry layer uses — the
    right setting when a whole stack should survive a server that is
    momentarily 503 at construction time (what
    :func:`~repro.backends.stack.remote_stack` configures).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        pool_size: int = DEFAULT_POOL_SIZE,
        connect_retries: int = 0,
        connect_backoff: float = 0.05,
        compress_threshold: int | None = DEFAULT_COMPRESS_THRESHOLD,
    ) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise ConfigurationError(f"base_url must be an http(s) URL, got {base_url!r}")
        if timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        if connect_retries < 0:
            raise ConfigurationError("connect_retries must be non-negative")
        if connect_backoff < 0:
            raise ConfigurationError("connect_backoff must be non-negative")
        if compress_threshold is not None and compress_threshold < 0:
            raise ConfigurationError("compress_threshold must be non-negative when given")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: Request bodies at or above this many bytes are gzip-compressed on
        #: the wire (``None`` disables request compression); responses are
        #: negotiated via ``Accept-Encoding`` regardless, and
        #: :attr:`compression_statistics` counts both directions.
        self.compress_threshold = compress_threshold
        self._compression = CompressionCounters()
        split = urlsplit(self.base_url)
        #: A base URL may carry a path (a reverse proxy mounting the endpoint
        #: under a prefix); every request path is joined onto it.
        self._path_prefix = split.path.rstrip("/")
        default_port = 443 if split.scheme == "https" else 80
        self._pool = _ConnectionPool(
            split.scheme,
            split.hostname or "",
            split.port or default_port,
            timeout,
            pool_size,
        )
        # Jitter for the connect backoff: deterministic (R4) but seeded per
        # endpoint, so a fleet of clients hammering one restarting server
        # desynchronises instead of re-arriving in lockstep.
        self._backoff_rng = resolve_rng(stable_hash(self.base_url) & 0x7FFFFFFF)
        self._schema, self._k = schema_from_dict(
            self._fetch_schema(connect_retries, connect_backoff)
        )

    # -- RawBackend contract -------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The searchable schema advertised by the remote endpoint."""
        return self._schema

    @property
    def k(self) -> int:
        """Top-``k`` display limit advertised by the remote endpoint."""
        return self._k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Answer ``query`` with one HTTP round-trip; faults raise typed errors."""
        encoded = encode_query(query)
        path = f"{API_SUBMIT_PATH}?{encoded}" if encoded else API_SUBMIT_PATH
        return response_from_dict(self._schema, self._request_json("GET", path))

    def submit_outcomes(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> list[InterfaceResponse | Exception]:
        """Answer a whole batch with one ``POST`` round-trip, in input order.

        Each item is either the decoded :class:`InterfaceResponse` or the
        typed exception its per-item wire status maps to — one rate-limited
        item never costs its siblings their answers.  A fault of the
        round-trip itself raises, as :meth:`submit` does.
        """
        queries = list(queries)
        if not queries:
            return []
        body = json.dumps(batch_request_to_dict(queries)).encode("utf-8")
        payload = self._request_json("POST", API_SUBMIT_BATCH_PATH, body=body)
        outcomes = batch_response_from_dict(self._schema, payload)
        if len(outcomes) != len(queries):
            raise FormParseError(
                f"remote backend answered {len(outcomes)} items for a batch of "
                f"{len(queries)} queries"
            )
        return outcomes

    def health(self) -> dict:
        """One ``GET /api/health`` probe; the decoded report on success.

        A degraded server (some circuit in its served chain is open) answers
        503, which raises :class:`~repro.exceptions.TransientBackendError`
        carrying the server's ``Retry-After`` hint — exactly the signal
        :class:`~repro.backends.resilience.FailoverRouter.check_health` feeds
        into its per-target breakers.  An unreachable server raises the same
        way a failed submit would.
        """
        return self._request_json("GET", API_HEALTH_PATH)

    @property
    def pool_statistics(self) -> dict[str, int]:
        """Connection-reuse counters (opened / reused / stale_reconnects / idle)."""
        return self._pool.statistics()

    @property
    def compression_statistics(self) -> dict[str, int]:
        """Wire-compression counters (requests_compressed / responses_decompressed)."""
        return self._compression.statistics()

    def close(self) -> None:
        """Close every idle pooled connection (the backend stays usable)."""
        self._pool.close()

    def __enter__(self) -> "RemoteBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ------------------------------------------------------------

    def _fetch_schema(self, connect_retries: int, connect_backoff: float) -> dict:
        """The construction-time schema fetch, optionally retried.

        Only :class:`TransientBackendError` (unreachable, 5xx, dropped
        connection) earns a re-attempt — an auth rejection or a parse failure
        is just as permanent at construction time as later.
        """
        for attempt in range(connect_retries + 1):
            try:
                return self._request_json("GET", API_SCHEMA_PATH)
            except TransientBackendError:
                if attempt == connect_retries:
                    raise
                delay = backoff_delay(
                    connect_backoff,
                    attempt,
                    max_backoff=MAX_CONNECT_BACKOFF,
                    rng=self._backoff_rng,
                )
                if delay > 0.0:
                    time.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_json(self, method: str, path: str, body: bytes | None = None) -> dict:
        """One pooled round-trip, JSON-decoded; faults raise typed errors."""
        status, raw_body, retry_after = self._request(method, path, body)
        if status >= 400:
            # A fault status translates by status even when the body is not
            # ours (a proxy's HTML 502 page must stay transient, not morph
            # into a parse error).
            try:
                payload = json.loads(raw_body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                payload = {}
            raise error_from_payload(
                status, payload if isinstance(payload, dict) else {}, retry_after
            )
        try:
            payload = json.loads(raw_body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise FormParseError(
                f"remote backend returned a malformed payload: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise FormParseError(
                f"remote backend answered with a JSON {type(payload).__name__}, "
                "expected an object"
            )
        return payload

    #: Failure shapes that, on a *reused* keep-alive connection, prove the
    #: server closed the idle socket before producing any response — the only
    #: failures safe to re-send transparently.  A timeout or a mid-response
    #: error (``IncompleteRead``) may mean the server already *executed* the
    #: request (charging budgets, burning rate-limit slots), so re-sending
    #: would silently double-submit; those surface to the retry layer, whose
    #: re-attempts are visible in its statistics.
    _STALE_ERRORS = (
        http.client.RemoteDisconnected,
        http.client.BadStatusLine,
        ConnectionResetError,
        ConnectionAbortedError,
        BrokenPipeError,
    )

    def _request(
        self, method: str, path: str, body: bytes | None
    ) -> tuple[int, bytes, float | None]:
        """Send one request over a pooled connection.

        Returns ``(status, body, retry_after)`` — the last being the parsed
        ``Retry-After`` header (seconds) when the server sent one.

        A *reused* keep-alive connection may have been closed server-side
        while idle; a failure proving no response was ever produced (see
        :data:`_STALE_ERRORS`) is retried on a fresh connection before
        surfacing as :class:`~repro.exceptions.ConnectionDroppedError`.

        When the caller runs under a deadline scope, the remaining budget is
        enforced at the transport: an already-expired deadline raises before
        any byte is sent, the remaining milliseconds travel in the
        ``X-Repro-Deadline-Ms`` header so the server can shed expired work,
        and the socket timeout is clipped so this client never blocks on a
        read longer than the budget allows.
        """
        headers = {"Accept": "application/json", "Accept-Encoding": GZIP_ENCODING}
        if body is not None:
            headers["Content-Type"] = "application/json"
            body, encoding = maybe_compress(body, self.compress_threshold)
            if encoding is not None:
                headers["Content-Encoding"] = encoding
                self._compression.count_request()
        deadline = current_deadline()
        if deadline is not None:
            if deadline.expired:
                raise DeadlineExceededError("remote request", remaining_ms=0)
            headers[DEADLINE_HEADER] = str(deadline.remaining_ms())
        target = self._path_prefix + path
        while True:
            connection = self._pool.acquire()
            if deadline is not None and connection.raw.sock is not None:
                # Never block on the socket past the budget: the tighter of
                # the configured timeout and the remaining deadline wins.
                connection.raw.sock.settimeout(deadline.clip(self.timeout))
            try:
                connection.raw.request(method, target, body=body, headers=headers)
                response = connection.raw.getresponse()
                raw_body = _read_capped(response)
            except (http.client.HTTPException, OSError) as error:
                stale = connection.reused and isinstance(error, self._STALE_ERRORS)
                self._pool.discard(connection, stale=stale)
                if stale:
                    # The idle keep-alive went away under us; one transparent
                    # retry on a fresh connection tells a stale socket apart
                    # from a dead server.
                    continue
                raise ConnectionDroppedError(
                    f"remote backend dropped the connection: {type(error).__name__}: {error}"
                ) from error
            if raw_body is None:
                # The rest of the oversized body is still on the socket: the
                # connection cannot carry another request.
                self._pool.discard(connection, stale=False)
                raise FormParseError(
                    f"remote backend answered with a body over the "
                    f"{MAX_RESPONSE_BYTES}-byte limit"
                )
            if deadline is not None and connection.raw.sock is not None:
                # Restore the configured timeout before the socket returns to
                # the pool — the clipped value must not leak into requests
                # running under a different (or no) deadline.
                connection.raw.sock.settimeout(self.timeout)
            self._pool.release(connection, reusable=not response.will_close)
            response_encoding = response.getheader("Content-Encoding")
            if response_encoding is not None:
                # Negotiated by our Accept-Encoding above; a decode failure
                # is a malformed payload (FormParseError), same as bad JSON.
                raw_body = decompress(raw_body, response_encoding, MAX_RESPONSE_BYTES)
                if (response_encoding or "").strip().lower() == GZIP_ENCODING:
                    self._compression.count_response()
            return response.status, raw_body, retry_after_seconds(response.getheader("Retry-After"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteBackend(base_url={self.base_url!r}, k={self._k})"
