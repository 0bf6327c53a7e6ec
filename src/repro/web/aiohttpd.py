"""The event-loop HTTP front end: thousands of in-flight requests, one thread.

:class:`repro.web.httpd.HiddenDatabaseHTTPServer` spends one thread per
connection — honest engineering for hundreds of clients, a hard ceiling for
the ROADMAP's "heavy traffic from millions of users": ten thousand mostly-idle
keep-alive connections would cost ten thousand stacks and a scheduler drowning
in context switches.  :class:`AsyncHiddenDatabaseHTTPServer` serves the same
endpoint from **one** event-loop thread: connections are coroutines (an idle
keep-alive connection costs a parked task, not a stack), and backend work is
dispatched to a small bounded :class:`~concurrent.futures.ThreadPoolExecutor`
so the synchronous backend stack — every layer, breaker and history stripe —
runs unchanged beneath it.

The semantic half of the endpoint is shared, not reimplemented: this class
subclasses :class:`repro.web.httpd.DatabaseEndpoint`, so the four API routes
(``/api/schema``, ``/api/submit``, ``/api/submit_batch``, ``/api/health``),
the HTML dialect, the fault-to-status mapping, deadline shedding
(``X-Repro-Deadline-Ms``), the gzip negotiation of :mod:`repro.web.compress`
and the request counters are byte-for-byte the threaded server's.  The wire
tests point both front ends at one catalogue and assert identical answers.

What is intentionally *not* here: HTTP pipelining (requests on one connection
are answered in order; the remote client never pipelines), chunked transfer
encoding (every payload knows its length), and TLS (this repo's deployments
terminate TLS in front, as the paper's Apache did).

Only the standard library is used (:mod:`asyncio`), so the async tier runs
wherever the rest of the reproduction does.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from http.client import responses as _STATUS_REASONS
from socket import IPPROTO_TCP, TCP_NODELAY
from urllib.parse import urlsplit

from repro.exceptions import (
    ConfigurationError,
    FormParseError,
    PageNotFoundError,
    ReproError,
    TransientBackendError,
)
from repro.web.compress import accepts_gzip, maybe_compress
from repro.web.httpd import (
    API_HEALTH_PATH,
    API_SCHEMA_PATH,
    API_SUBMIT_BATCH_PATH,
    API_SUBMIT_PATH,
    DEADLINE_HEADER,
    DEFAULT_COMPRESS_THRESHOLD,
    DEFAULT_REQUEST_TIMEOUT,
    MAX_BATCH_BODY_BYTES,
    DatabaseEndpoint,
    fault_headers,
)
from repro.web.jsoncodec import error_to_payload

#: Caps on the request head, mirroring ``http.server``'s own limits: a peer
#: that streams an unbounded request line or header block is malformed, not
#: patient.
_MAX_LINE_BYTES = 65536
_MAX_HEADER_COUNT = 100


class _BadRequest(Exception):
    """An unparseable request head — answered 400, then the connection closes.

    Internal to this module (never crosses its boundary, so it deliberately
    sits outside the public exception taxonomy): by the time the head failed
    to parse there is no trustworthy framing left on the stream, which is a
    *connection*-level condition the routing layer's typed errors do not
    model.
    """


class AsyncHiddenDatabaseHTTPServer(DatabaseEndpoint):
    """Serve one hidden-database backend from an asyncio event loop.

    The constructor only records configuration; :meth:`start` binds the
    socket, spawns the loop thread and returns once :attr:`url` is live
    (symmetric with the threaded server's context-manager contract)::

        with AsyncHiddenDatabaseHTTPServer(stack) as server:
            backend = RemoteBackend(server.url)
            ...

    ``backend_workers`` bounds the executor that runs synchronous backend
    work on behalf of the loop — the admission valve between "thousands of
    parked connections" and "a sync stack sized for tens of concurrent
    submissions".  Requests beyond it queue in the executor, which is
    exactly the backpressure a bounded serving tier wants.  ``batch_workers``
    (inherited) additionally fans out the *items* of one batch envelope.
    ``request_timeout`` bounds how long a connection may sit idle (or stall
    mid-request) before its task is reclaimed — the event-loop analogue of
    the threaded server's per-connection socket timeout.
    """

    def __init__(
        self,
        backend: object,
        host: str = "127.0.0.1",
        port: int = 0,
        serve_pages: bool = True,
        batch_workers: int = 8,
        backend_workers: int = 8,
        compress_threshold: int | None = DEFAULT_COMPRESS_THRESHOLD,
        request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        if backend_workers < 1:
            raise ConfigurationError("backend_workers must be at least 1")
        super().__init__(
            backend,
            serve_pages=serve_pages,
            batch_workers=batch_workers,
            compress_threshold=compress_threshold,
            request_timeout=request_timeout,
        )
        self._host = host
        self._port = port
        self.backend_workers = backend_workers
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._bound: tuple[str, int] | None = None
        self._startup_error: BaseException | None = None

    # -- lifecycle --------------------------------------------------------------

    @property
    def url(self) -> str:
        """Base URL of the endpoint; available once :meth:`start` returned."""
        if self._bound is None:
            raise ConfigurationError("the async server has not been started yet")
        host, port = self._bound
        return f"http://{host}:{port}"

    def start(self) -> "AsyncHiddenDatabaseHTTPServer":
        """Bind and serve on a background event-loop thread; returns self."""
        if self._thread is not None:
            return self
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, args=(started,), name="hidden-db-aiohttpd", daemon=True
        )
        self._thread.start()
        started.wait(timeout=30)
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join(timeout=5)
            self._thread = None
            if isinstance(error, ReproError):
                raise error
            raise TransientBackendError(
                f"async server failed to start: {type(error).__name__}: {error}"
            ) from error
        if self._bound is None:
            raise TransientBackendError("async server failed to start within 30s")
        return self

    def _run_loop(self, started: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server: asyncio.base_events.Server | None = None
        try:
            try:
                server = loop.run_until_complete(
                    asyncio.start_server(self._handle_connection, self._host, self._port)
                )
                sockname = server.sockets[0].getsockname()
                self._bound = (sockname[0], sockname[1])
            except BaseException as error:  # reprolint: disable=R3 — re-raised to start() on the spawning thread, where it surfaces typed
                self._startup_error = error
                return
            finally:
                started.set()
            loop.run_forever()
        finally:
            if server is not None:
                server.close()
                loop.run_until_complete(server.wait_closed())
            # Cancel whatever connection tasks are still parked so the loop
            # closes cleanly instead of warning about destroyed tasks.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
            loop.close()

    def stop(self) -> None:
        """Stop serving, release the socket, and shut the worker pools down."""
        loop, self._loop = self._loop, None
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        self.close_pools()
        self._bound = None

    def __enter__(self) -> "AsyncHiddenDatabaseHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _backend_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.backend_workers,
                    thread_name_prefix="aiohttpd-backend",
                )
            return self._executor

    # -- connection handling (event-loop side) ----------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            # Responses leave as one write, but the client's ACK behaviour
            # still benefits; matches the threaded handler's setting.
            sock.setsockopt(IPPROTO_TCP, TCP_NODELAY, 1)
        try:
            while True:
                keep_alive = await self._handle_one_request(reader, writer)
                if not keep_alive:
                    break
        except (asyncio.TimeoutError, TimeoutError):
            pass  # idle or stalled past request_timeout: reclaim the task
        except asyncio.CancelledError:
            pass  # server shutting down: close the connection and finish cleanly
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # peer went away; nobody left to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _read_line(self, reader: asyncio.StreamReader) -> bytes:
        line = await self._with_timeout(reader.readline())
        if len(line) > _MAX_LINE_BYTES:
            raise _BadRequest("request line or header exceeds the line limit")
        return line

    def _with_timeout(self, awaitable):
        if self.request_timeout is None:
            return awaitable
        return asyncio.wait_for(awaitable, timeout=self.request_timeout)

    async def _handle_one_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read, dispatch and answer one request; True to keep the connection."""
        request_line = await self._read_line(reader)
        if not request_line:
            return False  # clean EOF between requests
        try:
            method, target, version = self._parse_request_line(request_line)
            headers = await self._read_headers(reader)
        except _BadRequest as error:
            # No trustworthy framing left on the stream: answer and close.
            await self._write_response(
                writer, 400,
                json.dumps({"error": "bad_request", "message": str(error)}).encode("utf-8"),
                "application/json", {}, accept_gzip=False, close=True,
            )
            return False

        http11 = version == "HTTP/1.1"
        connection_header = headers.get("connection", "").lower()
        keep_alive = (http11 and "close" not in connection_header) or (
            not http11 and "keep-alive" in connection_header
        )

        body, body_error = b"", None
        length_header = headers.get("content-length", "0" if method != "POST" else None)
        try:
            length = int(length_header) if length_header is not None else 0
        except ValueError:
            length, body_error = 0, FormParseError("unreadable Content-Length header")
        if body_error is None and length > MAX_BATCH_BODY_BYTES:
            # Refusing to even read the body means the stream is desynced —
            # close after answering, exactly like the threaded handler.
            body_error = FormParseError(
                f"batch request body of {length} bytes exceeds the "
                f"{MAX_BATCH_BODY_BYTES}-byte limit"
            )
        if body_error is not None:
            status, payload = error_to_payload(body_error)
            await self._write_response(
                writer, status, json.dumps(payload).encode("utf-8"),
                "application/json", {}, accepts_gzip(headers.get("accept-encoding")),
                close=True,
            )
            return False
        if length > 0:
            body = await self._with_timeout(reader.readexactly(length))

        status, payload_bytes, content_type, extra = await self._dispatch(
            method, target, headers, body
        )
        await self._write_response(
            writer, status, payload_bytes, content_type, extra,
            accepts_gzip(headers.get("accept-encoding")), close=not keep_alive,
        )
        return keep_alive

    @staticmethod
    def _parse_request_line(line: bytes) -> tuple[str, str, str]:
        try:
            decoded = line.rstrip(b"\r\n").decode("latin-1")
            method, target, version = decoded.split(" ", 2)
        except ValueError:
            raise _BadRequest(f"malformed request line: {line[:80]!r}") from None
        if not version.startswith("HTTP/1."):
            raise _BadRequest(f"unsupported protocol version {version!r}")
        return method.upper(), target, version

    async def _read_headers(self, reader: asyncio.StreamReader) -> dict[str, str]:
        """The request headers, lower-cased; later duplicates win (none matter)."""
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_COUNT + 1):
            line = await self._read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(f"malformed header line: {line[:80]!r}")
            headers[name.strip().lower()] = value.strip()
        raise _BadRequest("too many request headers")

    # -- routing (backend work runs on the bounded executor) --------------------

    async def _dispatch(
        self, method: str, target: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, bytes, str, dict]:
        """Resolve one request to ``(status, body, content_type, headers)``.

        Everything that touches the backend — including JSON decoding of
        batch envelopes, which is real CPU work for large batches — runs on
        the bounded backend executor, keeping the event loop free to shepherd
        the thousands of other connections this front end exists for.
        """
        split = urlsplit(target)
        extra: dict = {}
        try:
            deadline = self.deadline_from_wire(headers.get(DEADLINE_HEADER.lower()))
            work = self._resolve_route(method, split.path, split.query, body, headers, deadline)
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(self._backend_executor(), work)
            if isinstance(result, tuple):  # health: (status, payload)
                status, payload = result
                extra.update(fault_headers(status, payload))
            elif isinstance(result, str):  # HTML dialect
                return 200, result.encode("utf-8"), "text/html; charset=utf-8", extra
            else:
                status, payload = 200, result
        except ReproError as error:
            status, payload = error_to_payload(error)
            extra.update(fault_headers(status, payload))
        except Exception as error:  # reprolint: disable=R3 — the same last-resort 500 as the threaded handlers: an untyped fault must come back as a status line, never a dropped connection
            status, payload = error_to_payload(error)
        return status, json.dumps(payload).encode("utf-8"), "application/json", extra

    def _resolve_route(
        self,
        method: str,
        path: str,
        query: str,
        body: bytes,
        headers: dict[str, str],
        deadline,
    ):
        """The zero-argument callable the executor runs for this route."""
        if method == "GET":
            if path == API_SCHEMA_PATH:
                return self.schema_payload
            if path == API_HEALTH_PATH:
                return self.health_payload
            if path == API_SUBMIT_PATH:
                return partial(self.submit_payload, query, deadline)
            full_path = path if not query else f"{path}?{query}"
            return partial(self.page, full_path)
        if method == "POST" and path == API_SUBMIT_BATCH_PATH:
            if not body:
                raise FormParseError("batch request carries no body")
            encoding = headers.get("content-encoding")

            def run_batch() -> dict:
                return self.submit_batch_payload(
                    self.decode_json_body(body, encoding), deadline
                )

            return run_batch
        raise PageNotFoundError(path)

    # -- response writing --------------------------------------------------------

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: dict,
        accept_gzip: bool,
        close: bool,
    ) -> None:
        self.count_request(status)
        if content_type == "application/json" and accept_gzip:
            body, encoding = maybe_compress(body, self.compress_threshold)
            if encoding is not None:
                extra_headers["Content-Encoding"] = encoding
                self.count_compressed_response()
        reason = _STATUS_REASONS.get(status, "")
        head_lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        head_lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
        if close:
            head_lines.append("Connection: close")
        head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await self._with_timeout(writer.drain())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.url if self._bound is not None else "unstarted"
        return f"AsyncHiddenDatabaseHTTPServer({where})"

