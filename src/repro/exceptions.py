"""Exception hierarchy shared by every subpackage of :mod:`repro`.

All library-defined exceptions derive from :class:`ReproError` so callers can
catch any error raised by the reproduction with a single ``except`` clause
while still being able to discriminate the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` library."""


class SchemaError(ReproError):
    """A schema, attribute or domain definition is invalid or inconsistent."""


class UnknownAttributeError(SchemaError):
    """A query or configuration referenced an attribute the schema lacks."""

    def __init__(self, attribute: str, known: tuple[str, ...] = ()) -> None:
        self.attribute = attribute
        self.known = tuple(known)
        message = f"unknown attribute {attribute!r}"
        if self.known:
            message += f" (schema attributes: {', '.join(self.known)})"
        super().__init__(message)


class DomainValueError(SchemaError):
    """A value fell outside the declared domain of an attribute."""

    def __init__(self, attribute: str, value: object) -> None:
        self.attribute = attribute
        self.value = value
        super().__init__(f"value {value!r} is not in the domain of attribute {attribute!r}")


class QueryError(ReproError):
    """A conjunctive query is malformed (duplicate predicates, bad values...)."""


class InterfaceError(ReproError):
    """The hidden-database interface rejected or could not serve a request."""


class QueryBudgetExceededError(InterfaceError):
    """The client exhausted the per-client query budget of the interface.

    Mirrors real hidden databases that limit the number of queries issued by
    one IP address (paper, Section 1).
    """

    def __init__(self, issued: int, budget: int) -> None:
        self.issued = issued
        self.budget = budget
        super().__init__(f"query budget exhausted: issued {issued} of {budget} allowed queries")


class BackendAuthError(InterfaceError):
    """The remote endpoint rejected the client's credentials (HTTP 401/403).

    Distinct from both :class:`TransientBackendError` (retrying will not
    help — the credentials stay wrong) and :class:`FormParseError` (nothing
    was malformed): an auth-ish status without a budget payload means the
    operator must fix keys or ACLs, so retry layers pass it straight through
    and callers can tell it apart from a genuinely bad request.
    """

    def __init__(self, status: int, message: str = "") -> None:
        self.status = status
        text = f"remote backend refused authorisation (HTTP {status})"
        if message:
            text += f": {message}"
        super().__init__(text)


class TransientBackendError(InterfaceError):
    """A (possibly injected) transient fault: the request may be retried.

    The in-process analogue of a timeout or a 5xx from a real hidden
    database; raised by :class:`repro.backends.layers.UnreliableLayer`.

    ``retry_after`` — when not ``None`` — is the server's own hint (seconds)
    of when a retry is worth attempting; retry layers prefer it over their
    computed backoff.
    """

    #: Server-provided retry hint in seconds (``Retry-After``), when any.
    retry_after: float | None = None

    def __init__(self, message: str = "transient backend failure") -> None:
        super().__init__(message)


class RateLimitedError(TransientBackendError):
    """The backend (really: the chaos layer) rejected the request as too fast.

    The in-process analogue of an HTTP 429.  ``retry_after`` carries the
    server's ``Retry-After`` hint in seconds when the rejection crossed a
    wire; retry layers sleep that long instead of their computed backoff.
    """

    def __init__(self, every: int | None = None, retry_after: float | None = None) -> None:
        self.every = every
        self.retry_after = retry_after
        message = "request rejected by rate limiting"
        if every is not None:
            message += f" (every {every}th request is rejected)"
        if retry_after is not None:
            message += f" (retry after {retry_after:g}s)"
        super().__init__(message)


class ConnectionDroppedError(TransientBackendError):
    """The connection to the backend dropped mid-request.

    Raised for real by the remote transport when a socket dies without an
    answer, and injectably by the chaos layer's scripted fault schedules so
    connection-drop recovery is testable without a socket.  Retryable like
    any transient fault — but a dropped connection may or may not have been
    *executed* server-side, which is why the transport never re-sends one
    silently (see :class:`repro.backends.remote.RemoteBackend`).
    """

    def __init__(self, message: str = "connection to the backend dropped") -> None:
        super().__init__(message)


class CircuitOpenError(TransientBackendError):
    """A circuit breaker is OPEN: the call failed fast, nothing was sent.

    Raised by :class:`repro.backends.resilience.CircuitBreakerLayer` when the
    rolling failure window tripped — the wrapped backend is presumed down and
    callers fail in microseconds instead of burning threads on doomed
    round-trips.  ``retry_after`` is when the breaker will allow its next
    half-open probe; over the wire this maps to HTTP 503 plus a
    ``Retry-After`` header.  Although formally transient, retry layers pass
    it straight through: retrying an open circuit before ``retry_after`` is
    exactly the hammering the breaker exists to stop.
    """

    def __init__(self, retry_after: float | None = None, message: str = "") -> None:
        self.retry_after = retry_after
        text = message or "circuit breaker is open; failing fast without calling the backend"
        if retry_after is not None:
            text += f" (next probe in {retry_after:.3f}s)"
        super().__init__(text)


class DeadlineExceededError(InterfaceError):
    """The submission's deadline expired before (or while) it could be served.

    Deliberately *not* a :class:`TransientBackendError`: with the time budget
    spent there is nothing left to retry against, so retry layers raise it
    instead of sleeping past the deadline, and the HTTP server sheds
    already-expired work with it (503) before touching the backend.
    """

    def __init__(self, operation: str = "submission", remaining_ms: int | None = None) -> None:
        self.operation = operation
        self.remaining_ms = remaining_ms
        message = f"deadline exceeded before {operation} could complete"
        if remaining_ms is not None:
            message += f" ({remaining_ms} ms remained when it was last checked)"
        super().__init__(message)


class SamplingError(ReproError):
    """A sampler could not make progress (e.g. empty database, zero budget)."""


class SessionStateError(SamplingError):
    """An operation is invalid in the session's (or job's) current state.

    Raised e.g. when ``run()`` or ``step()`` is called on a session that has
    already completed, was stopped via the kill switch, or exhausted its
    budget, and when a job is paused or resumed from the wrong state.
    """

    def __init__(self, operation: str, state: str) -> None:
        self.operation = operation
        self.state = state
        super().__init__(f"cannot {operation} in state {state!r}")


class UnknownJobError(SamplingError):
    """A sampling service was asked about a job id it never issued."""

    def __init__(self, job_id: str, known: tuple[str, ...] = ()) -> None:
        self.job_id = job_id
        self.known = tuple(known)
        message = f"unknown job {job_id!r}"
        if self.known:
            message += f" (known jobs: {', '.join(self.known)})"
        super().__init__(message)


class UnknownBackendError(SamplingError):
    """A sampling service was asked for a backend name it is not bound to."""

    def __init__(self, backend: str, known: tuple[str, ...] = ()) -> None:
        self.backend = backend
        self.known = tuple(known)
        message = f"unknown backend {backend!r}"
        if self.known:
            message += f" (bound backends: {', '.join(self.known)})"
        super().__init__(message)


class ConfigurationError(ReproError):
    """An HDSampler configuration value is invalid or inconsistent."""


class WebFormError(ReproError):
    """The simulated web-form layer failed to render or parse a page."""


class PageNotFoundError(WebFormError):
    """The in-process hidden web site has no page at the requested path."""

    def __init__(self, path: str) -> None:
        self.path = path
        super().__init__(f"no page at path {path!r}")


class FormParseError(WebFormError):
    """An HTML page could not be parsed into a form description or result set."""
