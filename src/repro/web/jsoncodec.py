"""JSON wire format for the remote HTTP access path.

The in-process site speaks HTML because everything a *scraping* client
learns, it learns from pages.  The remote API path
(:mod:`repro.web.httpd` server, :class:`repro.backends.remote.RemoteBackend`
client) instead ships the interface vocabulary itself — schemas and
:class:`~repro.database.interface.InterfaceResponse` objects — as JSON over
a real socket.  This module is the single definition of that wire format,
imported by both ends so they cannot drift.

Queries do not need a codec of their own: a conjunctive query travels as the
URL query string of the ``/api/submit`` request, through the existing
schema-aware :mod:`repro.web.urlcodec` — the same encoding a form submission
uses, so the API server and the HTML server accept identical query strings.

All selectable and displayed values in this repo are JSON scalars (str, int,
float, bool), so values round-trip natively; the only typed work is
rebuilding :class:`~repro.database.schema.Domain` objects (bucket edges vs
value lists) and re-validating the query assignment against the schema.

An answer travels as positional rows under one header (wire version 2)::

    {"version": 2, "query": {...}, "columns": ["make", ..., "title"],
     "selectable_columns": ["make", ...],
     "rows": [[tuple_id, [value, ...], [selectable, ...]], ...],
     "overflow": false, "reported_count": 35, "k": 50}

A tuple whose displayed (or selectable) keys are not exactly the header, in
header order — a row missing a display column, say — sends that part as a
``{column: value}`` object instead of a list.  The server encodes a lazy
answer straight from its rows, building no
:class:`~repro.database.interface.ReturnedTuple`; the client checks the whole
payload eagerly, so a malformed answer raises :class:`FormParseError` from
``submit``, and then builds each tuple only when something reads it
(:class:`~repro.database.interface.WireTuples`) — most shipped tuples belong
to overflowing answers, which nothing reads.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

from repro.database.interface import InterfaceResponse, WireTuples, positional_rows
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Attribute, AttributeKind, Domain, NumericBucket, Schema
from repro.exceptions import (
    BackendAuthError,
    CircuitOpenError,
    ConnectionDroppedError,
    DeadlineExceededError,
    FormParseError,
    PageNotFoundError,
    QueryBudgetExceededError,
    QueryError,
    RateLimitedError,
    TransientBackendError,
    UnknownAttributeError,
    WebFormError,
)

#: Version tag of the wire format; bumped on incompatible changes so a
#: mismatched client fails with a clear error instead of a parse error.
WIRE_VERSION = 2

#: Version tag of the batch envelope (request and response).  Versioned
#: separately from the per-item payloads: the batch shape can evolve without
#: invalidating single-query clients, and vice versa.
BATCH_WIRE_VERSION = 2


# -- schema -----------------------------------------------------------------------


def schema_to_dict(schema: Schema, k: int) -> dict:
    """The schema (plus the interface's top-``k``) as JSON-serialisable dicts."""
    attributes = []
    for attribute in schema:
        entry: dict = {"name": attribute.name, "kind": attribute.kind.value}
        if attribute.description:
            entry["description"] = attribute.description
        if attribute.kind is AttributeKind.NUMERIC:
            entry["buckets"] = [[b.low, b.high] for b in attribute.domain.buckets]
        else:
            entry["values"] = list(attribute.domain.values)
        attributes.append(entry)
    return {
        "version": WIRE_VERSION,
        "name": schema.name,
        "k": k,
        "attributes": attributes,
    }


def schema_from_dict(payload: Mapping) -> tuple[Schema, int]:
    """Rebuild ``(schema, k)`` from :func:`schema_to_dict` output."""
    version = payload.get("version")
    if version != WIRE_VERSION:
        raise FormParseError(
            f"remote backend speaks wire version {version!r}, this client speaks {WIRE_VERSION}"
        )
    attributes = []
    for entry in payload["attributes"]:
        kind = AttributeKind(entry["kind"])
        if kind is AttributeKind.NUMERIC:
            buckets = [NumericBucket(float(low), float(high)) for low, high in entry["buckets"]]
            domain = Domain(kind, buckets=buckets)
        elif kind is AttributeKind.BOOLEAN:
            domain = Domain.boolean()
        else:
            domain = Domain.categorical(tuple(entry["values"]))
        attributes.append(Attribute(entry["name"], domain, description=entry.get("description", "")))
    return Schema(attributes, name=payload["name"]), int(payload["k"])


# -- responses --------------------------------------------------------------------


def response_to_dict(response: InterfaceResponse) -> dict:
    """One interface response as JSON-serialisable dicts.

    A lazy answer (engine, shard, wire, page) lists its rows without
    building a tuple; any other sequence goes through the loop over its
    tuples (:func:`~repro.database.interface.positional_rows`).
    """
    columns, selectable_columns, rows = positional_rows(response.tuples)
    return {
        "version": WIRE_VERSION,
        "query": response.query.assignment(),
        "columns": columns,
        "selectable_columns": selectable_columns,
        "rows": rows,
        "overflow": response.overflow,
        "reported_count": response.reported_count,
        "k": response.k,
    }


def _malformed(message: str) -> FormParseError:
    return FormParseError(f"response payload is malformed: {message}")


def _checked_columns(header: object, field: str) -> list[str]:
    if type(header) is not list or not all(type(name) is str for name in header):
        raise _malformed(f"{field!r} must be a list of strings, got {header!r}")
    return header


def _checked_rows(rows: object, width: int, selectable_width: int) -> list[list]:
    """``rows`` when every row is ``[int, part, part]``, else :class:`FormParseError`.

    A part is a list of its header's length or an object.
    """
    if type(rows) is not list:
        raise _malformed(f"'rows' must be a list, got {type(rows).__name__}")
    for row in rows:
        if type(row) is not list or len(row) != 3:
            raise _malformed(f"row {row!r} is not [tuple_id, values, selectable_values]")
        tuple_id, values, selectable = row
        if type(tuple_id) is not int or tuple_id < 0:
            raise _malformed(f"row tuple id {tuple_id!r} is not a non-negative integer")
        if not (type(values) is dict or (type(values) is list and len(values) == width)):
            raise _malformed(f"row {tuple_id} values {values!r} do not fit {width} columns")
        if not (
            type(selectable) is dict
            or (type(selectable) is list and len(selectable) == selectable_width)
        ):
            raise _malformed(
                f"row {tuple_id} selectable values {selectable!r} do not fit "
                f"{selectable_width} columns"
            )
    return rows


def response_from_dict(schema: Schema, payload: Mapping) -> InterfaceResponse:
    """Rebuild an :class:`InterfaceResponse` from :func:`response_to_dict` output.

    The whole payload is checked here, before anything is returned: a
    half-shaped payload (missing or mis-typed fields, a row of the wrong
    shape) raises a typed :class:`FormParseError`, never an untyped
    ``KeyError``/``TypeError`` mid-sampler and never later, when a tuple is
    read.  Single submits and batch items decode through here alike.  The
    tuples themselves are built on first read
    (:class:`~repro.database.interface.WireTuples`).
    """
    if not isinstance(payload, Mapping):
        raise _malformed(f"a {type(payload).__name__}, expected an object")
    version = payload.get("version")
    if version != WIRE_VERSION:
        raise FormParseError(
            f"remote backend speaks wire version {version!r}, this client speaks {WIRE_VERSION}"
        )
    try:
        query = ConjunctiveQuery.from_assignment(schema, payload["query"])
        columns = _checked_columns(payload["columns"], "columns")
        selectable_columns = _checked_columns(payload["selectable_columns"], "selectable_columns")
        rows = _checked_rows(payload["rows"], len(columns), len(selectable_columns))
        overflow = payload["overflow"]
        if type(overflow) is not bool:
            raise _malformed(f"'overflow' must be a boolean, got {overflow!r}")
        reported = payload["reported_count"]
        if reported is not None and (type(reported) is not int or reported < 0):
            raise _malformed(f"'reported_count' must be a non-negative integer, got {reported!r}")
        k = payload["k"]
        if type(k) is not int or k < 1:
            raise _malformed(f"'k' must be a positive integer, got {k!r}")
        return InterfaceResponse(
            query=query,
            tuples=WireTuples(columns, selectable_columns, rows),
            overflow=overflow,
            reported_count=reported,
            k=k,
        )
    except (KeyError, TypeError, AttributeError, ValueError) as error:
        raise _malformed(f"{type(error).__name__}: {error}") from error


# -- faults -----------------------------------------------------------------------
#
# One codec for both directions and both granularities: the HTTP status + JSON
# body of a failed request, and the per-item ``error`` entries of a batch
# response, are the same payload.  The server encodes with
# :func:`error_to_payload`; the client decodes with :func:`error_from_payload`
# — so the exception a sampler sees is decided in exactly one place.


def error_to_payload(error: Exception) -> tuple[int, dict]:
    """Map a library exception onto ``(http_status, json_payload)``.

    Anything outside the mapped vocabulary is reported as an internal fault
    (500): the real message still crosses the wire, and the client treats it
    as transient — a deterministic server-side bug must come back as a status
    line, never as a dropped connection the client would misread as
    "unreachable".
    """
    if isinstance(error, RateLimitedError):
        payload = {"error": "rate_limited", "message": str(error), "every": error.every}
        if error.retry_after is not None:
            payload["retry_after"] = error.retry_after
        return 429, payload
    if isinstance(error, QueryBudgetExceededError):
        return 403, {
            "error": "budget_exhausted",
            "message": str(error),
            "issued": error.issued,
            "budget": error.budget,
        }
    if isinstance(error, BackendAuthError):
        return error.status, {"error": "auth", "message": str(error)}
    # The specific transient flavours carry their own tags (and hints) so the
    # client rebuilds the exact type; they must precede the generic check.
    if isinstance(error, CircuitOpenError):
        payload = {"error": "circuit_open", "message": str(error)}
        if error.retry_after is not None:
            payload["retry_after"] = error.retry_after
        return 503, payload
    if isinstance(error, ConnectionDroppedError):
        return 503, {"error": "connection_dropped", "message": str(error)}
    if isinstance(error, DeadlineExceededError):
        # 503, not 400: nothing was malformed — the work arrived too late to
        # be worth doing, the per-request analogue of an overloaded server.
        payload = {"error": "deadline", "message": str(error)}
        if error.remaining_ms is not None:
            payload["remaining_ms"] = error.remaining_ms
        return 503, payload
    if isinstance(error, TransientBackendError):
        return 503, {"error": "transient", "message": str(error)}
    if isinstance(error, PageNotFoundError):
        return 404, {"error": "not_found", "message": str(error)}
    if isinstance(error, (FormParseError, QueryError, WebFormError)):
        return 400, {"error": "bad_request", "message": str(error)}
    return 500, {"error": "internal", "message": f"{type(error).__name__}: {error}"}


def retry_after_seconds(value: object) -> float | None:
    """A server retry hint as seconds, or ``None`` when it is unusable.

    The one parser for both hint channels: the JSON payload's
    ``retry_after`` number and the ``Retry-After`` header's delay-seconds
    form (integers per the RFC, decimals because our own servers send them).
    A hint the retry layer could not sleep on — negative, not finite
    (``inf``, ``Infinity``, ``nan``) or beyond ``threading.TIMEOUT_MAX`` —
    counts as absent, like the HTTP-date header form no server here emits;
    the retry layer then falls back to its own backoff.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        seconds = float(value)
    except (ValueError, OverflowError):
        return None
    return seconds if 0.0 <= seconds <= threading.TIMEOUT_MAX else None


def error_from_payload(
    status: int, payload: Mapping, retry_after: float | None = None
) -> Exception:
    """Rebuild the client-side exception for one failed request or batch item.

    The ``error`` tag wins when present (it survives proxies rewriting status
    codes); the HTTP status decides otherwise.  Auth-ish statuses — 401, or a
    403 *without* the budget payload — become :class:`BackendAuthError`, not
    a parse failure: retrying will not help and nothing was malformed.

    ``retry_after`` is the transport-level ``Retry-After`` header (seconds),
    when the response carried one; the JSON payload's own hint wins over it
    (it survives proxies stripping headers), and whichever applies lands on
    the rebuilt exception so retry layers can prefer the server's word over
    their computed backoff.
    """
    tag = payload.get("error")
    message = payload.get("message", f"HTTP {status}")
    hint = retry_after_seconds(payload.get("retry_after"))
    if hint is None:
        hint = retry_after
    if tag == "rate_limited" or status == 429:
        return RateLimitedError(payload.get("every"), retry_after=hint)
    if tag == "budget_exhausted" or (status == 403 and "budget" in payload):
        return QueryBudgetExceededError(
            int(payload.get("issued", 0)), int(payload.get("budget", 0))
        )
    if tag == "auth" or status in (401, 403):
        return BackendAuthError(status, str(message))
    # Tagged transient flavours precede the generic >= 500 fallback so the
    # client re-raises the exact server-side type.
    if tag == "circuit_open":
        return CircuitOpenError(retry_after=hint)
    if tag == "connection_dropped":
        return ConnectionDroppedError(str(message))
    if tag == "deadline":
        remaining = payload.get("remaining_ms")
        return DeadlineExceededError(
            "remote submission",
            remaining_ms=int(remaining) if isinstance(remaining, int) else None,
        )
    if tag in ("transient", "internal") or status >= 500:
        error = TransientBackendError(f"remote backend failure: {message}")
        error.retry_after = hint
        return error
    return FormParseError(f"remote backend rejected the request: {message}")


# -- batches ----------------------------------------------------------------------
#
# ``POST /api/submit_batch`` ships many conjunctive queries in one round-trip
# and answers each with its *own* status, so one rate-limited or exhausted
# item never fails the whole batch — the retry layer above the remote adapter
# re-issues only the items that actually failed.


def batch_request_to_dict(queries: Sequence[ConjunctiveQuery]) -> dict:
    """A batch of conjunctive queries as the versioned request envelope."""
    return {
        "version": BATCH_WIRE_VERSION,
        "queries": [query.assignment() for query in queries],
    }


def batch_request_from_dict(schema: Schema, payload: Mapping) -> list[ConjunctiveQuery]:
    """Rebuild the queries of a :func:`batch_request_to_dict` envelope.

    An unknown envelope version, an item that is not an object and an item
    naming an attribute the schema lacks are clear typed errors (the server
    answers 400 with the message, as for a bad ``GET /api/submit``), not a
    ``KeyError`` deep in decoding.
    """
    version = payload.get("version")
    if version != BATCH_WIRE_VERSION:
        raise FormParseError(
            f"client speaks batch wire version {version!r}, this server speaks "
            f"{BATCH_WIRE_VERSION}"
        )
    entries = payload.get("queries")
    if not isinstance(entries, list):
        raise FormParseError("batch request carries no 'queries' list")
    queries = []
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise FormParseError(f"batch request item {entry!r} is not an object")
        try:
            queries.append(ConjunctiveQuery.from_assignment(schema, entry))
        except UnknownAttributeError as error:
            raise FormParseError(f"batch request item names {error}") from error
    return queries


def batch_response_to_dict(
    outcomes: Sequence[InterfaceResponse | Exception],
) -> dict:
    """Per-item outcomes — responses and typed faults — as one envelope."""
    items = []
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            status, payload = error_to_payload(outcome)
            items.append({"status": "error", "http_status": status, "payload": payload})
        else:
            items.append({"status": "ok", "response": response_to_dict(outcome)})
    return {"version": BATCH_WIRE_VERSION, "items": items}


def batch_response_from_dict(
    schema: Schema, payload: Mapping
) -> list[InterfaceResponse | Exception]:
    """Rebuild per-item outcomes from :func:`batch_response_to_dict` output.

    Failed items come back as *exception objects*, not raises: the caller
    (``RemoteBackend.submit_outcomes``) decides per item whether to retry,
    re-raise, or keep the successful siblings.
    """
    version = payload.get("version")
    if version != BATCH_WIRE_VERSION:
        raise FormParseError(
            f"remote backend speaks batch wire version {version!r}, this client "
            f"speaks {BATCH_WIRE_VERSION}"
        )
    items = payload.get("items")
    if not isinstance(items, list):
        raise FormParseError("batch response carries no 'items' list")
    outcomes: list[InterfaceResponse | Exception] = []
    for item in items:
        if not isinstance(item, Mapping):
            raise FormParseError(
                f"batch response item is a {type(item).__name__}, expected an object"
            )
        status = item.get("status")
        if status == "ok":
            outcomes.append(response_from_dict(schema, item.get("response")))
        elif status == "error":
            payload = item.get("payload", {})
            if not isinstance(payload, Mapping):
                payload = {}
            try:
                http_status = int(item.get("http_status", 500))
            except (TypeError, ValueError):
                http_status = 500
            outcomes.append(error_from_payload(http_status, payload))
        else:
            raise FormParseError(f"batch response item has unknown status {status!r}")
    return outcomes
