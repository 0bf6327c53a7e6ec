"""Encoding conjunctive queries as URL query strings and back.

Real form submissions arrive at the server as a query string
(``?make=Honda&price=10000-15000``).  The codec here is schema-aware so that
decoding restores *typed* selectable values: booleans become ``True``/``False``
again, integer category labels become integers, and numeric bucket labels are
matched against the attribute's buckets.
"""

from __future__ import annotations

from urllib.parse import parse_qsl, quote_plus

from repro.database.query import ConjunctiveQuery, Predicate
from repro.database.schema import AttributeKind, Schema, Value
from repro.exceptions import FormParseError, QueryError

#: Reserved parameter names that are not attribute predicates.
RESERVED_PARAMETERS = frozenset({"page", "submit"})


def _value_to_text(value: Value) -> str:
    """Render a selectable value as it would appear in a query string."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _text_to_value(schema: Schema, attribute_name: str, text: str) -> Value:
    """Parse query-string text back into the typed selectable value."""
    attribute = schema.attribute(attribute_name)
    if attribute.kind is AttributeKind.BOOLEAN:
        lowered = text.strip().lower()
        if lowered in {"true", "1", "yes"}:
            return True
        if lowered in {"false", "0", "no"}:
            return False
        raise FormParseError(f"cannot parse boolean value {text!r} for attribute {attribute_name!r}")
    # Try to match the literal text against the domain first (covers string
    # categories and numeric bucket labels), then fall back to int parsing for
    # integer-valued categorical domains such as model year.
    if text in attribute.domain:
        return text
    try:
        as_int = int(text)
    except ValueError:
        as_int = None
    if as_int is not None and as_int in attribute.domain:
        return as_int
    try:
        as_float = float(text)
    except ValueError:
        as_float = None
    if as_float is not None and as_float in attribute.domain:
        return as_float
    raise FormParseError(
        f"value {text!r} is not selectable for attribute {attribute_name!r}"
    )


def encode_query(query: ConjunctiveQuery) -> str:
    """Encode a conjunctive query as a URL query string (without the ``?``).

    Attributes appear in the query's predicate order, which preserves the
    drill-down order for debugging while remaining semantically irrelevant.
    """
    parts = []
    for predicate in query.predicates:
        key = quote_plus(predicate.attribute)
        value = quote_plus(_value_to_text(predicate.value))
        parts.append(f"{key}={value}")
    return "&".join(parts)


def decode_query(schema: Schema, query_string: str) -> ConjunctiveQuery:
    """Decode a URL query string into a typed conjunctive query.

    Unknown or reserved parameters raise; a malformed value raises
    :class:`~repro.exceptions.FormParseError`, mirroring a server rejecting a
    hand-crafted URL.
    """
    if query_string.startswith("?"):
        query_string = query_string[1:]
    predicates: list[Predicate] = []
    if not query_string:
        return ConjunctiveQuery.empty(schema)
    # ``parse_qsl`` has already unquoted both names and values.
    for key, raw_value in parse_qsl(query_string, keep_blank_values=True):
        if key in RESERVED_PARAMETERS:
            continue
        if key not in schema:
            raise FormParseError(f"query string names unknown attribute {key!r}")
        if raw_value == "":
            # An empty selection means "any value", i.e. no predicate.
            continue
        value = _text_to_value(schema, key, raw_value)
        predicates.append(Predicate(key, value))
    try:
        return ConjunctiveQuery(schema, predicates)
    except QueryError as error:
        raise FormParseError(str(error)) from error


def result_page_path(base_path: str, query: ConjunctiveQuery) -> str:
    """The path (with query string) a form submission navigates to."""
    encoded = encode_query(query)
    if not encoded:
        return base_path
    return f"{base_path}?{encoded}"
