"""Wire compression for the remote access paths: gzip, negotiated, thresholded.

The batch envelope (:mod:`repro.web.jsoncodec`) is highly repetitive JSON —
the same attribute names and value vocabulary repeated per item — so it
compresses extremely well (routinely 10–20×).  Whether that pays depends on
the link, not on the ratio.  One single-query answer on perfbench's
``remote_jobs`` workload is ~6.6 KB of plain JSON and gzips to ~1.4 KB;
compressing a 6–10 KB answer costs ~140–210 µs of CPU and inflating it
~30–60 µs (``timeit``, 2-vCPU VM).  The ~5 KB saved take about a microsecond
on loopback, so gzip only wins on links slower than roughly 150–250 Mbit/s.

This module is the **single definition** of that policy, shared by both
wire ends — the :mod:`repro.web.httpd` server and the pooled
:class:`~repro.backends.remote.RemoteBackend` client — so both directions
negotiate identically:

* **requests** carry ``Content-Encoding: gzip`` when the client compressed
  the body (the server always understands it).  The client compresses
  bodies of :data:`DEFAULT_COMPRESS_THRESHOLD` bytes or more by default,
  which only batch POSTs reach;
* **responses** are compressed only when the server was given a threshold
  (it has none by default, so it answers in plain JSON), the request
  advertised ``Accept-Encoding: gzip`` (the client always does), *and* the
  body clears that threshold — an off-the-shelf client that never sends the
  header gets plain JSON.

Compression is a pure transport concern: the decompressed bytes are
byte-identical to what an uncompressed exchange carries, which the wire tests
assert literally.
"""

from __future__ import annotations

import gzip
import threading
import zlib

from repro.exceptions import FormParseError

#: The client's request-body default: bodies at or above this many bytes
#: are gzip-compressed, smaller ones travel as-is.  One conjunctive query
#: encodes to a few hundred bytes, so a single submit's request stays plain
#: and only batch envelopes compress.  The server does not use it: its
#: answers are plain unless it is given a threshold, and an operator on a
#: link slower than ~150–250 Mbit/s passes this value to the server too.
DEFAULT_COMPRESS_THRESHOLD = 1024

#: The one content-coding this repo speaks.  ``identity`` (and an absent
#: header) means "plain bytes"; anything else is a typed decode error.
GZIP_ENCODING = "gzip"

#: Compression level: 6 is zlib's default trade-off; levels above it cost
#: measurably more CPU for single-digit-percent extra savings on JSON.
_GZIP_LEVEL = 6


def accepts_gzip(accept_encoding: str | None) -> bool:
    """True when an ``Accept-Encoding`` header value admits gzip.

    Understands the comma-separated form with optional quality values
    (``gzip;q=0`` is a refusal per RFC 9110); no header means no compression
    — the safe default for clients that never heard of this module.
    """
    if accept_encoding is None:
        return False
    for token in accept_encoding.split(","):
        coding, _, params = token.strip().partition(";")
        if coding.strip().lower() not in (GZIP_ENCODING, "*"):
            continue
        q = params.strip()
        if q.lower().startswith("q="):
            try:
                return float(q[2:]) > 0.0
            except ValueError:
                return False
        return True
    return False


def maybe_compress(body: bytes, threshold: int | None) -> tuple[bytes, str | None]:
    """Compress ``body`` when it clears ``threshold``; report the encoding used.

    Returns ``(wire_bytes, content_encoding)`` where ``content_encoding`` is
    ``"gzip"`` when compression engaged and ``None`` when the body travels
    as-is — below the threshold, when ``threshold`` is ``None`` (compression
    disabled), or in the degenerate case where gzip failed to shrink the
    payload at all.  ``mtime=0`` keeps the gzip container deterministic, so
    identical payloads produce identical wire bytes run after run.
    """
    if threshold is None or len(body) < threshold:
        return body, None
    compressed = gzip.compress(body, compresslevel=_GZIP_LEVEL, mtime=0)
    if len(compressed) >= len(body):
        return body, None
    return compressed, GZIP_ENCODING


def decompress(body: bytes, content_encoding: str | None, max_bytes: int) -> bytes:
    """The plain payload bytes of a possibly-compressed wire body.

    ``content_encoding`` is the raw ``Content-Encoding`` header value (or
    ``None``).  A coding this repo does not speak, a corrupt gzip stream, and
    a payload inflating past ``max_bytes`` (a compressed body must not
    sidestep the server's body-size cap) are all the *sender's* fault and
    raise the typed :class:`~repro.exceptions.FormParseError` the server
    answers as HTTP 400.
    """
    coding = (content_encoding or "").strip().lower()
    if coding in ("", "identity"):
        return body
    if coding != GZIP_ENCODING:
        raise FormParseError(f"unsupported Content-Encoding {content_encoding!r} (only gzip)")
    decompressor = zlib.decompressobj(wbits=zlib.MAX_WBITS | 16)  # gzip container
    try:
        # max_length bounds the inflation, so a gzip bomb costs at most one
        # cap's worth of memory before it is rejected.
        plain = decompressor.decompress(body, max_bytes + 1)
    except zlib.error as error:
        raise FormParseError(f"gzip body failed to decode: {error}") from error
    if len(plain) > max_bytes:
        raise FormParseError(f"compressed body inflates past the {max_bytes}-byte limit")
    if not decompressor.eof:
        raise FormParseError("gzip body is truncated")
    if decompressor.unused_data:
        raise FormParseError("gzip body carries trailing garbage")
    return plain


class CompressionCounters:
    """Thread-safe counters of how often compression actually engaged.

    The acceptance contract for wire compression is behavioural — engaged
    above the threshold, skipped below it — so the remote client keeps these
    counters (the server reports its own in ``wire_statistics()``) and the
    wire tests assert them instead of guessing from sizes.
    """

    #: Machine-checked by reprolint R1 (guarded-state): counters are bumped
    #: from many transport threads concurrently.
    _guarded_by = {
        "requests_compressed": "_lock",
        "responses_decompressed": "_lock",
    }

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests_compressed = 0
        self.responses_decompressed = 0

    def count_request(self) -> None:
        """One request body left this client gzip-compressed."""
        with self._lock:
            self.requests_compressed += 1

    def count_response(self) -> None:
        """One response body arrived gzip-compressed and was inflated."""
        with self._lock:
            self.responses_decompressed += 1

    def statistics(self) -> dict[str, int]:
        """Plain-dict counters for benchmarks and tests."""
        with self._lock:
            return {
                "requests_compressed": self.requests_compressed,
                "responses_decompressed": self.responses_decompressed,
            }
