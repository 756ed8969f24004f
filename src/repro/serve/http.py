"""Hand-rolled HTTP/1.1 primitives for the asyncio serving tier.

The serving tier deliberately speaks a small, explicit subset of HTTP/1.1
over plain :mod:`asyncio` streams instead of pulling in a web framework:
the whole protocol surface the service needs is a request line, headers, a
``Content-Length`` body and keep-alive — small enough that owning the
parser keeps the dependency set at "stdlib + numpy" and makes the failure
modes (oversized headers, truncated bodies, malformed request lines)
explicit, typed and testable.

Limits are enforced during parsing, before any body is buffered:

* request line and header block are bounded by :data:`MAX_HEADER_BYTES`;
* bodies are bounded by :data:`MAX_BODY_BYTES` (``repro-serve`` stores
  compressed containers, so even large corpora fit comfortably);
* a request with ``Transfer-Encoding`` is rejected — the service only
  accepts ``Content-Length``-framed bodies;
* header and body reads are bounded in *time* as well as bytes: once the
  request line has landed, the rest of the request must arrive within
  ``read_timeout`` seconds, so a client that goes quiet mid-request (the
  slowloris shape, or a peer that died without closing) gets a typed
  ``408`` instead of parking the connection handler forever.

Protocol violations raise :class:`HttpProtocolError`, which carries the
HTTP status the connection handler should answer with before closing.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple, Union
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.exceptions import ReproError, ServeError

if TYPE_CHECKING:  # routes imports this module
    from repro.serve.routes import Route

__all__ = [
    "HttpProtocolError",
    "HttpRequest",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "STATUS_REASONS",
    "json_payload",
    "read_request",
    "render_response",
    "render_stream_head",
    "encode_chunk",
    "STREAM_TERMINATOR",
]

#: Upper bound on the request line plus the header block, in bytes.
MAX_HEADER_BYTES = 32 * 1024

#: Upper bound on a request body.  PUT bodies are compressed containers or
#: Netpbm images; 128 MiB covers even a full-resolution deep corpus image.
MAX_BODY_BYTES = 128 * 1024 * 1024

#: The status codes the service actually answers with.
STATUS_REASONS: Dict[int, str] = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpProtocolError(ServeError):
    """A request violated the supported HTTP/1.1 subset.

    ``status`` is the response code the connection handler should send
    before closing the connection (parsing state is unrecoverable).
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message, status=status)


@dataclass
class HttpRequest:
    """One parsed request: the method/path/query triple plus body bytes."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: The server's route-table match (or the 404/405 error it raised),
    #: kept by its first lookup; see ``ReproServer._match``.
    route: Union[Tuple["Route", Dict[str, object]], ReproError, None] = field(
        default=None, repr=False, compare=False
    )

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection (1.1 default)."""
        return self.headers.get("connection", "").lower() != "close"


class _ReadTimer:
    """One loop timer bounding every read inside a ``with`` block.

    ``asyncio.wait_for`` around each read would cost a task per header
    line; this arms one ``call_later`` for the whole block instead.  When
    it lapses it cancels the reading task, and the block exits with a
    ``408`` :class:`HttpProtocolError` in place of that cancellation; its
    message names :attr:`what` was being read.  A cancellation from
    anywhere else (drain, shutdown) passes through unchanged.  It stands
    in for ``asyncio.timeout``, which Python 3.9 lacks.
    """

    __slots__ = ("what", "_seconds", "_task", "_handle", "_fired")

    def __init__(self, seconds: Optional[float], what: str) -> None:
        self.what = what
        self._seconds = seconds
        self._task: Optional["asyncio.Task[object]"] = None
        self._handle: Optional[asyncio.TimerHandle] = None
        self._fired = False

    def __enter__(self) -> "_ReadTimer":
        if self._seconds is not None:
            self._task = asyncio.current_task()
            self._handle = asyncio.get_running_loop().call_later(
                max(0.0, self._seconds), self._fire
            )
        return self

    def _fire(self) -> None:
        self._fired = True
        assert self._task is not None
        self._task.cancel()

    def __exit__(self, exc_type, exc, traceback) -> bool:
        if self._handle is not None:
            self._handle.cancel()
        if self._fired and exc_type is not None and issubclass(
            exc_type, asyncio.CancelledError
        ):
            # Take back the cancel request this timer made (3.11+ counts them).
            uncancel = getattr(self._task, "uncancel", None)
            if uncancel is not None:
                uncancel()
            raise HttpProtocolError(408, "timed out reading the %s" % self.what) from None
        return False


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One CRLF (or bare LF) terminated line; an over-long one is a 431."""
    try:
        return await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise HttpProtocolError(431, "header line exceeds the stream limit") from None


async def read_request(
    reader: asyncio.StreamReader,
    read_timeout: Optional[float] = None,
    idle_timeout: Optional[float] = None,
) -> Optional[HttpRequest]:
    """Parse one request off ``reader``; ``None`` on a clean EOF.

    A clean EOF (the peer closed between requests) is the normal end of a
    keep-alive connection, not an error.  Anything malformed raises
    :class:`HttpProtocolError` with the status to answer with.

    ``idle_timeout`` bounds the wait for the *start* of a request (an
    idle keep-alive connection): on lapse the connection is treated like
    a clean EOF and ``None`` is returned.  ``read_timeout`` bounds the
    rest — header lines and the body must arrive within that many seconds
    of the request line, or the parse fails with a typed ``408`` — a
    half-sent request must never park the handler forever.  Each bound is
    one loop timer, whatever the number of reads it covers.
    """
    try:
        with _ReadTimer(idle_timeout, "request line"):
            line = await _read_line(reader)
    except HttpProtocolError as error:
        if error.status == 408:
            return None  # idle keep-alive lapsed between requests: close quietly
        raise
    if not line:
        return None
    with _ReadTimer(read_timeout, "header block") as timer:
        return await _read_rest(reader, line, timer)


async def _read_rest(
    reader: asyncio.StreamReader, line: bytes, timer: _ReadTimer
) -> HttpRequest:
    """The request after its request line ``line``: headers, then body."""
    budget = MAX_HEADER_BYTES - len(line)
    text = line.decode("latin-1").strip()
    if not text:
        raise HttpProtocolError(400, "empty request line")
    parts = text.split()
    if len(parts) != 3:
        raise HttpProtocolError(400, "malformed request line %r" % text)
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpProtocolError(400, "unsupported protocol version %r" % version)

    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line:
            raise HttpProtocolError(400, "connection closed inside the header block")
        budget -= len(line)
        if budget < 0:
            raise HttpProtocolError(431, "header block exceeds %d bytes" % MAX_HEADER_BYTES)
        text = line.decode("latin-1").strip()
        if not text:
            break
        name, separator, value = text.partition(":")
        if not separator or not name.strip():
            raise HttpProtocolError(400, "malformed header line %r" % text)
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        raise HttpProtocolError(501, "Transfer-Encoding is not supported")
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise HttpProtocolError(400, "bad Content-Length %r" % length_text) from None
        if length < 0:
            raise HttpProtocolError(400, "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpProtocolError(
                413, "body of %d bytes exceeds the %d byte limit" % (length, MAX_BODY_BYTES)
            )
        timer.what = "body"
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpProtocolError(400, "connection closed inside the body") from None
    elif method in ("PUT", "POST"):
        raise HttpProtocolError(411, "%s requires a Content-Length" % method)

    split = urlsplit(target)
    query = {key: value for key, value in parse_qsl(split.query, keep_blank_values=True)}
    return HttpRequest(
        method=method,
        path=unquote(split.path),
        query=query,
        headers=headers,
        body=body,
    )


def render_response(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Iterable[Tuple[str, str]] = (),
) -> bytes:
    """Serialise one complete HTTP/1.1 response."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        "HTTP/1.1 %d %s" % (status, reason),
        "Content-Type: %s" % content_type,
        "Content-Length: %d" % len(body),
        "Connection: %s" % ("keep-alive" if keep_alive else "close"),
    ]
    lines.extend("%s: %s" % (name, value) for name, value in extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


#: Final frame of a chunked response: zero-length chunk, no trailers.
STREAM_TERMINATOR = b"0\r\n\r\n"


def render_stream_head(
    status: int,
    content_type: str = "application/octet-stream",
    keep_alive: bool = True,
    extra_headers: Iterable[Tuple[str, str]] = (),
) -> bytes:
    """Serialise the head of a chunked (streaming) HTTP/1.1 response.

    The caller follows with :func:`encode_chunk` frames and closes the
    body with :data:`STREAM_TERMINATOR`.  An aborted stream — connection
    closed before the terminator — is the protocol-level truncation
    signal, since the status line is already on the wire when mid-stream
    work fails.
    """
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        "HTTP/1.1 %d %s" % (status, reason),
        "Content-Type: %s" % content_type,
        "Transfer-Encoding: chunked",
        "Connection: %s" % ("keep-alive" if keep_alive else "close"),
    ]
    lines.extend("%s: %s" % (name, value) for name, value in extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def encode_chunk(data: bytes) -> bytes:
    """Frame one non-empty chunk (hex length, CRLF-delimited)."""
    return b"%x\r\n%s\r\n" % (len(data), data)


def json_payload(document: object) -> bytes:
    """The canonical JSON body encoding used by every endpoint."""
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")
