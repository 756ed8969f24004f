"""Typed exceptions raised across the :mod:`repro` package.

Every error condition that a caller may reasonably want to catch has its own
exception class.  All of them derive from :class:`ReproError` so that a
blanket ``except ReproError`` catches anything this library raises on purpose
while letting genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""


class BitstreamError(ReproError):
    """A compressed bitstream is malformed, truncated or inconsistent."""


class HeaderError(BitstreamError):
    """A container header is missing, corrupted or of an unsupported version."""


class ConfigError(ReproError):
    """A configuration object holds values outside their legal range."""


class ImageFormatError(ReproError):
    """An image file or buffer cannot be parsed or has unsupported properties."""


class CodecMismatchError(ReproError):
    """Decoder configuration does not match the configuration used to encode."""


class ModelStateError(ReproError):
    """An adaptive model reached an internal state that violates an invariant."""


class HardwareModelError(ReproError):
    """The hardware resource/timing model was asked for something impossible."""


class StripingError(ReproError):
    """A stripe-parallel partition request cannot be satisfied."""


class CorpusError(ReproError):
    """A synthetic-corpus request referenced an unknown image or bad parameters."""


class StoreError(ReproError):
    """An image-store operation failed (backend I/O, bad key, bad request)."""


class BlobNotFoundError(StoreError):
    """A store lookup referenced a key the backend does not hold."""


class NotCachedError(StoreError):
    """A ``cached_only`` store read cannot be answered from memory alone.

    The caller repeats the read without ``cached_only``, which may read
    the backend and decode.
    """


class ServeError(ReproError):
    """The network serving tier hit a protocol or transport failure.

    Raised by the ``repro-serve`` client for non-2xx responses (the HTTP
    status is carried in :attr:`status`) and by the server's request
    parser for malformed or oversized HTTP traffic.
    """

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


class DeadlineExceededError(ServeError):
    """A request ran past its deadline (or its client went away).

    Raised cooperatively inside decode work when the request context
    expires, by coalesced followers whose own deadline lapses before the
    flight leader finishes, and by the HTTP layer when the thread-pool
    offload outlives the request budget.  Answered as ``504``.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message, status=504)


class OverloadedError(ServeError):
    """The server shed a request to protect itself (admission control).

    Carries the ``Retry-After`` hint the HTTP layer should attach to the
    ``429`` answer.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message, status=429)
        self.retry_after = retry_after


class RemoteBadRequestError(ServeError):
    """The server answered with envelope code ``bad_request`` (or a
    protocol rejection): the request itself was malformed."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message, status=status)


class RemoteNotFoundError(ServeError):
    """The server answered with envelope code ``not_found``."""

    def __init__(self, message: str, status: int = 404) -> None:
        super().__init__(message, status=status)


class ServerDrainingError(ServeError):
    """The server answered with envelope code ``draining`` — it is
    shutting down gracefully and stopped taking new requests."""

    def __init__(self, message: str, status: int = 503) -> None:
        super().__init__(message, status=status)


class UpstreamUnhealthyError(ServeError):
    """The server answered with envelope code ``upstream_unhealthy``:
    every replica (or worker process) that could serve the request was
    unreachable.  Retryable — failover may heal before the next try."""

    def __init__(self, message: str, status: int = 503) -> None:
        super().__init__(message, status=status)
