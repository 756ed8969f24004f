"""Request deadlines propagated from the HTTP layer into decode and encode work.

Every admitted request gets a :class:`RequestContext`: a monotonic
:class:`Deadline` plus a cancellation latch.  The context rides into the
thread-pool offload via a thread-local binding (:func:`bind_context` /
:func:`current_context`), so blocking store work — which cannot be killed
from the event loop — can *cooperatively* abandon itself:

* the store's per-cell decode hook calls :meth:`RequestContext.check`
  between cells, so a decode whose client timed out or disconnected stops
  at the next cell boundary instead of burning a worker to completion;
  a PUT's encode runs the same check before each cell, and once more
  before its first write, so a lapsed PUT stores nothing;
* the chaos fault injector polls :attr:`RequestContext.should_abort`
  inside stalls, so a stalled backend read frees its worker as soon as
  the request is abandoned;
* coalesced single-flight followers wait at most their own
  :attr:`Deadline.remaining`, so one slow leader cannot park a follower
  past that follower's budget.

Expiry and cancellation both raise
:class:`~repro.exceptions.DeadlineExceededError` — the caller is gone (or
about to be told 504) either way, and the distinction is carried in the
message only.

Clocks are injectable for tests; production code uses
:func:`time.monotonic`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.exceptions import DeadlineExceededError

__all__ = [
    "Deadline",
    "RequestContext",
    "bind_context",
    "current_context",
    "context_cell_hook",
]


class Deadline:
    """A monotonic point in time a request must not run past.

    Immutable after construction and safe to consult from any thread —
    the HTTP layer creates it on the event loop and the decode worker
    checks it from the pool.  Built on ``time.monotonic`` so wall-clock
    jumps can neither extend nor cut a request's budget.
    """

    __slots__ = ("_clock", "_expires_at")

    def __init__(
        self, budget_seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self._clock = clock
        self._expires_at = clock() + budget_seconds

    @property
    def remaining(self) -> float:
        """Seconds left before expiry, clamped at 0."""
        return max(0.0, self._expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` once the budget is spent."""
        if self.expired:
            raise DeadlineExceededError("%s ran past its deadline" % what)


class RequestContext:
    """One request's deadline plus its abandonment latch.

    ``cancel()`` is called by the HTTP layer when it stops waiting for
    the offloaded work (offload timeout, client disconnect): the worker
    thread the request is burning observes it at the next cooperative
    checkpoint and aborts.
    """

    __slots__ = ("deadline", "endpoint", "admitted", "request_id", "_cancelled")

    def __init__(
        self,
        deadline: Deadline,
        endpoint: str = "other",
        admitted: bool = True,
        request_id: str = "",
    ) -> None:
        self.deadline = deadline
        self.endpoint = endpoint
        #: Whether this request holds an admission slot (health/stats do not).
        self.admitted = admitted
        #: The id stamped into this request's error envelopes, if any.
        self.request_id = request_id
        self._cancelled = threading.Event()

    def cancel(self) -> None:
        """Mark the request abandoned (the answer has nowhere to go)."""
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    @property
    def should_abort(self) -> bool:
        """Whether in-progress work for this request is now pointless."""
        return self._cancelled.is_set() or self.deadline.expired

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` if the work is pointless."""
        if self._cancelled.is_set():
            raise DeadlineExceededError("%s was abandoned by its client" % what)
        self.deadline.check(what)


_LOCAL = threading.local()


def bind_context(context: Optional[RequestContext]) -> None:
    """Bind ``context`` to the current thread (``None`` unbinds).

    The serving tier's offload wrapper binds the request's context around
    the blocking service call, so store-level hooks can find it without
    the store depending on the serve package's call signatures.
    """
    _LOCAL.context = context


def current_context() -> Optional[RequestContext]:
    """The :class:`RequestContext` bound to this thread, if any."""
    return getattr(_LOCAL, "context", None)


def context_cell_hook() -> None:
    """Per-cell checkpoint: abort abandoned or expired requests.

    Installed as :attr:`repro.store.store.ImageStore.cell_hook` by the
    serving tier, and run before each cell a PUT encodes — the seam that
    makes deadline expiry actually stop a multi-cell decode or encode
    instead of merely timing out the HTTP response.
    """
    context = current_context()
    if context is not None:
        context.check("cell work")
