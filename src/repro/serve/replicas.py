"""The replica policy: which of a key's owners answers, for both topologies.

Every key lives on the owners :meth:`~repro.serve.router.StoreRouter.owners`
names.  :class:`Replicas` is the only code that decides how they are
used; the in-process service and the routing proxy each supply just the
*attempt* — a store call on a worker thread, or an HTTP request to one
shard's worker group — and the policy does the rest:

* **reads** try owners in rendezvous order, believed-healthy first (a
  down shard is a last resort, never skipped), check the request
  deadline between attempts and stop at the first owner that answers;
* **writes** (stores and tombstones) go to every owner in rendezvous
  order and are done when any owner took them.

Each failed attempt is classified once, by its error-envelope code
(:data:`~repro.serve.routes.ERROR_CODES`): a local exception through
:func:`~repro.serve.routes.classify_error`, a proxied reply by the code
its worker's envelope carries (:class:`OwnerReply`).

* ``not_found`` — the owner misses the key (not replicated or migrated
  there yet): move on; the miss is the answer only when every owner
  missed;
* ``upstream_unhealthy``, ``internal``, ``draining`` — the owner failed
  (dead backend, corrupt replica, shutting-down worker): record a health
  failure, bump ``owner_failures`` overall and per shard, and move on; a
  failure outranks a miss, since the failed owner may hold the key;
* any other code (``bad_request``, ``shed``, ``deadline``, ...) is the
  answer at once — equally true of every owner.  ``deadline`` records
  nothing: it says nothing about the owner's health.

``owner_failures`` says a replica is sick; ``failovers`` and
``write_failovers`` say availability held despite it.  Each failed owner
counts one ``failovers`` (overall and per shard) when a later owner
served the read, and one ``write_failovers`` when the write still landed
on some owner; an operation that ends in an error counts neither.
"""

from __future__ import annotations

from typing import Awaitable, Callable, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.exceptions import ReproError
from repro.serve.deadline import RequestContext
from repro.serve.health import HealthTracker
from repro.serve.router import S, StoreRouter
from repro.serve.routes import classify_error
from repro.serve.stats import ServerStats

__all__ = ["FAILED", "MISSED", "OwnerReply", "Replicas"]

T = TypeVar("T")

#: The envelope code of an owner that does not hold the key.
MISSED = "not_found"
#: Envelope codes of an owner that failed: fail over to the next one.
FAILED = frozenset({"upstream_unhealthy", "internal", "draining"})


class OwnerReply(ReproError):
    """An owner's own error answer, raised by an attempt to be classified.

    The proxy raises one per non-2xx worker reply: ``code`` is the code
    of the worker's envelope and ``reply`` the reply to forward verbatim
    when it becomes the answer.
    """

    def __init__(self, code: str, reply: object) -> None:
        super().__init__(code)
        self.code = code
        self.reply = reply


class _Walk(Generic[S, T]):
    """One operation's pass over a key's owners, and its verdict."""

    __slots__ = (
        "replicas", "owners", "reading", "context", "taken", "missed", "failed", "sick"
    )

    def __init__(
        self,
        replicas: "Replicas[S]",
        key: str,
        reading: bool,
        context: Optional[RequestContext],
    ) -> None:
        self.replicas = replicas
        self.owners = replicas.owners(key) if reading else replicas.router.owners(key)
        self.reading = reading
        self.context = context
        self.taken: List[Tuple[str, T]] = []
        self.missed: Optional[ReproError] = None
        self.failed: Optional[ReproError] = None
        #: Owners that failed, in the order they were tried.
        self.sick: List[str] = []

    def __iter__(self) -> Iterator[Tuple[str, S]]:
        for position, owner in enumerate(self.owners):
            if self.reading:
                if self.taken:
                    return
                if position and self.context is not None:
                    self.context.check("replica failover")
            yield owner

    def took(self, name: str, value: T) -> None:
        self.replicas.health.record_success(name)
        self.taken.append((name, value))

    def raised(self, name: str, error: ReproError) -> None:
        code = error.code if isinstance(error, OwnerReply) else classify_error(500, error)
        if code in FAILED:
            self.replicas.health.record_failure(name)
            self._count(name, "owner_failures")
            self.sick.append(name)
            self.failed = error
            return
        if code != "deadline":
            self.replicas.health.record_success(name)
        if code != MISSED:
            raise error
        self.missed = error

    def _count(self, name: str, counter: str) -> None:
        self.replicas.stats.bump(counter)
        self.replicas.stats.bump_shard(name, counter)

    def verdict(self) -> List[Tuple[str, T]]:
        if self.taken:
            counter = "failovers" if self.reading else "write_failovers"
            for name in self.sick:
                self._count(name, counter)
            return self.taken
        error = self.failed or self.missed
        assert error is not None, "a key always has at least one owner"
        raise error


class Replicas(Generic[S]):
    """The replica policy over one router's shards, health and counters.

    :meth:`run` drives blocking attempts, :meth:`arun` awaitable ones;
    both return the ``(shard name, value)`` of every owner that answered
    — one for a read — or raise the verdict's error.
    """

    def __init__(
        self, router: StoreRouter[S], health: HealthTracker, stats: ServerStats
    ) -> None:
        self.router = router
        self.health = health
        self.stats = stats

    def owners(self, key: str) -> List[Tuple[str, S]]:
        """``key``'s owners in read order: rendezvous rank, healthy first."""
        return self.health.prefer_healthy(self.router.owners(key))

    def run(
        self,
        key: str,
        attempt: Callable[[S], T],
        reading: bool,
        context: Optional[RequestContext] = None,
    ) -> List[Tuple[str, T]]:
        walk: _Walk[S, T] = _Walk(self, key, reading, context)
        for name, shard in walk:
            try:
                walk.took(name, attempt(shard))
            except ReproError as error:
                walk.raised(name, error)
        return walk.verdict()

    async def arun(
        self,
        key: str,
        attempt: Callable[[S], Awaitable[T]],
        reading: bool,
        context: Optional[RequestContext] = None,
    ) -> List[Tuple[str, T]]:
        walk: _Walk[S, T] = _Walk(self, key, reading, context)
        for name, shard in walk:
            try:
                walk.took(name, await attempt(shard))
            except ReproError as error:
                walk.raised(name, error)
        return walk.verdict()
