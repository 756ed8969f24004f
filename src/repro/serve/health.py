"""Health-checked shard membership: hysteresis tracking + active probing.

With replication (:class:`~repro.serve.router.StoreRouter` with ``R > 1``)
a down shard stops being an outage and becomes a routing decision: reads
should *prefer* replicas believed healthy and only fall back to a sick one
as a last resort.  Two cooperating pieces provide the belief:

:class:`HealthTracker`
    A passive, thread-safe state machine fed by outcome reports — from
    the read path (every replica attempt reports success or failure) and
    from the prober.  Transitions carry **hysteresis**: a shard is marked
    ``down`` only after ``down_after`` *consecutive* failures and marked
    ``up`` again only after ``up_after`` consecutive successes, so one
    flaky operation neither ejects a shard nor instantly re-admits a
    flapping one.

:class:`HealthProber`
    A daemon thread that calls every shard's cheap
    :meth:`~repro.serve.router.Shard.probe` on an interval and feeds the
    tracker: a local store asks its backend about a key
    (``backend.contains``), a proxied worker group answers ``GET
    /healthz`` from any of its workers.  Probes run under their own
    :class:`~repro.serve.deadline.RequestContext` with a short deadline,
    so a *stalled* backend (the chaos harness's favourite fault) or a
    hung worker fails the probe instead of wedging the prober thread —
    the same cooperative-abandonment seam the request path uses.  Active
    probing is what notices a shard's **recovery** while traffic is
    avoiding it: passive reports alone would keep a down shard down
    forever once the replica policy stops sending it reads.

Neither piece ever *blocks* routing: a down shard is deprioritised, not
removed — if every healthy replica misses, the read path still tries the
sick ones, so health flapping can degrade latency but never correctness.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.exceptions import ConfigError
from repro.serve.deadline import Deadline, RequestContext, bind_context
from repro.serve.router import StoreRouter

__all__ = ["HealthProber", "HealthTracker", "ShardHealth"]

T = TypeVar("T")


class ShardHealth:
    """Mutable health record of one shard (guarded by the tracker lock)."""

    __slots__ = (
        "up",
        "consecutive_failures",
        "consecutive_successes",
        "failures",
        "successes",
        "transitions",
        "changed_at",
    )

    def __init__(self) -> None:
        self.up = True
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        self.failures = 0
        self.successes = 0
        self.transitions = 0
        self.changed_at: Optional[float] = None

    def as_json(self) -> Dict[str, object]:
        return {
            "up": self.up,
            "consecutive_failures": self.consecutive_failures,
            "consecutive_successes": self.consecutive_successes,
            "failures": self.failures,
            "successes": self.successes,
            "transitions": self.transitions,
            "changed_at": self.changed_at,
        }


class HealthTracker:
    """Per-shard up/down state with hysteresis on both transitions.

    Every shard starts ``up`` — an unknown shard must be routable, and the
    first ``down_after`` failures flip it fast enough.  Names never seen
    before are registered lazily, so a shard joining through a live
    reshard is tracked the moment anything reports about it.
    """

    def __init__(
        self,
        names: Optional[List[str]] = None,
        down_after: int = 3,
        up_after: int = 2,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if down_after < 1:
            raise ConfigError("down_after must be >= 1, got %d" % down_after)
        if up_after < 1:
            raise ConfigError("up_after must be >= 1, got %d" % up_after)
        self.down_after = down_after
        self.up_after = up_after
        self._clock = clock
        self._lock = threading.Lock()
        self._shards: Dict[str, ShardHealth] = {}
        for name in names or []:
            self._shards[name] = ShardHealth()

    def _entry(self, name: str) -> ShardHealth:
        entry = self._shards.get(name)
        if entry is None:
            entry = self._shards[name] = ShardHealth()
        return entry

    def record_success(self, name: str) -> None:
        """One successful operation (or probe) against ``name``."""
        with self._lock:
            entry = self._entry(name)
            entry.successes += 1
            entry.consecutive_failures = 0
            entry.consecutive_successes += 1
            if not entry.up and entry.consecutive_successes >= self.up_after:
                entry.up = True
                entry.transitions += 1
                entry.changed_at = self._clock()

    def record_failure(self, name: str) -> None:
        """One failed operation (or probe) against ``name``."""
        with self._lock:
            entry = self._entry(name)
            entry.failures += 1
            entry.consecutive_successes = 0
            entry.consecutive_failures += 1
            if entry.up and entry.consecutive_failures >= self.down_after:
                entry.up = False
                entry.transitions += 1
                entry.changed_at = self._clock()

    def is_up(self, name: str) -> bool:
        """Current belief about ``name`` (unknown shards default to up)."""
        with self._lock:
            entry = self._shards.get(name)
            return True if entry is None else entry.up

    def down_shards(self) -> List[str]:
        with self._lock:
            return sorted(
                name for name, entry in self._shards.items() if not entry.up
            )

    def prefer_healthy(self, candidates: List[Tuple[str, T]]) -> List[Tuple[str, T]]:
        """Stable-partition ``(name, value)`` pairs: believed-up first.

        Down shards stay in the list (as a last resort) so health state
        can only reorder a read's replica attempts, never hide data.
        """
        with self._lock:
            states = {name: entry.up for name, entry in self._shards.items()}
        healthy = [pair for pair in candidates if states.get(pair[0], True)]
        sick = [pair for pair in candidates if not states.get(pair[0], True)]
        return healthy + sick

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-shard health for ``/stats`` (state, streaks, transitions)."""
        with self._lock:
            return {name: entry.as_json() for name, entry in self._shards.items()}


class HealthProber:
    """Background prober feeding a :class:`HealthTracker` from real I/O.

    One daemon thread sweeps every shard each ``interval`` seconds.  Each
    probe binds a throwaway :class:`RequestContext` whose deadline is
    ``timeout``, so backends that honour the cooperative-abandonment seam
    (the chaos injector's stall loop does) raise out of a hung probe
    instead of blocking the sweep; a probe that still exceeds its budget
    is counted as a failure either way.
    """

    def __init__(
        self,
        router: StoreRouter,
        tracker: HealthTracker,
        interval: float = 2.0,
        timeout: float = 1.0,
    ) -> None:
        if interval <= 0:
            raise ConfigError("probe interval must be positive, got %r" % interval)
        if timeout <= 0:
            raise ConfigError("probe timeout must be positive, got %r" % timeout)
        self.router = router
        self.tracker = tracker
        self.interval = interval
        self.timeout = timeout
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._probes = 0
        self._probe_failures = 0

    def probe_once(self) -> Dict[str, bool]:
        """Probe every shard once; returns the per-shard outcome."""
        outcomes: Dict[str, bool] = {}
        for name, shard in zip(self.router.names, self.router.stores):
            context = RequestContext(Deadline(self.timeout), endpoint="probe")
            bind_context(context)
            try:
                ok = shard.probe() and not context.deadline.expired
            except Exception:
                # A probe must never take the prober thread down; any
                # failure, expected or not, is simply an unhealthy answer.
                ok = False
            finally:
                bind_context(None)
            outcomes[name] = ok
            with self._lock:
                self._probes += 1
                if not ok:
                    self._probe_failures += 1
            if ok:
                self.tracker.record_success(name)
            else:
                self.tracker.record_failure(name)
        return outcomes

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.probe_once()

    def start(self) -> "HealthProber":
        """Start the sweep thread (idempotent); returns self for chaining."""
        with self._lock:
            if self._thread is not None:
                return self
            self._thread = threading.Thread(
                target=self._run, name="repro-serve-health", daemon=True
            )
        self._thread.start()
        return self

    def stop(self, join_timeout: float = 5.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=join_timeout)
            self._thread = None

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"probes": self._probes, "probe_failures": self._probe_failures}
