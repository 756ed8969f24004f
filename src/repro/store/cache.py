"""Size-bounded LRU caches of the store's two cell tiers.

The unit of caching is the unit of random access: one (plane, stripe)
cell.  Two tiers exist, same machinery, different payloads:

* :class:`CellCache` holds **decoded** cells as ``(rows, width)`` sample
  arrays.  Region and plane queries over a stored stream touch small,
  stable sets of cells, so an LRU over cells turns repeated region
  traffic into pure array reassembly — no backend reads, no CRC checks,
  no entropy decoding.
* :class:`EncodedCellCache` holds **raw encoded** cell bytes — the exact
  span the backend would range-read.  A hit here still pays the CRC
  check and the entropy decode but skips backend I/O entirely; because
  encoded cells are ~8-50x smaller than their decoded arrays, the same
  byte budget keeps an order of magnitude more cells warm-ish.  Disabled
  by default (budget 0).

The bound is in *bytes of decoded samples* (``ndarray.nbytes``), not entry
count, because cell sizes vary wildly with image geometry and stripe count;
a byte budget gives the cache a predictable memory footprint.  Hit, miss
and eviction counters are kept for the ``repro-store stats`` command, the
serving tier's ``/stats`` endpoint and the store benchmark.

Two behaviours matter to the network serving tier built on top:

* **Thread safety** — every operation takes an internal lock, so the
  thread-pool workers of ``repro-serve`` (and any other concurrent
  caller) can share one cache without torn byte accounting or corrupted
  LRU order.  The critical sections are dict moves and counter updates;
  the decode that produces an array always happens outside the lock.
* **Hot-cell admission** — with ``admission="second-touch"`` an array is
  only admitted once its key has been *offered* before: the first
  :meth:`~CellCache.put` records the key in a bounded ghost list (keys
  only, no payload) and is rejected; a repeat offer caches the bytes.
  Lookups do **not** count as touches — the store's universal
  get-miss → decode → put sequence must not self-admit — so a cell pays
  two decodes before it earns cache residency, and one-touch scan
  traffic (a client sweeping every region of a cold corpus once) cannot
  evict the hot working set a serving process has built up.  The default
  ``"always"`` keeps the original behaviour.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigError

__all__ = [
    "CellCache",
    "EncodedCellCache",
    "CacheStats",
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_ENCODED_CACHE_BYTES",
    "ADMISSION_POLICIES",
    "DEFAULT_GHOST_ENTRIES",
]

#: Default decoded-cell budget: 32 MiB ≈ 4 megasamples of int64 cells.
DEFAULT_CACHE_BYTES = 32 * 1024 * 1024

#: Default encoded-bytes budget: 0 — the second tier is opt-in.
DEFAULT_ENCODED_CACHE_BYTES = 0

#: Admission policies a cache can run with.
ADMISSION_POLICIES = ("always", "second-touch")

#: Bound on the second-touch ghost list (keys only — a few KiB of strings).
DEFAULT_GHOST_ENTRIES = 4096


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of a :class:`CellCache`."""

    hits: int
    misses: int
    evictions: int
    entries: int
    current_bytes: int
    max_bytes: int
    admission: str = "always"
    rejected: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 when the cache was never consulted."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_json(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "current_bytes": self.current_bytes,
            "max_bytes": self.max_bytes,
            "hit_rate": self.hit_rate,
            "admission": self.admission,
            "rejected": self.rejected,
        }


class CellCache:
    """LRU mapping of cell keys to decoded sample arrays, bounded in bytes.

    Parameters
    ----------
    max_bytes:
        Total ``nbytes`` budget across cached arrays.  ``0`` disables
        caching entirely (every :meth:`get` misses, :meth:`put` is a no-op),
        which is how the store measures cold latencies.
    admission:
        ``"always"`` admits every decoded array; ``"second-touch"`` admits
        a key only on its second :meth:`put` offer — lookups are *not*
        touches (see :meth:`get`) — keeping one-touch scans from flushing
        the hot set.

    Keys are arbitrary hashables; the store uses ``(blob_key, plane,
    stripe)``.  Stored arrays are marked read-only so a cached cell cannot
    be mutated by one consumer under another's feet.  All operations are
    thread-safe.
    """

    def __init__(
        self, max_bytes: int = DEFAULT_CACHE_BYTES, admission: str = "always"
    ) -> None:
        if max_bytes < 0:
            raise ConfigError("cache byte budget must be >= 0, got %d" % max_bytes)
        if admission not in ADMISSION_POLICIES:
            raise ConfigError(
                "admission must be one of %s, got %r"
                % (", ".join(ADMISSION_POLICIES), admission)
            )
        self.max_bytes = max_bytes
        self.admission = admission
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._ghosts: "OrderedDict[Hashable, None]" = OrderedDict()
        self._current_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._rejected = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Tuple[Hashable, ...]:
        """Cached keys, least recently used first."""
        with self._lock:
            return tuple(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached array for ``key`` (refreshing it), or ``None``.

        A miss is *not* an admission touch: every store read performs
        get-miss → decode → put, so counting the miss would admit every
        key on its first request and disable the second-touch policy.
        """
        with self._lock:
            array = self._entries.get(key)
            if array is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return array

    def get_all(self, keys: Sequence[Hashable]) -> Optional[List[Any]]:
        """Every cached value of ``keys`` in order, or ``None`` if any is missing.

        One lock acquisition covers the whole lookup, so the values form
        one consistent snapshot.  Only a complete hit counts: it refreshes
        and counts a hit per key, while a partial hit counts nothing and
        leaves the LRU order alone.  The caller then falls back to
        :meth:`get` per key, which counts those lookups as usual.
        """
        with self._lock:
            entries = self._entries
            values: List[Any] = []
            for key in keys:
                value = entries.get(key)
                if value is None:
                    return None
                values.append(value)
            for key in keys:
                entries.move_to_end(key)
            self._hits += len(values)
            return values

    def put(self, key: Hashable, array: Any) -> None:
        """Insert ``array`` under ``key``, evicting LRU entries to fit.

        An array larger than the whole budget is not cached at all —
        evicting everything to hold one oversized entry would turn the
        cache into a single-slot buffer.  Under ``second-touch`` admission
        a first-seen key is recorded but its bytes are rejected.
        """
        if self._nbytes(array) > self.max_bytes:
            return
        # Decide admission before paying for the copy: a rejected
        # first-touch offer must not copy a whole decoded cell.
        with self._lock:
            if (
                self.admission == "second-touch"
                and key not in self._entries
                and key not in self._ghosts
            ):
                self._touch_ghost(key)
                self._rejected += 1
                return
        # Freeze a private copy outside the lock: the cache must neither
        # share mutable state with callers nor make a caller's own array
        # read-only under them — and the copy is the expensive part, so it
        # must not serialise other cache users.  (If a concurrent
        # invalidate/clear races between the two critical sections the
        # entry is simply admitted once more; accounting stays exact.)
        frozen = self._freeze(array)
        size = self._nbytes(frozen)
        with self._lock:
            prior = self._entries.pop(key, None)
            if prior is not None:
                self._current_bytes -= self._nbytes(prior)
            self._ghosts.pop(key, None)
            self._entries[key] = frozen
            self._current_bytes += size
            while self._current_bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._current_bytes -= self._nbytes(evicted)
                self._evictions += 1

    @staticmethod
    def _nbytes(value: Any) -> int:
        """Byte charge of one value against the budget."""
        return int(value.nbytes)

    @staticmethod
    def _freeze(value: Any) -> Any:
        """Immutable private copy of the value to be stored."""
        frozen = value.copy()
        frozen.setflags(write=False)
        return frozen

    def _touch_ghost(self, key: Hashable) -> None:
        """Record ``key`` in the bounded seen-once list (lock held)."""
        if self.admission != "second-touch":
            return
        self._ghosts[key] = None
        self._ghosts.move_to_end(key)
        while len(self._ghosts) > DEFAULT_GHOST_ENTRIES:
            self._ghosts.popitem(last=False)

    def invalidate(self, key: Hashable) -> None:
        """Drop one entry if present (used when a blob is deleted)."""
        with self._lock:
            array = self._entries.pop(key, None)
            if array is not None:
                self._current_bytes -= self._nbytes(array)
            self._ghosts.pop(key, None)

    def clear(self) -> None:
        """Drop every entry; counters are kept (they describe the session)."""
        with self._lock:
            self._entries.clear()
            self._ghosts.clear()
            self._current_bytes = 0

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                current_bytes=self._current_bytes,
                max_bytes=self.max_bytes,
                admission=self.admission,
                rejected=self._rejected,
            )


class EncodedCellCache(CellCache):
    """The encoded-bytes tier: same LRU/admission machinery, ``bytes`` values.

    Sits *under* the decoded :class:`CellCache` in the store's lookup
    order — consulted on a decoded miss, filled on a backend read.  A hit
    here skips backend I/O (the expensive part on remote or mmap-cold
    storage) but still pays CRC + entropy decode, which is why the two
    tiers have separate budgets: encoded cells are small enough that a
    modest budget keeps a long tail warm-ish.

    Values are stored as immutable ``bytes``; in particular a
    ``memoryview`` over an mmap'ed blob is **copied out** on admission, so
    the cache never pins a file mapping (and survives the blob being
    swapped or deleted underneath).
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_ENCODED_CACHE_BYTES,
        admission: str = "always",
    ) -> None:
        super().__init__(max_bytes, admission=admission)

    @staticmethod
    def _nbytes(value: Any) -> int:
        return len(value)

    @staticmethod
    def _freeze(value: Any) -> bytes:
        return bytes(value)
