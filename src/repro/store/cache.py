"""The store's size-bounded LRU of decoded cells.

The unit of caching is the unit of random access: one (plane, stripe)
cell, held as its ``(rows, width)`` decoded sample array.  Region and
plane queries over a stored stream touch small, stable sets of cells, so
an LRU over cells turns repeated region traffic into pure array
reassembly — no backend reads, no CRC checks, no entropy decoding.
Every decoded cell is admitted.

The bound is in *bytes of decoded samples* (``ndarray.nbytes``), not entry
count, because cell sizes vary wildly with image geometry and stripe count;
a byte budget gives the cache a predictable memory footprint.  Hit, miss
and eviction counters are kept for the ``repro-store stats`` command, the
serving tier's ``/stats`` endpoint and the store benchmark.

Every operation takes an internal lock, so the thread-pool workers of
``repro-serve`` (and any other concurrent caller) can share one cache
without torn byte accounting or corrupted LRU order.  The critical
sections are dict moves and counter updates; the decode that produces an
array always happens outside the lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigError

__all__ = ["CellCache", "CacheStats", "DEFAULT_CACHE_BYTES"]

#: Default decoded-cell budget: 32 MiB ≈ 4 megasamples of int64 cells.
DEFAULT_CACHE_BYTES = 32 * 1024 * 1024


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of a :class:`CellCache`."""

    hits: int
    misses: int
    evictions: int
    entries: int
    current_bytes: int
    max_bytes: int

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
        }


class CellCache:
    """LRU mapping of cell keys to decoded sample arrays, bounded in bytes.

    Parameters
    ----------
    max_bytes:
        Total ``nbytes`` budget across cached arrays.  ``0`` disables
        caching entirely (every :meth:`get` misses, :meth:`put` is a no-op),
        which is how the store measures cold latencies.

    Keys are arbitrary hashables; the store uses ``(blob_key, plane,
    stripe)``.  Stored arrays are marked read-only so a cached cell cannot
    be mutated by one consumer under another's feet.  All operations are
    thread-safe.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_bytes < 0:
            raise ConfigError("cache byte budget must be >= 0, got %d" % max_bytes)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, np.ndarray]" = OrderedDict()
        self._current_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

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

    def get(self, key: Hashable) -> Optional[np.ndarray]:
        """Return the cached array for ``key`` (refreshing it), or ``None``."""
        with self._lock:
            array = self._entries.get(key)
            if array is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return array

    def get_all(self, keys: Sequence[Hashable]) -> Optional[List[np.ndarray]]:
        """Every cached value of ``keys`` in order, or ``None`` if any is missing.

        One lock acquisition covers the whole lookup, so the values form
        one consistent snapshot.  Only a complete hit counts: it refreshes
        and counts a hit per key, while a partial hit counts nothing and
        leaves the LRU order alone.  The caller then falls back to
        :meth:`get` per key, which counts those lookups as usual.
        """
        with self._lock:
            entries = self._entries
            values: List[np.ndarray] = []
            for key in keys:
                value = entries.get(key)
                if value is None:
                    return None
                values.append(value)
            for key in keys:
                entries.move_to_end(key)
            self._hits += len(values)
            return values

    def put(self, key: Hashable, array: np.ndarray) -> None:
        """Insert ``array`` under ``key``, evicting LRU entries to fit.

        An array larger than the whole budget is not cached at all —
        evicting everything to hold one oversized entry would turn the
        cache into a single-slot buffer.
        """
        if array.nbytes > self.max_bytes:
            return
        # Freeze a private copy outside the lock: the cache must neither
        # share mutable state with callers nor make a caller's own array
        # read-only under them — and the copy is the expensive part, so it
        # must not serialise other cache users.
        frozen = array.copy()
        frozen.setflags(write=False)
        with self._lock:
            prior = self._entries.pop(key, None)
            if prior is not None:
                self._current_bytes -= prior.nbytes
            self._entries[key] = frozen
            self._current_bytes += frozen.nbytes
            while self._current_bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._current_bytes -= evicted.nbytes
                self._evictions += 1

    def invalidate(self, key: Hashable) -> None:
        """Drop one entry if present (used when a blob is deleted)."""
        with self._lock:
            array = self._entries.pop(key, None)
            if array is not None:
                self._current_bytes -= array.nbytes

    def clear(self) -> None:
        """Drop every entry; counters are kept (they describe the session)."""
        with self._lock:
            self._entries.clear()
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
            )
