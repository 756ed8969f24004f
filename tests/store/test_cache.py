"""Unit tests for the decoded-cell LRU cache: eviction order, byte bound,
counters — the properties the store's latency claims rest on."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.store.cache import CellCache


def _cell(value: int, samples: int = 8) -> np.ndarray:
    return np.full((1, samples), value, dtype=np.int64)  # 8 bytes per sample


class TestLruSemantics:
    def test_evicts_least_recently_used_first(self):
        cache = CellCache(max_bytes=3 * 64)
        for key in ("a", "b", "c"):
            cache.put(key, _cell(1))
        cache.get("a")  # refresh: now b is the LRU entry
        cache.put("d", _cell(2))
        assert "b" not in cache
        assert all(key in cache for key in ("a", "c", "d"))
        assert cache.stats.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = CellCache(max_bytes=2 * 64)
        cache.put("a", _cell(1))
        cache.put("b", _cell(2))
        cache.put("a", _cell(3))  # re-put refreshes recency, keeps budget
        cache.put("c", _cell(4))
        assert "b" not in cache
        assert (cache.get("a") == 3).all()

    def test_byte_budget_is_enforced(self):
        cache = CellCache(max_bytes=1000)
        for index in range(50):
            cache.put(index, _cell(index))  # 64 bytes each
        assert cache.stats.current_bytes <= 1000
        assert len(cache) == 1000 // 64
        # The survivors are exactly the most recently inserted keys.
        assert set(cache.keys()) == set(range(50 - 1000 // 64, 50))

    def test_oversized_entry_is_not_cached(self):
        cache = CellCache(max_bytes=100)
        cache.put("small", _cell(1))  # 64 bytes
        cache.put("huge", np.zeros((100, 100), dtype=np.int64))
        assert "huge" not in cache
        assert "small" in cache  # nothing was evicted for the oversized entry

    def test_zero_budget_disables_caching(self):
        cache = CellCache(max_bytes=0)
        cache.put("a", _cell(1))
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            CellCache(max_bytes=-1)


class TestCounters:
    def test_hit_miss_accounting(self):
        cache = CellCache(max_bytes=1024)
        assert cache.get("a") is None
        cache.put("a", _cell(1))
        assert cache.get("a") is not None
        assert cache.get("b") is None
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 2)
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_clear_drops_entries_keeps_counters(self):
        cache = CellCache(max_bytes=1024)
        cache.put("a", _cell(1))
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.current_bytes == 0
        assert cache.stats.hits == 1

    def test_cached_arrays_are_read_only(self):
        cache = CellCache(max_bytes=1024)
        cache.put("a", _cell(1))
        array = cache.get("a")
        with pytest.raises(ValueError):
            array[0, 0] = 99

    def test_stats_as_json_round_trips(self):
        cache = CellCache(max_bytes=1024)
        cache.put("a", _cell(1))
        payload = cache.stats.as_json()
        assert payload["entries"] == 1
        assert payload["current_bytes"] == 64
        assert payload["max_bytes"] == 1024
