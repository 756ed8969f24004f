"""Concurrency properties of the store: cache and serving race-freedom.

The serving tier (`repro.serve`) drives one :class:`ImageStore` per shard
from a pool of worker threads, so the store's shared mutable state — the
:class:`CellCache` and the single-flight map above it — must behave under
parallelism exactly as it does serially:

* parallel ``get_region`` calls return byte-identical images to serial
  calls (no torn arrays, no partially-updated cache entries);
* the cache's byte accounting never drifts from the entries it holds and
  never exceeds its budget, no matter how operations interleave;
* when coalescing is claimed (a single-flight herd), the backend decode
  happens exactly once.

Hypothesis drives the sequential state-space (operation interleavings the
LRU machinery must survive); raw thread herds drive the actual races.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.synthetic import generate_planar_image
from repro.serve.flight import SingleFlight
from repro.store.cache import CellCache
from repro.store.store import ImageStore


def _cell(tag: int, samples: int = 8) -> np.ndarray:
    return np.full((1, samples), tag, dtype=np.int64)


class TestCacheAccountingProperties:
    """Hypothesis: byte accounting is exact for ANY operation sequence."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "invalidate", "clear"]),
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=1, max_value=64),
            ),
            max_size=60,
        ),
        max_bytes=st.sampled_from([0, 256, 1024, 1 << 20]),
    )
    @settings(max_examples=60, deadline=None)
    def test_current_bytes_always_matches_held_entries(self, ops, max_bytes):
        cache = CellCache(max_bytes=max_bytes)
        for op, key, samples in ops:
            if op == "put":
                cache.put(key, _cell(key, samples))
            elif op == "get":
                cache.get(key)
            elif op == "invalidate":
                cache.invalidate(key)
            else:
                cache.clear()
            stats = cache.stats
            held = sum(
                array.nbytes
                for array in (cache._entries[k] for k in cache.keys())
            )
            assert stats.current_bytes == held
            assert stats.current_bytes <= max_bytes
            assert stats.entries == len(cache.keys())


class TestCacheUnderThreads:
    def test_hammering_threads_never_tear_the_accounting(self):
        cache = CellCache(max_bytes=8 * 1024)
        herd = 8
        iterations = 300
        barrier = threading.Barrier(herd)
        failures = []

        def worker(worker_index: int) -> None:
            try:
                barrier.wait()
                for step in range(iterations):
                    key = (worker_index * 7 + step) % 13
                    if step % 3 == 0:
                        cache.put(key, _cell(key, samples=16))
                    elif step % 3 == 1:
                        array = cache.get(key)
                        if array is not None:
                            # A cached cell is immutable and self-consistent.
                            assert bool((array == key).all())
                    else:
                        cache.invalidate(key)
            except BaseException as error:
                failures.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(herd)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures

        stats = cache.stats
        held = sum(cache._entries[k].nbytes for k in cache.keys())
        assert stats.current_bytes == held
        assert stats.current_bytes <= cache.max_bytes
        assert stats.hits + stats.misses > 0

    def test_zero_budget_cache_is_safe_under_threads(self):
        cache = CellCache(max_bytes=0)
        barrier = threading.Barrier(4)

        def worker() -> None:
            barrier.wait()
            for step in range(100):
                cache.put(step, _cell(step))
                assert cache.get(step) is None

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(cache) == 0
        assert cache.stats.current_bytes == 0


class TestParallelRegionReads:
    @pytest.fixture()
    def stored(self, tmp_path):
        store = ImageStore.open(tmp_path / "store")
        image = generate_planar_image("lena", size=32, seed=41, planes=3)
        key = store.put(image, stripes=4)
        yield store, key
        store.close()

    def test_parallel_get_region_matches_serial(self, stored):
        """Bytes served under parallelism are identical to serial serving."""
        store, key = stored
        ranges = [(s, s + 1) for s in range(4)] + [(0, 2), (1, 4), (0, 4)]
        serial = {r: store.get_region(key, r) for r in ranges}
        store.cache.clear()

        herd = 8
        barrier = threading.Barrier(herd)
        failures = []
        observed = []
        lock = threading.Lock()

        def worker(worker_index: int) -> None:
            try:
                barrier.wait()
                for offset in range(len(ranges)):
                    region = ranges[(worker_index + offset) % len(ranges)]
                    image = store.get_region(key, region)
                    with lock:
                        observed.append((region, image))
            except BaseException as error:
                with lock:
                    failures.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(herd)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures
        assert len(observed) == herd * len(ranges)
        for region, image in observed:
            assert image == serial[region], "parallel read diverged on %r" % (region,)

    def test_flight_wrapped_reads_decode_each_cell_once(self, stored):
        """SingleFlight + ImageStore: a coalesced herd costs one decode."""
        store, key = stored
        flight = SingleFlight()
        store.cache.clear()
        baseline_misses = store.cache_stats.misses

        herd = 12
        barrier = threading.Barrier(herd)
        results = []
        failures = []
        lock = threading.Lock()

        def worker() -> None:
            try:
                barrier.wait()
                image = flight.run(
                    ("region", key, 0, 1), lambda: store.get_region(key, (0, 1))
                )
                with lock:
                    results.append(image)
            except BaseException as error:
                with lock:
                    failures.append(error)

        threads = [threading.Thread(target=worker) for _ in range(herd)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures
        assert len(results) == herd
        assert all(image == results[0] for image in results)
        decodes = store.cache_stats.misses - baseline_misses
        # 3 planes x 1 stripe = 3 cells; coalescing may straddle at most
        # one flight boundary, so 2 flights x 3 cells is the hard ceiling.
        assert decodes <= 6
        claimed = flight.stats()["coalesced"]
        if claimed:
            # When coalescing is claimed, the followers did NOT decode:
            # leaders alone account for every cache miss.
            assert decodes <= 3 * flight.stats()["leaders"]