"""The read path's batched range reads and the header-prefix memo.

These tests pin the perf-critical contracts the serve tier relies on:

* ``read_ranges`` answers a whole batch from one backend access per key
  (one open handle or one lock acquisition), not one open per cell;
* the stream-prefix parse pays its double ``read_range`` at most once per
  key lifetime — the resolved prefix length is memoized.
"""

from __future__ import annotations

import pytest

from repro.core.cellgrid import encode_grid
from repro.core.config import CodecConfig
from repro.exceptions import BlobNotFoundError
from repro.imaging.synthetic import generate_noise_image
from repro.store.backends import FilesystemBackend, SQLiteBackend
from repro.store.store import ImageStore

BLOB = bytes(range(256)) * 8


class _CountingBackend:
    """Wraps a backend, counting read_range calls."""

    def __init__(self, inner):
        self.inner = inner
        self.read_range_calls = []

    def read_range(self, key, offset, length):
        self.read_range_calls.append((key, offset, length))
        return self.inner.read_range(key, offset, length)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _stream(seed=3, size=24, stripes=4):
    image = generate_noise_image(size=size, seed=seed)
    data, _ = encode_grid(image, CodecConfig.hardware(), stripes=stripes)
    return image, data


class TestBatchedRanges:
    @pytest.mark.parametrize("mode", ["filesystem", "sqlite"])
    def test_read_ranges_matches_read_range(self, tmp_path, mode):
        if mode == "sqlite":
            backend = SQLiteBackend(tmp_path / "blobs.sqlite")
        else:
            backend = FilesystemBackend(tmp_path)
        backend.put("k", BLOB)
        spans = [(0, 16), (100, 50), (len(BLOB) - 4, 100), (7, 0)]
        batched = backend.read_ranges("k", spans)
        singles = [backend.read_range("k", o, n) for o, n in spans]
        assert [bytes(b) for b in batched] == [bytes(s) for s in singles]
        backend.close()

    def test_read_ranges_missing_key(self, tmp_path):
        backend = FilesystemBackend(tmp_path)
        with pytest.raises(BlobNotFoundError):
            backend.read_ranges("missing", [(0, 4)])
        backend.close()


class TestPrefixMemo:
    def test_double_probe_happens_at_most_once_per_key(self, tmp_path):
        image, data = _stream(seed=11, stripes=8)
        store = ImageStore.open(tmp_path / "store", cache_bytes=0)
        counting = _CountingBackend(store.backend)
        store.backend = counting
        key = store.put_stream(data)

        # First cold parse: the fixed-size probe may fall short of the
        # stripe table and pay a second, exact-length read.
        store._headers.pop(key, None)
        store.header(key)
        first = [c for c in counting.read_range_calls if c[1] == 0]
        counting.read_range_calls.clear()

        # Every later cold parse reads the memoized exact length at once.
        store._headers.pop(key, None)
        store.header(key)
        second = [c for c in counting.read_range_calls if c[1] == 0]
        assert len(second) == 1
        assert len(second) <= len(first)

    def test_memo_survives_cache_drop(self, tmp_path):
        image, data = _stream(seed=13, stripes=8)
        store = ImageStore.open(tmp_path / "store", cache_bytes=0)
        key = store.put_stream(data)
        # put_stream memoizes the parsed header directly; the prefix hint
        # is recorded by the first *cold* parse.
        store._headers.pop(key, None)
        store.header(key)
        assert key in store._prefix_lengths
        store._drop_cached(key)
        assert key in store._prefix_lengths
