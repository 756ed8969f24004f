"""Integration tests for :class:`repro.store.store.ImageStore`.

The acceptance-defining behaviours live here: serving paths read only the
bytes their query needs (never the whole blob), corrupt blobs are rejected
through the index CRC before any entropy decoding, and batched requests
are observably equivalent to sequential ones.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.store.store as store_module
from repro.core.cellgrid import decode_selection, select_cells
from repro.core.components import decode_plane, decode_region, encode_planar
from repro.core.bitstream import CodecId, pack_stream
from repro.exceptions import (
    BitstreamError,
    BlobNotFoundError,
    ConfigError,
    NotCachedError,
    ReproError,
    StoreError,
)
from repro.imaging.synthetic import generate_image, generate_planar_image
from repro.store import FilesystemBackend, ImageStore, SQLiteBackend


@pytest.fixture(scope="module")
def rgb_image():
    return generate_planar_image("lena", size=24)


@pytest.fixture(params=["filesystem", "sqlite"])
def store(request, tmp_path):
    if request.param == "filesystem":
        backend = FilesystemBackend(tmp_path / "blobs")
    else:
        backend = SQLiteBackend(tmp_path / "blobs.sqlite")
    with ImageStore(backend) as instance:
        yield instance


class TestIngest:
    def test_put_is_content_addressed(self, store, rgb_image):
        key = store.put(rgb_image, stripes=2)
        assert store.put(rgb_image, stripes=2) == key  # same bytes, same key
        assert store.put(rgb_image, stripes=3) != key  # different stream
        assert store.contains(key)

    def test_put_stream_matches_direct_encoding(self, store, rgb_image):
        stream = encode_planar(rgb_image, stripes=2)
        key = store.put_stream(stream)
        assert store.put(rgb_image, stripes=2) == key
        assert store.backend.get(key) == stream

    def test_put_stream_rejects_foreign_codecs(self, store):
        stream = pack_stream(CodecId.JPEG_LS, 4, 4, 8, b"xxxx")
        with pytest.raises(StoreError):
            store.put_stream(stream)

    def test_put_stream_rejects_corrupt_containers(self, store):
        with pytest.raises(BitstreamError):
            store.put_stream(b"RPLC garbage that is not a container")

    def test_gray_images_are_storable(self, store):
        gray = generate_image("boat", size=20)
        key = store.put(gray, stripes=2)
        assert store.get(key) == gray
        assert store.get_plane(key, 0) == gray


class TestServing:
    def test_get_round_trips(self, store, rgb_image):
        key = store.put(rgb_image, stripes=4, plane_delta=True)
        assert store.get(key) == rgb_image

    @pytest.mark.parametrize("plane_delta", [False, True])
    def test_get_plane_matches_in_memory_decoder(self, store, rgb_image, plane_delta):
        key = store.put(rgb_image, stripes=4, plane_delta=plane_delta)
        stream = store.backend.get(key)
        for plane in range(rgb_image.num_planes):
            assert store.get_plane(key, plane) == decode_plane(stream, plane)

    @pytest.mark.parametrize("plane_delta", [False, True])
    def test_get_region_matches_in_memory_decoder(self, store, rgb_image, plane_delta):
        key = store.put(rgb_image, stripes=4, plane_delta=plane_delta)
        stream = store.backend.get(key)
        for stripe_range in ((0, 1), (1, 3), (0, 4)):
            assert store.get_region(key, stripe_range) == decode_region(
                stream, stripe_range
            )

    def test_batched_requests_equal_sequential_gets(self, store, rgb_image):
        key = store.put(rgb_image, stripes=4)
        ranges = [(0, 2), (1, 4), (0, 2), (3, 4)]
        batched = store.get_regions(key, ranges)
        sequential = [store.get_region(key, r) for r in ranges]
        assert batched == sequential

    def test_batched_requests_decode_shared_cells_once(self, store, rgb_image):
        key = store.put(rgb_image, stripes=4)
        store.cache.clear()
        before = store.cache.stats.misses
        store.get_regions(key, [(0, 2), (1, 3), (0, 3), (0, 3)])
        # Distinct cells across the batch: stripes {0,1,2} x 3 planes.
        assert store.cache.stats.misses - before == 9

    def test_serving_never_fetches_the_whole_blob(self, store, rgb_image):
        key = store.put(rgb_image, stripes=4)
        store._headers.clear()
        store.cache.clear()
        store.backend.get = None  # poison the whole-blob path
        assert store.get_plane(key, 1) == rgb_image.plane(1)
        assert store.get_region(key, (1, 3)).plane(0) is not None
        store.get_regions(key, [(0, 2), (2, 4)])

    def test_out_of_range_requests_raise_config_error(self, store, rgb_image):
        key = store.put(rgb_image, stripes=2)
        with pytest.raises(ConfigError):
            store.get_plane(key, 3)
        with pytest.raises(ConfigError):
            store.get_region(key, (0, 5))
        with pytest.raises(ConfigError):
            store.get_regions(key, [(1, 1)])

    def test_unknown_key_raises(self, store):
        with pytest.raises(BlobNotFoundError):
            store.get("0" * 64)
        with pytest.raises(BlobNotFoundError):
            store.get_plane("0" * 64, 0)


class TestCorruption:
    def _corrupt_payload_byte(self, store, key):
        """Flip one payload byte of the stored blob, keeping the index."""
        data = bytearray(store.backend.get(key))
        header_end = store.header(key).payload_offset
        data[header_end + 5] ^= 0xFF
        store.backend.put(key, bytes(data))

    def test_crc_rejects_corrupt_cells_on_read(self, store, rgb_image):
        key = store.put(rgb_image, stripes=2)
        self._corrupt_payload_byte(store, key)
        store.cache.clear()
        with pytest.raises(BitstreamError, match="CRC mismatch"):
            store.get_region(key, (0, 1))

    def test_untouched_cells_still_serve_after_corruption(self, store, rgb_image):
        key = store.put(rgb_image, stripes=2)
        self._corrupt_payload_byte(store, key)  # corrupts plane 0, stripe 0
        store.cache.clear()
        # The last plane's cells are intact and independently coded.
        assert store.get_plane(key, 2) == rgb_image.plane(2)


class TestLifecycle:
    def test_delete_invalidates_cached_cells(self, store, rgb_image):
        key = store.put(rgb_image, stripes=2)
        store.get_region(key, (0, 2))
        assert any(cell_key[0] == key for cell_key in store.cache.keys())
        store.delete(key)
        assert not store.contains(key)
        assert not any(cell_key[0] == key for cell_key in store.cache.keys())
        with pytest.raises(BlobNotFoundError):
            store.get_plane(key, 0)

    def test_header_is_memoized(self, store, rgb_image):
        key = store.put(rgb_image, stripes=2)
        assert store.header(key) is store.header(key)

    def test_stats_shape(self, store, rgb_image):
        key = store.put(rgb_image, stripes=2)
        store.get_region(key, (0, 1))
        payload = store.stats()
        assert payload["backend"]["blobs"] == 1
        assert payload["cache"]["misses"] >= 1
        assert payload["engine"] == "reference"

    def test_engine_dispatch_serves_identically(self, tmp_path, rgb_image):
        with ImageStore(FilesystemBackend(tmp_path / "fast"), engine="fast") as fast:
            with ImageStore(
                FilesystemBackend(tmp_path / "ref"), engine="reference"
            ) as reference:
                fast_key = fast.put(rgb_image, stripes=2)
                reference_key = reference.put(rgb_image, stripes=2)
                # Registry engines are byte-identical, so the content hash agrees.
                assert fast_key == reference_key
                assert fast.get_region(fast_key, (0, 2)) == reference.get_region(
                    reference_key, (0, 2)
                )


def _outcome(call):
    """A read's image, or the type of the library error it raised."""
    try:
        return call()
    except ReproError as error:
        return type(error)


class _UntouchableBackend:
    """Stands in for the backend of a read that must not touch it."""

    def __getattr__(self, name):
        raise AssertionError("the backend was touched (%s)" % name)


@pytest.fixture(params=[1, 2, 3], ids=["v1", "v2", "v3"])
def versioned(request, store):
    """(store, key, image) for one container version, through ``put``."""
    if request.param == 3:
        image = generate_planar_image("peppers", size=20, seed=2)
    else:
        image = generate_image("boat", size=20, seed=2)
    key = store.put(image, stripes=1 if request.param == 1 else 3)
    assert store.header(key).version == request.param
    return store, key, image


class TestFullReadsThroughCells:
    def test_get_equals_the_whole_blob_decode(self, versioned):
        store, key, image = versioned
        whole = decode_selection(store.backend.get(key)).image()
        got = store.get(key)
        assert type(got) is type(whole)
        assert got == whole == image
        # Every cell is now in the decoded tier.
        assert store.get(key, cached_only=True) == image

    def test_get_never_fetches_the_whole_blob(self, store, rgb_image):
        key = store.put(rgb_image, stripes=4)
        store._headers.clear()
        store.cache.clear()
        store.backend.get = None  # poison the whole-blob path
        assert store.get(key) == rgb_image

    @pytest.mark.parametrize("damage", ["truncate", "flip_payload", "flip_header"])
    def test_corrupt_blobs_fail_as_the_whole_blob_decode_did(self, versioned, damage):
        store, key, _ = versioned
        data = bytearray(store.backend.get(key))
        if damage == "truncate":
            data = data[:-1]
        elif damage == "flip_payload":
            data[store.header(key).payload_offset + 3] ^= 0xFF
        else:
            data[10] ^= 0xFF  # the height field
        store.backend.put(key, bytes(data))
        store._drop_cached(key)
        expected = _outcome(lambda: decode_selection(bytes(data)).image())
        assert _outcome(lambda: store.get(key)) == expected


class TestMemoryOnlyReads:
    def test_warm_reads_answer_without_the_backend(self, store, rgb_image):
        key = store.put(rgb_image, stripes=4)
        expected = (store.get(key), store.get_plane(key, 1), store.get_region(key, (1, 3)))
        backend, store.backend = store.backend, _UntouchableBackend()
        try:
            assert store.get(key, cached_only=True) == expected[0]
            assert store.get_plane(key, 1, cached_only=True) == expected[1]
            assert store.get_region(key, (1, 3), cached_only=True) == expected[2]
        finally:
            store.backend = backend

    def test_unmemoized_header_is_not_fetched(self, store, rgb_image):
        key = store.put(rgb_image, stripes=4)
        store.get(key)
        store._headers.clear()
        backend, store.backend = store.backend, _UntouchableBackend()
        try:
            with pytest.raises(NotCachedError):
                store.get_region(key, (0, 1), cached_only=True)
            with pytest.raises(NotCachedError):
                store.header(key, cached_only=True)
        finally:
            store.backend = backend

    def test_partial_hit_counts_nothing(self, store, rgb_image):
        key = store.put(rgb_image, stripes=4)
        store.get_region(key, (0, 2))
        before = store.cache_stats
        with pytest.raises(NotCachedError):
            store.get_region(key, (0, 4), cached_only=True)
        after = store.cache_stats
        assert (after.hits, after.misses) == (before.hits, before.misses)
        store.get_region(key, (0, 4))
        # The blocking read then counts as it always did: 2 stripes x 3
        # planes cached, 2 x 3 decoded.
        final = store.cache_stats
        assert (final.hits - after.hits, final.misses - after.misses) == (6, 6)

    def test_a_complete_hit_counts_each_cell_once(self, store, rgb_image):
        key = store.put(rgb_image, stripes=4)
        store.get_region(key, (1, 3))
        before = store.cache_stats
        store.get_region(key, (1, 3), cached_only=True)
        after = store.cache_stats
        assert (after.hits - before.hits, after.misses - before.misses) == (6, 0)

    def test_reads_over_the_sample_budget_are_declined(self, store, rgb_image, monkeypatch):
        key = store.put(rgb_image, stripes=4)
        store.get(key)
        one_stripe = 6 * 24 * 3  # rows x width x planes
        monkeypatch.setattr(store_module, "MEMORY_READ_MAX_SAMPLES", one_stripe)
        assert store.get_region(key, (0, 1), cached_only=True) == store.get_region(key, (0, 1))
        with pytest.raises(NotCachedError):
            store.get_region(key, (0, 2), cached_only=True)

    def test_tombstoned_key_is_not_found_even_when_cached(self, store, rgb_image):
        key = store.put(rgb_image, stripes=4)
        store.get(key)
        store.soft_delete(key)
        with pytest.raises(BlobNotFoundError):
            store.get_region(key, (0, 1), cached_only=True)

    def test_bad_stripe_range_is_a_config_error(self, store, rgb_image):
        key = store.put(rgb_image, stripes=4)
        with pytest.raises(ConfigError):
            store.get_region(key, (3, 9), cached_only=True)

    def test_cells_of_a_replaced_header_are_not_served(self, store, rgb_image):
        key = store.put(rgb_image, stripes=4)
        store.get(key)
        header = store.header(key)
        # What a swap leaves behind: a new header object for the key.
        store._headers[key] = dataclasses.replace(header)
        plan, _, needed = select_cells(header, None, (0, 1))
        with pytest.raises(NotCachedError):
            store._cached_cells(key, header, [(plane, plan[0]) for plane in needed])
