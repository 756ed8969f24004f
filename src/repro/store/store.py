"""Content-addressed image store with cached random access.

:class:`ImageStore` is the serving layer over the version-3 container's
random-access index: compressed streams live in a
:class:`~repro.store.backends.BlobBackend` keyed by the SHA-256 of their
bytes, and plane/region queries are answered by

1. parsing the container's header + tables from a small range read
   (memoized per key — the index of a hot blob is fetched once),
2. mapping the query onto (plane, stripe) cells through the same
   :func:`repro.core.cellgrid.select_cells` validation every in-memory
   decoder uses,
3. serving each cell from the LRU :class:`~repro.store.cache.CellCache`
   when possible, and otherwise range-reading exactly that cell's bytes,
   CRC-checking them against the index and entropy-decoding them.

Every read, a full :meth:`get` included, goes through those cells, so
its cost is proportional to the query and its cells stay warm for the
next one — which is what makes region-heavy workloads (cumulative-plot
scans over stored signal planes, cohort-style batched region pulls)
cheap.  Batched requests (:meth:`get_regions`) dedupe the cell set across
regions before touching the backend, so overlapping regions cost one
decode per distinct cell.

Reads also have a **memory-only mode** (``cached_only=True``) for
callers that must not block, such as the serving tier's event loop: it
answers from the memoized header and the decoded tier alone and raises
:class:`~repro.exceptions.NotCachedError` instead of reading the backend,
decoding or waiting on a lock that disk I/O holds.

Beside the blobs the store keeps a **metadata catalog**
(:mod:`repro.store.catalog`): one entry per stream recorded at ``put``
time (geometry, engine, container version, byte sizes, ingest time, user
tags) that powers ``repro-store ls`` queries and the data-plane lifecycle:

* :meth:`soft_delete` stamps a tombstone with a TTL instead of removing
  bytes; tombstoned streams answer :class:`BlobNotFoundError` on the read
  paths unless ``include_deleted=True``, and re-putting the same bytes
  (or :meth:`restore`) revives them.
* The GC sweep (:mod:`repro.store.gc`) purges expired tombstones through
  :meth:`purge_if_unpinned`, and the recompactor
  (:mod:`repro.store.compactor`) swaps re-encoded blobs in through
  :meth:`swap_stream` — both primitives take the store's **pin lock**, so
  neither can ever remove or replace a blob out from under an in-flight
  read.

Concurrency invariants the serving tier relies on:

* every read path (**get/get_plane/get_region/get_regions**) *pins* its
  key for the duration of the operation (the memory-only mode excepted,
  see :meth:`ImageStore._read`); :meth:`purge_if_unpinned` and
  :meth:`swap_stream` refuse to act on a pinned key, and a pin taken
  after a swap observes the fresh header and cells (the swap invalidates
  the memoized header and every cached cell of the key atomically with
  the blob replacement);
* the decoded-cell cache is thread-safe (see
  :class:`~repro.store.cache.CellCache`) and every cell served from the
  backend is CRC-verified against the container index before entropy
  decoding.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.bitstream import (
    CodecId,
    StreamHeader,
    TABLE_PROBE_LENGTH,
    component_spans,
    parse_stream_header,
    parse_stream_prefix,
    table_prefix_length,
)
from repro.core.cellgrid import (
    DecodedSelection,
    assemble_selection,
    decode_one_cell,
    encode_grid,
    select_cells,
)
from repro.core.config import CodecConfig
from repro.core.decoder import resolve_stream_config
from repro.exceptions import BlobNotFoundError, NotCachedError, StoreError
from repro.imaging.image import GrayImage
from repro.imaging.planar import PlanarImage
from repro.store.backends import BlobBackend, open_backend
from repro.store.cache import DEFAULT_CACHE_BYTES, CacheStats, CellCache
from repro.store.catalog import (
    DEFAULT_TTL_SECONDS,
    Catalog,
    CatalogEntry,
    open_catalog,
)

__all__ = ["MEMORY_READ_MAX_SAMPLES", "ImageStore"]

_CellKey = Tuple[str, int, int]

#: Largest read, in assembled samples over all planes, that the
#: memory-only mode serves; larger reads raise ``NotCachedError`` even
#: when every cell is cached.  It bounds how long one memory-only read
#: holds up its caller (the serving tier's event loop): a warm
#: 512x512x3 region, exactly this size, is assembled and rendered to
#: Netpbm in ~1.7 ms on a 2-CPU VM.
MEMORY_READ_MAX_SAMPLES = 512 * 512 * 3

#: Key :meth:`ImageStore.probe` asks the backend about.  ``contains`` on a
#: key that does not exist is the cheapest data-path operation every
#: backend supports, and it rides through fault injectors like any read.
PROBE_KEY = "__repro_health_probe__"


class ImageStore:
    """Keyed store of compressed image streams with cached random access.

    Parameters
    ----------
    backend:
        Blob storage (see :mod:`repro.store.backends`).
    cache_bytes:
        Byte budget of the decoded-cell LRU cache; ``0`` disables caching.
    config:
        Optional codec configuration forced on every decode; by default
        each stream's configuration is reconstructed from its own header,
        so one store can hold streams of mixed bit depths and presets.
    engine:
        Registered coding engine used for decoding (and for :meth:`put`
        encodes); any engine name accepted by
        :func:`repro.core.interface.get_engine`.
    cell_hook:
        Optional callable invoked before every cell fetch+decode on the
        random-access paths.  The serving tier installs its deadline
        checkpoint here so a multi-cell decode whose request expired or
        whose client disconnected aborts at the next cell boundary
        (raising from the hook) instead of running to completion on a
        worker thread nobody is waiting for.

    Invariants
    ----------
    * **Thread-safe.**  Every public method may be called from any
      thread: the cache, the catalog and the read-pin bookkeeping carry
      their own locks, and the backends serialize their mutations.
    * **CRC before entropy decode.**  Cells served off the random-access
      paths are checksummed against the container's per-cell CRC-32
      before any entropy decoding; corruption raises
      :class:`~repro.exceptions.BitstreamError`, never garbage pixels.
    * **Reads pin their key.**  All read paths hold a per-key refcount
      for their duration; :meth:`purge_if_unpinned` (the GC sweep) and
      :meth:`swap_stream` (the compactor) take the same lock, so a
      pinned key is never purged or swapped mid-read.  Memory-only reads
      (``cached_only=True``) touch no blob and take no pin.
    * **Soft deletion is two-phase.**  :meth:`soft_delete` stamps a
      tombstone (reads answer :class:`BlobNotFoundError`, the blob
      stays); only an expired tombstone is purged, by an explicit sweep.
    * **Swaps are atomic per key.**  :meth:`swap_stream` replaces blob,
      memoized header and cached cells under the pin lock — concurrent
      readers see the old container or the new one, never a mix.

    Examples
    --------
    >>> from repro.imaging.synthetic import generate_planar_image
    >>> store = ImageStore.open("/tmp/repro-store-doctest")
    >>> key = store.put(generate_planar_image("lena", size=16), stripes=2)
    >>> store.get_region(key, (0, 1)).height <= 16
    True
    """

    def __init__(
        self,
        backend: BlobBackend,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        config: Optional[CodecConfig] = None,
        engine: str = "reference",
        cell_hook: Optional[Callable[[], None]] = None,
        catalog: Optional[Catalog] = None,
    ) -> None:
        from repro.core.interface import require_engine

        self.backend = backend
        self.cache = CellCache(cache_bytes)
        self.config = config
        self.engine = require_engine(engine)
        self.cell_hook = cell_hook
        self.catalog = catalog if catalog is not None else open_catalog(backend)
        self._headers: Dict[str, StreamHeader] = {}
        # Resolved header+tables prefix length per key.  Kept separate from
        # the memoized headers (and deliberately NOT dropped with them): a
        # stale hint after a swap merely sizes the first probe wrong and
        # self-heals, whereas knowing the right length turns the cold
        # header parse of a long-table stream into one range read instead
        # of two.
        self._prefix_lengths: Dict[str, int] = {}
        # Read-pin bookkeeping: reads hold a refcount on their key so the
        # GC sweep and the recompactor never act under an in-flight read.
        self._pin_lock = threading.Lock()
        self._pins: Dict[str, int] = {}

    def wrap_backend(
        self, wrapper: Callable[[BlobBackend], BlobBackend]
    ) -> BlobBackend:
        """Replace the backend with ``wrapper(backend)`` and return it.

        The seam fault-injection harnesses use: a chaos proxy (or any
        other decorator — tracing, metrics) slots in *after* the store is
        open and serving, without the store knowing.  Cached headers and
        decoded cells are kept — the wrapper sees the same blobs.
        """
        self.backend = wrapper(self.backend)
        return self.backend

    @classmethod
    def open(cls, path: Union[str, Path], **kwargs) -> "ImageStore":
        """Open a store at ``path`` (SQLite file or filesystem directory)."""
        return cls(open_backend(path), **kwargs)

    def close(self) -> None:
        self.catalog.close()
        self.backend.close()

    def __enter__(self) -> "ImageStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # ingest
    # ------------------------------------------------------------------ #

    def put_stream(
        self, data: bytes, tags: Optional[Dict[str, str]] = None
    ) -> str:
        """Store one complete ``.rplc`` container; returns its content key.

        The container is validated (header, tables, framing) and must be a
        proposed-codec stream — that is what the serving paths can decode.
        Storing the same bytes twice is a no-op returning the same key
        (tags are merged into the existing catalog entry), and re-putting
        a soft-deleted stream revives it: the tombstone is cleared.
        """
        header = parse_stream_header(data)
        if header.codec not in (CodecId.PROPOSED, CodecId.PROPOSED_HARDWARE):
            raise StoreError(
                "only proposed-codec streams can be served, got codec %s"
                % header.codec.name
            )
        key = hashlib.sha256(data).hexdigest()
        if not self.backend.contains(key):
            self.backend.put(key, data)
        self._headers[key] = header
        self.catalog.record_put(self._entry_for(key, header, len(data), tags))
        return key

    def _entry_for(
        self,
        key: str,
        header: StreamHeader,
        encoded_bytes: int,
        tags: Optional[Dict[str, str]] = None,
    ) -> CatalogEntry:
        """Catalog entry describing a just-ingested (or swapped) stream."""
        samples = header.pixel_count * header.component_count
        return CatalogEntry(
            key=key,
            width=header.width,
            height=header.height,
            planes=header.component_count,
            bit_depth=header.bit_depth,
            version=header.version,
            stripes=header.stripe_count,
            plane_delta=header.plane_delta,
            engine=self.engine,
            encoded_bytes=encoded_bytes,
            decoded_bytes=samples * ((header.bit_depth + 7) // 8),
            created_at=time.time(),
            tags=tuple(sorted((tags or {}).items())),
        )

    def put(
        self,
        image: Union[GrayImage, PlanarImage],
        config: Optional[CodecConfig] = None,
        stripes: int = 1,
        plane_delta: bool = False,
        tags: Optional[Dict[str, str]] = None,
    ) -> str:
        """Encode ``image`` (through the cell-grid pipeline) and store it.

        ``stripes`` controls random-access granularity: more stripes mean
        finer regions at a small compression cost.  ``tags`` are free-form
        ``str -> str`` metadata recorded in the catalog.  Returns the
        content key of the encoded stream.
        """
        if config is None:
            config = self.config
        if config is None:
            config = CodecConfig.hardware(bit_depth=image.bit_depth)
        stream, _ = encode_grid(
            image,
            config,
            engine=self.engine,
            stripes=stripes,
            plane_delta=plane_delta,
        )
        return self.put_stream(stream, tags=tags)

    # ------------------------------------------------------------------ #
    # catalogue
    # ------------------------------------------------------------------ #

    def keys(self) -> Iterator[str]:
        """Iterate over every stored content key (tombstoned ones included)."""
        return self.backend.keys()

    def contains(self, key: str) -> bool:
        return self.backend.contains(key)

    def probe(self) -> bool:
        """A health probe: True once the backend answered a cheap lookup."""
        self.backend.contains(PROBE_KEY)
        return True

    def delete(self, key: str) -> None:
        """Hard-remove a blob, its catalog entry and every cached artefact.

        Immediate and unconditional — the lifecycle-respecting path is
        :meth:`soft_delete` + the GC sweep.
        """
        self.backend.delete(key)
        self.catalog.purge(key)
        self._drop_cached(key)

    def _drop_cached(self, key: str) -> None:
        """Forget the memoized header and cached cells of one key.

        The prefix-length hint survives on purpose: it is a probe-sizing
        hint, not data, and a stale one self-heals on the next parse.
        """
        self._headers.pop(key, None)
        for cell_key in list(self.cache.keys()):
            if cell_key[0] == key:
                self.cache.invalidate(cell_key)

    # ------------------------------------------------------------------ #
    # lifecycle: soft delete, pins, GC/compaction primitives
    # ------------------------------------------------------------------ #

    def soft_delete(
        self, key: str, ttl_seconds: float = DEFAULT_TTL_SECONDS, now: Optional[float] = None
    ) -> CatalogEntry:
        """Tombstone a stream: hidden from reads, bytes kept until GC.

        The blob stays in the backend and the catalog entry stays
        queryable (``include_deleted=True``); after ``ttl_seconds`` the
        tombstone is *eligible* for the GC sweep, which is what actually
        reclaims the bytes.  Returns the tombstoned entry.
        """
        if not self.backend.contains(key):
            raise BlobNotFoundError("no blob stored under key %r" % key)
        if self.catalog.get(key) is None:
            # Pre-catalog blob: synthesise its entry from the header so
            # the tombstone has somewhere to live.
            header = self.header(key)
            self.catalog.record_put(
                self._entry_for(key, header, self.backend.length(key))
            )
        return self.catalog.mark_deleted(
            key, time.time() if now is None else now, ttl_seconds
        )

    def restore(self, key: str) -> CatalogEntry:
        """Clear a tombstone (no-op on the blob; it never went away)."""
        return self.catalog.restore(key)

    @contextmanager
    def _pin(self, key: str) -> Iterator[None]:
        """Hold a read pin on ``key`` for the duration of the block."""
        with self._pin_lock:
            self._pins[key] = self._pins.get(key, 0) + 1
        try:
            yield
        finally:
            with self._pin_lock:
                remaining = self._pins.get(key, 1) - 1
                if remaining <= 0:
                    self._pins.pop(key, None)
                else:
                    self._pins[key] = remaining

    def pinned(self, key: str) -> bool:
        """Whether any in-flight read currently holds ``key``."""
        with self._pin_lock:
            return self._pins.get(key, 0) > 0

    def purge_if_unpinned(self, key: str) -> Optional[int]:
        """Remove a blob unless an in-flight read holds it (the GC primitive).

        Returns the reclaimed byte count, or ``None`` when the key was
        pinned and nothing was touched.  The pin lock is held across the
        whole removal, so the outcome against any concurrent read is
        strictly ordered: either the read pinned first (the purge is
        skipped this sweep) or the purge finished first (the read
        observes :class:`BlobNotFoundError`).
        """
        with self._pin_lock:
            if self._pins.get(key, 0) > 0:
                return None
            try:
                reclaimed = self.backend.length(key)
                self.backend.delete(key)
            except BlobNotFoundError:
                reclaimed = 0
            self.catalog.purge(key)
            self._drop_cached(key)
            return reclaimed

    def swap_stream(self, data: bytes, key: str, engine: Optional[str] = None) -> bool:
        """Atomically replace the blob under ``key`` (the compaction primitive).

        The caller (:mod:`repro.store.compactor`) must already have
        verified that ``data`` decodes to byte-identical pixels; ``engine``
        records which engine produced the new container in the catalog
        (defaults to the store's engine).  Returns ``False`` without
        touching anything when an in-flight read holds the key; on success
        the backend blob, the memoized header and every cached cell are
        replaced atomically with respect to the pin lock, so the next read
        parses the fresh container.
        """
        header = parse_stream_header(data)
        with self._pin_lock:
            if self._pins.get(key, 0) > 0:
                return False
            self.backend.put(key, data)
            self._drop_cached(key)
            self._headers[key] = header
            if self.catalog.get(key) is not None:
                self.catalog.update(
                    key,
                    encoded_bytes=len(data),
                    version=header.version,
                    stripes=header.stripe_count,
                    plane_delta=header.plane_delta,
                    engine=engine if engine is not None else self.engine,
                    compacted_at=time.time(),
                )
            return True

    def _check_visible(
        self, key: str, include_deleted: bool, cached_only: bool = False
    ) -> None:
        """Raise for reads of tombstoned keys unless explicitly included.

        A blocking read that finds a tombstone refreshes the key's catalog
        entry first: another process sharing this store may have revived
        or purged the key since this catalog view last read it.  A
        ``cached_only`` read raises at once instead; it must not do I/O.
        """
        if include_deleted:
            return
        entry = self.catalog.get(key)
        if entry is not None and entry.deleted and not cached_only:
            self.catalog.refresh(key)
            entry = self.catalog.get(key)
        if entry is not None and entry.deleted:
            raise BlobNotFoundError(
                "key %s is soft-deleted (restore it or pass include_deleted=True)"
                % key
            )

    def header(self, key: str, cached_only: bool = False) -> StreamHeader:
        """The stream's parsed header + index, fetched by range read.

        Memoized per key: serving N regions of a hot blob parses its
        tables once, and the payload is never touched.  The resolved
        prefix length is remembered separately, so a stream whose tables
        overflow the fixed first probe pays the double range read **at
        most once per key lifetime** — later cold parses (cache drop,
        process doing periodic header refreshes) probe with the known
        length directly.  A stale hint (the blob was swapped for one with
        longer tables) is detected by the same shortfall check and
        corrected in place.  With ``cached_only`` an unmemoized header
        raises :class:`NotCachedError` instead of being fetched.
        """
        header = self._headers.get(key)
        if header is None:
            if cached_only:
                raise NotCachedError("the header of %s is not memoized" % key)
            probe_length = self._prefix_lengths.get(key, TABLE_PROBE_LENGTH)
            probe = self.backend.read_range(key, 0, probe_length)
            prefix_length = table_prefix_length(probe)
            if prefix_length > len(probe):
                probe = self.backend.read_range(key, 0, prefix_length)
            self._prefix_lengths[key] = prefix_length
            header = parse_stream_prefix(probe, self.backend.length(key))
            self._headers[key] = header
        return header

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    def get(
        self, key: str, include_deleted: bool = False, cached_only: bool = False
    ) -> Union[GrayImage, PlanarImage]:
        """Decode a whole stored stream: every plane, every stripe."""
        [selection] = self._read(key, [None], None, include_deleted, cached_only)
        return selection.image()

    def get_plane(
        self,
        key: str,
        plane: int,
        include_deleted: bool = False,
        cached_only: bool = False,
    ) -> GrayImage:
        """Decode one component plane straight off the stored index."""
        [selection] = self._read(key, [None], (plane,), include_deleted, cached_only)
        return selection.plane_image(plane)

    def get_region(
        self,
        key: str,
        stripe_range: Tuple[int, int],
        planes: Optional[Sequence[int]] = None,
        include_deleted: bool = False,
        cached_only: bool = False,
    ) -> Union[GrayImage, PlanarImage]:
        """Decode the rows covered by stripes ``[start, stop)``, and only those."""
        [selection] = self._read(
            key, [stripe_range], planes, include_deleted, cached_only
        )
        return selection.image()

    def get_regions(
        self,
        key: str,
        stripe_ranges: Sequence[Tuple[int, int]],
        include_deleted: bool = False,
    ) -> List[Union[GrayImage, PlanarImage]]:
        """Serve a batch of region queries over one stream.

        Equivalent to ``[store.get_region(key, r) for r in stripe_ranges]``
        but the distinct cells across all regions are resolved first, so
        overlapping regions fetch and decode each cell exactly once even
        on a cold cache.
        """
        return [
            selection.image()
            for selection in self._read(key, stripe_ranges, None, include_deleted)
        ]

    def _read(
        self,
        key: str,
        stripe_ranges: Sequence[Optional[Tuple[int, int]]],
        planes: Optional[Sequence[int]],
        include_deleted: bool,
        cached_only: bool = False,
    ) -> List[DecodedSelection]:
        """Every read: the tombstone check, then the regions through the cells.

        A read pins ``key`` for its duration.  A ``cached_only`` read does
        not: :meth:`purge_if_unpinned` and :meth:`swap_stream` hold the
        pin lock across backend I/O, and this mode must never wait on it.
        It needs no pin either, as it never touches the blob; a swap
        racing it is caught by the header check in :meth:`_cached_cells`.
        """
        if cached_only:
            self._check_visible(key, include_deleted, cached_only)
            return self._get_regions_pinned(key, stripe_ranges, planes, cached_only)
        with self._pin(key):
            self._check_visible(key, include_deleted)
            return self._get_regions_pinned(key, stripe_ranges, planes)

    def _get_regions_pinned(
        self,
        key: str,
        stripe_ranges: Sequence[Optional[Tuple[int, int]]],
        planes: Optional[Sequence[int]] = None,
        cached_only: bool = False,
    ) -> List[DecodedSelection]:
        """Every region read: (planes, stripe-range) queries through the cache + index.

        A ``None`` stripe range selects every stripe; ``planes=None`` every
        plane.  The distinct cells of all queries are resolved once, then
        each query's cells are joined per plane and assembled.  With
        ``cached_only`` the cells come from :meth:`_cached_cells`, and a
        read of more than :data:`MEMORY_READ_MAX_SAMPLES` samples raises
        :class:`NotCachedError`.
        """
        header = self.header(key, cached_only)
        selections = [
            select_cells(header, planes, stripe_range) for stripe_range in stripe_ranges
        ]
        wanted: Dict[Tuple[int, int], None] = {}
        by_spec: Dict[int, Any] = {}
        for plan, _requested, needed in selections:
            for plane in needed:
                for spec in plan:
                    by_spec[spec.index] = spec
                    wanted.setdefault((plane, spec.index), None)
        specs = [(plane, by_spec[stripe]) for plane, stripe in wanted]
        if cached_only:
            samples = header.width * sum(
                len(needed) * sum(spec.row_count for spec in plan)
                for plan, _requested, needed in selections
            )
            if samples > MEMORY_READ_MAX_SAMPLES:
                raise NotCachedError(
                    "a read of %d samples exceeds the memory-only budget of %d"
                    % (samples, MEMORY_READ_MAX_SAMPLES)
                )
            cells = self._cached_cells(key, header, specs)
        else:
            config = resolve_stream_config(header, self.config)
            cells = self._resolve_cells(key, header, config, specs)
        results: List[DecodedSelection] = []
        for plan, requested, needed in selections:
            rows = sum(spec.row_count for spec in plan)
            residuals = np.empty((len(needed), rows, header.width), dtype=np.int64)
            for plane, out in zip(needed, residuals):
                np.concatenate([cells[(plane, spec.index)] for spec in plan], out=out)
            results.append(assemble_selection(header, plan, requested, needed, residuals))
        return results

    def _cached_cells(
        self, key: str, header: StreamHeader, cells
    ) -> Dict[Tuple[int, int], np.ndarray]:
        """The memory-only :meth:`_resolve_cells`: one all-or-nothing lookup.

        The decoded tier answers every (plane, spec) cell under a single
        lock acquisition, or nothing is served and nothing is counted.
        The cells must also belong to ``header``: a swap replaces the
        memoized header object before any cell of the new container can
        be cached, so a header still in place after the lookup vouches for
        them.  ``cell_hook`` runs once per served cell, as on every read.
        """
        arrays = self.cache.get_all([(key, plane, spec.index) for plane, spec in cells])
        if arrays is None or self._headers.get(key) is not header:
            raise NotCachedError("not every cell of the read of %s is cached" % key)
        hook = self.cell_hook
        if hook is not None:
            for _cell in cells:
                hook()
        return {
            (plane, spec.index): array for (plane, spec), array in zip(cells, arrays)
        }

    def _resolve_cells(
        self, key: str, header: StreamHeader, config: CodecConfig, cells
    ) -> Dict[Tuple[int, int], np.ndarray]:
        """Serve (plane, spec) cells from the decoded cache, else the backend.

        Cells the cache misses are fetched in **one** batched
        ``read_ranges`` call — one file open or lock acquisition for the
        whole request instead of one per cell — then CRC-checked,
        entropy-decoded and put in the cache.

        ``cell_hook`` (the serving tier's deadline checkpoint) still runs
        exactly once per cell, before that cell's work.
        """
        spans = component_spans(header)
        resolved: Dict[Tuple[int, int], np.ndarray] = {}
        hook = self.cell_hook
        missing: List[Tuple[int, Any, _CellKey]] = []
        for plane, spec in cells:
            cell_key: _CellKey = (key, plane, spec.index)
            array = self.cache.get(cell_key)
            if array is not None:
                if hook is not None:
                    hook()
                resolved[(plane, spec.index)] = array
                continue
            missing.append((plane, spec, cell_key))
        if missing:
            payloads = self.backend.read_ranges(
                key, [spans[plane][spec.index] for plane, spec, _ in missing]
            )
            for (plane, spec, cell_key), payload in zip(missing, payloads):
                if hook is not None:
                    hook()
                array = decode_one_cell(
                    payload,
                    header,
                    plane,
                    spec,
                    config,
                    engine=self.engine,
                    from_container=False,
                )
                self.cache.put(cell_key, array)
                resolved[(plane, spec.index)] = array
        return resolved

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    def stats(self) -> dict:
        """Backend + cache + catalog counters (``repro-store stats`` payload).

        The catalog is refreshed first, so its counts include what other
        processes sharing this store wrote.
        """
        self.catalog.refresh()
        return {
            "backend": dict(self.backend.stats(), kind=type(self.backend).__name__),
            "cache": self.cache.stats.as_json(),
            "catalog": dict(
                self.catalog.stats(), kind=type(self.catalog).__name__
            ),
            "engine": self.engine,
        }
