"""The ``repro-serve`` service: asyncio front-end over sharded image stores.

Request path, layer by layer::

    asyncio connection handler          (http.py: parse / serialise)
      -> endpoint dispatch              (_dispatch: path -> operation)
        -> memory-only read             (_serve: warm reads, on the loop)
        -> single-flight map            (flight.py: coalesce identical reads)
          -> thread-pool offload        (CPU-bound entropy decodes off the loop)
            -> replica policy           (replicas.py: owner order + failover)
              -> StoreRouter            (router.py: rendezvous shard pick)
                -> ImageStore           (store/: cache + range reads + CRC)

Three properties keep the event loop responsive under load:

* **warm reads stay on the loop** — a full-image, plane or region read
  (buffered, or each piece of a streamed one) first runs right on the
  event loop in the store's memory-only mode.  That mode uses only the
  memoized stream header and the decoded-cell tier; it never reads the
  backend, decodes, parses a header or waits on a lock held across disk
  I/O.  When every cell is cached the read is answered there, with no
  thread handoff, and counted as ``loop_served`` in ``/stats``.  Reads
  over :data:`~repro.store.store.MEMORY_READ_MAX_SAMPLES` (a 512×512×3
  region, ~1.7 ms of assembly and rendering) go to the pool even when
  cached, which bounds how long one read holds up the loop;
* **everything else runs on a worker thread** — encodes, decodes and
  backend I/O;
* **identical concurrent reads collapse** into one store call whose
  result all waiters share — a 64-client stampede on one cold region
  costs one decode, not 64.  Reads are keyed by (operation, key,
  arguments); the served bytes are built once inside the flight, so
  coalesced followers reuse the serialised response too.

Another set of properties keeps the tier standing on a bad day — it
degrades instead of buckling:

* **admission control** — admitted in-flight requests are bounded by a
  watermark pair (:mod:`repro.serve.admission`); past the high watermark
  requests are shed with ``429`` + ``Retry-After`` rather than queued
  without bound, and optional per-client connection caps and token-bucket
  rate limits answer abusive peers the same way;
* **request deadlines** — every request carries a
  :class:`~repro.serve.deadline.RequestContext` into the thread-pool
  offload; when the budget lapses (or the client disconnects) the HTTP
  layer answers ``504`` and the worker abandons the decode at the next
  cell boundary through the store's ``cell_hook`` seam (a PUT's encode
  checks the same context before each cell), so expired work cannot pin
  the pool;
* **graceful drain** — :meth:`ReproServer.drain` stops accepting, lets
  in-flight requests finish within a budget and then closes lingering
  connections; :func:`serve_until_sigterm`, the one lifecycle of
  ``repro-serve`` (either topology) and of each shard worker, wires it
  to SIGTERM and exits 0.

``/healthz`` and ``/stats`` bypass admission and rate limits: an operator
must be able to observe an overloaded server.

Endpoints (all responses JSON unless noted):

* ``PUT /images[?stripes=S&plane_delta=1]`` — body is a Netpbm image
  (encoded server-side) or a ready ``.rplc`` container; answers 201 with
  the content key and owning shard.
* ``GET /images/{key}`` — full decode, Netpbm body.
* ``GET /images/{key}/plane/{k}`` — one component plane, PGM body.
* ``GET /images/{key}/region/{a}-{b}`` — rows of stripes [a, b), Netpbm.
* ``POST /images/{key}/regions`` — body ``{"ranges": [[a, b], ...]}``;
  answers every region in one round trip (cells deduped across regions).
* ``GET /catalog[?limit=&offset=&tag=&planes=&engine=&include_deleted=&deleted_only=]``
  — the merged metadata catalog across every shard: filtered, newest
  first, paginated; each row carries its owning shard.
* ``DELETE /images/{key}[?ttl=SECONDS]`` — soft-delete: a tombstone with
  a TTL hides the stream from reads until a GC sweep reclaims it (see
  :mod:`repro.store.gc`); the catalog keeps the tombstoned row.
* ``GET /healthz`` — liveness plus shard count.
* ``GET /stats`` — per-endpoint latency histograms, single-flight
  counters, per-shard backend/cache/catalog stats (byte occupancy
  included).
* ``GET /version`` — package version, supported container versions,
  registered engine names.

Dispatch is driven by the declarative route table in
:mod:`repro.serve.routes` — one ``_handle_<name>`` method per entry —
and every error response carries the structured envelope
``{"error", "code", "request_id"}`` defined there.

The catalog endpoints go through the same admission control, deadlines
and stats accounting as the data path — a catalog scan cannot bypass the
watermarks.

Everything above the data plane — statistics, admission, client limits,
the pool, shard health, the replica policy, the settings and the
control-plane documents — is :class:`BaseService`, which both
topologies' services extend: :class:`ImageService` here, and the routing
proxy's :class:`~repro.serve.proxy.ProxyService`.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import io
import json
import math
import signal
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Any,
    AsyncIterator,
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.bitstream import StreamHeader
from repro.core.cellgrid import encode_grid, select_cells
from repro.core.config import CodecConfig
from repro.exceptions import (
    BitstreamError,
    BlobNotFoundError,
    ConfigError,
    DeadlineExceededError,
    ImageFormatError,
    NotCachedError,
    OverloadedError,
    ReproError,
    StoreError,
)
from repro.imaging.image import GrayImage
from repro.imaging.planar import PlanarImage
from repro.imaging.pnm import (
    netpbm_region_header,
    read_image,
    split_netpbm_payload,
    write_pam,
    write_pgm,
    write_ppm,
)
from repro.serve.admission import (
    DEFAULT_MAX_INFLIGHT,
    AdmissionController,
    ClientLimiter,
)
from repro.serve.deadline import (
    Deadline,
    RequestContext,
    bind_context,
    context_cell_hook,
    current_context,
)
from repro.serve.flight import SingleFlight
from repro.serve.health import HealthProber, HealthTracker
from repro.serve.http import (
    STREAM_TERMINATOR,
    HttpProtocolError,
    HttpRequest,
    encode_chunk,
    json_payload,
    read_request,
    render_response,
    render_stream_head,
)
from repro.serve.replicas import Replicas
from repro.serve.reshard import Resharder
from repro.serve.router import S, StoreRouter
from repro.serve.routes import (
    Route,
    classify_error,
    error_payload,
    match_route,
    new_request_id,
    server_version,
    split_path,
    version_payload,
)
from repro.serve.stats import ServerStats
from repro.store.catalog import CatalogEntry, CatalogFilter
from repro.store.store import ImageStore

__all__ = [
    "DEFAULT_DEADLINE_SECONDS",
    "BaseService",
    "ImageService",
    "ReproServer",
    "ServerHandle",
    "StreamingBody",
    "encode_body",
    "serve_until_sigterm",
    "start_server_thread",
]

#: Default per-request time budget; ``0`` disables deadlines entirely.
DEFAULT_DEADLINE_SECONDS = 30.0

_T = TypeVar("_T")

_NETPBM_MAGICS = (b"P1", b"P2", b"P3", b"P4", b"P5", b"P6", b"P7")

_CONTENT_TYPES = {
    "pgm": "image/x-portable-graymap",
    "ppm": "image/x-portable-pixmap",
    "pam": "image/x-portable-arbitrarymap",
}


def _consume_outcome(future: "asyncio.Future[object]") -> None:
    """Retrieve an abandoned offload's outcome so asyncio never logs it."""
    try:
        future.exception()
    except asyncio.CancelledError:
        pass


def image_to_netpbm(image: Union[GrayImage, PlanarImage]) -> Tuple[bytes, str]:
    """Serialise a decoded image to the natural Netpbm format + MIME type."""
    buffer = io.BytesIO()
    if isinstance(image, PlanarImage):
        if image.num_planes == 1:
            write_pgm(image.gray(), buffer)
            kind = "pgm"
        elif image.num_planes == 3:
            write_ppm(image, buffer)
            kind = "ppm"
        else:
            write_pam(image, buffer)
            kind = "pam"
    else:
        write_pgm(image, buffer)
        kind = "pgm"
    return buffer.getvalue(), _CONTENT_TYPES[kind]


class _CheckpointedCells:
    """The :func:`encode_grid` executor of PUT bodies.

    Cells run inline, each after :func:`context_cell_hook`, so a lapsed
    or abandoned PUT stops encoding at the next cell boundary.
    """

    @staticmethod
    def map(encode: Callable[[_T], Any], cells: Sequence[_T]) -> List[Any]:
        results: List[Any] = []
        for cell in cells:
            context_cell_hook()
            results.append(encode(cell))
        return results


_CHECKPOINTED_CELLS = _CheckpointedCells()


def encode_body(
    body: bytes, engine: str, stripes: int, plane_delta: bool
) -> Tuple[bytes, bool]:
    """A PUT body as the container to store, plus whether it was encoded here.

    Routing needs the content key, which is the hash of the *encoded*
    stream, so a Netpbm body is encoded before any owner is picked; a
    ready container passes through untouched.  The encode checks the
    request context bound to this thread before every cell.
    """
    if not body:
        raise ConfigError("PUT body is empty — expected a Netpbm image or container")
    if body[:2] not in _NETPBM_MAGICS:
        return body, False
    image = read_image(io.BytesIO(body))
    config = CodecConfig.hardware(bit_depth=image.bit_depth)
    stream, _ = encode_grid(
        image,
        config,
        engine=engine,
        stripes=stripes,
        plane_delta=plane_delta,
        executor=_CHECKPOINTED_CELLS,
    )
    return stream, True


class StreamingBody:
    """A chunk-streamed response body, produced by ``_route``.

    Instead of assembled bytes, the route hands the connection handler an
    async iterator of body chunks; the handler frames them with chunked
    transfer-encoding as they become available, so the first cells of a
    large region reach the client while later cells are still decoding.

    ``on_close`` transfers ownership of the request's admission slot: the
    dispatch layer normally releases it when the route returns, but a
    streaming response keeps burning worker time after that point, so the
    slot is held until the stream ends (successfully or not) to keep the
    in-flight watermark honest.
    """

    def __init__(
        self,
        chunks: AsyncIterator[bytes],
        on_close: Optional[Callable[[], None]] = None,
    ) -> None:
        self.chunks = chunks
        self.on_close = on_close


class BaseService(Generic[S]):
    """The front end every topology shares: all :class:`ReproServer` needs.

    It owns the request statistics, admission control, per-client
    limits, the thread pool, shard health, the replica policy over
    ``router``'s shards and the deadline, timeout and drain settings, and
    it answers the control plane: ``/healthz``, ``/version``, the
    ``/stats`` sections every topology has and the ``/catalog`` merge.  A
    subclass adds a data plane: :class:`ImageService` over local stores,
    :class:`~repro.serve.proxy.ProxyService` over worker processes.
    """

    def __init__(
        self,
        router: StoreRouter[S],
        max_workers: Optional[int] = None,
        default_stripes: int = 4,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        shed_low: Optional[int] = None,
        retry_after: float = 1.0,
        max_connections_per_client: int = 0,
        client_rate: float = 0.0,
        client_burst: Optional[float] = None,
        default_deadline: float = DEFAULT_DEADLINE_SECONDS,
        read_timeout: Optional[float] = 30.0,
        idle_timeout: Optional[float] = None,
        drain_budget: float = 10.0,
        health_down_after: int = 3,
        health_up_after: int = 2,
    ) -> None:
        self.router = router
        self.health = HealthTracker(
            names=router.names, down_after=health_down_after, up_after=health_up_after
        )
        self.stats = ServerStats()
        self.replicas = Replicas(router, self.health, self.stats)
        self.resharder: Optional[Resharder] = None
        self.executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self.default_stripes = default_stripes
        self.admission = AdmissionController(
            high=max_inflight, low=shed_low, retry_after=retry_after
        )
        self.limiter = ClientLimiter(
            max_connections=max_connections_per_client,
            rate=client_rate,
            burst=client_burst,
        )
        self.default_deadline = max(0.0, default_deadline)
        self.read_timeout = read_timeout
        self.idle_timeout = idle_timeout
        self.drain_budget = drain_budget

    def close(self) -> None:
        self.executor.shutdown(wait=True)
        self.router.close()

    def version_payload(self) -> Dict[str, object]:
        """``GET /version``: package version, container formats, engines."""
        return version_payload()

    def healthz(self) -> Dict[str, object]:
        status = "draining" if self.stats.draining else "ok"
        payload: Dict[str, object] = {"status": status, "shards": len(self.router)}
        down = self.health.down_shards()
        if down:
            payload["shards_down"] = down
        joining = self.router.joining
        if joining is not None:
            payload["resharding"] = joining
        return payload

    def stats_payload(self) -> Dict[str, object]:
        """``GET /stats``: the front end's sections plus the data plane's."""
        resharder = self.resharder
        return dict(
            self._plane_stats(),
            server=self.stats.as_json(),
            admission=self.admission.stats(),
            clients=self.limiter.stats(),
            replication={
                "factor": self.router.replication,
                "health": self.health.snapshot(),
                "down": self.health.down_shards(),
                "joining": self.router.joining,
                "reshard": None if resharder is None else resharder.report.as_json(),
            },
        )

    def _plane_stats(self) -> Dict[str, object]:
        """The data plane's ``/stats`` sections: ``flight`` and ``shards``."""
        raise NotImplementedError

    def catalog_payload(
        self,
        filter: CatalogFilter,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> Dict[str, object]:
        """The merged catalog across every shard: filtered and paginated.

        Each shard's matches are merged newest-first (the same order a
        single catalog lists) and the page is cut from the merged
        sequence, so pagination is stable across shard boundaries.  Rows
        carry their owning shard's name; with replication the same key
        legitimately appears under several shards.

        The ``offset + limit`` bound is pushed down into every shard's
        query: any row of the merged page is by construction within the
        first ``offset + limit`` rows of its own shard, so the merge sort
        touches O(shards × page) rows instead of the whole catalog.  The
        total stays exact — each shard reports its full match count even
        when truncating.
        """
        bound = None if limit is None else offset + limit
        rows, total = self._catalog_rows(filter, bound)
        rows.sort(key=lambda row: (-row["created_at"], row["key"]))
        return {"entries": rows[offset:bound], "total": total, "offset": offset}

    def _catalog_rows(
        self, filter: CatalogFilter, bound: Optional[int]
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Every shard's first ``bound`` matching rows, and the match total."""
        raise NotImplementedError

    def put_outcome(
        self, key: str, size: int, encoded: bool, stored: Sequence[Tuple[str, object]]
    ) -> Dict[str, object]:
        """The ``PUT /images`` answer: key, primary shard, size, owners that took it."""
        return {
            "key": key,
            "shard": self.router.shard_name(key),
            "bytes": size,
            "encoded": encoded,
            "replicas": [name for name, _ in stored],
        }

    def delete_outcome(
        self,
        key: str,
        deleted_at: object,
        purge_after: object,
        deleted: Sequence[Tuple[str, object]],
    ) -> Dict[str, object]:
        """The ``DELETE /images/{key}`` answer: the tombstone and its owners."""
        return {
            "key": key,
            "shard": self.router.shard_name(key),
            "deleted_at": deleted_at,
            "purge_after": purge_after,
            "replicas": [name for name, _ in deleted],
        }


class ImageService(BaseService[ImageStore]):
    """Shard routing + coalescing + serialisation over image stores.

    The in-process data plane on :class:`BaseService`'s front end, whose
    keywords (pool size, watermarks, deadlines, health hysteresis, ...)
    it takes as ``settings``.  Every method here is thread-safe and
    blocking, designed to run on the worker pool while
    :class:`ReproServer` keeps the event loop free.  The exception is the
    ``cached_only`` mode of the image reads: it never blocks, answers
    from memory or raises :class:`~repro.exceptions.NotCachedError`, and
    the server runs it on the loop before offloading.  Tests and the load
    benchmark may call it directly (no sockets) — the HTTP layer adds no
    behaviour beyond transport.
    """

    def __init__(
        self,
        stores: Sequence[ImageStore],
        names: Sequence[str] = (),
        replication: int = 1,
        **settings: Any,
    ) -> None:
        super().__init__(StoreRouter(stores, names, replication=replication), **settings)
        self.flight = SingleFlight()
        # Deadline checkpoint at every cell fetch+decode: a multi-cell
        # request whose budget lapsed (or whose client hung up) aborts at
        # the next cell boundary instead of pinning a worker thread.
        for store in self.router.stores:
            if store.cell_hook is None:
                store.cell_hook = context_cell_hook

    def _coalesced(self, key, supplier):
        """Single-flight with a follower timeout from the active deadline.

        A coalesced follower whose own budget is shorter than the leader's
        remaining work must answer 504, not overshoot its deadline waiting
        on somebody else's flight.
        """
        context = current_context()
        timeout: Optional[float] = None
        if context is not None:
            remaining = context.deadline.remaining
            if not math.isinf(remaining):
                timeout = remaining
        return self.flight.run(key, supplier, timeout=timeout)

    def _read_replicas(self, key: str, reader: Callable[[ImageStore], _T]) -> _T:
        """Run ``reader`` against ``key``'s owners under the replica policy.

        :mod:`repro.serve.replicas` orders the owners, fails over and
        decides the answer.  This runs *inside* the single-flight
        supplier, so coalesced followers share the failed-over result
        rather than a poisoned error.
        """
        return self.replicas.run(key, reader, reading=True, context=current_context())[0][1]

    def _memory_read(self, key: str, reader: Callable[[ImageStore], _T]) -> _T:
        """Run a ``cached_only`` ``reader`` on the owner :meth:`_read_replicas` tries first.

        Nothing is coalesced, failed over or recorded as shard health: a
        read this cheap needs none of it.  A tombstoned or missing key also
        raises :class:`NotCachedError`, so that the blocking read, with
        its replica failover, gives the answer.
        """
        _name, store = self.replicas.owners(key)[0]
        try:
            return reader(store)
        except BlobNotFoundError:
            raise NotCachedError("%s is not readable from memory" % key) from None

    def _image_read(
        self,
        flight: Tuple[object, ...],
        key: str,
        reader: Callable[[ImageStore], Union[GrayImage, PlanarImage]],
        cached_only: bool,
    ) -> Tuple[bytes, str]:
        """One image read rendered to Netpbm.

        Coalesced under ``flight`` and failed over across replicas, or,
        with ``cached_only``, a memory-only read of the first owner.
        """
        if cached_only:
            return image_to_netpbm(self._memory_read(key, reader))
        return self._coalesced(
            flight, lambda: image_to_netpbm(self._read_replicas(key, reader))
        )

    # ------------------------------------------------------------------ #
    # operations (blocking; run these on the worker pool)
    # ------------------------------------------------------------------ #

    def put_image(
        self, body: bytes, stripes: Optional[int] = None, plane_delta: bool = False
    ) -> Dict[str, object]:
        """Store a Netpbm image (encoding it) or a ready container.

        Returns the routing outcome: content key, owning shard, stored
        byte count and whether the service encoded the body itself.
        """
        stream, encoded = encode_body(
            body,
            self._engine(),
            self.default_stripes if stripes is None else stripes,
            plane_delta,
        )
        key = hashlib.sha256(stream).hexdigest()

        def put(store: ImageStore) -> str:
            try:
                return store.put_stream(stream)
            except BitstreamError as error:
                # The *request* carried the bad bytes — a client error,
                # unlike a BitstreamError surfacing from storage on the
                # read paths — and it is equally bad on every shard.
                raise ConfigError("request body is not a valid container: %s" % error)

        context = current_context()
        if context is not None:
            context.check("PUT")  # a lapsed PUT stores nothing
        stored = self.replicas.run(key, put, reading=False)
        assert all(stored_key == key for _name, stored_key in stored)
        return self.put_outcome(key, len(stream), encoded, stored)

    def get_image(self, key: str, cached_only: bool = False) -> Tuple[bytes, str]:
        """The whole image, every plane and stripe, coalesced per key."""
        return self._image_read(
            ("image", key),
            key,
            lambda store: store.get(key, cached_only=cached_only),
            cached_only,
        )

    def get_plane(
        self, key: str, plane: int, cached_only: bool = False
    ) -> Tuple[bytes, str]:
        return self._image_read(
            ("plane", key, plane),
            key,
            lambda store: store.get_plane(key, plane, cached_only=cached_only),
            cached_only,
        )

    def get_region(
        self, key: str, start: int, stop: int, cached_only: bool = False
    ) -> Tuple[bytes, str]:
        return self._image_read(
            ("region", key, start, stop),
            key,
            lambda store: store.get_region(key, (start, stop), cached_only=cached_only),
            cached_only,
        )

    def get_regions(
        self, key: str, ranges: Sequence[Tuple[int, int]]
    ) -> Dict[str, object]:
        """A batch of regions in one response (cells deduped by the store)."""
        normalised = tuple((int(a), int(b)) for a, b in ranges)

        def resolve() -> Dict[str, object]:
            images = self._read_replicas(
                key, lambda store: store.get_regions(key, list(normalised))
            )
            regions = []
            for (start, stop), image in zip(normalised, images):
                payload, content_type = image_to_netpbm(image)
                regions.append(
                    {
                        "start": start,
                        "stop": stop,
                        "width": image.width,
                        "height": image.height,
                        "planes": getattr(image, "num_planes", 1),
                        "content_type": content_type,
                        "netpbm_base64": base64.b64encode(payload).decode("ascii"),
                    }
                )
            return {"key": key, "regions": regions}

        return self._coalesced(("regions", key, normalised), resolve)

    def region_stream_plan(
        self, key: str, start: int, stop: int, cached_only: bool = False
    ) -> Tuple[bytes, str, Tuple[int, ...]]:
        """Geometry of a streamed region: (header bytes, content type, stripes).

        Computed from the stream header alone — the header parse is
        memoized by the store, so the first chunk of a streamed response
        (the Netpbm header) costs no cell decodes.  The stripe indices are
        the per-chunk fetch plan; their sample payloads concatenate to the
        exact bytes a fully assembled region response would carry.  With
        ``cached_only`` an unmemoized header raises :class:`NotCachedError`.
        """

        def read(store: ImageStore) -> StreamHeader:
            return store.header(key, cached_only)

        if cached_only:
            header = self._memory_read(key, read)
        else:
            header = self._read_replicas(key, read)
        plan, requested, _needed = select_cells(header, None, (start, stop))
        height = sum(spec.row_count for spec in plan)
        head, kind = netpbm_region_header(
            len(requested), header.width, height, header.bit_depth
        )
        return head, _CONTENT_TYPES[kind], tuple(spec.index for spec in plan)

    def validate_regions(self, key: str, ranges: Sequence[Tuple[int, int]]) -> None:
        """Raise the error a bad batched-stream request deserves, cheaply.

        A streamed batch commits its 200 status before any region decodes,
        so range validation must happen first — against the memoized
        stream header only, no cell reads — to keep unknown keys at 404
        and out-of-range stripes at 400, matching the buffered endpoint.
        """
        header = self._read_replicas(key, lambda store: store.header(key))
        for start, stop in ranges:
            select_cells(header, None, (start, stop))

    def region_entry(self, key: str, start: int, stop: int) -> Dict[str, object]:
        """One region as the JSON object a streamed batch emits per line."""

        def resolve() -> Dict[str, object]:
            image = self._read_replicas(
                key, lambda store: store.get_region(key, (start, stop))
            )
            payload, content_type = image_to_netpbm(image)
            return {
                "key": key,
                "start": start,
                "stop": stop,
                "width": image.width,
                "height": image.height,
                "planes": getattr(image, "num_planes", 1),
                "content_type": content_type,
                "netpbm_base64": base64.b64encode(payload).decode("ascii"),
            }

        return self._coalesced(("region_entry", key, start, stop), resolve)

    def _catalog_rows(
        self, filter: CatalogFilter, bound: Optional[int]
    ) -> Tuple[List[Dict[str, Any]], int]:
        rows: List[Dict[str, Any]] = []
        total = 0
        for name, store in zip(self.router.names, self.router.stores):
            matches, shard_total = store.catalog.query(filter, limit=bound)
            total += shard_total
            rows.extend(dict(entry.as_json(), shard=name) for entry in matches)
        return rows, total

    def delete_image(self, key: str, ttl: Optional[float] = None) -> Dict[str, object]:
        """Soft-delete ``key`` on every owning shard (tombstone + TTL).

        The tombstone must land on each replica, or a read failing over
        (or the key's migration during a reshard) would resurrect the
        blob.  Owners without the blob are skipped; the delete succeeds
        when at least one replica was tombstoned and 404s only when no
        owner ever stored the key.
        """

        def tombstone(store: ImageStore) -> CatalogEntry:
            if ttl is None:
                return store.soft_delete(key)
            return store.soft_delete(key, ttl_seconds=ttl)

        deleted = self.replicas.run(key, tombstone, reading=False)
        entry = deleted[0][1]
        return self.delete_outcome(key, entry.deleted_at, entry.purge_after, deleted)

    def _plane_stats(self) -> Dict[str, object]:
        return {"flight": self.flight.stats(), "shards": self.router.stats()}

    def begin_reshard(
        self, store: ImageStore, name: str, throttle: float = 0.0
    ) -> Resharder:
        """Add ``store`` as a joining shard and return its migrator.

        Routing switches to the union membership immediately; the caller
        decides whether to drive the returned :class:`Resharder` inline
        (tests) or on its thread (:meth:`Resharder.start`, the CLI).
        """
        if store.cell_hook is None:
            store.cell_hook = context_cell_hook
        self.router.begin_reshard(store, name)
        resharder = Resharder(self.router, throttle=throttle)
        self.resharder = resharder
        return resharder

    def _engine(self) -> str:
        return self.router.stores[0].engine


class ReproServer:
    """The asyncio HTTP front-end bound to one service.

    Connection handling, admission, deadlines, dispatch, streaming and
    drain read only the :class:`BaseService` front end; the data-plane
    handlers narrow the service to :class:`ImageService` (the proxy
    overrides them).
    """

    def __init__(
        self, service: BaseService[Any], host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._draining = False

    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=2**16,
            family=socket.AF_INET,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.service.stats.mark_started()

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() must run first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def drain(self, budget: Optional[float] = None) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, then close.

        The SIGTERM path.  New requests on existing keep-alive connections
        are answered 503 + ``Connection: close``; admitted in-flight
        requests get up to ``budget`` seconds to complete; whatever is
        still parked afterwards is closed.  Returns ``True`` when every
        in-flight request finished within the budget.
        """
        if budget is None:
            budget = self.service.drain_budget
        self._draining = True
        self.service.stats.mark_draining()
        if self._server is not None:
            # close() stops accepting immediately; wait_closed() is NOT
            # awaited here — it blocks until every connection detaches,
            # and the lingering keep-alive connections only close at the
            # end of this very method.
            self._server.close()
            self._server = None
        deadline = Deadline(budget)
        while self.service.stats.in_flight > 0 and not deadline.expired:
            await asyncio.sleep(0.02)
        drained = self.service.stats.in_flight == 0
        for writer in list(self._connections):
            writer.close()
        return drained

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        host = peer[0] if isinstance(peer, tuple) and peer else "unknown"
        limiter = self.service.limiter
        if not limiter.connect(host):
            self.service.stats.bump("connections_rejected")
            try:
                writer.write(
                    self._error_response(
                        429,
                        "client %s exceeded its connection cap" % host,
                        False,
                        retry_after=self.service.admission.retry_after,
                        code="shed",
                    )
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        self._connections.add(writer)
        context: Optional[RequestContext] = None
        try:
            while True:
                try:
                    request = await read_request(
                        reader,
                        read_timeout=self.service.read_timeout,
                        idle_timeout=self.service.idle_timeout,
                    )
                except HttpProtocolError as error:
                    writer.write(
                        self._error_response(
                            error.status,
                            "%s: %s" % (type(error).__name__, error),
                            False,
                            code=classify_error(error.status, error),
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                if self._draining:
                    writer.write(
                        self._error_response(
                            503, "server is draining", False, code="draining"
                        )
                    )
                    await writer.drain()
                    break
                status, body, content_type, extra, context = self._start_dispatch(
                    request, host
                )
                if context is not None:
                    # On a normal return the context is cleared; if the
                    # await is cancelled (shutdown) or the peer vanishes,
                    # the outer finally cancels it so the worker lets go.
                    # A streaming body keeps the context alive through the
                    # chunk writes so that same cancel path still works.
                    status, body, content_type, extra = await self._dispatch(
                        request, context
                    )
                    if not isinstance(body, StreamingBody):
                        context = None
                keep_alive = request.keep_alive and not self._draining
                if isinstance(body, StreamingBody):
                    completed = await self._write_stream(
                        writer, status, body, content_type, keep_alive, extra
                    )
                    context = None
                    if not completed or not keep_alive:
                        break
                    continue
                writer.write(
                    render_response(
                        status,
                        body,
                        content_type,
                        keep_alive=keep_alive,
                        extra_headers=extra,
                    )
                )
                await self._drain_writer(writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the peer went away mid-exchange; nothing to answer
        finally:
            if context is not None:
                # The handler died mid-dispatch (client gone, shutdown
                # cancel): release the worker at its next checkpoint.
                context.cancel()
            self._connections.discard(writer)
            limiter.disconnect(host)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                # Shutdown cancels parked handlers mid-close; the connection
                # is gone either way, so ending the task quietly is correct.
                pass

    async def _drain_writer(self, writer: asyncio.StreamWriter) -> None:
        """Flush a response without letting a dead peer park the handler.

        Only write backpressure is awaited: below the transport's high
        water mark the bytes are already with the kernel or buffered, and
        the transport keeps sending them without help.
        """
        transport = writer.transport
        if (
            not transport.is_closing()
            and transport.get_write_buffer_size() <= transport.get_write_buffer_limits()[1]
        ):
            return
        timeout = self.service.read_timeout
        if timeout is None:
            await writer.drain()
            return
        try:
            await asyncio.wait_for(writer.drain(), timeout)
        except asyncio.TimeoutError:
            raise ConnectionError("peer stopped reading mid-response") from None

    def _start_dispatch(
        self, request: HttpRequest, host: str
    ) -> Tuple[int, bytes, str, List[Tuple[str, str]], Optional[RequestContext]]:
        """Admission + rate limiting + deadline setup for one request.

        Returns either a finished shed response (context ``None``) or the
        :class:`RequestContext` the dispatch should run under.  Sheds are
        recorded in the stats like any other answered request.
        """
        admission = self.service.admission
        request_id = new_request_id()
        # Exemption is a property of the route table, not a hand-kept
        # path list; a request that matches no route is never exempt (the
        # 404/405 is produced inside the dispatch for stats' sake).
        try:
            route, _ = self._match(request)
            exempt = route.admission_exempt
        except ReproError:
            exempt = False
        if not exempt:
            shed: Optional[str] = None
            if not self.service.limiter.allow_request(host):
                self.service.stats.bump("rate_limited")
                shed = "client %s exceeded its request rate" % host
            elif not admission.try_admit():
                self.service.stats.bump("shed")
                shed = (
                    "server is past its in-flight watermark (%d active)"
                    % admission.active
                )
            if shed is not None:
                self.service.stats.request_started()
                self.service.stats.request_finished("shed", 0.0, 429)
                body = error_payload(
                    "OverloadedError: %s" % shed, "shed", request_id
                )
                extra = [
                    ("Retry-After", self._retry_after_text()),
                    ("x-repro-version", server_version()),
                ]
                return 429, body, "application/json", extra, None
        try:
            budget = self._deadline_budget(request)
        except ConfigError as error:
            if not exempt:
                admission.release()
            self.service.stats.request_started()
            self.service.stats.request_finished("other", 0.0, 400)
            status, body, content_type = self._error(400, error, request_id)
            return status, body, content_type, [], None
        context = RequestContext(
            Deadline(budget),
            endpoint=request.path,
            admitted=not exempt,
            request_id=request_id,
        )
        return 0, b"", "", [], context

    def _deadline_budget(self, request: HttpRequest) -> float:
        """Per-request budget: server default, tightened by x-deadline-ms."""
        default = self.service.default_deadline
        budget = default if default > 0 else math.inf
        header = request.headers.get("x-deadline-ms")
        if header is not None:
            try:
                requested_ms = int(header)
            except ValueError:
                raise ConfigError(
                    "x-deadline-ms %r is not an integer" % header
                ) from None
            if requested_ms <= 0:
                raise ConfigError("x-deadline-ms must be positive, got %d" % requested_ms)
            budget = min(budget, requested_ms / 1000.0)
        return budget

    def _retry_after_text(self) -> str:
        return "%d" % max(1, math.ceil(self.service.admission.retry_after))

    async def _dispatch(
        self, request: HttpRequest, context: RequestContext
    ) -> Tuple[int, Union[bytes, StreamingBody], str, List[Tuple[str, str]]]:
        """Route one admitted request; returns (status, body, type, headers)."""
        self.service.stats.request_started()
        started = time.perf_counter()
        endpoint = "other"
        status = 500
        request_id = context.request_id
        extra: List[Tuple[str, str]] = []
        try:
            try:
                endpoint, status, body, content_type = await self._route(
                    request, context
                )
            finally:
                if context.admitted:
                    self.service.admission.release()
        except OverloadedError as error:
            status, body, content_type = self._error(429, error, request_id)
            extra = [("Retry-After", self._retry_after_text())]
        except DeadlineExceededError as error:
            self.service.stats.bump("deadline_exceeded")
            status, body, content_type = self._error(504, error, request_id)
        except HttpProtocolError as error:
            status, body, content_type = self._error(error.status, error, request_id)
        except BlobNotFoundError as error:
            status, body, content_type = self._error(404, error, request_id)
        except (ConfigError, ImageFormatError) as error:
            status, body, content_type = self._error(400, error, request_id)
        except StoreError as error:
            # Every replica that could hold the bytes was unreadable —
            # that is a sick storage tier, not a client mistake.
            status, body, content_type = self._error(503, error, request_id)
        except ReproError as error:
            # Anything else the library raises on purpose (corrupt stored
            # stream, model state violation) is a server-side failure.
            status, body, content_type = self._error(500, error, request_id)
        except Exception as error:
            # Backstop for handler bugs: a request must ALWAYS get an
            # answer and the connection must keep serving — an unexpected
            # TypeError/KeyError dropping the socket with no status line
            # is strictly worse than an honest 500.
            status, body, content_type = self._error(500, error, request_id)
        finally:
            elapsed_ms = 1e3 * (time.perf_counter() - started)
            self.service.stats.request_finished(endpoint, elapsed_ms, status)
        extra.append(("x-repro-version", server_version()))
        return status, body, content_type, extra

    async def _route(
        self, request: HttpRequest, context: RequestContext
    ) -> Tuple[str, int, Union[bytes, StreamingBody], str]:
        """Dispatch one request from the declarative route table.

        The table (:data:`repro.serve.routes.ROUTES`) names the handler
        method; matching derives 404-vs-405 and converts path parameters.
        The proxy front-end subclasses this server and overrides the
        ``_handle_*`` methods only — the table, the matching and the
        error envelope are shared verbatim.
        """
        route, params = self._match(request)
        handler = getattr(self, "_handle_" + route.handler)
        status, body, content_type = await handler(request, context, params)
        return route.endpoint, status, body, content_type

    @staticmethod
    def _match(request: HttpRequest) -> Tuple[Route, Dict[str, object]]:
        """The request's route-table match, looked up once and kept on it.

        Admission (``_start_dispatch``) and dispatch (``_route``) both
        need it.  A failed match is kept too and raised on every call.
        """
        match = request.route
        if match is None:
            try:
                match = match_route(
                    request.method, split_path(request.path), request.path
                )
            except ReproError as error:
                match = error
            request.route = match
        if isinstance(match, ReproError):
            raise match
        return match

    # ------------------------------------------------------------------ #
    # route handlers (one per route-table entry)
    # ------------------------------------------------------------------ #

    async def _handle_healthz(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        return 200, json_payload(self.service.healthz()), "application/json"

    async def _handle_stats(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        payload = await self._offload(context, self.service.stats_payload)
        return 200, json_payload(payload), "application/json"

    async def _handle_version(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        return 200, json_payload(self.service.version_payload()), "application/json"

    async def _handle_catalog(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        catalog_filter, limit, offset = self._parse_catalog_query(request)
        payload = await self._offload(
            context, self.service.catalog_payload, catalog_filter, limit, offset
        )
        return 200, json_payload(payload), "application/json"

    def _images(self) -> ImageService:
        """The in-process data plane: the service, narrowed by a checked test."""
        service = self.service
        if not isinstance(service, ImageService):
            raise TypeError("%s has no in-process data plane" % type(service).__name__)
        return service

    async def _handle_put_image(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        outcome = await self._offload(
            context,
            self._images().put_image,
            request.body,
            self._int_query(request, "stripes"),
            self._flag_query(request, "plane_delta"),
        )
        return 201, json_payload(outcome), "application/json"

    async def _handle_delete_image(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        payload = await self._offload(
            context, self._images().delete_image, str(params["key"]), self._ttl_query(request)
        )
        return 200, json_payload(payload), "application/json"

    async def _handle_get_image(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        body, content_type = await self._serve(
            context, self._images().get_image, str(params["key"])
        )
        return 200, body, content_type

    async def _handle_get_plane(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        body, content_type = await self._serve(
            context, self._images().get_plane, str(params["key"]), params["plane"]
        )
        return 200, body, content_type

    async def _handle_get_region(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        key = str(params["key"])
        start, stop = params["range"]  # type: ignore[misc]
        if self._flag_query(request, "stream"):
            return await self._stream_region(context, key, start, stop)
        body, content_type = await self._serve(
            context, self._images().get_region, key, start, stop
        )
        return 200, body, content_type

    async def _handle_get_regions(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        key = str(params["key"])
        ranges = self._parse_ranges_body(request.body)
        if self._flag_query(request, "stream"):
            return await self._stream_regions(context, key, ranges)
        payload = await self._offload(context, self._images().get_regions, key, ranges)
        return 200, json_payload(payload), "application/json"

    # ------------------------------------------------------------------ #
    # streaming responses
    # ------------------------------------------------------------------ #

    async def _stream_region(
        self, context: RequestContext, key: str, start: int, stop: int
    ) -> Tuple[int, "StreamingBody", str]:
        """Build the chunked response for ``GET .../region/a-b?stream=1``.

        The geometry plan (and any validation error it raises — unknown
        key, out-of-range stripes) is resolved *before* the status line is
        committed, so bad requests still get proper 4xx responses.  The
        per-stripe reads run lazily, one :meth:`_serve` per chunk, after a
        one-tick pause once the header chunk is out: each re-checks the
        shrinking deadline, and one that must decode is offloaded and
        coalesces with concurrent single-stripe GETs under the same
        single-flight key.
        """
        service = self._images()
        head, content_type, stripes = await self._serve(
            context, service.region_stream_plan, key, start, stop
        )

        async def chunks() -> AsyncIterator[bytes]:
            yield head
            # Warm stripes are answered from memory and never block the
            # loop, so without a pause the loop would write the whole
            # stream in one step and keep the GIL throughout: a reader in
            # this process could not take the committed head before the
            # stream ended.  One timer tick (1 ms, epoll's resolution)
            # lets it, and lets the loop serve other connections, before
            # the stripe work starts.
            await asyncio.sleep(0.001)
            for index in stripes:
                payload, _ = await self._serve(
                    context, service.get_region, key, index, index + 1
                )
                yield split_netpbm_payload(payload)[1]

        body = StreamingBody(chunks(), self._stream_release(context))
        return 200, body, content_type

    async def _stream_regions(
        self, context: RequestContext, key: str, ranges: Sequence[Tuple[int, int]]
    ) -> Tuple[int, "StreamingBody", str]:
        """Build the NDJSON chunked response for ``POST .../regions?stream=1``.

        One JSON line per requested range, in request order, each emitted
        as soon as its region decodes — the same objects the buffered
        endpoint packs into ``regions[]``, with the key inlined so every
        line is self-describing.  Ranges are validated against the stream
        header before the 200 is committed, so bad requests still get
        proper error responses; only failures *during* region decodes
        abort the stream.
        """
        service = self._images()
        normalised = [(int(a), int(b)) for a, b in ranges]
        await self._offload(context, service.validate_regions, key, normalised)

        async def chunks() -> AsyncIterator[bytes]:
            for start, stop in normalised:
                entry = await self._offload(
                    context, service.region_entry, key, start, stop
                )
                yield (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")

        body = StreamingBody(chunks(), self._stream_release(context))
        return 200, body, "application/x-ndjson"

    def _stream_release(self, context: RequestContext) -> Optional[Callable[[], None]]:
        """Transfer the admission slot from the dispatch to the stream.

        ``_dispatch`` releases the slot when the route returns; a streaming
        response is still burning workers at that point, so ownership moves
        to the :class:`StreamingBody` and the handler releases it when the
        stream finishes or aborts.
        """
        if not context.admitted:
            return None
        context.admitted = False
        return self.service.admission.release

    async def _write_stream(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: StreamingBody,
        content_type: str,
        keep_alive: bool,
        extra: List[Tuple[str, str]],
    ) -> bool:
        """Write one chunked response; ``False`` forces a connection close.

        Once the status line is on the wire a mid-stream failure cannot
        become an error response any more; the only honest signal left is
        an aborted chunked stream — the connection closes without the
        terminating chunk and the client's de-chunker reports truncation.
        """
        completed = False
        try:
            writer.write(
                render_stream_head(
                    status, content_type, keep_alive=keep_alive, extra_headers=extra
                )
            )
            await self._drain_writer(writer)
            async for chunk in body.chunks:
                if not chunk:
                    continue
                writer.write(encode_chunk(chunk))
                await self._drain_writer(writer)
            writer.write(STREAM_TERMINATOR)
            await self._drain_writer(writer)
            completed = True
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the peer went away mid-stream; nothing left to answer
        except asyncio.CancelledError:
            raise
        except DeadlineExceededError:
            self.service.stats.bump("deadline_exceeded")
            self.service.stats.bump("stream_aborts")
        except Exception:
            self.service.stats.bump("stream_aborts")
        finally:
            closer = getattr(body.chunks, "aclose", None)
            if closer is not None:
                try:
                    await closer()
                except Exception:
                    pass
            if body.on_close is not None:
                body.on_close()
        return completed

    async def _serve(self, context: RequestContext, function, *args):
        """Answer a service read from memory on the loop, else :meth:`_offload` it.

        ``function`` is a service read with a ``cached_only`` mode.  It
        first runs right here, in that mode and under the request's bound
        context, as :meth:`_offload` would run it on a worker: the
        deadline is checked first, and ``cell_hook`` and the store see
        the context.  A warm read is answered with no thread handoff and
        counted as ``loop_served``; a :class:`NotCachedError` hands the
        same call, without the mode, to the worker pool.  Any other error
        is the request's answer, as it would be from the pool.
        """
        bind_context(context)
        try:
            context.check("request")
            result = function(*args, cached_only=True)
        except NotCachedError:
            pass
        else:
            self.service.stats.bump("loop_served")
            return result
        finally:
            bind_context(None)
        return await self._offload(context, function, *args)

    async def _offload(self, context: RequestContext, function, *args):
        """Run a blocking service operation on the worker pool, deadline-bound.

        The request's context is bound to the worker thread around the
        call, so store hooks, the chaos harness and single-flight waits
        can observe its deadline and cancellation.  If the budget lapses
        while the work is still running, the HTTP side stops waiting
        (answering 504) and cancels the context; the worker — which a
        thread pool cannot kill — aborts at its next cooperative
        checkpoint instead of burning to completion.
        """
        loop = asyncio.get_running_loop()

        def call():
            bind_context(context)
            try:
                context.check("request")  # do not start already-expired work
                return function(*args)
            finally:
                bind_context(None)

        future = loop.run_in_executor(self.service.executor, call)
        remaining = context.deadline.remaining
        if math.isinf(remaining):
            try:
                return await future
            except asyncio.CancelledError:
                context.cancel()
                future.add_done_callback(_consume_outcome)
                raise
        try:
            return await asyncio.wait_for(asyncio.shield(future), remaining)
        except asyncio.TimeoutError:
            context.cancel()
            # The worker is abandoned, not killed: it observes the cancel
            # at its next checkpoint and raises into a future nobody
            # awaits — consume that outcome so it never logs as lost.
            future.add_done_callback(_consume_outcome)
            raise DeadlineExceededError(
                "request ran past its %.3fs deadline in the decode offload"
                % remaining
            ) from None
        except asyncio.CancelledError:
            context.cancel()
            future.add_done_callback(_consume_outcome)
            raise

    # ------------------------------------------------------------------ #
    # request parsing helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _int_query(request: HttpRequest, name: str) -> Optional[int]:
        value = request.query.get(name)
        if value is None:
            return None
        try:
            return int(value)
        except ValueError:
            raise ConfigError("query parameter %s=%r is not an integer" % (name, value))

    @staticmethod
    def _flag_query(request: HttpRequest, name: str) -> bool:
        return request.query.get(name, "").lower() in ("1", "true", "yes", "on")

    @staticmethod
    def _float_query(request: HttpRequest, name: str) -> Optional[float]:
        value = request.query.get(name)
        if value is None:
            return None
        try:
            return float(value)
        except ValueError:
            raise ConfigError("query parameter %s=%r is not a number" % (name, value))

    @classmethod
    def _ttl_query(cls, request: HttpRequest) -> Optional[float]:
        """``DELETE ...?ttl=``: the tombstone's lifetime in seconds, validated."""
        ttl = cls._float_query(request, "ttl")
        if ttl is not None and ttl < 0:
            raise ConfigError("ttl must be >= 0 seconds, got %s" % ttl)
        return ttl

    @classmethod
    def _parse_catalog_query(
        cls, request: HttpRequest
    ) -> Tuple[CatalogFilter, int, int]:
        """``GET /catalog`` query → (filter, limit, offset), validated."""
        limit = cls._int_query(request, "limit")
        if limit is None:
            limit = 50
        offset = cls._int_query(request, "offset") or 0
        if limit < 0 or offset < 0:
            raise ConfigError(
                "limit and offset must be >= 0, got limit=%d offset=%d"
                % (limit, offset)
            )
        tags: Tuple[Tuple[str, Optional[str]], ...] = ()
        tag = request.query.get("tag")
        if tag is not None:
            tags = (CatalogFilter.parse_tag(tag),)
        catalog_filter = CatalogFilter(
            planes=cls._int_query(request, "planes"),
            engine=request.query.get("engine"),
            tags=tags,
            include_deleted=cls._flag_query(request, "include_deleted"),
            deleted_only=cls._flag_query(request, "deleted_only"),
        )
        return catalog_filter, limit, offset

    @staticmethod
    def _parse_ranges_body(body: bytes) -> List[Tuple[int, int]]:
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ConfigError("regions body must be JSON {'ranges': [[a, b], ...]}")
        ranges = document.get("ranges") if isinstance(document, dict) else document
        if not isinstance(ranges, list) or not ranges:
            raise ConfigError("regions body must list at least one [start, stop] pair")
        parsed: List[Tuple[int, int]] = []
        for entry in ranges:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ConfigError("each region must be a [start, stop] pair, got %r" % (entry,))
            try:
                parsed.append((int(entry[0]), int(entry[1])))
            except (TypeError, ValueError):
                # int(None)/int({}) raise TypeError, which the dispatch
                # error mapping deliberately does not catch — convert here
                # so malformed-but-valid JSON stays a 400, not a dropped
                # connection.
                raise ConfigError(
                    "each region must be a [start, stop] pair of integers, got %r"
                    % (entry,)
                ) from None
        return parsed

    @staticmethod
    def _error(
        status: int, error: BaseException, request_id: str = ""
    ) -> Tuple[int, bytes, str]:
        """One dispatched failure as the structured error envelope."""
        message = "%s: %s" % (type(error).__name__, error)
        code = classify_error(status, error)
        body = error_payload(message, code, request_id or new_request_id())
        return status, body, "application/json"

    @staticmethod
    def _error_response(
        status: int,
        message: str,
        keep_alive: bool,
        retry_after: Optional[float] = None,
        code: Optional[str] = None,
    ) -> bytes:
        """A complete connection-level error response (pre-dispatch path)."""
        extra = [("x-repro-version", server_version())]
        if retry_after is not None:
            extra.insert(0, ("Retry-After", "%d" % max(1, math.ceil(retry_after))))
        body = error_payload(
            message, code or classify_error(status), new_request_id()
        )
        return render_response(
            status,
            body,
            "application/json",
            keep_alive=keep_alive,
            extra_headers=extra,
        )


class ServerHandle:
    """A running server on a daemon thread (tests, benchmarks, smoke)."""

    def __init__(
        self,
        service: BaseService[Any],
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
        server: ReproServer,
    ) -> None:
        self.service = service
        self._thread = thread
        self._loop = loop
        self._server = server

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.host, self._server.port

    def drain(self, budget: Optional[float] = None, timeout: float = 30.0) -> bool:
        """Run a graceful drain on the server's loop; see ReproServer.drain.

        Returns ``True`` when every in-flight request finished within the
        budget.  The loop keeps running (so ``/stats`` scrapes of a
        drained server still work in tests) — call :meth:`stop` after.
        """
        future = asyncio.run_coroutine_threadsafe(
            self._server.drain(budget), self._loop
        )
        return future.result(timeout=timeout)

    @property
    def draining(self) -> bool:
        return self._server.draining

    def stop(self, close_service: bool = True) -> None:
        """Stop accepting, join the loop thread, optionally close stores."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
        if close_service:
            self.service.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_server_thread(
    service: BaseService[Any],
    host: str = "127.0.0.1",
    port: int = 0,
    timeout: float = 10.0,
    server_class: type = ReproServer,
) -> ServerHandle:
    """Boot a :class:`ReproServer` on a fresh event loop in a daemon thread.

    Returns once the socket is bound (``handle.port`` is the real port —
    pass ``port=0`` for an ephemeral one).  In-process callers (tests, the
    load benchmark) get a real network server without blocking their own
    thread or loop.  ``server_class`` lets the proxy topology boot its
    :class:`~repro.serve.proxy.ReproProxy` subclass through the same path.
    """
    started = threading.Event()
    failure: List[BaseException] = []
    server = server_class(service, host, port)
    loop = asyncio.new_event_loop()

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as error:  # pragma: no cover - bind failures
            failure.append(error)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.stop())
            # Idle keep-alive connections leave handler tasks parked on a
            # readline; cancel them so the loop closes without complaints.
            pending = [task for task in asyncio.all_tasks(loop) if not task.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    thread = threading.Thread(target=run, name="repro-serve-loop", daemon=True)
    thread.start()
    if not started.wait(timeout):  # pragma: no cover - never with a local bind
        raise StoreError("server failed to start within %.1fs" % timeout)
    if failure:
        raise failure[0]
    return ServerHandle(service, thread, loop, server)


async def serve_until_sigterm(
    server: ReproServer, ready: Callable[[int], None], health_interval: float = 0.0
) -> int:
    """Serve until SIGTERM, drain, close: the one lifecycle of a serving process.

    Both ``repro-serve`` topologies and every shard worker run it.  It
    binds ``server``, hands the bound port to ``ready`` (the caller's
    ready line), starts a :class:`~repro.serve.health.HealthProber` over
    the service's shards when ``health_interval`` is positive, and
    serves.  SIGTERM drains in-flight work within the service's drain
    budget.  However serving ends, the prober stops, the socket closes
    and the service closes (for the proxy, with the worker fleet).
    """
    service = server.service
    loop = asyncio.get_running_loop()
    sigterm = asyncio.Event()
    try:
        loop.add_signal_handler(signal.SIGTERM, sigterm.set)
    except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
        pass
    prober: Optional[HealthProber] = None
    try:
        await server.start()
        ready(server.port)
        if health_interval > 0:
            prober = HealthProber(
                service.router, service.health, interval=health_interval
            ).start()
        serving = asyncio.ensure_future(server.serve_forever())
        waiting = asyncio.ensure_future(sigterm.wait())
        await asyncio.wait({serving, waiting}, return_when=asyncio.FIRST_COMPLETED)
        if sigterm.is_set():
            print(
                "repro-serve: SIGTERM, draining (budget %.1fs)" % service.drain_budget,
                file=sys.stderr,
                flush=True,
            )
            drained = await server.drain()
            print(
                "repro-serve: drained %s"
                % ("cleanly" if drained else "with requests still in flight"),
                file=sys.stderr,
                flush=True,
            )
        for task in (serving, waiting):
            task.cancel()
        await asyncio.gather(serving, waiting, return_exceptions=True)
    except asyncio.CancelledError:  # pragma: no cover - cancellation race
        pass
    finally:
        try:
            loop.remove_signal_handler(signal.SIGTERM)
        except (NotImplementedError, RuntimeError, ValueError):  # pragma: no cover
            pass
        if prober is not None:
            prober.stop()
        await server.stop()
        service.close()
    return 0
