"""The routing proxy of the multi-process topology (``--topology proc``).

:class:`ReproProxy` is the public face of a fleet of shard worker
processes (:mod:`repro.serve.worker`).  It subclasses
:class:`~repro.serve.app.ReproServer` and overrides only the data-plane
``_handle_*`` methods — the route table, the 404/405 derivation, the
error envelope, admission control, deadlines, streaming framing and the
drain sequence are all inherited, so the two topologies cannot drift
apart request by request.  Its :class:`ProxyService` is likewise the
in-process tier's :class:`~repro.serve.app.BaseService` front end with a
forwarding data plane, and ``repro-serve`` runs it through the same
lifecycle, health prober included.

Placement reuses the exact machinery of the in-process tier:
:class:`~repro.serve.router.StoreRouter` ranks owner shards per key
(rendezvous hashing, union membership mid-reshard) and the replica
policy of :mod:`repro.serve.replicas` decides which owner answers — the
same policy the in-process tier runs, except the shards are
:class:`RemoteShard` handles that speak HTTP over loopback instead of
decoding locally, and a worker's error reply is classified by its
envelope code.  Within one shard a keyed request prefers its affinity
worker — the same worker every time for a given key, so worker-local
caches and single-flight coalescing keep working — before trying the
shard's other workers.

What the proxy forwards it forwards **verbatim**: a worker's error
envelope (with the worker's ``request_id``) and its response bytes pass
through untouched, and streamed regions are re-framed chunk-for-chunk as
they arrive, so first-chunk latency survives the extra hop.  What the
proxy must compute itself — the content key for ``PUT`` routing — it
does by encoding Netpbm bodies in its own thread pool, then fans the
encoded container out to every owner shard.

The remaining request budget rides to workers as ``x-deadline-ms``, so
a proxy-side deadline bounds worker-side decode work too.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
from collections import deque
from typing import (
    Any,
    AsyncIterator,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
    cast,
)
from urllib.parse import quote

from repro.exceptions import (
    DeadlineExceededError,
    ServeError,
    StoreError,
)
from repro.serve.app import (
    BaseService,
    ReproServer,
    ServerHandle,
    StreamingBody,
    encode_body,
    start_server_thread,
)
from repro.serve.client import ServeClient
from repro.serve.deadline import RequestContext, current_context
from repro.serve.http import HttpRequest, json_payload
from repro.serve.replicas import OwnerReply
from repro.serve.router import StoreRouter
from repro.serve.routes import classify_error
from repro.serve.worker import WorkerGroup, WorkerProcess, WorkerSupervisor
from repro.store.catalog import CatalogFilter

__all__ = [
    "ProxyService",
    "RemoteShard",
    "ReproProxy",
    "WorkerUnreachableError",
    "start_proxy_thread",
]


class WorkerUnreachableError(StoreError):
    """No worker process of a shard could be reached (or all timed out).

    A :class:`~repro.exceptions.StoreError` on purpose: the shard-level
    failover and error mapping treat an unreachable worker fleet exactly
    like an unreadable local store — try the next replica, and answer
    ``503``/``upstream_unhealthy`` only when every owner is gone.
    """


class WorkerReply:
    """One worker response: status + headers + verbatim body.

    The body is bytes, or — for a chunked 2xx answer read through
    :meth:`RemoteShard.open_stream` — an async iterator of its de-framed
    chunk payloads.
    """

    __slots__ = ("status", "headers", "body")

    def __init__(
        self,
        status: int,
        headers: Dict[str, str],
        body: Union[bytes, AsyncIterator[bytes]],
    ) -> None:
        self.status = status
        self.headers = headers
        self.body = body

    @property
    def content_type(self) -> str:
        return self.headers.get("content-type", "application/octet-stream")

    def document(self) -> Dict[str, object]:
        """The buffered body as a JSON object; ``{}`` when it is none."""
        if isinstance(self.body, bytes):
            try:
                document = json.loads(self.body)
            except (UnicodeDecodeError, json.JSONDecodeError):
                return {}
            if isinstance(document, dict):
                return document
        return {}

    def answer(self) -> "WorkerReply":
        """This reply as an owner's answer: itself on success, else raised.

        A non-2xx reply becomes an :class:`~repro.serve.replicas.OwnerReply`
        carrying the code of the worker's error envelope, which the replica
        policy classifies like a local exception's.
        """
        if self.status < 400:
            return self
        code = self.document().get("code")
        raise OwnerReply(
            code if isinstance(code, str) else classify_error(self.status), self
        )


def _render_request(
    method: str, target: str, body: bytes, extra: List[Tuple[str, str]]
) -> bytes:
    lines = [
        "%s %s HTTP/1.1" % (method, target),
        "host: 127.0.0.1",
        "content-length: %d" % len(body),
    ]
    lines.extend("%s: %s" % pair for pair in extra)
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


async def _read_head(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str]]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("worker closed the connection before answering")
    parts = status_line.decode("latin-1").split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError("worker sent a malformed status line %r" % status_line)
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ConnectionError("worker closed the connection mid-headers")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(parts[1]), headers


async def _read_body(reader: asyncio.StreamReader, headers: Dict[str, str]) -> bytes:
    if headers.get("transfer-encoding", "").lower() == "chunked":
        pieces: List[bytes] = []
        while True:
            piece = await _read_chunk(reader)
            if piece is None:
                return b"".join(pieces)
            pieces.append(piece)
    length = int(headers.get("content-length", "0"))
    return await reader.readexactly(length) if length else b""


async def _read_chunk(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One chunked-transfer frame; ``None`` on the terminating frame."""
    line = await reader.readline()
    if not line:
        raise ConnectionError("worker closed the connection mid-stream")
    size = int(line.strip().split(b";")[0], 16)
    if size == 0:
        await reader.readline()  # the blank line after the 0-size frame
        return None
    piece = await reader.readexactly(size)
    await reader.readexactly(2)  # the frame's trailing CRLF
    return piece


class RemoteShard:
    """One shard's worker group, spoken to over loopback HTTP.

    A :class:`~repro.serve.router.Shard`, so
    :class:`~repro.serve.router.StoreRouter` ranks it exactly like a
    local store (routing only ever touches shard *names*).  Keep-alive
    connections are pooled per worker and tagged with the worker's spawn
    generation, so a restarted worker's stale sockets are discarded
    instead of retried.
    """

    def __init__(
        self,
        group: WorkerGroup,
        request_timeout: float = 30.0,
        pool_size: int = 32,
    ) -> None:
        self.group = group
        self.request_timeout = request_timeout
        self.pool_size = pool_size
        self._pools: Dict[
            int, Deque[Tuple[int, asyncio.StreamReader, asyncio.StreamWriter]]
        ] = {}

    @property
    def name(self) -> str:
        return self.group.shard_name

    def close(self) -> None:
        for pool in self._pools.values():
            while pool:
                _, _, writer = pool.popleft()
                _close_writer(writer)

    def probe(self) -> bool:
        """True when a worker of the group answers ``GET /healthz`` with 200.

        Each attempt gets what is left of the bound probe deadline, so a
        hung worker fails the probe instead of wedging the prober.  The
        call blocks: it runs on the prober's thread, off the event loop.
        """
        context = current_context()
        for worker in self.group.candidates():
            timeout = self.request_timeout if context is None else context.deadline.remaining
            if timeout <= 0:
                break
            try:
                with ServeClient(worker.host, worker.port, timeout=timeout) as client:
                    client.healthz()
                return True
            except (ServeError, OSError):
                continue
        return False

    # -- connection pool ------------------------------------------------ #

    def _checkout(
        self, worker: WorkerProcess
    ) -> Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
        pool = self._pools.get(worker.index)
        while pool:
            generation, reader, writer = pool.popleft()
            if generation == worker.generation and not writer.is_closing():
                return reader, writer
            _close_writer(writer)
        return None

    def _checkin(
        self,
        worker: WorkerProcess,
        generation: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        pool = self._pools.setdefault(worker.index, deque())
        if generation != worker.generation or writer.is_closing():
            _close_writer(writer)
        elif len(pool) >= self.pool_size:
            _close_writer(writer)
        else:
            pool.append((generation, reader, writer))

    # -- request plumbing ----------------------------------------------- #

    def _attempt_budget(self, context: Optional[RequestContext]) -> float:
        budget = self.request_timeout
        if context is not None:
            remaining = context.deadline.remaining
            if not math.isinf(remaining):
                if remaining <= 0:
                    raise DeadlineExceededError(
                        "request deadline lapsed before the worker call"
                    )
                budget = min(budget, remaining)
        return budget

    @staticmethod
    def _forward_headers(context: Optional[RequestContext]) -> List[Tuple[str, str]]:
        if context is None:
            return []
        remaining = context.deadline.remaining
        if math.isinf(remaining):
            return []
        return [("x-deadline-ms", "%d" % max(1, int(remaining * 1000)))]

    async def request(
        self,
        method: str,
        target: str,
        body: bytes = b"",
        context: Optional[RequestContext] = None,
        key: Optional[str] = None,
    ) -> WorkerReply:
        """:meth:`open_stream` with the whole body read: one buffered reply."""
        reply = await self.open_stream(method, target, body, context, key)
        return await _buffered(reply)

    async def broadcast(
        self,
        method: str,
        target: str,
        body: bytes = b"",
        context: Optional[RequestContext] = None,
        key: Optional[str] = None,
    ) -> List[WorkerReply]:
        """The same request to *every* worker of the group, best effort.

        Used for mutations that must land in every worker's catalog view
        (tombstones): workers of one shard share the blob backend but
        keep independent catalogs, so a delete applied to just one would
        let a sibling worker resurrect the key on failover reads.
        """
        replies: List[WorkerReply] = []
        for worker in self.group.candidates(key):
            try:
                budget = self._attempt_budget(context)
                reply = await asyncio.wait_for(
                    self._open_stream_worker(worker, method, target, body, context),
                    budget,
                )
                replies.append(await _buffered(reply))
            except DeadlineExceededError:
                raise
            except (
                asyncio.TimeoutError,
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
                ValueError,
            ):
                continue
        return replies

    async def open_stream(
        self,
        method: str,
        target: str,
        body: bytes = b"",
        context: Optional[RequestContext] = None,
        key: Optional[str] = None,
    ) -> WorkerReply:
        """One request against this shard, failing over across its workers.

        The head is read eagerly, the body lazily: a chunked 2xx answer
        carries an async iterator of the *de-framed* chunk payloads (the
        proxy re-frames them for its own client); anything else is
        buffered, so error envelopes forward verbatim.  Transport
        failures, timeouts and retryable statuses (a draining or shedding
        worker: 429/503) move on to the group's next worker; everything
        else — including worker-side 4xx/500 envelopes — is the shard's
        answer.  Raises :class:`WorkerUnreachableError` when no worker
        produced an answer at all.
        """
        last_error: Optional[BaseException] = None
        retryable: Optional[WorkerReply] = None
        for worker in self.group.candidates(key):
            budget = self._attempt_budget(context)
            try:
                reply = await asyncio.wait_for(
                    self._open_stream_worker(worker, method, target, body, context),
                    budget,
                )
            except asyncio.TimeoutError:
                if context is not None and context.deadline.expired:
                    raise DeadlineExceededError(
                        "worker call ran past the request deadline"
                    ) from None
                last_error = StoreError(
                    "worker %s did not answer within %.1fs" % (worker.label, budget)
                )
                continue
            except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError) as error:
                last_error = error
                continue
            if isinstance(reply.body, bytes) and reply.status in (429, 503):
                retryable = reply
                continue
            return reply
        if retryable is not None:
            return retryable
        raise WorkerUnreachableError(
            "no worker of shard %s answered %s %s (%s)"
            % (self.name, method, target, last_error)
        )

    async def _open_stream_worker(
        self,
        worker: WorkerProcess,
        method: str,
        target: str,
        body: bytes,
        context: Optional[RequestContext],
    ) -> WorkerReply:
        payload = _render_request(method, target, body, self._forward_headers(context))
        for pooled in (True, False):
            conn = self._checkout(worker) if pooled else None
            if pooled and conn is None:
                continue
            generation = worker.generation
            if conn is None:
                reader, writer = await asyncio.open_connection(worker.host, worker.port)
            else:
                reader, writer = conn
            try:
                writer.write(payload)
                await writer.drain()
                status, headers = await _read_head(reader)
            except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
                _close_writer(writer)
                if conn is not None:
                    continue  # a stale pooled socket; retry on a fresh one
                raise
            chunked = headers.get("transfer-encoding", "").lower() == "chunked"
            if status < 300 and chunked:
                pieces = self._stream_pieces(worker, generation, reader, writer)
                return WorkerReply(status, headers, pieces)
            try:
                reply_body = await _read_body(reader, headers)
            except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
                _close_writer(writer)
                if conn is not None:
                    continue
                raise
            if headers.get("connection", "").lower() == "close":
                _close_writer(writer)
            else:
                self._checkin(worker, generation, reader, writer)
            return WorkerReply(status, headers, reply_body)
        raise ConnectionError("worker %s has no usable connection" % worker.label)

    async def _stream_pieces(
        self,
        worker: WorkerProcess,
        generation: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> AsyncIterator[bytes]:
        """De-framed chunk payloads of one in-flight worker stream.

        The connection returns to the pool only after the terminating
        frame; an abandoned or failed iteration closes it instead, so a
        half-read stream can never be mistaken for an idle socket.
        """
        completed = False
        try:
            while True:
                piece = await asyncio.wait_for(
                    _read_chunk(reader), self.request_timeout
                )
                if piece is None:
                    completed = True
                    return
                yield piece
        finally:
            if completed:
                self._checkin(worker, generation, reader, writer)
            else:
                _close_writer(writer)


def _close_writer(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
    except (RuntimeError, OSError):  # pragma: no cover - loop already gone
        pass


async def _buffered(reply: WorkerReply) -> WorkerReply:
    """``reply`` with a streamed body read to the end."""
    if not isinstance(reply.body, bytes):
        reply.body = b"".join([piece async for piece in reply.body])
    return reply


def _merge_counters(target: Dict[str, object], source: Dict[str, object]) -> None:
    """Recursively sum numeric counters of ``source`` into ``target``.

    Dicts merge key-by-key, ints and floats add (bools are flags, not
    counters — first writer wins), anything else keeps the first value
    seen.  Used to aggregate worker ``/stats`` documents into one
    fleet-wide view with the same shape.
    """
    for key, value in source.items():
        if isinstance(value, dict):
            node = target.setdefault(key, {})
            if isinstance(node, dict):
                _merge_counters(node, cast(Dict[str, object], value))
        elif isinstance(value, bool):
            target.setdefault(key, value)
        elif isinstance(value, (int, float)):
            current = target.get(key)
            if isinstance(current, (int, float)) and not isinstance(current, bool):
                target[key] = current + value
            else:
                target[key] = value
        else:
            target.setdefault(key, value)


class ProxyService(BaseService[RemoteShard]):
    """The proxy's service: :class:`~repro.serve.app.BaseService` over worker groups.

    The front end (stats, admission, limits, pool, health, replica
    policy, settings, ``/healthz``, ``/version``) is the in-process
    tier's own; the shards behind the router are :class:`RemoteShard`
    handles, ``/stats`` and ``/catalog`` are aggregated from the worker
    fleet, and :class:`ReproProxy` forwards the data plane.
    ``settings`` are :class:`~repro.serve.app.BaseService`'s keywords.
    """

    def __init__(
        self,
        supervisor: WorkerSupervisor,
        replication: int = 1,
        engine: str = "reference",
        worker_timeout: float = 30.0,
        **settings: Any,
    ) -> None:
        router = StoreRouter(
            [
                RemoteShard(group, request_timeout=worker_timeout)
                for group in supervisor.groups
            ],
            supervisor.shard_names,
            replication=replication,
        )
        super().__init__(router, **settings)
        self.supervisor = supervisor
        self.engine_name = engine

    def close(self) -> None:
        super().close()
        self.supervisor.stop()

    def _plane_stats(self) -> Dict[str, object]:
        """The worker documents merged counter-by-counter, plus the fleet.

        ``flight`` and ``shards`` sum every worker's sections, so
        coalescing and cache behaviour stay observable per shard no
        matter how many processes serve it; ``workers`` reports the
        process fleet (pids, ports, restart counts) for operators and the
        chaos drill.
        """
        flight: Dict[str, object] = {}
        sections: List[Dict[str, object]] = []
        for group in self.supervisor.groups:
            merged: Dict[str, object] = {}
            for worker in group.workers:
                document = self._scrape_worker(worker)
                if document is None:
                    continue
                worker_flight = document.get("flight")
                if isinstance(worker_flight, dict):
                    _merge_counters(flight, worker_flight)
                for shard_section in document.get("shards", ()):
                    if isinstance(shard_section, dict):
                        _merge_counters(merged, shard_section)
            merged["name"] = group.shard_name
            merged["joining"] = False
            sections.append(merged)
        return {"flight": flight, "shards": sections, "workers": self.supervisor.snapshot()}

    def _scrape_worker(self, worker: WorkerProcess) -> Optional[Dict[str, object]]:
        if not worker.alive:
            return None
        try:
            with ServeClient(worker.host, worker.port, timeout=5.0) as client:
                return client.stats()
        except (ServeError, OSError):
            return None

    def _catalog_rows(
        self, filter: CatalogFilter, bound: Optional[int]
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Each group's rows: the union of its workers' listings.

        Workers of one shard keep independent catalog views (each records
        the puts it handled), so a group's rows are its workers' rows
        deduplicated per key, newest first, and its total discounts the
        duplicates.
        """
        tag: Optional[str] = None
        if filter.tags:
            tag_key, tag_value = filter.tags[0]
            tag = tag_key if tag_value is None else "%s=%s" % (tag_key, tag_value)
        total = 0
        rows: List[Dict[str, Any]] = []
        for group in self.supervisor.groups:
            by_key: Dict[str, Dict[str, Any]] = {}
            group_total = 0
            duplicates = 0
            answered = False
            for worker in group.workers:
                if not worker.alive:
                    continue
                try:
                    with ServeClient(worker.host, worker.port, timeout=10.0) as client:
                        document = client.catalog(
                            limit=bound,
                            offset=0,
                            tag=tag,
                            planes=filter.planes,
                            engine=filter.engine,
                            include_deleted=filter.include_deleted,
                            deleted_only=filter.deleted_only,
                        )
                except (ServeError, OSError):
                    continue
                answered = True
                group_total += int(document.get("total", 0))
                for row in document.get("entries", ()):
                    key = str(row["key"])
                    known = by_key.get(key)
                    if known is None:
                        by_key[key] = row
                    else:
                        duplicates += 1
                        if row.get("created_at", 0) > known.get("created_at", 0):
                            by_key[key] = row
            if not answered:
                raise StoreError(
                    "no worker of shard %s answered the catalog query"
                    % group.shard_name
                )
            total += max(0, group_total - duplicates)
            rows.extend(by_key.values())
        return rows, total


class ReproProxy(ReproServer):
    """The proxy front-end: :class:`ReproServer` with forwarding handlers.

    Everything above the handlers — connection handling, the route
    table, 404/405 derivation, admission, deadlines, the error envelope,
    chunked streaming, drain — is inherited.  Control-plane routes
    (``/healthz``, ``/stats``, ``/version``, ``/catalog``) are inherited
    too: they call the service's front-end methods, which
    :class:`ProxyService` completes by aggregation.
    """

    def __init__(
        self, service: ProxyService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__(service, host, port)
        self.proxy_service = service

    # -- forwarding under the replica policy ----------------------------- #

    async def _forward(
        self,
        context: RequestContext,
        key: str,
        method: str,
        target: str,
        body: bytes = b"",
        stream: bool = False,
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        """Forward one keyed read to the owner the replica policy settles on.

        A ``stream`` read passes a worker's chunks through as they
        arrive.  Failover happens *before* the first chunk: once a
        worker's 200 head is accepted the stream is committed, and a
        mid-stream worker death aborts the client's stream (truncated
        chunked body) exactly as an in-process decode failure would.
        """

        async def read(shard: RemoteShard) -> WorkerReply:
            send = shard.open_stream if stream else shard.request
            reply = await send(method, target, body=body, context=context, key=key)
            return reply.answer()

        replicas = self.proxy_service.replicas
        try:
            taken = await replicas.arun(key, read, reading=True, context=context)
        except OwnerReply as error:
            return _verbatim(error)
        reply = taken[0][1]
        if isinstance(reply.body, bytes):
            return reply.status, reply.body, reply.content_type
        streaming = StreamingBody(reply.body, self._stream_release(context))
        return reply.status, streaming, reply.content_type

    # -- data-plane handlers (the only overrides) ------------------------ #

    async def _handle_put_image(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        service = self.proxy_service
        stripes = self._int_query(request, "stripes")
        stream, encoded = await self._offload(
            context,
            encode_body,
            request.body,
            service.engine_name,
            service.default_stripes if stripes is None else stripes,
            self._flag_query(request, "plane_delta"),
        )
        key = hashlib.sha256(stream).hexdigest()

        async def put(shard: RemoteShard) -> WorkerReply:
            reply = await shard.request(
                "PUT", "/images", body=stream, context=context, key=key
            )
            return reply.answer()

        try:
            stored = await service.replicas.arun(key, put, reading=False, context=context)
        except OwnerReply as error:
            return _verbatim(error)
        outcome = service.put_outcome(key, len(stream), encoded, stored)
        return 201, json_payload(outcome), "application/json"

    async def _handle_delete_image(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        service = self.proxy_service
        key = str(params["key"])
        ttl = self._ttl_query(request)
        target = "/images/" + quote(key, safe="")
        if ttl is not None:
            target += "?ttl=%s" % ttl

        async def tombstone(shard: RemoteShard) -> WorkerReply:
            # Broadcast: every worker of the group keeps its own catalog,
            # and the tombstone must land in all of them or a failover
            # read through a sibling worker would resurrect the key.
            replies = await shard.broadcast("DELETE", target, context=context, key=key)
            if not replies:
                raise WorkerUnreachableError(
                    "no worker of shard %s answered the delete of %s" % (shard.name, key)
                )
            for reply in replies:
                if reply.status == 200:
                    return reply
            # Nothing was tombstoned: a worker's error outranks a miss.
            errors = [reply for reply in replies if reply.status != 404]
            return (errors or replies)[0].answer()

        try:
            deleted = await service.replicas.arun(key, tombstone, reading=False, context=context)
        except OwnerReply as error:
            return _verbatim(error)
        entry = deleted[0][1].document()
        payload = service.delete_outcome(
            key, entry.get("deleted_at"), entry.get("purge_after"), deleted
        )
        return 200, json_payload(payload), "application/json"

    async def _handle_get_image(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        key = str(params["key"])
        return await self._forward(context, key, "GET", "/images/" + quote(key, safe=""))

    async def _handle_get_plane(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        key = str(params["key"])
        target = "/images/%s/plane/%d" % (quote(key, safe=""), cast(int, params["plane"]))
        return await self._forward(context, key, "GET", target)

    async def _handle_get_region(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        key = str(params["key"])
        start, stop = cast(Tuple[int, int], params["range"])
        target = "/images/%s/region/%d-%d" % (quote(key, safe=""), start, stop)
        if self._flag_query(request, "stream"):
            return await self._forward(context, key, "GET", target + "?stream=1", stream=True)
        return await self._forward(context, key, "GET", target)

    async def _handle_get_regions(
        self, request: HttpRequest, context: RequestContext, params: Dict[str, object]
    ) -> Tuple[int, Union[bytes, StreamingBody], str]:
        key = str(params["key"])
        target = "/images/%s/regions" % quote(key, safe="")
        if self._flag_query(request, "stream"):
            return await self._forward(
                context, key, "POST", target + "?stream=1", body=request.body, stream=True
            )
        return await self._forward(context, key, "POST", target, body=request.body)


def _verbatim(error: OwnerReply) -> Tuple[int, Union[bytes, StreamingBody], str]:
    """A worker's error reply that became the answer, forwarded untouched."""
    reply = cast(WorkerReply, error.reply)
    return reply.status, cast(bytes, reply.body), reply.content_type


def start_proxy_thread(
    service: ProxyService, host: str = "127.0.0.1", port: int = 0, timeout: float = 10.0
) -> ServerHandle:
    """Boot a :class:`ReproProxy` on a daemon thread (tests, smokes)."""
    return start_server_thread(service, host, port, timeout, server_class=ReproProxy)
