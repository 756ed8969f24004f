"""Serve experiment — closed-loop load generation against ``repro-serve``.

Boots the full network tier in-process (real sockets, real HTTP, the same
:class:`~repro.serve.app.ImageService` the console script runs), loads the
synthetic planar corpus through ``PUT /images``, then measures three
serving regimes end to end:

* **cold** — first touch of every (key, region) pair: a range read plus an
  entropy decode per cell, measured one request at a time so each sample
  is a true cache miss;
* **warm** — a closed loop of ``clients`` concurrent threads replaying the
  same regions: pure cache reassembly, the steady state of a region-heavy
  workload (requests/second is measured here);
* **stampede** — ``stampede_clients`` threads released by a barrier onto
  one region of a freshly stored image: the single-flight map must
  collapse the herd into at most a couple of backend decodes (asserted by
  ``benchmarks/test_serve_latency.py`` at <= 2).  The image's shard reads
  through a fixed injected latency for this phase, so the leader's read
  outlasts the herd's arrival and the followers do join its flight;
* **streaming** — the same warm multi-cell region fetched buffered and
  chunk-streamed back to back: the streamed response's time to first byte
  must beat the buffered response's full-assembly total (the streamed
  Netpbm header goes on the wire before any stripe decodes).

Percentiles are exact (client-side samples, not histogram buckets).  With
``duration`` set the warm phase becomes a soak: the loop runs for that
many seconds and the result carries the server's own per-endpoint latency
histograms — the artefact the nightly CI job uploads.
"""

from __future__ import annotations

import io
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigError, ReproError
from repro.imaging.pnm import write_pgm, write_ppm
from repro.imaging.synthetic import (
    CORPUS_IMAGE_NAMES,
    generate_image,
    generate_planar_image,
)
from repro.serve.app import ImageService, start_server_thread
from repro.serve.chaos import FaultInjector
from repro.serve.client import ServeClient
from repro.store.store import ImageStore

#: Backend latency injected on the stampede key's shard during the
#: stampede phase: it keeps the leader's read in flight while the
#: barrier-released herd reaches the server (without it, on a loaded
#: host, the leader's decode could finish first and the event loop would
#: answer every follower from memory, coalescing none).
STAMPEDE_BACKEND_LATENCY_S = 0.05

__all__ = [
    "ServeBenchResult",
    "TopologyBenchResult",
    "run_serve_bench",
    "run_serve_soak",
    "run_topology_bench",
]


def _percentile(samples: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile of raw samples, 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, int(q * len(ordered) + 0.5))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class ServeBenchResult:
    """Latency + throughput of one load run against the serving tier."""

    size: int
    seed: int
    planes: int
    stripes: int
    shards: int
    backend: str
    engine: str
    clients: int
    stampede_clients: int
    cold_samples_ms: List[float] = field(default_factory=list)
    warm_samples_ms: List[float] = field(default_factory=list)
    stampede_samples_ms: List[float] = field(default_factory=list)
    stream_ttfb_samples_ms: List[float] = field(default_factory=list)
    stream_total_samples_ms: List[float] = field(default_factory=list)
    buffered_full_samples_ms: List[float] = field(default_factory=list)
    warm_seconds: float = 0.0
    warm_requests: int = 0
    stampede_backend_decodes: int = 0
    stampede_coalesced: int = 0
    duration: Optional[float] = None
    server_stats: Dict[str, Any] = field(default_factory=dict)
    admission_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def cold_p50_ms(self) -> float:
        return _percentile(self.cold_samples_ms, 0.50)

    @property
    def cold_p99_ms(self) -> float:
        return _percentile(self.cold_samples_ms, 0.99)

    @property
    def warm_p50_ms(self) -> float:
        return _percentile(self.warm_samples_ms, 0.50)

    @property
    def warm_p99_ms(self) -> float:
        return _percentile(self.warm_samples_ms, 0.99)

    @property
    def stampede_p50_ms(self) -> float:
        return _percentile(self.stampede_samples_ms, 0.50)

    @property
    def stampede_p99_ms(self) -> float:
        return _percentile(self.stampede_samples_ms, 0.99)

    @property
    def stream_ttfb_p50_ms(self) -> float:
        return _percentile(self.stream_ttfb_samples_ms, 0.50)

    @property
    def stream_ttfb_p99_ms(self) -> float:
        return _percentile(self.stream_ttfb_samples_ms, 0.99)

    @property
    def stream_total_p50_ms(self) -> float:
        return _percentile(self.stream_total_samples_ms, 0.50)

    @property
    def buffered_full_p50_ms(self) -> float:
        return _percentile(self.buffered_full_samples_ms, 0.50)

    @property
    def warm_requests_per_second(self) -> float:
        if self.warm_seconds <= 0.0:
            return 0.0
        return self.warm_requests / self.warm_seconds

    @property
    def warm_over_cold_p50(self) -> float:
        """How many times faster a warm coalesced read is than a cold one.

        ``0.0`` when the warm phase produced no samples (a soak deadline
        shorter than one request): the ratio is unknown, and ``inf`` would
        serialise as an invalid-JSON ``Infinity`` token in the artifact.
        """
        if self.warm_p50_ms <= 0.0:
            return 0.0
        return self.cold_p50_ms / self.warm_p50_ms

    def format_report(self) -> str:
        lines = [
            "%-22s %10s %10s" % ("workload", "p50", "p99"),
            "%-22s %8.2f ms %8.2f ms"
            % ("cold region", self.cold_p50_ms, self.cold_p99_ms),
            "%-22s %8.2f ms %8.2f ms"
            % ("warm region", self.warm_p50_ms, self.warm_p99_ms),
            "%-22s %8.2f ms %8.2f ms"
            % (
                "stampede (%d clients)" % self.stampede_clients,
                self.stampede_p50_ms,
                self.stampede_p99_ms,
            ),
            "%-22s %8.2f ms %8.2f ms"
            % (
                "stream TTFB (full)",
                self.stream_ttfb_p50_ms,
                self.stream_ttfb_p99_ms,
            ),
            "streamed full region: TTFB p50 %.2f ms vs buffered total p50 %.2f ms "
            "(stream total p50 %.2f ms)"
            % (
                self.stream_ttfb_p50_ms,
                self.buffered_full_p50_ms,
                self.stream_total_p50_ms,
            ),
            "warm closed loop: %d requests / %.2f s = %.0f req/s over %d client(s)"
            % (
                self.warm_requests,
                self.warm_seconds,
                self.warm_requests_per_second,
                self.clients,
            ),
            "warm p50 is %.1fx below cold p50; stampede cost %d backend decode(s), "
            "%d request(s) coalesced"
            % (
                self.warm_over_cold_p50,
                self.stampede_backend_decodes,
                self.stampede_coalesced,
            ),
            "(%d shard(s), %s backend, %s engine, %dx%d, %d plane(s), %d stripes)"
            % (
                self.shards,
                self.backend,
                self.engine,
                self.size,
                self.size,
                self.planes,
                self.stripes,
            ),
        ]
        return "\n".join(lines)

    def as_json(self) -> Dict[str, Any]:
        """Machine-readable summary for ``repro-bench --json``."""
        extra: Dict[str, Any] = {
            "cold_p50_ms": self.cold_p50_ms,
            "cold_p99_ms": self.cold_p99_ms,
            "warm_p50_ms": self.warm_p50_ms,
            "warm_p99_ms": self.warm_p99_ms,
            "stampede_p50_ms": self.stampede_p50_ms,
            "stampede_p99_ms": self.stampede_p99_ms,
            "stream_ttfb_p50_ms": self.stream_ttfb_p50_ms,
            "stream_ttfb_p99_ms": self.stream_ttfb_p99_ms,
            "stream_total_p50_ms": self.stream_total_p50_ms,
            "buffered_full_p50_ms": self.buffered_full_p50_ms,
            "warm_over_cold_p50": self.warm_over_cold_p50,
            "warm_requests_per_second": self.warm_requests_per_second,
            "warm_requests": self.warm_requests,
            "stampede_clients": self.stampede_clients,
            "stampede_backend_decodes": self.stampede_backend_decodes,
            "stampede_coalesced": self.stampede_coalesced,
            "shards": self.shards,
            "backend": self.backend,
            "engine": self.engine,
            "clients": self.clients,
            "size": self.size,
            "seed": self.seed,
            "planes": self.planes,
            "stripes": self.stripes,
        }
        if self.duration is not None:
            extra["duration_seconds"] = self.duration
        if self.server_stats:
            extra["server_stats"] = self.server_stats
        if self.admission_stats:
            extra["admission"] = self.admission_stats
        return {"bpp": {}, "mb_per_s": {}, "extra": extra}


def _shard_misses(client: ServeClient) -> int:
    return sum(shard["cache"]["misses"] for shard in client.stats()["shards"])


def run_serve_bench(
    size: int = 64,
    seed: int = 2007,
    planes: int = 3,
    stripes: int = 4,
    shards: int = 2,
    clients: int = 8,
    warm_requests: int = 240,
    stream_requests: int = 40,
    stampede_clients: int = 64,
    backend: str = "filesystem",
    engine: str = "reference",
    images: Optional[Sequence[str]] = None,
    duration: Optional[float] = None,
    max_inflight: Optional[int] = None,
) -> ServeBenchResult:
    """Run the closed-loop load benchmark against an in-process server.

    ``duration`` switches the warm phase from a fixed request count to a
    timed soak of that many seconds (the nightly CI shape); everything
    else is identical.  ``max_inflight`` overrides the server's admission
    watermark (the default is high enough that this benchmark never
    sheds; the chaos drill in :mod:`repro.experiments.chaos_bench` is the
    one that deliberately overloads it).
    """
    if size < 16:
        raise ConfigError("serve bench image size must be at least 16, got %d" % size)
    if stripes < 2 or stripes > size:
        raise ConfigError("stripes must be in [2, %d], got %d" % (size, stripes))
    if shards < 1:
        raise ConfigError("shards must be at least 1, got %d" % shards)
    if clients < 1:
        raise ConfigError("clients must be at least 1, got %d" % clients)
    if stream_requests < 1:
        raise ConfigError("stream_requests must be at least 1, got %d" % stream_requests)
    if stampede_clients < 2:
        raise ConfigError("a stampede needs at least 2 clients, got %d" % stampede_clients)
    if backend not in ("filesystem", "sqlite"):
        raise ConfigError("backend must be 'filesystem' or 'sqlite', got %r" % (backend,))
    selected = list(images) if images is not None else list(CORPUS_IMAGE_NAMES)

    result = ServeBenchResult(
        size=size,
        seed=seed,
        planes=planes,
        stripes=stripes,
        shards=shards,
        backend=backend,
        engine=engine,
        clients=clients,
        stampede_clients=stampede_clients,
        duration=duration,
    )

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as root:
        stores: List[ImageStore] = []
        for index in range(shards):
            path = (
                "%s/shard-%02d.sqlite" % (root, index)
                if backend == "sqlite"
                else "%s/shard-%02d" % (root, index)
            )
            stores.append(ImageStore.open(path, engine=engine))
        if max_inflight is not None:
            service = ImageService(stores, max_inflight=max_inflight)
        else:
            service = ImageService(stores)
        with start_server_thread(service) as handle:
            client = ServeClient(*handle.address)

            # -------- ingest the corpus over the wire ------------------ #
            keys: List[str] = []
            for name in selected:
                image = generate_planar_image(name, size=size, seed=seed, planes=planes)
                buffer = io.BytesIO()
                write_ppm(image, buffer)
                outcome = client.put_image(buffer.getvalue(), stripes=stripes)
                keys.append(str(outcome["key"]))
            expected = generate_planar_image(
                selected[0], size=size, seed=seed, planes=planes
            )
            if client.get_image(keys[0]) != expected:
                raise ReproError("served image does not match the stored corpus")

            # -------- cold: first touch of every (key, stripe) --------- #
            pairs: List[Tuple[str, Tuple[int, int]]] = [
                (key, (stripe, stripe + 1)) for key in keys for stripe in range(stripes)
            ]
            for key, (start, stop) in pairs:
                begin = time.perf_counter()
                client.get_region(key, start, stop)
                result.cold_samples_ms.append(1e3 * (time.perf_counter() - begin))

            # -------- warm: closed loop over the now-hot regions ------- #
            deadline = (
                time.monotonic() + duration if duration is not None else None
            )
            per_client = max(1, warm_requests // clients)
            warm_lock = threading.Lock()

            def warm_worker(worker: int) -> None:
                worker_client = ServeClient(*handle.address)
                samples: List[float] = []
                count = 0
                index = worker
                while True:
                    if deadline is not None:
                        if time.monotonic() >= deadline:
                            break
                    elif count >= per_client:
                        break
                    key, (start, stop) = pairs[index % len(pairs)]
                    begin = time.perf_counter()
                    worker_client.get_region(key, start, stop)
                    samples.append(1e3 * (time.perf_counter() - begin))
                    count += 1
                    index += clients
                worker_client.close()
                with warm_lock:
                    result.warm_samples_ms.extend(samples)
                    result.warm_requests += count

            warm_begin = time.perf_counter()
            workers = [
                threading.Thread(target=warm_worker, args=(worker,))
                for worker in range(clients)
            ]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join()
            result.warm_seconds = time.perf_counter() - warm_begin

            # -------- streaming: warm full region, buffered vs chunked - #
            # Interleaved so machine drift hits both sides equally.  The
            # streamed response commits its Netpbm header before any
            # stripe decode, so its TTFB must beat the buffered total.
            full = (keys[0], 0, stripes)
            for _ in range(stream_requests):
                begin = time.perf_counter()
                client.get_region(full[0], full[1], full[2])
                result.buffered_full_samples_ms.append(
                    1e3 * (time.perf_counter() - begin)
                )
                _, timings = client.get_region_stream(full[0], full[1], full[2])
                result.stream_ttfb_samples_ms.append(timings["ttfb_ms"])
                result.stream_total_samples_ms.append(timings["total_ms"])

            # -------- stampede: a barrier herd on one cold region ------ #
            gray = generate_image(selected[0], size=size, seed=seed + 1)
            buffer = io.BytesIO()
            write_pgm(gray, buffer)
            # Two stripes -> one half-image cell: the leader's decode stays
            # in flight long enough for the herd to actually coalesce.
            stored = client.put_image(buffer.getvalue(), stripes=2)
            stampede_key = str(stored["key"])
            stampede_store = stores[service.router.names.index(str(stored["shard"]))]
            injector = stampede_store.wrap_backend(FaultInjector)
            injector.add_latency(STAMPEDE_BACKEND_LATENCY_S)
            misses_before = _shard_misses(client)
            coalesced_before = int(client.stats()["flight"]["coalesced"])
            barrier = threading.Barrier(stampede_clients)
            stampede_lock = threading.Lock()
            failures: List[BaseException] = []

            def stampede_worker() -> None:
                worker_client = ServeClient(*handle.address)
                try:
                    barrier.wait()
                    begin = time.perf_counter()
                    worker_client.get_region(stampede_key, 0, 1)
                    elapsed = 1e3 * (time.perf_counter() - begin)
                    with stampede_lock:
                        result.stampede_samples_ms.append(elapsed)
                except BaseException as error:  # pragma: no cover - diagnosis path
                    with stampede_lock:
                        failures.append(error)
                finally:
                    worker_client.close()

            herd = [
                threading.Thread(target=stampede_worker)
                for _ in range(stampede_clients)
            ]
            for thread in herd:
                thread.start()
            for thread in herd:
                thread.join()
            stampede_store.backend = injector.inner
            if failures:
                raise failures[0]
            result.stampede_backend_decodes = _shard_misses(client) - misses_before
            result.stampede_coalesced = (
                int(client.stats()["flight"]["coalesced"]) - coalesced_before
            )

            final = client.stats()
            result.server_stats = final["server"]
            result.admission_stats = final.get("admission", {})
            client.close()
    return result


def run_serve_soak(
    duration: float, size: int = 48, seed: int = 2007, **kwargs
) -> ServeBenchResult:
    """The nightly shape: a timed warm soak with histograms attached."""
    return run_serve_bench(size=size, seed=seed, duration=duration, **kwargs)


@dataclass
class TopologyBenchResult:
    """Decode-bound throughput: in-process threads vs worker processes.

    Both topologies serve the identical corpus with the decoded cache
    disabled, so every warm region read pays its entropy decodes — the
    regime where the thread topology is pinned to one core by the GIL
    and the process topology actually scales.
    """

    size: int
    seed: int
    planes: int
    stripes: int
    shards: int
    workers_per_shard: int
    clients: int
    requests: int
    cores: int
    thread_requests_per_second: float = 0.0
    proc_requests_per_second: float = 0.0
    thread_p50_ms: float = 0.0
    proc_p50_ms: float = 0.0

    @property
    def scaling(self) -> float:
        """proc throughput over thread throughput (0.0 when unmeasured)."""
        if self.thread_requests_per_second <= 0.0:
            return 0.0
        return self.proc_requests_per_second / self.thread_requests_per_second

    def format_report(self) -> str:
        return "\n".join(
            [
                "%-28s %12s %10s" % ("topology", "req/s", "p50"),
                "%-28s %10.0f   %8.2f ms"
                % ("thread (in-process)", self.thread_requests_per_second, self.thread_p50_ms),
                "%-28s %10.0f   %8.2f ms"
                % (
                    "proc (%d shard x %d worker)"
                    % (self.shards, self.workers_per_shard),
                    self.proc_requests_per_second,
                    self.proc_p50_ms,
                ),
                "decode-bound scaling: %.2fx on %d core(s) "
                "(%d clients, %d requests per topology, decoded cache off)"
                % (self.scaling, self.cores, self.clients, self.requests),
            ]
        )

    def as_json(self) -> Dict[str, Any]:
        return {
            "bpp": {},
            "mb_per_s": {},
            "extra": {
                "thread_requests_per_second": self.thread_requests_per_second,
                "proc_requests_per_second": self.proc_requests_per_second,
                "thread_p50_ms": self.thread_p50_ms,
                "proc_p50_ms": self.proc_p50_ms,
                "topology_scaling": self.scaling,
                "cores": self.cores,
                "shards": self.shards,
                "workers_per_shard": self.workers_per_shard,
                "clients": self.clients,
                "requests": self.requests,
                "size": self.size,
                "seed": self.seed,
                "planes": self.planes,
                "stripes": self.stripes,
            },
        }


def _drive_closed_loop(
    address: "tuple[str, int]",
    size: int,
    seed: int,
    planes: int,
    stripes: int,
    clients: int,
    requests: int,
    images: Sequence[str],
) -> "tuple[float, float]":
    """Ingest the corpus, hammer warm regions; returns (req/s, p50 ms)."""
    with ServeClient(*address) as client:
        keys: List[str] = []
        for name in images:
            image = generate_planar_image(name, size=size, seed=seed, planes=planes)
            buffer = io.BytesIO()
            write_ppm(image, buffer)
            keys.append(str(client.put_image(buffer.getvalue(), stripes=stripes)["key"]))
    pairs = [(key, (s, s + 1)) for key in keys for s in range(stripes)]
    per_client = max(1, requests // clients)
    samples: List[float] = []
    lock = threading.Lock()
    failures: List[BaseException] = []

    def worker(offset: int) -> None:
        local: List[float] = []
        try:
            with ServeClient(*address) as loop_client:
                for count in range(per_client):
                    key, (start, stop) = pairs[(offset + count * clients) % len(pairs)]
                    begin = time.perf_counter()
                    loop_client.get_region(key, start, stop)
                    local.append(1e3 * (time.perf_counter() - begin))
        except BaseException as error:  # pragma: no cover - diagnosis path
            with lock:
                failures.append(error)
            return
        with lock:
            samples.extend(local)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(clients)]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begin
    if failures:
        raise failures[0]
    return len(samples) / elapsed if elapsed > 0 else 0.0, _percentile(samples, 0.50)


def run_topology_bench(
    size: int = 48,
    seed: int = 2007,
    planes: int = 3,
    stripes: int = 4,
    shards: int = 2,
    workers_per_shard: int = 2,
    clients: int = 8,
    requests: int = 160,
    engine: str = "reference",
    images: Optional[Sequence[str]] = None,
) -> TopologyBenchResult:
    """Measure the proc topology's GIL escape against the thread topology.

    The decoded cache is disabled on every shard so each warm region read
    is an entropy decode; the thread topology serialises those on the GIL
    while ``shards * workers_per_shard`` worker processes decode truly in
    parallel.  The ``topology_scaling`` ratio is the artefact the CI perf
    gate records (skipped below 4 cores, where there is nothing to scale
    onto).
    """
    import os

    from repro.serve.proxy import ProxyService, start_proxy_thread
    from repro.serve.worker import WorkerSpec, WorkerSupervisor

    if shards < 1 or workers_per_shard < 1:
        raise ConfigError(
            "topology bench needs >= 1 shard and >= 1 worker per shard, got %d x %d"
            % (shards, workers_per_shard)
        )
    if clients < 1 or requests < 1:
        raise ConfigError(
            "topology bench needs >= 1 client and >= 1 request, got %d / %d"
            % (clients, requests)
        )
    selected = list(images) if images is not None else list(CORPUS_IMAGE_NAMES)
    result = TopologyBenchResult(
        size=size,
        seed=seed,
        planes=planes,
        stripes=stripes,
        shards=shards,
        workers_per_shard=workers_per_shard,
        clients=clients,
        requests=requests,
        cores=os.cpu_count() or 1,
    )

    with tempfile.TemporaryDirectory(prefix="repro-topo-thread-") as root:
        stores = [
            ImageStore.open("%s/shard-%02d" % (root, n), engine=engine, cache_bytes=0)
            for n in range(shards)
        ]
        with start_server_thread(ImageService(stores)) as handle:
            rps, p50 = _drive_closed_loop(
                handle.address, size, seed, planes, stripes, clients, requests, selected
            )
            result.thread_requests_per_second = rps
            result.thread_p50_ms = p50

    with tempfile.TemporaryDirectory(prefix="repro-topo-proc-") as root:
        specs = [
            WorkerSpec(
                shard_name="shard-%02d" % n,
                store_path=Path("%s/shard-%02d" % (root, n)),
                engine=engine,
                cache_bytes=0,
            )
            for n in range(shards)
        ]
        supervisor = WorkerSupervisor(specs, workers_per_shard=workers_per_shard).start()
        service = ProxyService(supervisor)
        handle = start_proxy_thread(service)
        try:
            rps, p50 = _drive_closed_loop(
                handle.address, size, seed, planes, stripes, clients, requests, selected
            )
            result.proc_requests_per_second = rps
            result.proc_p50_ms = p50
        finally:
            handle.stop()
            service.close()
    return result
