"""Shard worker processes: one store, one event loop, one decode pool each.

The multi-process topology (``repro-serve --topology proc``) escapes the
GIL by running every shard in its own OS process.  A worker is simply
the existing serving stack — :class:`~repro.serve.app.ImageService` over
one :class:`~repro.store.store.ImageStore`, fronted by
:class:`~repro.serve.app.ReproServer` — bound to a loopback port and
speaking the same HTTP API (the same route table, the same error
envelope) as the public tier.  The proxy (:mod:`repro.serve.proxy`)
terminates client connections and forwards over these loopback ports.

Process lifecycle lives here too:

* :class:`WorkerProcess` — spawn ``python -m repro.serve.worker`` with a
  per-shard store path, parse the ready line for the bound port, probe
  ``GET /version`` and refuse a worker whose package version mismatches
  the proxy's (a rolling deploy must not mix wire behaviours);
* :class:`WorkerGroup` — the W workers of one shard; readers pick a
  worker by key affinity (stable hash of the content key) so repeated
  reads of a key land on the same decoded cache and coalesce in the
  same single-flight map, and fail over to the group's other workers;
* :class:`WorkerSupervisor` — a monitor thread that restarts crashed
  workers with exponential backoff, and the SIGTERM drain cascade
  (workers drain their own in-flight work before exiting).

Workers of one shard share the shard's backend path — content-addressed
blobs written through any of them are readable by all — while each keeps
its own decoded/encoded caches and catalog view.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.exceptions import ConfigError, StoreError
from repro.serve.app import (
    DEFAULT_DEADLINE_SECONDS,
    ImageService,
    ReproServer,
    serve_until_sigterm,
)
from repro.serve.client import ServeClient
from repro.serve.routes import server_version
from repro.store.cache import DEFAULT_CACHE_BYTES, DEFAULT_ENCODED_CACHE_BYTES
from repro.store.store import ImageStore

__all__ = [
    "WorkerProcess",
    "WorkerGroup",
    "WorkerSpec",
    "WorkerSupervisor",
    "build_worker_parser",
    "worker_main",
]

#: The machine-readable line a worker prints once its socket is bound.
READY_PREFIX = "repro-serve-worker: listening on http://"


# ---------------------------------------------------------------------- #
# the worker process entry point
# ---------------------------------------------------------------------- #


def build_worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve-worker",
        description="One shard worker of the multi-process serve topology "
        "(spawned by repro-serve --topology proc; not a public entry point).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--store", required=True, help="path of this shard's store")
    parser.add_argument("--shard-name", required=True)
    parser.add_argument("--cache-bytes", type=int, default=DEFAULT_CACHE_BYTES)
    parser.add_argument(
        "--encoded-cache-bytes", type=int, default=DEFAULT_ENCODED_CACHE_BYTES
    )
    parser.add_argument(
        "--admission", choices=("always", "second-touch"), default="always"
    )
    parser.add_argument("--mmap", action="store_true")
    parser.add_argument("--engine", default="reference")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--max-inflight", type=int, default=256)
    parser.add_argument("--deadline", type=float, default=DEFAULT_DEADLINE_SECONDS)
    parser.add_argument("--read-timeout", type=float, default=30.0)
    parser.add_argument("--idle-timeout", type=float, default=300.0)
    parser.add_argument("--drain-budget", type=float, default=10.0)
    return parser


async def _run_worker(args) -> int:
    store = ImageStore.open(
        Path(args.store),
        use_mmap=args.mmap,
        cache_bytes=args.cache_bytes,
        engine=args.engine,
        cache_admission=args.admission,
        encoded_cache_bytes=args.encoded_cache_bytes,
    )
    service = ImageService(
        [store],
        names=[args.shard_name],
        max_workers=args.threads,
        max_inflight=args.max_inflight,
        default_deadline=args.deadline,
        read_timeout=args.read_timeout if args.read_timeout > 0 else None,
        idle_timeout=args.idle_timeout if args.idle_timeout > 0 else None,
        drain_budget=args.drain_budget,
    )

    def ready(port: int) -> None:
        # The supervisor parses this exact line for the bound port.
        print(
            "%s%s:%d (shard %s, pid %d)"
            % (READY_PREFIX, args.host, port, args.shard_name, os.getpid()),
            flush=True,
        )

    return await serve_until_sigterm(ReproServer(service, args.host, args.port), ready)


def worker_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of one shard worker (``python -m repro.serve.worker``)."""
    args = build_worker_parser().parse_args(argv)
    try:
        return asyncio.run(_run_worker(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


# ---------------------------------------------------------------------- #
# supervision (runs in the proxy process)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class WorkerSpec:
    """Everything needed to (re)spawn one shard's worker processes."""

    shard_name: str
    store_path: Path
    backend: str = "fs"
    cache_bytes: int = DEFAULT_CACHE_BYTES
    encoded_cache_bytes: int = DEFAULT_ENCODED_CACHE_BYTES
    admission: str = "always"
    use_mmap: bool = False
    engine: str = "reference"
    threads: Optional[int] = None
    max_inflight: int = 256
    deadline: float = DEFAULT_DEADLINE_SECONDS
    read_timeout: float = 30.0
    idle_timeout: float = 300.0
    drain_budget: float = 10.0

    def argv(self) -> List[str]:
        argv = [
            sys.executable,
            "-m",
            "repro.serve.worker",
            "--store",
            str(self.store_path),
            "--shard-name",
            self.shard_name,
            "--port",
            "0",
            "--cache-bytes",
            str(self.cache_bytes),
            "--encoded-cache-bytes",
            str(self.encoded_cache_bytes),
            "--admission",
            self.admission,
            "--engine",
            self.engine,
            "--max-inflight",
            str(self.max_inflight),
            "--deadline",
            str(self.deadline),
            "--read-timeout",
            str(self.read_timeout),
            "--idle-timeout",
            str(self.idle_timeout),
            "--drain-budget",
            str(self.drain_budget),
        ]
        if self.use_mmap:
            argv.append("--mmap")
        if self.threads is not None:
            argv.extend(["--threads", str(self.threads)])
        return argv


def _spawn_env() -> Dict[str, str]:
    """The child environment, with this package's source tree importable.

    A source checkout runs with ``PYTHONPATH=src``; spawning with the
    parent of the imported ``repro`` package prepended makes the worker
    importable regardless of how the proxy itself was launched.
    """
    import repro

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + os.pathsep + existing if existing else package_root
        )
    return env


class WorkerProcess:
    """One spawned shard worker: process handle + endpoint + lifecycle."""

    def __init__(self, spec: WorkerSpec, index: int) -> None:
        self.spec = spec
        self.index = index
        self.host = "127.0.0.1"
        self.port = 0
        #: Bumped on every (re)spawn so connection pools drop stale sockets.
        self.generation = 0
        self.restarts = 0
        self.ready = False
        self.started_at = 0.0
        self._process: Optional[subprocess.Popen] = None
        self._lock = threading.Lock()

    @property
    def label(self) -> str:
        return "%s/worker-%d" % (self.spec.shard_name, self.index)

    @property
    def pid(self) -> Optional[int]:
        process = self._process
        return process.pid if process is not None else None

    @property
    def alive(self) -> bool:
        process = self._process
        return self.ready and process is not None and process.poll() is None

    def spawn(self, timeout: float = 30.0, expected_version: str = "") -> None:
        """Start the process, wait for the ready line, verify its version."""
        process = subprocess.Popen(
            self.spec.argv(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_spawn_env(),
        )
        try:
            host, port = self._await_ready(process, timeout)
            self._verify_version(host, port, expected_version or server_version())
        except Exception:
            process.kill()
            process.wait(timeout=5)
            raise
        with self._lock:
            self._process = process
            self.host, self.port = host, port
            self.generation += 1
            self.ready = True
            self.started_at = time.monotonic()

    @staticmethod
    def _await_ready(process: subprocess.Popen, timeout: float) -> "tuple[str, int]":
        """Parse the ready line off the worker's stdout, bounded in time."""
        assert process.stdout is not None
        result: List[str] = []

        def pump() -> None:
            for raw in process.stdout:  # type: ignore[union-attr]
                line = raw.decode("utf-8", "replace")
                if not result and line.startswith(READY_PREFIX):
                    result.append(line)
                # Keep draining so the pipe can never fill and block the
                # worker; everything after the ready line is discarded.

        thread = threading.Thread(target=pump, daemon=True)
        thread.start()
        deadline = time.monotonic() + timeout
        while not result:
            if process.poll() is not None:
                raise StoreError(
                    "worker exited with status %s before becoming ready"
                    % process.returncode
                )
            if time.monotonic() > deadline:
                raise StoreError("worker not ready within %.1fs" % timeout)
            time.sleep(0.01)
        address = result[0][len(READY_PREFIX) :].split(" ", 1)[0]
        host, _, port_text = address.partition(":")
        return host, int(port_text)

    @staticmethod
    def _verify_version(host: str, port: int, expected: str) -> None:
        """Refuse a worker whose package version differs from the proxy's."""
        with ServeClient(host, port, timeout=10.0) as client:
            reported = client.version().get("version")
        if reported != expected:
            raise ConfigError(
                "worker reports version %r but the proxy runs %r — refusing "
                "to mix wire behaviours behind one proxy" % (reported, expected)
            )

    def mark_down(self) -> None:
        self.ready = False

    def poll(self) -> Optional[int]:
        process = self._process
        return None if process is None else process.poll()

    def terminate(self) -> None:
        """Ask the worker to drain and exit (SIGTERM)."""
        process = self._process
        if process is not None and process.poll() is None:
            try:
                process.terminate()
            except OSError:  # pragma: no cover - raced with exit
                pass

    def kill(self) -> None:
        process = self._process
        if process is not None and process.poll() is None:
            try:
                process.kill()
            except OSError:  # pragma: no cover - raced with exit
                pass

    def wait(self, timeout: float) -> bool:
        """True when the process has exited within ``timeout`` seconds."""
        process = self._process
        if process is None:
            return True
        try:
            process.wait(timeout=timeout)
            return True
        except subprocess.TimeoutExpired:
            return False


class WorkerGroup:
    """The W worker processes serving one shard."""

    def __init__(self, spec: WorkerSpec, count: int) -> None:
        if count < 1:
            raise ConfigError("a shard needs at least one worker, got %d" % count)
        self.spec = spec
        self.workers = [WorkerProcess(spec, index) for index in range(count)]

    @property
    def shard_name(self) -> str:
        return self.spec.shard_name

    def candidates(self, key: Optional[str] = None) -> List[WorkerProcess]:
        """Workers to try for one request, affinity-rotated and live-first.

        A keyed read starts at ``hash(key) % W`` so one key's repeated
        reads hit the same worker's decoded cache (and coalesce in its
        single-flight map); the rest of the group follows as failover.
        Workers believed down sort last — a crashed worker mid-restart
        is a last resort, not an immediate failure.
        """
        workers = self.workers
        if key is not None and len(workers) > 1:
            start = zlib.crc32(key.encode("utf-8")) % len(workers)
            workers = workers[start:] + workers[:start]
        return sorted(workers, key=lambda worker: not worker.alive)


class WorkerSupervisor:
    """Spawn, watch, restart and drain the whole worker fleet."""

    def __init__(
        self,
        specs: Sequence[WorkerSpec],
        workers_per_shard: int = 1,
        spawn_timeout: float = 30.0,
        restart_backoff: float = 0.25,
        max_backoff: float = 5.0,
        stable_after: float = 5.0,
        poll_interval: float = 0.1,
    ) -> None:
        self.groups = [WorkerGroup(spec, workers_per_shard) for spec in specs]
        self.spawn_timeout = spawn_timeout
        self.restart_backoff = restart_backoff
        self.max_backoff = max_backoff
        self.stable_after = stable_after
        self.poll_interval = poll_interval
        self._stopping = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        #: Per-worker restart state: (next attempt at, current backoff).
        self._pending: Dict[WorkerProcess, "tuple[float, float]"] = {}
        self._lock = threading.Lock()

    @property
    def shard_names(self) -> List[str]:
        return [group.shard_name for group in self.groups]

    def start(self) -> "WorkerSupervisor":
        """Spawn every worker, verify versions, start the restart monitor."""
        try:
            for group in self.groups:
                for worker in group.workers:
                    worker.spawn(self.spawn_timeout)
        except Exception:
            self.stop()
            raise
        self._monitor = threading.Thread(
            target=self._watch, name="repro-worker-supervisor", daemon=True
        )
        self._monitor.start()
        return self

    def _watch(self) -> None:
        while not self._stopping.wait(self.poll_interval):
            now = time.monotonic()
            for group in self.groups:
                for worker in group.workers:
                    self._tend(worker, now)

    def _tend(self, worker: WorkerProcess, now: float) -> None:
        if worker.poll() is None and worker.ready:
            return
        with self._lock:
            state = self._pending.get(worker)
            if state is None:
                # Fresh crash: schedule the first restart attempt.  A
                # worker that had been up for a while restarts with the
                # initial backoff again instead of an inherited penalty.
                worker.mark_down()
                uptime = now - worker.started_at
                backoff = self.restart_backoff
                self._pending[worker] = (now + backoff, backoff)
                del uptime
                return
            attempt_at, backoff = state
        if now < attempt_at:
            return
        try:
            worker.spawn(self.spawn_timeout)
        except Exception:
            next_backoff = min(backoff * 2.0, self.max_backoff)
            with self._lock:
                self._pending[worker] = (now + next_backoff, next_backoff)
            return
        worker.restarts += 1
        with self._lock:
            self._pending.pop(worker, None)

    def drain(self, budget: float) -> bool:
        """The SIGTERM cascade: every worker drains, stragglers are killed."""
        self._stopping.set()
        for group in self.groups:
            for worker in group.workers:
                worker.terminate()
        deadline = time.monotonic() + max(0.0, budget)
        drained = True
        for group in self.groups:
            for worker in group.workers:
                remaining = max(0.1, deadline - time.monotonic())
                if not worker.wait(remaining):
                    drained = False
                    worker.kill()
                    worker.wait(5.0)
                worker.mark_down()
        return drained

    def stop(self) -> None:
        """Tear the fleet down (monitor first, then the cascade)."""
        self._stopping.set()
        monitor = self._monitor
        if monitor is not None and monitor.is_alive():
            monitor.join(timeout=5)
        self.drain(budget=5.0)

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        """Per-shard worker state for ``/stats`` aggregation."""
        report: Dict[str, List[Dict[str, object]]] = {}
        for group in self.groups:
            report[group.shard_name] = [
                {
                    "index": worker.index,
                    "pid": worker.pid,
                    "port": worker.port,
                    "up": worker.alive,
                    "restarts": worker.restarts,
                }
                for worker in group.workers
            ]
        return report


if __name__ == "__main__":  # pragma: no cover
    sys.exit(worker_main())
