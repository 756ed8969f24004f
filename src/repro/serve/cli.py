"""The ``repro-serve`` console script.

Boots the asyncio serving tier over N freshly opened (or pre-existing)
store shards::

    repro-serve --shards 2 --backend fs --root /var/lib/repro --port 8037

prints one machine-readable line once the socket is bound::

    repro-serve: listening on http://127.0.0.1:8037 (2 shard(s), fs backend)

and serves until interrupted.  ``--port 0`` binds an ephemeral port (the
printed line carries the real one — the CI smoke job parses it), and
without ``--root`` the shards live in a throwaway temporary directory, so
``repro-serve`` with no arguments is a complete self-contained demo
server.

Shard layout under ``--root``: ``shard-00``, ``shard-01``, … — directories
for the ``fs`` backend, ``shard-NN.sqlite`` files for ``sqlite``.  Reusing
the same root re-opens the same shards with the same names, and since
routing hashes shard *names*, keys keep their placement across restarts.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.cli import _print_error, add_version_argument
from repro.core.interface import ENGINES
from repro.exceptions import ReproError
from repro.serve.admission import DEFAULT_MAX_INFLIGHT
from repro.serve.app import (
    DEFAULT_DEADLINE_SECONDS,
    ImageService,
    ReproServer,
    serve_until_sigterm,
)
from repro.store.cache import DEFAULT_CACHE_BYTES
from repro.store.store import ImageStore

__all__ = ["serve_main", "build_parser", "open_shards", "shard_paths"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve stored images over HTTP: sharded routing, "
        "request coalescing, cached random access.",
    )
    add_version_argument(parser)
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port",
        type=int,
        default=8037,
        help="TCP port; 0 binds an ephemeral port (default 8037)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="number of store shards keys are routed across (default 1)",
    )
    parser.add_argument(
        "--topology",
        choices=("thread", "proc"),
        default="thread",
        help="process layout: 'thread' serves every shard in this process "
        "on one thread pool; 'proc' runs each shard in its own worker "
        "process behind a routing proxy, escaping the GIL for CPU-bound "
        "decodes (default thread)",
    )
    parser.add_argument(
        "--workers-per-shard",
        type=int,
        default=1,
        metavar="W",
        help="worker processes per shard under --topology proc; each "
        "request goes to the live worker with the fewest requests in "
        "flight, ties to the key's affinity worker, and fails over to "
        "the others (default 1)",
    )
    parser.add_argument(
        "--backend",
        choices=("fs", "sqlite"),
        default="fs",
        help="blob storage of every shard (default fs)",
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=1,
        metavar="R",
        help="rendezvous owners per key: writes fan out to all R, reads "
        "fail over between them (default 1; clamped to the shard count)",
    )
    parser.add_argument(
        "--reshard",
        action="store_true",
        help="treat the highest-numbered shard as newly joining: serve on "
        "the first N-1 shards and migrate the moved keys onto the last "
        "one in the background (live N-1 -> N reshard)",
    )
    parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="directory holding the shards (default: a temporary directory)",
    )
    parser.add_argument(
        "--cache-bytes",
        type=int,
        default=DEFAULT_CACHE_BYTES,
        metavar="N",
        help="decoded-cell LRU budget per shard in bytes (default 32 MiB; 0 disables)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="reference",
        help="coding engine for encodes and decodes (default: reference)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="thread-pool size for CPU-bound decodes (default: executor default)",
    )
    hardening = parser.add_argument_group(
        "production hardening",
        "Admission control, per-client limits, deadlines and graceful "
        "drain.  Past --max-inflight the server sheds requests with 429 + "
        "Retry-After instead of queueing them; SIGTERM drains in-flight "
        "work within --drain-budget seconds and exits 0.",
    )
    hardening.add_argument(
        "--max-inflight",
        type=int,
        default=DEFAULT_MAX_INFLIGHT,
        metavar="N",
        help="high watermark on admitted in-flight requests; past it new "
        "requests are shed with 429 (default %d)" % DEFAULT_MAX_INFLIGHT,
    )
    hardening.add_argument(
        "--shed-low",
        type=int,
        default=None,
        metavar="N",
        help="low watermark at which shedding stops again "
        "(default: half of --max-inflight)",
    )
    hardening.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="Retry-After hint attached to 429 responses (default 1.0)",
    )
    hardening.add_argument(
        "--max-client-connections",
        type=int,
        default=0,
        metavar="N",
        help="concurrent connections allowed per client host; "
        "0 disables the cap (default)",
    )
    hardening.add_argument(
        "--client-rate",
        type=float,
        default=0.0,
        metavar="R",
        help="requests per second allowed per client host; "
        "0 disables rate limiting (default)",
    )
    hardening.add_argument(
        "--client-burst",
        type=float,
        default=None,
        metavar="B",
        help="token-bucket burst of the per-client rate limit "
        "(default: twice --client-rate)",
    )
    hardening.add_argument(
        "--deadline",
        type=float,
        default=DEFAULT_DEADLINE_SECONDS,
        metavar="SECONDS",
        help="per-request time budget (clients may tighten it with an "
        "x-deadline-ms header); 0 disables deadlines (default %.0f)"
        % DEFAULT_DEADLINE_SECONDS,
    )
    hardening.add_argument(
        "--read-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="budget for a request's headers and body once the request "
        "line arrived; 0 disables (default 30)",
    )
    hardening.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="idle keep-alive connections are closed after this long; "
        "0 disables (default 300)",
    )
    hardening.add_argument(
        "--drain-budget",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="seconds in-flight requests get to finish on SIGTERM "
        "before connections are closed (default 10)",
    )
    hardening.add_argument(
        "--health-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="shard health-probe sweep interval; reads prefer replicas "
        "the prober believes up; 0 disables probing (default 2.0)",
    )
    hardening.add_argument(
        "--health-down-after",
        type=int,
        default=3,
        metavar="N",
        help="consecutive failures before a shard is marked down (default 3)",
    )
    hardening.add_argument(
        "--health-up-after",
        type=int,
        default=2,
        metavar="N",
        help="consecutive successes before a down shard is marked up "
        "again (default 2)",
    )
    return parser


def open_shards(
    root: Path,
    shards: int,
    backend: str,
    cache_bytes: int,
    engine: str,
) -> List[ImageStore]:
    """Open ``shards`` stores under ``root`` with the standard shard layout."""
    return [
        ImageStore.open(path, cache_bytes=cache_bytes, engine=engine)
        for path in shard_paths(root, shards, backend)
    ]


def shard_paths(root: Path, shards: int, backend: str) -> List[Path]:
    """The standard shard layout as paths (no stores opened)."""
    paths = []
    for index in range(shards):
        name = "shard-%02d" % index
        paths.append(root / (name + ".sqlite") if backend == "sqlite" else root / name)
    return paths


def _front_end(args) -> Dict[str, Any]:
    """The service keywords both topologies take from the command line."""
    return dict(
        max_workers=args.workers,
        max_inflight=args.max_inflight,
        shed_low=args.shed_low,
        retry_after=args.retry_after,
        max_connections_per_client=args.max_client_connections,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
        default_deadline=args.deadline,
        read_timeout=args.read_timeout if args.read_timeout > 0 else None,
        idle_timeout=args.idle_timeout if args.idle_timeout > 0 else None,
        drain_budget=args.drain_budget,
        replication=args.replication,
        health_down_after=args.health_down_after,
        health_up_after=args.health_up_after,
    )


def _proc_server(args, root: Path) -> ReproServer:
    """The multi-process topology: shard workers behind a routing proxy."""
    from repro.serve.proxy import ProxyService, ReproProxy
    from repro.serve.worker import WorkerSpec, WorkerSupervisor

    specs = [
        WorkerSpec(
            shard_name="shard-%02d" % index,
            store_path=path,
            cache_bytes=args.cache_bytes,
            engine=args.engine,
            threads=args.workers,
            max_inflight=args.max_inflight,
            deadline=args.deadline,
            read_timeout=args.read_timeout,
            idle_timeout=args.idle_timeout,
            drain_budget=args.drain_budget,
        )
        for index, path in enumerate(shard_paths(root, args.shards, args.backend))
    ]
    supervisor = WorkerSupervisor(
        specs, workers_per_shard=args.workers_per_shard
    ).start()
    service = ProxyService(supervisor, engine=args.engine, **_front_end(args))
    return ReproProxy(service, args.host, args.port)


def _thread_server(args, root: Path) -> ReproServer:
    """The in-process topology: every shard's store behind one pool."""
    stores = open_shards(
        root, args.shards, args.backend, args.cache_bytes, args.engine
    )
    # The highest-numbered shard of a --reshard boot is the one joining:
    # serve the old membership and add it through the live-reshard path,
    # so reads consult both owner sets while keys migrate.
    joining = stores.pop() if args.reshard else None
    service = ImageService(stores, **_front_end(args))
    if joining is not None:
        joining_name = "shard-%02d" % (args.shards - 1)
        resharder = service.begin_reshard(joining, joining_name)
        moved = len(resharder.moved_keys())
        resharder.start()
        print(
            "repro-serve: live reshard onto %s started (%d key(s) to move)"
            % (joining_name, moved),
            file=sys.stderr,
            flush=True,
        )
    return ReproServer(service, args.host, args.port)


def _ready(args, root: Path, *notes: str) -> Callable[[int], None]:
    """The ready lines: ``listening on`` on stdout (scripts parse it), notes on stderr."""

    def ready(port: int) -> None:
        print(
            "repro-serve: listening on http://%s:%d (%d shard(s), %s backend)"
            % (args.host, port, args.shards, args.backend),
            flush=True,
        )
        for note in notes + ("shards under %s" % root,):
            print("repro-serve: " + note, file=sys.stderr, flush=True)

    return ready


async def _serve(args, root: Path) -> int:
    if args.topology == "proc":
        server = _proc_server(args, root)
        ready = _ready(
            args,
            root,
            "proxy over %d worker process(es) (%d per shard)"
            % (args.shards * args.workers_per_shard, args.workers_per_shard),
        )
    else:
        server = _thread_server(args, root)
        ready = _ready(args, root)
    return await serve_until_sigterm(server, ready, args.health_interval)


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-serve``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error("--shards must be at least 1")
    if args.cache_bytes < 0:
        parser.error("--cache-bytes must be >= 0")
    if args.port < 0 or args.port > 65535:
        parser.error("--port must be in [0, 65535]")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be at least 1")
    if args.max_inflight < 1:
        parser.error("--max-inflight must be at least 1")
    if args.shed_low is not None and not 0 < args.shed_low <= args.max_inflight:
        parser.error("--shed-low must be in [1, --max-inflight]")
    if args.retry_after <= 0:
        parser.error("--retry-after must be positive")
    if args.max_client_connections < 0:
        parser.error("--max-client-connections must be >= 0")
    if args.client_rate < 0:
        parser.error("--client-rate must be >= 0")
    if args.client_burst is not None and args.client_burst < 1:
        parser.error("--client-burst must be >= 1")
    if args.deadline < 0:
        parser.error("--deadline must be >= 0")
    if args.read_timeout < 0 or args.idle_timeout < 0:
        parser.error("--read-timeout and --idle-timeout must be >= 0")
    if args.drain_budget < 0:
        parser.error("--drain-budget must be >= 0")
    if args.replication < 1:
        parser.error("--replication must be at least 1")
    if args.reshard and args.shards < 2:
        parser.error("--reshard needs --shards >= 2 (the last shard is the joining one)")
    if args.workers_per_shard < 1:
        parser.error("--workers-per-shard must be at least 1")
    if args.topology == "proc" and args.reshard:
        parser.error(
            "--reshard is not supported under --topology proc yet; run the "
            "reshard with --topology thread, then restart in proc mode"
        )
    if args.health_interval < 0:
        parser.error("--health-interval must be >= 0")
    if args.health_down_after < 1 or args.health_up_after < 1:
        parser.error("--health-down-after and --health-up-after must be at least 1")

    try:
        if args.root is None:
            with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
                return asyncio.run(_serve(args, Path(tmp)))
        root = Path(args.root)
        root.mkdir(parents=True, exist_ok=True)
        return asyncio.run(_serve(args, root))
    except KeyboardInterrupt:
        print("repro-serve: interrupted, shutting down", file=sys.stderr)
        return 0
    except (ReproError, OSError) as error:
        _print_error(error)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
