"""The network serving tier: asyncio HTTP over sharded image stores.

This package puts :mod:`repro.store` on the wire.  A hand-rolled
HTTP/1.1 front-end (stdlib :mod:`asyncio`, no framework) multiplexes many
concurrent clients over N :class:`~repro.store.store.ImageStore` shards:

* **routing** — rendezvous hashing of content keys over named shards
  (:mod:`repro.serve.router`), so resharding moves a minimal key fraction;
* **coalescing** — identical concurrent reads collapse into one decode
  through a thread-safe single-flight map (:mod:`repro.serve.flight`);
* **offload** — CPU-bound entropy decodes run on a worker pool, keeping
  the event loop free to accept and multiplex (:mod:`repro.serve.app`);
* **admission control** — in-flight work is bounded by watermarks and
  optional per-client caps; past the high watermark the server sheds
  with ``429`` + ``Retry-After`` (:mod:`repro.serve.admission`);
* **deadlines** — every request carries a budget into the worker pool
  and is abandoned cooperatively once it lapses
  (:mod:`repro.serve.deadline`);
* **replication + failover** — each key lives on the top-R rendezvous
  winners; writes fan out to every owner and reads fail over between
  replicas, preferring ones believed healthy — one policy for both
  topologies (:mod:`repro.serve.replicas`, :mod:`repro.serve.health`);
* **live resharding** — growing N shards to N+1 is an operation, not a
  restart: a background migrator copies the moved key fraction while
  reads consult both old and new owners (:mod:`repro.serve.reshard`);
* **fault injection** — a chaos proxy wraps any blob backend with
  kill/stall/error/latency faults for resilience tests and the CI chaos
  jobs (:mod:`repro.serve.chaos`);
* **process topology** — under ``--topology proc`` every shard runs in
  its own worker process (own event loop, own decode pool — a real GIL
  escape) behind a thin routing proxy that supervises, health-checks
  and restarts the fleet (:mod:`repro.serve.worker`,
  :mod:`repro.serve.proxy`);
* **one API surface** — a declarative route table plus a structured
  error envelope (``{"error", "code", "request_id"}``) shared by both
  topologies and the docs gate (:mod:`repro.serve.routes`);
* **observability** — per-endpoint latency histograms, coalescing
  counters, hardening counters (shed, deadline_exceeded, …) and
  per-shard cache byte occupancy behind ``GET /stats``
  (:mod:`repro.serve.stats`).

The ``repro-serve`` console script (:mod:`repro.serve.cli`) boots the
tier; :class:`~repro.serve.client.ServeClient` is the pure-stdlib client
used by the tests, the CI smoke job and ``repro-bench serve``.
"""

from repro.serve.admission import (
    DEFAULT_MAX_INFLIGHT,
    AdmissionController,
    ClientLimiter,
    TokenBucket,
)
from repro.serve.app import (
    DEFAULT_DEADLINE_SECONDS,
    ImageService,
    ReproServer,
    ServerHandle,
    start_server_thread,
)
from repro.serve.chaos import FaultInjector
from repro.serve.client import ServeClient, error_from_envelope
from repro.serve.proxy import (
    ProxyService,
    RemoteShard,
    ReproProxy,
    WorkerUnreachableError,
    start_proxy_thread,
)
from repro.serve.routes import (
    ERROR_CODES,
    ROUTES,
    Route,
    classify_error,
    error_payload,
    match_route,
    route_templates,
)
from repro.serve.worker import WorkerGroup, WorkerProcess, WorkerSpec, WorkerSupervisor
from repro.serve.deadline import (
    Deadline,
    RequestContext,
    bind_context,
    context_cell_hook,
    current_context,
)
from repro.serve.flight import SingleFlight
from repro.serve.health import HealthProber, HealthTracker, ShardHealth
from repro.serve.reshard import Resharder, ReshardReport
from repro.serve.router import StoreRouter, rendezvous_score, rendezvous_shard
from repro.serve.stats import EndpointStats, LatencyHistogram, ServerStats

__all__ = [
    "AdmissionController",
    "ClientLimiter",
    "DEFAULT_DEADLINE_SECONDS",
    "DEFAULT_MAX_INFLIGHT",
    "Deadline",
    "ERROR_CODES",
    "FaultInjector",
    "HealthProber",
    "HealthTracker",
    "ImageService",
    "ProxyService",
    "ROUTES",
    "RemoteShard",
    "ReproProxy",
    "ReproServer",
    "RequestContext",
    "Resharder",
    "ReshardReport",
    "Route",
    "ServerHandle",
    "ShardHealth",
    "start_proxy_thread",
    "start_server_thread",
    "ServeClient",
    "SingleFlight",
    "StoreRouter",
    "TokenBucket",
    "WorkerGroup",
    "WorkerProcess",
    "WorkerSpec",
    "WorkerSupervisor",
    "WorkerUnreachableError",
    "bind_context",
    "classify_error",
    "context_cell_hook",
    "current_context",
    "error_from_envelope",
    "error_payload",
    "match_route",
    "rendezvous_score",
    "rendezvous_shard",
    "route_templates",
    "LatencyHistogram",
    "EndpointStats",
    "ServerStats",
]
