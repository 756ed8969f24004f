"""Load generation over HTTP with the package's ``ServeClient``.

Requests go through the client's connection handling (keep-alive, one
replay of an idempotent GET on a dead socket), but bodies are read as raw
bytes: the public helpers parse Netpbm into image objects, which would
spend the load generator's CPU and hide the exact bytes the benchmark
compares.  Every operation is recorded, and one counts as failed on a
non-2xx status (429 and 504 included), a transport error or a body that
differs from the expected one.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.exceptions import ServeError
from repro.serve.client import ServeClient

#: At most this many client threads and connections (the machine has 2 CPUs).
CLIENTS = 2


@dataclass
class Op:
    """One request as the client saw it; times are ``time.monotonic()`` seconds."""

    kind: str  # "read" or "put"
    due: float
    sent: float
    done: float
    ok: bool
    samples: int = 0
    request_id: str = ""
    stored_bytes: int = 0
    error: str = ""

    @property
    def latency(self) -> float:
        """Seconds from when the request was due (open loop) or sent (closed loop)."""
        return self.done - self.due


@dataclass
class Phase:
    """The operations of one phase plus its wall-clock window."""

    name: str
    started: float = 0.0
    ended: float = 0.0
    ops: List[Op] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    @property
    def wrong_bodies(self) -> int:
        return sum(1 for op in self.ops if op.error == "wrong body")

    def latencies(self, kind: str) -> List[float]:
        return sorted(op.latency for op in self.ops if op.kind == kind and op.ok)


def _exchange(
    client: ServeClient, method: str, path: str, body: Optional[bytes]
) -> Tuple[int, bytes, str]:
    response = client._open_stream(method, path, body=body, content_type="application/octet-stream")
    payload = response.read()
    client._maybe_close(response)
    return response.status, payload, response.getheader("x-request-id") or ""


def read(client: ServeClient, key: str, start: int, stop: int, expected: bytes, due: float) -> Op:
    """GET one stripe region and compare it with ``expected``."""
    sent = time.monotonic()
    try:
        status, payload, request_id = _exchange(
            client, "GET", "/images/%s/region/%d-%d" % (key, start, stop), None
        )
    except (ServeError, OSError, http.client.HTTPException) as error:
        return Op("read", due, sent, time.monotonic(), False, error="transport: %s" % error)
    done = time.monotonic()
    if status != 200:
        return Op("read", due, sent, done, False, request_id=request_id, error="HTTP %d" % status)
    if payload != expected:
        return Op("read", due, sent, done, False, request_id=request_id, error="wrong body")
    return Op("read", due, sent, done, True, request_id=request_id)


def put(client: ServeClient, body: bytes, query: str, samples: int, due: float) -> Tuple[Op, str]:
    """PUT one image or container; returns the op and the content key."""
    sent = time.monotonic()
    try:
        status, payload, request_id = _exchange(client, "PUT", "/images" + query, body)
    except (ServeError, OSError, http.client.HTTPException) as error:
        return Op("put", due, sent, time.monotonic(), False, error="transport: %s" % error), ""
    done = time.monotonic()
    if status != 201:
        return Op("put", due, sent, done, False, request_id=request_id, error="HTTP %d" % status), ""
    try:
        outcome = json.loads(payload.decode("utf-8"))
        key, stored = str(outcome["key"]), int(outcome["bytes"])
    except (ValueError, KeyError, TypeError):
        return Op("put", due, sent, done, False, request_id=request_id, error="wrong body"), ""
    op = Op("put", due, sent, done, True, samples, request_id, stored)
    if body[:2] not in (b"P5", b"P6") and key != hashlib.sha256(body).hexdigest():
        # A container upload is stored verbatim under the hash of its bytes.
        op.ok, op.error = False, "wrong body"
    return op, key


def _run_threads(target: Callable[[int], None]) -> None:
    """Run ``target(index)`` on ``CLIENTS`` threads; re-raise the first error one raised."""
    errors: List[BaseException] = []

    def guarded(index: int) -> None:
        try:
            target(index)
        except BaseException as error:  # handed to the caller below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(index,)) for index in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(
    port: int, name: str, seconds: float, step: Callable[[ServeClient, int, int], List[Op]]
) -> Phase:
    """``CLIENTS`` threads each run ``step(client, thread, iteration)`` back to back."""
    phase = Phase(name)
    lock = threading.Lock()
    phase.started = time.monotonic()
    stop_at = phase.started + seconds

    def worker(index: int) -> None:
        with ServeClient("127.0.0.1", port, timeout=60.0) as client:
            iteration = 0
            while time.monotonic() < stop_at:
                ops = step(client, index, iteration)
                iteration += 1
                with lock:
                    phase.ops.extend(ops)

    _run_threads(worker)
    phase.ended = time.monotonic()
    return phase


def open_loop(
    port: int, name: str, offsets: Sequence[float], request: Callable[[ServeClient, int, float], Op]
) -> Phase:
    """Send request ``i`` at ``start + offsets[i]`` on whichever connection is free.

    Latency runs from the due time, so a stall also charges the wait it
    imposes on the requests queued behind it.  ``Op.sent - Op.due`` is the
    generator's lateness.
    """
    phase = Phase(name)
    lock = threading.Lock()
    cursor = [0]
    phase.started = time.monotonic() + 0.05

    def worker(index: int) -> None:
        with ServeClient("127.0.0.1", port, timeout=60.0) as client:
            while True:
                with lock:
                    position = cursor[0]
                    cursor[0] += 1
                if position >= len(offsets):
                    return
                due = phase.started + offsets[position]
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                op = request(client, position, due)
                with lock:
                    phase.ops.append(op)

    _run_threads(worker)
    phase.ended = time.monotonic()
    return phase


def backlog(phase: Phase) -> Optional[str]:
    """Why a fixed-rate phase is invalid, or ``None``.

    The phase is invalid when the generator's lateness grows through it:
    when the median lateness of the last quarter of requests exceeds both
    50 ms and three times the first quarter's plus 20 ms.
    """
    late = [op.sent - op.due for op in sorted(phase.ops, key=lambda op: op.due)]
    if len(late) < 8:
        return "only %d requests" % len(late)
    quarter = len(late) // 4
    first = sorted(late[:quarter])[quarter // 2]
    last = sorted(late[-quarter:])[quarter // 2]
    if last > 0.05 and last > 3 * first + 0.02:
        return "lateness grew from %.1f ms to %.1f ms" % (1e3 * first, 1e3 * last)
    return None
