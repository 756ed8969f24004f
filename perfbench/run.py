"""The repository benchmark: a real ``repro-serve`` driven over HTTP.

Run from the root of a checkout::

    python3 perfbench/run.py --workload warm-regions --seed 1 --seconds 12 --trace 0

It starts ``python -m repro.serve.cli`` (the ``repro-serve`` entry point)
from this checkout's ``src`` as a subprocess, loads it with at most two
client threads, checks every response byte for byte, prints a readable
report and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload untraced and then
traced, and reports the per-layer metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORK = HERE / ".work"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Fixed Poisson rate of warm-regions' open-loop phase: a quarter of the
#: closed-loop read_rps measured when the benchmark was written, low enough
#: that queueing does not amplify the machine's own speed changes.
WARM_RATE = 50.0
#: Share of warm-regions' seconds spent in the fixed-rate phase.
WARM_OPEN_SHARE = 1 / 3
#: Decoded-cell cache of the cold workloads; their corpus decodes to 12x this.
COLD_CACHE_BYTES = 128 * 1024


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str
    cache_bytes: Optional[int]
    corpus: Tuple[int, int, int, int]  # images, width, height, stripes


#: Why each workload exists is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("warm-regions", "thread", None, (2, 96, 48, 6)),
        Workload("cold-regions", "thread", COLD_CACHE_BYTES, (16, 128, 32, 8)),
        Workload("cold-regions-proc", "proc", COLD_CACHE_BYTES, (16, 128, 32, 8)),
        Workload("ingest", "thread", None, (0, 24, 24, 4)),
    )
}

TINY = {
    "warm-regions": (2, 32, 32, 4),
    "cold-regions": (2, 64, 32, 8),
    "cold-regions-proc": (2, 64, 32, 8),
    "ingest": (0, 16, 16, 4),
}


class Invalid(Exception):
    """The run measured something other than its workload; it prints no result."""


def fail(message: str, code: int = 1) -> None:
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(code)


def benchmark_spec() -> Dict:
    """``BENCHMARK.json``: the workloads' reasons and every metric's name and unit."""
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in benchmark_spec()[kind]}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of sorted ``values``."""
    if not values:
        raise Invalid("no successful operations to take a percentile of")
    rank = max(1, int(-(-q * len(values) // 100)))
    return values[min(rank, len(values)) - 1]


def machine(run: "Run", engine: str, server_cpus: Dict[str, str]) -> Dict[str, object]:
    import importlib.util

    from server import cpu_list

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(run.cpus),
        "client_cpus": cpu_list(0),
        "server_cpus": server_cpus,
        "python": platform.python_version(),
        "numba": importlib.util.find_spec("numba") is not None,
        "c_compiler": shutil.which("cc") or shutil.which("gcc") or None,
        "server_engine": engine,
        "flush_policy": "catalog journal fsynced per put; blob files not fsynced",
    }


class Run:
    """One benchmark invocation: inputs, set-ups, phases and their numbers."""

    def __init__(self, args: argparse.Namespace, cpus: List[int]) -> None:
        import inputs

        self.args = args
        self.cpus = cpus
        self.workload = WORKLOADS[args.workload]
        # The load generator keeps the last CPU and a thread-topology server
        # the others, so neither is scheduled onto the other's CPU.  A proc
        # topology's proxy and workers get every CPU: its workers decode in
        # parallel, which is what that topology is for.
        if self.workload.topology == "proc":
            self.server_cpus = cpus
        else:
            self.server_cpus = cpus[:-1] or cpus
        count, width, height, stripes = TINY[args.workload] if args.tiny else self.workload.corpus
        self.workdir = WORK / ("run-%d" % os.getpid())
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.calibration = inputs.calibration_set()
        corpus_seed_stream = "cold" if self.workload.name.startswith("cold") else self.workload.name
        self.images = inputs.synth_set(args.seed, corpus_seed_stream, count, width, height, stripes)
        self.containers = inputs.containers(self.images)
        if self.workload.name == "ingest":
            pool = int(args.seconds * 25) + 50
            self.fresh = inputs.synth_set(args.seed, "ingest", pool, width, height, stripes)
            self.fresh_bodies = [image.netpbm() for image in self.fresh]
        self.cache_bytes = self.workload.cache_bytes
        if args.tiny and self.cache_bytes is not None:
            self.cache_bytes = 8 * 1024
        self.phases: List = []
        self.poisoned = False
        self.keys: List[str] = []

    # -- expected bodies ------------------------------------------------- #

    def expected(self, image, start: int, stop: int) -> bytes:
        body = image.region_netpbm(start, stop)
        if self.args.poison and not self.poisoned:
            # Self-test: one deliberately wrong expectation must count as a failed op.
            self.poisoned = True
            return body[:-1] + bytes([body[-1] ^ 0xFF])
        return body

    # -- server life ----------------------------------------------------- #

    def server(self, index: int, trace_dir: Optional[Path] = None):
        from server import Server

        return Server(
            CHECKOUT,
            self.workdir / ("root-%d" % index),
            self.workdir / ("server-%d.log" % index),
            cache_bytes=self.cache_bytes,
            topology=self.workload.topology,
            workers_per_shard=2,
            trace_dir=trace_dir,
            cpus=self.server_cpus,
        )

    def set_up(self, index: int, trace_dir: Optional[Path] = None):
        """Launch, load the corpus, PUT the calibration set and warm up.

        Returns the server, the set-up's seconds, its phase and the
        calibration PUTs.
        """
        import load
        from repro.serve.client import ServeClient

        phase = load.Phase("setup-%d" % index)
        phase.started = time.monotonic()
        started = time.perf_counter()
        server = self.server(index, trace_dir).start()
        try:
            with ServeClient("127.0.0.1", server.port, timeout=60.0) as client:
                keys = []
                for image, container in zip(self.images, self.containers):
                    op, key = load.put(client, container, "", image.sample_count, time.monotonic())
                    phase.ops.append(op)
                    keys.append(key)
                if self.workload.name == "warm-regions":
                    warm_up = [(image, key, image.stripes) for image, key in zip(self.images, keys)]
                else:
                    # One stripe of a few images: imports the engine in every worker.
                    warm_up = [(image, key, 1) for image, key in zip(self.images[:6], keys)]
                for image, key, stop in warm_up:
                    phase.ops.append(self.read(client, image, key, 0, stop, time.monotonic()))
                # After the reads above, so the engine's first-use import is not timed as a PUT.
                calibration_ops = []
                for image in self.calibration:
                    query = "?stripes=%d" % image.stripes
                    op, key = load.put(client, image.netpbm(), query, image.sample_count, time.monotonic())
                    calibration_ops.append(op)
                    phase.ops.append(op)
                    phase.ops.append(self.read(client, image, key, 0, 1, time.monotonic()))
            elapsed = time.perf_counter() - started
            phase.ended = time.monotonic()
            if self.workload.topology == "proc":
                with ServeClient("127.0.0.1", server.port) as client:
                    server.note_workers(client.stats())
        except BaseException:
            server.kill()
            raise
        self.phases.append(phase)
        self.keys = keys
        return server, elapsed, phase, calibration_ops

    def read(self, client, image, key: str, start: int, stop: int, due: float):
        import load

        op = load.read(client, key, start, stop, self.expected(image, start, stop), due)
        op.samples = image.planes * image.width * image.rows_per_stripe * (stop - start)
        return op

    # -- timed phases ---------------------------------------------------- #

    def measure(self, port: int) -> List:
        """The workload's timed phases, in order."""
        import inputs
        import load
        import numpy as np

        seconds, seed = self.args.seconds, self.args.seed
        images, keys = self.images, self.keys

        def random_for(thread: int) -> np.random.Generator:
            return np.random.default_rng([seed, 11, thread])

        if self.workload.name == "warm-regions":
            schedule = inputs.poisson_schedule(seed, WARM_RATE, seconds * WARM_OPEN_SHARE)
            rng = random_for(99)
            plan = [self.warm_region(rng) for _ in schedule]

            def scheduled(client, position: int, due: float):
                index, start, stop = plan[position]
                return self.read(client, images[index], keys[index], start, stop, due)

            open_phase = load.open_loop(port, "fixed-rate", schedule, scheduled)
            reason = load.backlog(open_phase)
            if reason is not None:
                raise Invalid("fixed-rate phase at %.0f req/s backlogged: %s" % (WARM_RATE, reason))
            streams = [random_for(t) for t in range(load.CLIENTS)]

            def warm_step(client, thread: int, iteration: int):
                index, start, stop = self.warm_region(streams[thread])
                now = time.monotonic()
                return [self.read(client, images[index], keys[index], start, stop, now)]

            closed = load.closed_loop(port, "closed-loop", seconds * (1 - WARM_OPEN_SHARE), warm_step)
            return [open_phase, closed]

        if self.workload.name.startswith("cold"):
            streams = [random_for(t) for t in range(load.CLIENTS)]

            def cold_step(client, thread: int, iteration: int):
                rng = streams[thread]
                index = int(rng.integers(len(images)))
                stripe = int(rng.integers(images[index].stripes))
                now = time.monotonic()
                return [self.read(client, images[index], keys[index], stripe, stripe + 1, now)]

            return [load.closed_loop(port, "closed-loop", seconds, cold_step)]

        cursor = itertools.count()

        def ingest_step(client, thread: int, iteration: int):
            position = next(cursor)
            if position >= len(self.fresh):
                raise Invalid("ingest image pool of %d ran out" % len(self.fresh))
            image = self.fresh[position]
            query = "?stripes=%d" % image.stripes
            op, key = load.put(client, self.fresh_bodies[position], query, image.sample_count, time.monotonic())
            ops = [op]
            if op.ok:
                for stripe in range(image.stripes):
                    ops.append(self.read(client, image, key, stripe, stripe + 1, time.monotonic()))
            return ops

        return [load.closed_loop(port, "closed-loop", seconds, ingest_step)]

    def warm_region(self, rng) -> Tuple[int, int, int]:
        """A quarter full-image reads, the rest 2-4 stripe regions."""
        index = int(rng.integers(len(self.images)))
        stripes = self.images[index].stripes
        if rng.random() < 0.25:
            return index, 0, stripes
        length = int(rng.integers(2, min(4, stripes - 1) + 1))
        start = int(rng.integers(0, stripes - length + 1))
        return index, start, start + length

    # -- one measured pass ----------------------------------------------- #

    def measured_pass(self, setups: int, trace_dir: Optional[Path] = None) -> Dict[str, object]:
        from repro.serve.client import ServeClient

        setup_seconds = []
        calibration_ops = []
        server = None
        for index in range(setups):
            if server is not None:
                server.stop()
            server, elapsed, phase, calibration = self.set_up(index, trace_dir)
            setup_seconds.append(elapsed)
            calibration_ops += calibration
            setup_window = (phase.started, phase.ended)
        assert server is not None
        try:
            with ServeClient("127.0.0.1", server.port) as client:
                before = client.stats()
                timed = self.measure(server.port)
                after = client.stats()
            rss = server.peak_rss_mb()
            server_cpus = server.cpu_lists()
        except BaseException:
            server.kill()
            raise
        self.phases.extend(timed)
        code = server.stop()
        if code != 0:
            raise Invalid("repro-serve exited with status %d after SIGTERM" % code)
        return {
            "setup_seconds": setup_seconds,
            "setup_window": setup_window,
            "calibration_ops": calibration_ops,
            "timed": timed,
            "before": before,
            "after": after,
            "rss_mb": rss,
            "server_cpus": server_cpus,
        }


def stats_deltas(before: Dict, after: Dict) -> Dict[str, float]:
    def cache(stats: Dict, field: str) -> int:
        return sum(int(shard["cache"][field]) for shard in stats["shards"])

    def counter(stats: Dict, name: str) -> int:
        return int(stats["server"]["counters"].get(name, 0))

    hits = cache(after, "hits") - cache(before, "hits")
    misses = cache(after, "misses") - cache(before, "misses")
    lookups = hits + misses
    return {
        "store.decoded_hit_ratio": hits / lookups if lookups else 0.0,
        "store.decoded_lookups": float(lookups),
        "serve.coalesced": float(after["flight"]["coalesced"] - before["flight"]["coalesced"]),
        "serve.shed": float(after["admission"]["shed"] - before["admission"]["shed"]),
        "serve.deadline_exceeded": float(
            counter(after, "deadline_exceeded") - counter(before, "deadline_exceeded")
        ),
    }


def end_to_end(run: Run, result: Dict[str, object]) -> Tuple[Dict[str, float], List[str]]:
    timed = result["timed"]
    closed = timed[-1]
    reads = closed.latencies("read")
    seconds = closed.ended - closed.started
    notes = ["read latency and read_rps: closed loop with 2 clients, %d reads in %.2f s" % (
        len(reads), seconds)]
    notes.append(tail("read_p99_ms", reads, 99))
    if run.workload.name == "warm-regions":
        notes += fixed_rate_notes(timed[0])
    if run.workload.name == "ingest":
        put_ops = [op for op in closed.ops if op.kind == "put" and op.ok]
        put_latencies = sorted(op.latency for op in put_ops)
        ingest = 8 * sum(op.samples for op in put_ops) / seconds / 1e6
        notes.append("put: closed loop with 2 clients, %d PUTs the server encoded, %.2f s" % (
            len(put_ops), seconds))
    else:
        put_ops = [op for op in result["calibration_ops"] if op.ok]
        put_latencies = sorted(op.latency for op in put_ops)
        # Calibration images share one size, so this is one PUT's raw bits over the median PUT.
        ingest = 8 * put_ops[0].samples / percentile(put_latencies, 50) / 1e6
        notes.append("put: %d sequential calibration PUTs the server encoded during set-up" % len(put_ops))
    calibration = [op for op in result["calibration_ops"] if op.ok][-len(run.calibration):]
    stored = 8 * sum(op.stored_bytes for op in calibration) / sum(op.samples for op in calibration)
    metrics = {
        "setup_s": statistics.median(result["setup_seconds"]),
        "read_p50_ms": 1e3 * percentile(reads, 50),
        "read_p90_ms": 1e3 * percentile(reads, 90),
        "read_rps": len(reads) / seconds,
        "put_p50_ms": 1e3 * percentile(put_latencies, 50),
        "ingest_mbit_s": ingest,
        "stored_bits_per_sample": stored,
        "server_rss_mb": result["rss_mb"],
    }
    notes.append(tail("put_p90_ms", put_latencies, 90))
    notes.append("setup_s: median of %s s" % ", ".join("%.3f" % s for s in result["setup_seconds"]))
    return metrics, notes


def fixed_rate_notes(phase) -> List[str]:
    """warm-regions' open-loop phase: latency from each request's due time, and lateness.

    Reported, not gated: on a shared 2-CPU host its timer lateness and
    queueing swung these numbers 2x between runs of the same code.
    """
    reads = phase.latencies("read")
    late = sorted(op.sent - op.due for op in phase.ops)
    return [
        "fixed-rate phase, %.0f req/s Poisson, %d reads timed from their due time: "
        "p50 %.3f ms, p90 %.3f ms; generator lateness p50 %.3f ms, p90 %.3f ms" % (
            WARM_RATE, len(reads), 1e3 * percentile(reads, 50), 1e3 * percentile(reads, 90),
            1e3 * percentile(late, 50), 1e3 * percentile(late, 90)),
        tail("fixed-rate read_p99_ms", reads, 99),
    ]


def tail(name: str, values: Sequence[float], q: float) -> str:
    """A tail percentile, reported only when at least ten samples lie beyond it."""
    beyond = len(values) - int(q / 100 * len(values))
    if beyond < 10:
        return "%s not reported: %d samples leave %d beyond it, fewer than 10" % (
            name, len(values), beyond)
    return "%s = %.3f ms (%d samples, %d beyond it)" % (
        name, 1e3 * percentile(values, q), len(values), beyond)


def check_workload(run: Run, deltas: Dict[str, float]) -> None:
    """Refuse a run whose cache behaviour is not what the workload claims."""
    ratio = deltas["store.decoded_hit_ratio"]
    if run.workload.name == "warm-regions" and ratio < 0.99:
        raise Invalid("warm-regions decoded hit ratio %.3f < 0.99" % ratio)
    if run.workload.name.startswith("cold") and ratio > 0.5:
        raise Invalid("%s decoded hit ratio %.3f > 0.5: not cold" % (run.workload.name, ratio))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (self-test)")
    parser.add_argument(
        "--poison", action="store_true",
        help="corrupt one expected body, to show a wrong body fails the run (self-test)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        fail("no src/repro under %s: run from a checkout of the repository" % CHECKOUT, 2)
    sys.path.insert(0, str(CHECKOUT / "src"))
    try:
        import numpy  # noqa: F401
        import repro  # noqa: F401
    except ImportError as error:
        fail("cannot import the package: %s" % error, 2)

    # A SIGTERM unwinds like an error, so the server processes are stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpus = sorted(os.sched_getaffinity(0))
    run = Run(args, cpus)
    os.sched_setaffinity(0, cpus[-1:])
    try:
        output, lines, engines_agree = execute(run)
    except Invalid as error:
        fail("INVALID RUN: %s (work files kept in %s)" % (error, run.workdir), 3)
    except Exception as error:  # report, keep the server logs, exit non-zero
        fail("run failed: %s: %s (work files kept in %s)" % (type(error).__name__, error, run.workdir))
    for line in lines:
        print(line)
    attempted = sum(phase.attempted for phase in run.phases)
    failed = sum(phase.failed for phase in run.phases)
    wrong = sum(phase.wrong_bodies for phase in run.phases)
    correct = wrong == 0 and engines_agree
    document = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in output.items()},
    }
    results = WORK / ("last-%s-trace%d.json" % (args.workload, args.trace))
    results.write_text(json.dumps(dict(document, report=lines), indent=1))
    if correct:
        shutil.rmtree(run.workdir, ignore_errors=True)
    print(json.dumps(document))
    return 0 if correct else 1


def execute(run: Run) -> Tuple[Dict[str, Tuple[float, str]], List[str], bool]:
    """The metrics by name with their units, the report lines, and whether engines agree."""
    args = run.args
    why = {w["name"]: w["why"] for w in benchmark_spec()["workloads"]}[run.workload.name]
    lines = ["workload %s (%s), seed %d, %.1f s measured, trace %d" % (
        run.workload.name, why, args.seed, args.seconds, args.trace)]
    if args.trace == 0:
        result = run.measured_pass(SETUPS)
        metrics, notes = end_to_end(run, result)
        deltas = stats_deltas(result["before"], result["after"])
        check_workload(run, deltas)
        engine = result["after"]["shards"][0]["engine"]
        output = {name: (metrics[name], unit) for name, unit in metric_units("end_to_end").items()}
        lines += describe(run, engine, result["server_cpus"], deltas)
        lines += ["  %-24s %12.4f %s" % (name, value, unit) for name, (value, unit) in output.items()]
        lines += ["  note: " + note for note in notes]
        return output, lines, True
    return traced(run, lines)


def describe(run: Run, engine: str, server_cpus: Dict[str, str], deltas: Dict[str, float]) -> List[str]:
    lines = ["machine: " + json.dumps(machine(run, engine, server_cpus), sort_keys=True)]
    for phase in run.phases:
        lines.append("phase %-12s attempted %5d failed %3d" % (phase.name, phase.attempted, phase.failed))
        for op in phase.ops:
            if not op.ok:
                lines.append("  failed %s: %s" % (op.kind, op.error))
                break
    lines.append(
        "decoded cache: hit ratio %.4f over %d lookups (timed phases)"
        % (deltas["store.decoded_hit_ratio"], deltas["store.decoded_lookups"])
    )
    return lines


def traced(run: Run, lines: List[str]) -> Tuple[Dict[str, Tuple[float, str]], List[str], bool]:
    """An untraced pass, then the same workload and seed with spans recorded."""
    import traces
    from repro.hardware.pipeline import PipelineModel

    untraced = run.measured_pass(1)
    plain, _ = end_to_end(run, untraced)
    first_phases = len(run.phases)
    trace_dir = run.workdir / "spans"
    trace_dir.mkdir(exist_ok=True)
    result = run.measured_pass(1, trace_dir)
    metrics, notes = end_to_end(run, result)
    deltas = stats_deltas(result["before"], result["after"])
    check_workload(run, deltas)
    spans = traces.load_spans(trace_dir)
    if not spans:
        raise Invalid("the traced server wrote no spans")
    ops = [op for phase in result["timed"] for op in phase.ops]
    windows = [(phase.started, phase.ended) for phase in result["timed"]]
    layers = traces.layer_metrics(spans, windows, result["setup_window"], ops, run.workload.topology)
    layers.update(deltas)
    layers["trace.read_p50_untraced_ms"] = plain["read_p50_ms"]
    layers["trace.read_p50_traced_ms"] = metrics["read_p50_ms"]
    layers["trace.overhead_ms"] = metrics["read_p50_ms"] - plain["read_p50_ms"]
    report = PipelineModel().analyse(256, 256)
    layers["hardware.ns_per_px"] = 1e3 * report.cycles_per_pixel / report.clock_mhz
    if run.workload.name == "warm-regions" and layers["engine.decode_calls"]:
        raise Invalid("warm-regions made %d engine decode calls in its timed phases"
                      % layers["engine.decode_calls"])
    engine = result["after"]["shards"][0]["engine"]
    output = {name: (layers[name], unit) for name, unit in metric_units("per_layer").items()}
    lines += describe(run, engine, result["server_cpus"], deltas)
    lines.append("untraced pass: phases %s" % ", ".join(p.name for p in run.phases[:first_phases]))
    lines += ["  %-32s %14.4f %s" % (name, value, unit) for name, (value, unit) in output.items()]
    lines += ["  note: " + note for note in notes]
    agree = True
    if run.workload.name == "cold-regions":
        import engines

        rows = engines.engine_table(run.images)
        lines += engines.format_table(rows)
        agree = all(row["identical"] for row in rows)
    return output, lines, agree


if __name__ == "__main__":
    sys.exit(main())
