"""CI chaos smoke: fault injection against a live server, under a time budget.

Boots the serving tier in-process (fault injectors need a handle on the
shard backends, which a subprocess cannot give us), wraps every shard in
a :class:`repro.serve.chaos.FaultInjector`, and walks the two headline
failure modes the production-hardening layer exists for:

* **backend stall** — the shard owning a hot key stops answering; a
  deadline-carrying request must come back as a fast ``504``, a key on
  the healthy shard must keep serving (partial availability), and once
  the stall clears the stalled region must decode cleanly — the
  abandoned leader cannot poison the cell cache or single-flight map;
* **shard kill** — the shard's backend raises on every call; reads on it
  surface errors while ``/healthz`` stays ``200``, and a revive restores
  service with no restart;
* **replica failover** — a second service with replication factor 2:
  killing a key's primary owner must not fail a single read (the
  surviving replica answers, surfaced in the ``/stats`` failover
  counters), and the failover must not poison the cell cache or
  single-flight map.  The same drill runs again under the multi-process
  topology with one worker per shard: SIGKILLing the primary's only
  worker (kept down by a long restart backoff) leaves no sibling worker
  to absorb the fault, so the proxy itself must fail over to the
  replica shard;
* **worker-process kill** — the multi-process topology (shard worker
  processes behind the routing proxy, replication 2): SIGKILLing one
  worker must not fail a single read, and the supervisor must respawn
  the victim with a fresh pid.

The whole drill runs under a hard wall-clock budget (default 60 s): a
hung drain, stuck worker or unbounded retry fails the job by timeout,
which is exactly the regression this smoke exists to catch.  Usage::

    python benchmarks/chaos_smoke.py [--budget 60] [--deadline-ms 300]
"""

from __future__ import annotations

import argparse
import io
import sys
import time
from typing import List, Optional


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=float, default=60.0,
                        help="hard wall-clock budget in seconds (default 60)")
    parser.add_argument("--deadline-ms", type=int, default=300,
                        help="per-request deadline during the stall (default 300)")
    parser.add_argument("--size", type=int, default=32)
    args = parser.parse_args(argv)

    from repro.exceptions import ServeError
    from repro.imaging.pnm import write_ppm
    from repro.imaging.synthetic import generate_planar_image
    from repro.serve.app import ImageService, start_server_thread
    from repro.serve.chaos import FaultInjector
    from repro.serve.client import ServeClient
    from repro.store.store import ImageStore

    import tempfile

    began = time.monotonic()

    def check_budget(stage: str) -> None:
        elapsed = time.monotonic() - began
        if elapsed > args.budget:
            raise SystemExit(
                "FAIL: chaos smoke blew its %.0fs budget at stage %r (%.1fs)"
                % (args.budget, stage, elapsed)
            )

    with tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-") as root:
        from pathlib import Path

        stores = [ImageStore.open(Path(root) / ("shard-%02d" % i)) for i in range(2)]
        service = ImageService(stores)
        injectors = dict(
            zip(service.router.names, (s.wrap_backend(FaultInjector) for s in stores))
        )
        handle = start_server_thread(service)
        try:
            client = ServeClient(*handle.address)

            # Ingest until both shards own at least one key.
            owners = {}
            seed = 4100
            while len(set(owners.values())) < 2:
                image = generate_planar_image("lena", size=args.size,
                                              seed=seed, planes=3)
                buffer = io.BytesIO()
                write_ppm(image, buffer)
                outcome = client.put_image(buffer.getvalue(), stripes=4)
                owners[str(outcome["key"])] = str(outcome["shard"])
                seed += 1
            by_shard = {shard: key for key, shard in owners.items()}
            stalled_shard, healthy_shard = sorted(by_shard)
            stalled_key = by_shard[stalled_shard]
            healthy_key = by_shard[healthy_shard]
            client.get_region(healthy_key, 0, 1)  # warm the healthy shard
            print("chaos-smoke: %d key(s) over 2 shards, stalling %s"
                  % (len(owners), stalled_shard))
            check_budget("ingest")

            # --- Backend stall -------------------------------------------
            for store in stores:
                store.cache.clear()
            injectors[stalled_shard].stall()
            try:
                slow = ServeClient(*handle.address, deadline_ms=args.deadline_ms)
                stall_began = time.monotonic()
                try:
                    slow.get_region(stalled_key, 0, 1)
                    raise SystemExit("FAIL: stalled shard served a region")
                except ServeError as error:
                    assert error.status == 504, (
                        "expected 504 from the stalled shard, got %d" % error.status
                    )
                stall_elapsed = time.monotonic() - stall_began
                assert stall_elapsed < 10.0, (
                    "504 took %.1fs -- deadline did not bound the stall"
                    % stall_elapsed
                )
                slow.close()
                # Partial availability: the healthy shard still serves.
                assert client.get_region(healthy_key, 0, 1).height > 0
                print("chaos-smoke: stall -> 504 in %.0f ms, healthy shard kept "
                      "serving" % (stall_elapsed * 1000.0))
            finally:
                injectors[stalled_shard].clear_stall()

            # Recovery, asserted from /stats counters not logs.
            stats = client.stats()
            assert stats["server"]["counters"].get("deadline_exceeded", 0) >= 1
            deadline = time.monotonic() + 10.0
            while service.flight.in_flight and time.monotonic() < deadline:
                time.sleep(0.02)
            assert service.flight.in_flight == 0, "single-flight map not drained"
            assert client.get_region(stalled_key, 0, 1).height > 0, (
                "stalled region did not recover after clear_stall"
            )
            print("chaos-smoke: stall cleared, stalled region decodes again")
            check_budget("stall")

            # --- Shard kill ----------------------------------------------
            for store in stores:
                store.cache.clear()
                store._headers.clear()
            injectors[stalled_shard].kill()
            try:
                try:
                    client.get_region(stalled_key, 0, 1)
                    raise SystemExit("FAIL: killed shard served a region")
                except ServeError as error:
                    assert error.status >= 400, "kill must surface an error"
                assert client.healthz()["status"] == "ok", (
                    "healthz must stay 200 through a shard kill"
                )
            finally:
                injectors[stalled_shard].revive()
            assert client.get_region(stalled_key, 0, 1).height > 0, (
                "revived shard did not serve"
            )
            print("chaos-smoke: kill surfaced errors, healthz stayed up, "
                  "revive restored reads")
            check_budget("kill")

            chaos = injectors[stalled_shard].stats()["chaos"]
            assert chaos["kills"] >= 1 and chaos["stalls"] >= 1
            client.close()
        finally:
            handle.stop()

    # --- Replica failover (replication factor 2) ---------------------
    with tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-r2-") as root:
        from pathlib import Path

        stores = [
            ImageStore.open(Path(root) / ("shard-%02d" % i)) for i in range(2)
        ]
        service = ImageService(stores, replication=2)
        injectors = dict(
            zip(service.router.names, (s.wrap_backend(FaultInjector) for s in stores))
        )
        handle = start_server_thread(service)
        try:
            client = ServeClient(*handle.address)
            image = generate_planar_image("lena", size=args.size, seed=4200, planes=3)
            buffer = io.BytesIO()
            write_ppm(image, buffer)
            outcome = client.put_image(buffer.getvalue(), stripes=4)
            key = str(outcome["key"])
            primary = str(outcome["shard"])
            assert sorted(outcome["replicas"]) == sorted(service.router.names), (
                "R=2 write must land on both shards, got %r" % (outcome["replicas"],)
            )
            client.get_region(key, 0, 1)  # warm
            for store in stores:
                store.cache.clear()
                store._headers.clear()
            injectors[primary].kill()
            try:
                for stripe in range(4):
                    assert client.get_region(key, stripe, stripe + 1).height > 0, (
                        "read failed with one replica down (stripe %d)" % stripe
                    )
                assert client.healthz()["status"] == "ok"
            finally:
                injectors[primary].revive()
            stats = client.stats()
            failovers = stats["server"]["counters"].get("failovers", 0)
            assert failovers >= 1, (
                "expected failover reads in /stats, counter is %d" % failovers
            )
            shard_failovers = (
                stats["server"]["shard_counters"].get(primary, {}).get("failovers", 0)
            )
            assert shard_failovers >= 1, (
                "per-shard failover counter for %s is %d" % (primary, shard_failovers)
            )
            # No single-flight poisoning: the map drained and the same
            # region decodes again (now that both replicas are back).
            assert service.flight.in_flight == 0, "single-flight map not drained"
            assert client.get_region(key, 0, 1).height > 0
            print(
                "chaos-smoke: killed primary %s, %d failover read(s) kept "
                "every request whole" % (primary, failovers)
            )
            client.close()
            check_budget("failover")
        finally:
            handle.stop()

    import os
    import signal

    from repro.serve.proxy import ProxyService, start_proxy_thread
    from repro.serve.worker import WorkerSpec, WorkerSupervisor

    # --- Replica failover, proc topology (one worker per shard) -------
    with tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-r2-proc-") as root:
        from pathlib import Path

        specs = [
            WorkerSpec(shard_name="shard-%02d" % i, store_path=Path(root) / ("shard-%02d" % i))
            for i in range(2)
        ]
        # The backoff outlasts the reads, so the killed worker stays down.
        supervisor = WorkerSupervisor(
            specs, workers_per_shard=1, restart_backoff=args.budget
        ).start()
        handle = start_proxy_thread(ProxyService(supervisor, replication=2))
        try:
            client = ServeClient(*handle.address)
            image = generate_planar_image("lena", size=args.size, seed=4250, planes=3)
            buffer = io.BytesIO()
            write_ppm(image, buffer)
            outcome = client.put_image(buffer.getvalue(), stripes=4)
            key, primary = str(outcome["key"]), str(outcome["shard"])
            victim = client.stats()["workers"][primary][0]
            os.kill(int(victim["pid"]), signal.SIGKILL)
            group = next(g for g in supervisor.groups if g.shard_name == primary)
            assert group.workers[0].wait(10.0), "SIGKILLed worker did not exit"
            failed = 0
            for stripe in range(4):
                try:
                    assert client.get_region(key, stripe, stripe + 1).height > 0
                except BaseException:
                    failed += 1
            assert failed == 0, (
                "%d read(s) failed with the primary's only worker down" % failed
            )
            failovers = client.stats()["server"]["counters"].get("failovers", 0)
            assert failovers >= 1, (
                "expected proxy failover reads in /stats, counter is %d" % failovers
            )
            print(
                "chaos-smoke: SIGKILLed the only worker of primary %s, %d proxy "
                "failover read(s) kept every request whole" % (primary, failovers)
            )
            client.close()
            check_budget("proc-failover")
        finally:
            handle.stop()

    # --- Worker-process kill (proc topology, replication 2) -----------

    with tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-proc-") as root:
        from pathlib import Path

        specs = [
            WorkerSpec(shard_name="shard-%02d" % i, store_path=Path(root) / ("shard-%02d" % i))
            for i in range(2)
        ]
        supervisor = WorkerSupervisor(
            specs, workers_per_shard=2, restart_backoff=0.1
        ).start()
        service = ProxyService(supervisor, replication=2)
        handle = start_proxy_thread(service)
        try:
            client = ServeClient(*handle.address)
            image = generate_planar_image("lena", size=args.size, seed=4300, planes=3)
            buffer = io.BytesIO()
            write_ppm(image, buffer)
            key = str(client.put_image(buffer.getvalue(), stripes=4)["key"])
            victim = client.stats()["workers"]["shard-00"][0]
            os.kill(int(victim["pid"]), signal.SIGKILL)
            failed = 0
            for _ in range(10):
                for stripe in range(4):
                    try:
                        assert client.get_region(key, stripe, stripe + 1).height > 0
                    except BaseException:
                        failed += 1
            assert failed == 0, (
                "%d read(s) failed during the worker-process outage" % failed
            )
            respawn_deadline = time.monotonic() + 20.0
            while time.monotonic() < respawn_deadline:
                row = client.stats()["workers"]["shard-00"][0]
                if int(row["restarts"]) >= 1 and row["up"]:
                    break
                time.sleep(0.1)
            else:
                raise SystemExit("FAIL: SIGKILLed worker was not respawned in 20s")
            assert row["pid"] != victim["pid"], "respawn must produce a fresh pid"
            print(
                "chaos-smoke: SIGKILLed worker pid %s, zero failed reads, "
                "respawned as pid %s" % (victim["pid"], row["pid"])
            )
            client.close()
            check_budget("worker-kill")
        finally:
            handle.stop()
            service.close()

    elapsed = time.monotonic() - began
    print("chaos-smoke: PASS in %.1fs (budget %.0fs)" % (elapsed, args.budget))
    return 0


if __name__ == "__main__":
    sys.exit(main())
