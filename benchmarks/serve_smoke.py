"""CI smoke test of the ``repro-serve`` console script.

Boots the real console script as a subprocess (the exact artifact users
run), requires the listening line within a startup budget, then drives
every endpoint through :class:`repro.serve.client.ServeClient`:

* ``PUT /images`` of a generated PPM and a generated PGM;
* full ``GET``, ``GET .../plane/k``, ``GET .../region/a-b`` (values
  verified against an in-process decode of the same corpus image);
* batched ``POST .../regions``;
* a thread herd on one cold region with a coalescing assertion
  (``/stats`` must report coalesced requests and at most 2 backend
  decodes for the herd; under ``--topology proc`` every worker's
  ``in_flight`` must be back at 0 after it);
* ``/healthz`` and ``/stats`` (including the cache byte-occupancy fields,
  a ``hit_rate`` in [0, 1] per shard, and stored blobs and live catalog
  entries counted once per shard under ``--topology proc``, where every
  worker's own ``/stats`` must report its shard's live entries too).

Any non-2xx answer raises, any assertion failure exits non-zero, and the
server process is always torn down.  Usage::

    python benchmarks/serve_smoke.py [--shards 2] [--backend fs]
        [--startup-timeout 5.0] [--topology thread|proc]
        [--workers-per-shard 2] [--replication 1]

``--topology proc`` boots the multi-process tier (shard workers behind
the routing proxy) through the same console script; with
``--replication 2`` the smoke additionally SIGKILLs one worker process
mid-sweep and requires **zero failed reads** (the sibling worker and the
replica shard must absorb everything) plus a supervisor restart.

The ``--startup-timeout`` default of 5 seconds is the CI gate: a server
that cannot boot and bind in 5 s fails the job.
"""

from __future__ import annotations

import argparse
import io
import os
import queue
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import List, Optional

_LISTEN_PATTERN = re.compile(r"listening on http://([0-9.]+):(\d+)")


def _await_listen_line(process: subprocess.Popen, timeout: float) -> "tuple[str, int]":
    """Read stdout until the listening line appears, within ``timeout``."""
    lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def pump() -> None:
        assert process.stdout is not None
        for line in process.stdout:
            lines.put(line)
        lines.put(None)

    threading.Thread(target=pump, daemon=True).start()
    try:
        line = lines.get(timeout=timeout)
    except queue.Empty:
        raise SystemExit("FAIL: no listening line within %.1fs of startup" % timeout)
    if line is None:
        raise SystemExit("FAIL: server exited before listening")
    match = _LISTEN_PATTERN.search(line)
    if not match:
        raise SystemExit("FAIL: unexpected startup line %r" % line)
    return match.group(1), int(match.group(2))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--backend", choices=("fs", "sqlite"), default="fs")
    parser.add_argument("--startup-timeout", type=float, default=5.0)
    parser.add_argument("--herd", type=int, default=16)
    parser.add_argument("--topology", choices=("thread", "proc"), default="thread")
    parser.add_argument("--workers-per-shard", type=int, default=2)
    parser.add_argument("--replication", type=int, default=1)
    args = parser.parse_args(argv)

    from repro.imaging.pnm import write_pgm, write_ppm
    from repro.imaging.synthetic import generate_image, generate_planar_image
    from repro.serve.client import ServeClient

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as root:
        argv_server = [
            sys.executable,
            "-m",
            "repro.serve.cli",
            "--port",
            "0",
            "--shards",
            str(args.shards),
            "--backend",
            args.backend,
            "--root",
            root,
            "--replication",
            str(args.replication),
        ]
        if args.topology == "proc":
            argv_server += [
                "--topology",
                "proc",
                "--workers-per-shard",
                str(args.workers_per_shard),
            ]
        process = subprocess.Popen(
            argv_server,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            host, port = _await_listen_line(process, args.startup_timeout)
            print("serve-smoke: server up at %s:%d" % (host, port))
            client = ServeClient(host, port)

            assert client.healthz() == {"status": "ok", "shards": args.shards}

            colour = generate_planar_image("lena", size=32, seed=2007, planes=3)
            buffer = io.BytesIO()
            write_ppm(colour, buffer)
            outcome = client.put_image(buffer.getvalue(), stripes=4)
            key = str(outcome["key"])
            print("serve-smoke: put %s -> %s" % (key[:12], outcome["shard"]))

            assert client.get_image(key) == colour, "full GET mismatch"
            assert client.get_plane(key, 1) == colour.plane(1), "plane GET mismatch"
            region = client.get_region(key, 1, 3)
            assert region.height == colour.height // 2, "region GET wrong rows"
            batch = client.get_regions(key, [(0, 1), (1, 3)])
            assert len(batch) == 2 and batch[1] == region, "batched regions mismatch"
            print("serve-smoke: put/get/plane/region/regions verified")

            if args.topology == "proc" and args.replication >= 2:
                # SIGKILL one shard worker mid-sweep: at R=2 with a sibling
                # worker per shard, not a single read may fail, and the
                # supervisor must respawn the victim.
                victim = client.stats()["workers"]["shard-00"][0]
                os.kill(int(victim["pid"]), signal.SIGKILL)
                print(
                    "serve-smoke: SIGKILLed worker pid %s of shard-00"
                    % victim["pid"]
                )
                failed_reads = 0
                for sweep in range(30):
                    try:
                        assert client.get_image(key) == colour
                        client.get_region(key, 1, 3)
                    except BaseException:
                        failed_reads += 1
                assert failed_reads == 0, (
                    "%d read(s) failed during the worker outage" % failed_reads
                )
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    row = client.stats()["workers"]["shard-00"][0]
                    if int(row["restarts"]) >= 1 and row["up"]:
                        break
                    time.sleep(0.2)
                else:
                    raise SystemExit("FAIL: killed worker was not restarted in 30s")
                print(
                    "serve-smoke: zero failed reads during outage; worker "
                    "respawned as pid %s" % row["pid"]
                )

            # Coalescing: a herd on one cold region.  Two stripes make the
            # cell large enough that the leader's decode overlaps the herd.
            gray = generate_image("mandrill", size=64, seed=2008)
            buffer = io.BytesIO()
            write_pgm(gray, buffer)
            gray_key = str(client.put_image(buffer.getvalue(), stripes=2)["key"])

            def shard_misses() -> int:
                return sum(s["cache"]["misses"] for s in client.stats()["shards"])

            misses_before = shard_misses()
            coalesced_before = int(client.stats()["flight"]["coalesced"])
            barrier = threading.Barrier(args.herd)
            failures: List[BaseException] = []

            def worker() -> None:
                herd_client = ServeClient(host, port)
                try:
                    barrier.wait()
                    herd_client.get_region(gray_key, 0, 1)
                except BaseException as error:
                    failures.append(error)
                finally:
                    herd_client.close()

            threads = [threading.Thread(target=worker) for _ in range(args.herd)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            if failures:
                raise failures[0]
            decodes = shard_misses() - misses_before
            coalesced = int(client.stats()["flight"]["coalesced"]) - coalesced_before
            print(
                "serve-smoke: %d-client herd -> %d backend decode(s), %d coalesced"
                % (args.herd, decodes, coalesced)
            )
            assert decodes <= 2, "stampede reached the backend %d times" % decodes

            stats = client.stats()
            for shard_name, rows in stats.get("workers", {}).items():
                busy = [row["index"] for row in rows if row["in_flight"] != 0]
                assert not busy, "%s worker(s) %s still count requests in flight" % (
                    shard_name,
                    busy,
                )
            assert stats["server"]["requests_total"] > 0
            for shard in stats["shards"]:
                assert "current_bytes" in shard["cache"], "cache bytes missing"
                assert 0.0 <= shard["cache"]["hit_rate"] <= 1.0, (
                    "%s cache hit_rate %r is not a ratio"
                    % (shard["name"], shard["cache"]["hit_rate"])
                )
            # Two keys stored, each on min(R, shards) shards: a shard's
            # workers share one store, so it must be counted once.
            blobs = sum(int(shard["backend"]["blobs"]) for shard in stats["shards"])
            expected_blobs = 2 * min(args.replication, args.shards)
            assert blobs == expected_blobs, (
                "/stats counts %d stored blobs, expected %d" % (blobs, expected_blobs)
            )
            # Every worker's catalog view refreshes for /stats, so each
            # shard, and each of its workers, reports the shard's live
            # keys whichever worker took the PUTs.
            live = sum(int(shard["catalog"]["live"]) for shard in stats["shards"])
            assert live == expected_blobs, (
                "/stats counts %d live catalog entries, expected %d"
                % (live, expected_blobs)
            )
            by_shard = {shard["name"]: shard["catalog"]["live"] for shard in stats["shards"]}
            for shard_name, rows in stats.get("workers", {}).items():
                for row in rows:
                    with ServeClient(host, int(row["port"])) as direct:
                        seen = direct.stats()["shards"][0]["catalog"]["live"]
                    assert seen == by_shard[shard_name], (
                        "%s worker %s counts %d live catalog entries, the shard %d"
                        % (shard_name, row["index"], seen, by_shard[shard_name])
                    )
            client.close()
            print("serve-smoke: PASS")
            return 0
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


if __name__ == "__main__":
    sys.exit(main())
