"""Proxy-specific behaviour: supervision, failover, drain, forwarding.

The parity/e2e suites (:mod:`tests.serve.test_topologies`) prove the proc
topology speaks the same API; this module exercises what only the proxy
does — worker crash recovery under replication, the SIGTERM drain
cascade, version-mismatch refusal, deadline-header forwarding, the
least-in-flight worker choice and its accounting, sibling workers'
catalog views and worker-group health probes.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import itertools
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.exceptions import ConfigError, DeadlineExceededError, RemoteNotFoundError
from repro.imaging.pnm import write_ppm
from repro.imaging.synthetic import generate_planar_image
from repro.serve.cli import shard_paths
from repro.serve.client import ServeClient
from repro.serve.deadline import Deadline, RequestContext, bind_context
from repro.serve.proxy import (
    ProxyService,
    RemoteShard,
    WorkerUnreachableError,
    start_proxy_thread,
)
from repro.serve.worker import WorkerGroup, WorkerProcess, WorkerSpec, WorkerSupervisor
from repro.store.backends import FilesystemBackend

SHARDS = 2
WORKERS = 2


def _specs(root, shards=SHARDS):
    return [
        WorkerSpec(shard_name="shard-%02d" % index, store_path=path)
        for index, path in enumerate(shard_paths(root, shards, "fs"))
    ]


def _ppm_bytes(image):
    buffer = io.BytesIO()
    write_ppm(image, buffer)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """2 shards x 2 workers behind one proxy, replication 2."""
    root = tmp_path_factory.mktemp("proxy-fleet")
    supervisor = WorkerSupervisor(
        _specs(root), workers_per_shard=WORKERS, restart_backoff=0.1
    ).start()
    service = ProxyService(supervisor, replication=2)
    handle = start_proxy_thread(service)
    yield handle, supervisor
    handle.stop()
    service.close()


@pytest.fixture()
def client(fleet):
    handle, _ = fleet
    with ServeClient(*handle.address) as active:
        yield active


@contextlib.contextmanager
def _one_shard(root, restart_backoff=0.1):
    """1 shard x 2 sibling workers behind one proxy, replication 1."""
    supervisor = WorkerSupervisor(
        _specs(root, shards=1), workers_per_shard=2, restart_backoff=restart_backoff
    ).start()
    service = ProxyService(supervisor)
    handle = start_proxy_thread(service)
    try:
        yield handle, supervisor
    finally:
        handle.stop()
        service.close()


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    with _one_shard(tmp_path_factory.mktemp("proxy-pair")) as running:
        yield running


_SEEDS = itertools.count(300)


def _put_fresh(client, size=48, stripes=2):
    """PUT a new image, so its first reads are cold; returns (key, image)."""
    image = generate_planar_image("mandrill", size=size, seed=next(_SEEDS), planes=3)
    return client.put_image(_ppm_bytes(image), stripes=stripes)["key"], image


def _in_flight(client):
    return [row["in_flight"] for rows in client.stats()["workers"].values() for row in rows]


class _Running:
    def poll(self):
        return None


def _mirror(supervisor):
    """A pretend-live copy of shard 0's workers, to drive a RemoteShard directly."""
    live = supervisor.groups[0]
    group = WorkerGroup(live.spec, count=len(live.workers))
    for copy, worker in zip(group.workers, live.workers):
        copy.host, copy.port = worker.host, worker.port
        copy.ready, copy._process = True, _Running()
    return group


def _closed_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestSupervision:
    def test_stats_reports_the_worker_fleet(self, client):
        workers = client.stats()["workers"]
        assert set(workers) == {"shard-00", "shard-01"}
        for rows in workers.values():
            assert len(rows) == WORKERS
            for row in rows:
                assert row["up"] is True
                assert isinstance(row["pid"], int)
                assert row["port"] > 0

    def test_put_fans_out_to_every_owner_shard(self, client, fleet):
        _, supervisor = fleet
        image = generate_planar_image("lena", size=24, seed=41, planes=3)
        outcome = client.put_image(_ppm_bytes(image), stripes=4)
        assert sorted(outcome["replicas"]) == ["shard-00", "shard-01"]
        # Every worker of every shard can serve the key: the blob landed
        # in each shard's shared backend, readable by all its workers.
        for group in supervisor.groups:
            for worker in group.workers:
                with ServeClient(worker.host, worker.port) as direct:
                    assert direct.get_image(outcome["key"]) == image

    def test_sigkilled_worker_zero_failed_reads_then_restart(self, client):
        images = [
            generate_planar_image("peppers", size=24, seed=seed, planes=3)
            for seed in range(50, 54)
        ]
        keys = [client.put_image(_ppm_bytes(i), stripes=4)["key"] for i in images]
        victim = client.stats()["workers"]["shard-00"][0]
        os.kill(victim["pid"], signal.SIGKILL)
        # Zero failed reads while the worker is down: sibling worker and
        # replica shard absorb everything the dead worker owned.
        for _ in range(6):
            for key, image in zip(keys, images):
                assert client.get_image(key) == image
        # The supervisor notices and respawns with backoff.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            row = client.stats()["workers"]["shard-00"][0]
            if row["restarts"] >= 1 and row["up"]:
                break
            time.sleep(0.1)
        else:
            pytest.fail("worker was not restarted within 30s")
        assert row["pid"] != victim["pid"]
        for key, image in zip(keys, images):
            assert client.get_image(key) == image

    def test_healthz_counts_the_shards(self, client):
        report = client.healthz()
        assert report["status"] == "ok"
        assert report["shards"] == SHARDS
        assert "shards_down" not in report


class TestFleetStats:
    def test_shared_store_is_counted_once_and_hit_rate_is_recomputed(
        self, client, fleet
    ):
        _, supervisor = fleet
        images = [
            generate_planar_image("zelda", size=16, seed=seed, planes=3)
            for seed in range(60, 63)
        ]
        keys = [client.put_image(_ppm_bytes(i), stripes=2)["key"] for i in images]
        # Every worker reads every key twice: a miss, then a hit.
        for group in supervisor.groups:
            for worker in group.workers:
                with ServeClient(worker.host, worker.port) as direct:
                    for key in keys:
                        direct.get_image(key)
                        direct.get_image(key)
        shards = client.stats()["shards"]
        stored = [
            FilesystemBackend(group.spec.store_path).stats()
            for group in supervisor.groups
        ]
        assert sum(s["backend"]["blobs"] for s in shards) == sum(
            b["blobs"] for b in stored
        )
        assert sum(s["backend"]["bytes"] for s in shards) == sum(
            b["bytes"] for b in stored
        )
        for shard in shards:
            cache = shard["cache"]
            assert cache["hits"] > 0 and cache["misses"] > 0
            assert cache["hit_rate"] == cache["hits"] / (cache["hits"] + cache["misses"])


class TestLifecycle:
    def test_drain_cascade_stops_every_worker(self, tmp_path):
        supervisor = WorkerSupervisor(
            _specs(tmp_path, shards=1), workers_per_shard=2
        ).start()
        pids = [worker.pid for group in supervisor.groups for worker in group.workers]
        assert all(pids)
        service = ProxyService(supervisor)
        handle = start_proxy_thread(service)
        handle.stop()
        service.close()  # cascades SIGTERM through the supervisor
        for group in supervisor.groups:
            for worker in group.workers:
                assert worker.poll() is not None
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # the process must be fully gone

    def test_version_mismatch_is_refused(self, tmp_path):
        spec = _specs(tmp_path, shards=1)[0]
        worker = WorkerProcess(spec, index=0)
        with pytest.raises(ConfigError, match="refusing"):
            worker.spawn(expected_version="0.0.0-other")
        # The mismatched process was killed and never registered.
        assert worker.pid is None
        assert not worker.alive

    def test_crashed_spawn_reports_exit_status(self, tmp_path):
        spec = WorkerSpec(shard_name="s", store_path=tmp_path / "missing-parent")
        broken = WorkerSpec(
            shard_name="s", store_path=spec.store_path, engine="no-such-engine"
        )
        worker = WorkerProcess(broken, index=0)
        with pytest.raises(Exception, match="exited|not ready"):
            worker.spawn(timeout=20)


class TestHealthUnderProc:
    def test_a_worker_group_probe_needs_one_answering_worker(self, fleet, tmp_path):
        _, supervisor = fleet
        assert RemoteShard(supervisor.groups[0]).probe() is True
        never_spawned = WorkerGroup(_specs(tmp_path, shards=1)[0], 2)
        assert RemoteShard(never_spawned).probe() is False
        bind_context(RequestContext(Deadline(0.0)))
        try:  # a lapsed probe deadline fails the probe, live workers or not
            assert RemoteShard(supervisor.groups[0]).probe() is False
        finally:
            bind_context(None)

    def test_respawned_primary_rejoins_on_reads_alone(self, tmp_path):
        """A killed primary leaves ``/healthz`` once respawned, with no writes.

        Reads try a healthy owner first, so after the kill only the
        prober can see the primary recover.
        """
        interval, up_after = 0.5, 2
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve.cli", "--port", "0",
                "--topology", "proc", "--shards", "2", "--replication", "2",
                "--root", str(tmp_path / "shards"),
                "--health-interval", str(interval),
                "--health-down-after", "1",
                "--health-up-after", str(up_after),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            address = banner.split("http://", 1)[1].split(" ", 1)[0]
            host, port_text = address.rsplit(":", 1)
            with ServeClient(host, int(port_text)) as client:
                image = generate_planar_image("lena", size=24, seed=91, planes=3)
                outcome = client.put_image(_ppm_bytes(image), stripes=4)
                key, primary = outcome["key"], outcome["shard"]
                victim = client.stats()["workers"][primary][0]
                os.kill(int(victim["pid"]), signal.SIGKILL)

                def down():
                    return primary in client.healthz().get("shards_down", [])

                give_up = time.monotonic() + 30.0
                while not down():
                    assert time.monotonic() < give_up, "the killed primary never went down"
                    assert client.get_region(key, 0, 1).height > 0
                while True:
                    row = client.stats()["workers"][primary][0]
                    if row["restarts"] >= 1 and row["up"]:
                        break
                    assert time.monotonic() < give_up, "the primary's worker never respawned"
                    assert client.get_region(key, 0, 1).height > 0
                respawned = time.monotonic()
                while down():
                    assert time.monotonic() - respawned < (up_after + 2) * interval, (
                        "%s still down %.1fs after its worker respawned"
                        % (primary, time.monotonic() - respawned)
                    )
                    assert client.get_region(key, 0, 1).height > 0
        finally:
            process.terminate()
            try:
                process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10.0)
            process.stdout.close()


class TestAffinityAndForwarding:
    def test_candidates_rotate_by_key_and_prefer_live(self, tmp_path):
        spec = _specs(tmp_path, shards=1)[0]
        group = WorkerGroup(spec, count=3)

        class _StillRunning:
            def poll(self):
                return None

        for worker in group.workers:
            worker.ready = True  # pretend-live; no real processes needed
            worker._process = _StillRunning()
        order_a = [w.index for w in group.candidates("key-a")]
        assert sorted(order_a) == [0, 1, 2]
        # The same key always starts at the same worker.
        assert [w.index for w in group.candidates("key-a")] == order_a
        # A down worker sorts last regardless of affinity.
        group.workers[order_a[0]].ready = False
        rotated = [w.index for w in group.candidates("key-a")]
        assert rotated[-1] == order_a[0]

    def test_deadline_header_carries_remaining_budget(self, tmp_path):
        shard = RemoteShard(WorkerGroup(_specs(tmp_path, shards=1)[0], count=1))
        context = RequestContext(Deadline(2.0))
        headers = dict(shard._forward_headers(context))
        assert 0 < int(headers["x-deadline-ms"]) <= 2000
        lapsed = RequestContext(Deadline(0.0))
        with pytest.raises(DeadlineExceededError):
            shard._attempt_budget(lapsed)

    def test_candidates_order_by_liveness_then_in_flight_then_affinity(self, tmp_path):
        group = WorkerGroup(_specs(tmp_path, shards=1)[0], count=3)
        for worker in group.workers:
            worker.ready, worker._process = True, _Running()
        affine = group.affinity("key-a")
        idle = [w.index for w in group.candidates("key-a")]
        assert idle[0] == affine.index  # an idle group routes by affinity
        affine.in_flight = 2
        group.workers[idle[1]].in_flight = 1
        assert [w.index for w in group.candidates("key-a")] == [idle[2], idle[1], affine.index]
        group.workers[idle[2]].in_flight = 2
        # Ties keep the affinity rotation; a down worker sorts last however idle.
        assert [w.index for w in group.candidates("key-a")] == [idle[1], affine.index, idle[2]]
        group.workers[idle[1]].ready = False
        group.workers[idle[1]].in_flight = 0
        assert [w.index for w in group.candidates("key-a")] == [affine.index, idle[2], idle[1]]

    def test_one_worker_routes_as_before(self, tmp_path):
        group = WorkerGroup(_specs(tmp_path, shards=1)[0], count=1)
        worker = group.workers[0]
        worker.ready, worker._process, worker.in_flight = True, _Running(), 5
        assert group.candidates("key-a") == [worker] == group.candidates()
        assert group.affinity("key-a") is worker

    def test_concurrent_cold_reads_of_one_affinity_worker_use_both(self, pair):
        handle, supervisor = pair
        group = supervisor.groups[0]
        with ServeClient(*handle.address) as client:
            # Of three keys, two share an affinity worker.
            by_worker = {}
            for _ in range(3):
                key, image = _put_fresh(client, size=64, stripes=1)
                by_worker.setdefault(group.affinity(key).index, []).append((key, image))
            shared = max(by_worker.values(), key=len)[:2]

            def misses():
                counts = []
                for worker in group.workers:
                    with ServeClient(worker.host, worker.port) as direct:
                        counts.append(direct.stats()["shards"][0]["cache"]["misses"])
                return counts

            before = misses()
            diverted = client.stats()["server"]["counters"].get("worker_diverted", 0)
            barrier = threading.Barrier(len(shared))
            served = {}

            def read(key):
                with ServeClient(*handle.address) as own:
                    barrier.wait()
                    served[key] = own.get_region(key, 0, 1)

            threads = [threading.Thread(target=read, args=(key,)) for key, _ in shared]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            for key, image in shared:
                assert served[key] == image
            assert all(after > earlier for after, earlier in zip(misses(), before))
            counters = client.stats()["server"]["counters"]
            assert counters["worker_diverted"] == diverted + 1
            assert _in_flight(client) == [0, 0]


class TestInFlightAccounting:
    """A worker's ``in_flight`` is back at 0 however its forward ended."""

    def test_buffered_and_streamed_replies(self, pair):
        handle, _ = pair
        with ServeClient(*handle.address) as client:
            key, image = _put_fresh(client)
            assert _in_flight(client) == [0, 0]
            assert client.get_image(key) == image
            assert _in_flight(client) == [0, 0]
            region, _timings = client.get_region_stream(key, 0, 2)
            assert region == image
            assert _in_flight(client) == [0, 0]

    def test_a_stream_the_client_abandons(self, pair):
        handle, _ = pair
        with ServeClient(*handle.address) as client:
            key, _ = _put_fresh(client, size=96, stripes=8)
            with socket.create_connection(handle.address) as raw:
                raw.sendall(
                    b"GET /images/%s/region/0-8?stream=1 HTTP/1.1\r\nhost: t\r\n\r\n"
                    % key.encode()
                )
                assert raw.recv(64).startswith(b"HTTP/1.1 200")
            give_up = time.monotonic() + 30.0
            while any(_in_flight(client)):
                assert time.monotonic() < give_up, _in_flight(client)
                time.sleep(0.05)

    def test_a_stream_closed_early_or_never_read(self, pair):
        handle, supervisor = pair
        with ServeClient(*handle.address) as client:
            key, _ = _put_fresh(client, stripes=4)
        group = _mirror(supervisor)
        shard = RemoteShard(group)
        target = "/images/%s/region/0-4?stream=1" % key

        async def drive():
            try:
                reply = await shard.open_stream("GET", target, key=key)
                assert reply.status == 200
                assert sum(w.in_flight for w in group.workers) == 1
                assert await reply.body.__anext__()  # the Netpbm header
                await reply.body.aclose()
                unread = await shard.open_stream("GET", target, key=key)
                assert sum(w.in_flight for w in group.workers) == 1
                await unread.body.aclose()
            finally:
                shard.close()

        asyncio.run(drive())
        assert [w.in_flight for w in group.workers] == [0, 0]

    def test_a_worker_timeout(self, pair):
        handle, supervisor = pair
        with ServeClient(*handle.address) as client:
            key, _ = _put_fresh(client, size=96, stripes=1)
        group = _mirror(supervisor)
        shard = RemoteShard(group, request_timeout=0.001)

        async def drive():
            try:
                with pytest.raises(WorkerUnreachableError, match="did not answer"):
                    await shard.request("GET", "/images/%s" % key, key=key)
            finally:
                shard.close()

        asyncio.run(drive())
        assert [w.in_flight for w in group.workers] == [0, 0]

    def test_a_transport_failure_fails_over(self, pair):
        handle, supervisor = pair
        with ServeClient(*handle.address) as client:
            key, _ = _put_fresh(client)
        group = _mirror(supervisor)
        group.affinity(key).port = _closed_port()
        shard = RemoteShard(group)

        async def drive():
            try:
                return await shard.request("GET", "/images/%s" % key, key=key)
            finally:
                shard.close()

        assert asyncio.run(drive()).status == 200
        assert [w.in_flight for w in group.workers] == [0, 0]

    def test_a_lapsed_deadline(self, pair):
        handle, supervisor = pair
        with ServeClient(*handle.address) as client:
            key, _ = _put_fresh(client, size=96, stripes=1)
        group = _mirror(supervisor)
        shard = RemoteShard(group)

        async def drive():
            try:
                with pytest.raises(DeadlineExceededError):
                    await shard.request(
                        "GET",
                        "/images/%s" % key,
                        context=RequestContext(Deadline(0.05)),
                        key=key,
                    )
            finally:
                shard.close()

        asyncio.run(drive())
        assert [w.in_flight for w in group.workers] == [0, 0]


class TestSiblingCatalogViews:
    def test_every_worker_reports_the_shards_catalog(self, tmp_path):
        with _one_shard(tmp_path) as (handle, supervisor):
            group = supervisor.groups[0]
            with ServeClient(*handle.address) as client:
                keys = [_put_fresh(client, size=16)[0] for _ in range(6)]
                # Serial PUTs go to each key's affinity worker: both took some.
                assert {group.affinity(key).index for key in keys} == {0, 1}
                assert client.stats()["shards"][0]["catalog"]["live"] == 6
            for worker in group.workers:
                with ServeClient(worker.host, worker.port) as direct:
                    assert direct.stats()["shards"][0]["catalog"]["live"] == 6

    def test_a_revived_key_reads_through_the_sibling_worker(self, tmp_path):
        # The DELETE reaches both workers, the revive only the one taking
        # the PUT; with that worker dead the sibling must see the revive.
        with _one_shard(tmp_path, restart_backoff=60.0) as (handle, supervisor):
            with ServeClient(*handle.address) as client:
                image = generate_planar_image("boat", size=32, seed=7, planes=3)
                key = client.put_image(_ppm_bytes(image), stripes=4)["key"]
                client.delete_image(key, ttl=3600)
                assert client.put_image(_ppm_bytes(image), stripes=4)["key"] == key
                victim = supervisor.groups[0].affinity(key)
                os.kill(victim.pid, signal.SIGKILL)
                give_up = time.monotonic() + 10.0
                while victim.alive:
                    assert time.monotonic() < give_up, "the killed worker still looks alive"
                    time.sleep(0.01)
                rows = image.to_array()
                top = 0
                for stripe in range(4):
                    region = client.get_region(key, stripe, stripe + 1)
                    assert (region.to_array() == rows[top : top + region.height]).all()
                    top += region.height
                assert top == image.height

    def test_a_stalled_worker_does_not_keep_the_tombstone_from_its_sibling(self, tmp_path):
        # The DELETE goes to both workers at once: the affinity worker is
        # stopped, so only its sibling answers within the 400 ms budget,
        # and its tombstone is the shard's answer.
        with _one_shard(tmp_path, restart_backoff=60.0) as (handle, supervisor):
            group = supervisor.groups[0]
            with ServeClient(*handle.address) as client:
                key, _ = _put_fresh(client, size=16)
                stalled = group.affinity(key)
                (sibling,) = [worker for worker in group.workers if worker is not stalled]
                os.kill(stalled.pid, signal.SIGSTOP)
                try:
                    with ServeClient(*handle.address, deadline_ms=400) as hurried:
                        assert hurried.delete_image(key, ttl=3600)["replicas"] == ["shard-00"]
                finally:
                    os.kill(stalled.pid, signal.SIGCONT)
                with ServeClient(sibling.host, sibling.port) as direct:
                    with pytest.raises(RemoteNotFoundError):
                        direct.get_image(key)
                os.kill(stalled.pid, signal.SIGKILL)
                give_up = time.monotonic() + 10.0
                while stalled.alive:
                    assert time.monotonic() < give_up, "the killed worker still looks alive"
                    time.sleep(0.01)
                with pytest.raises(RemoteNotFoundError):
                    client.get_image(key)
