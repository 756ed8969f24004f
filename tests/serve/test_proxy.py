"""Proxy-specific behaviour: supervision, failover, drain, forwarding.

The parity/e2e suites (:mod:`tests.serve.test_topologies`) prove the proc
topology speaks the same API; this module exercises what only the proxy
does — worker crash recovery under replication, the SIGTERM drain
cascade, version-mismatch refusal, deadline-header forwarding, the
worker-affinity rotation and worker-group health probes.
"""

from __future__ import annotations

import io
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exceptions import ConfigError, DeadlineExceededError
from repro.imaging.pnm import write_ppm
from repro.imaging.synthetic import generate_planar_image
from repro.serve.cli import shard_paths
from repro.serve.client import ServeClient
from repro.serve.deadline import Deadline, RequestContext, bind_context
from repro.serve.proxy import ProxyService, RemoteShard, start_proxy_thread
from repro.serve.worker import WorkerGroup, WorkerProcess, WorkerSpec, WorkerSupervisor

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
