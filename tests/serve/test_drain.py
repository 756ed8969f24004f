"""End-to-end graceful-drain and request-deadline behaviour.

Covers the two remaining production-hardening contracts over real
sockets: a draining server finishes admitted work (and answers new work
with ``503``) before its handle returns, and a request whose deadline
lapses on a stalled shard yields a fast ``504`` without poisoning the
cell cache or the single-flight map for the requests that follow.  A
PUT whose deadline lapses stops encoding at the next cell and stores
nothing.
"""

from __future__ import annotations

import hashlib
import io
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.core.cellgrid as cellgrid
from repro.core.cellgrid import encode_grid
from repro.core.config import CodecConfig
from repro.exceptions import DeadlineExceededError, ServeError
from repro.imaging.pnm import write_pgm, write_ppm
from repro.imaging.synthetic import generate_image, generate_planar_image
from repro.serve.app import ImageService, start_server_thread
from repro.serve.chaos import FaultInjector
from repro.serve.client import ServeClient
from repro.serve.deadline import Deadline, RequestContext, bind_context
from repro.store.store import ImageStore


def _ppm_bytes(image):
    buffer = io.BytesIO()
    write_ppm(image, buffer)
    return buffer.getvalue()


def _boot(tmp_path, **service_kwargs):
    stores = [ImageStore.open(tmp_path / ("shard-%02d" % i)) for i in range(2)]
    service = ImageService(stores, **service_kwargs)
    return service, start_server_thread(service)


def _ingest(handle, size=24, stripes=4, seed=31):
    with ServeClient(*handle.address) as client:
        image = generate_planar_image("lena", size=size, seed=seed, planes=3)
        document = client.put_image(_ppm_bytes(image), stripes=stripes)
    return str(document["key"]), str(document["shard"])


class TestDrain:
    def test_drain_finishes_inflight_and_rejects_new_work(self, tmp_path):
        service, handle = _boot(tmp_path)
        try:
            key, _ = _ingest(handle)
            injectors = [
                store.wrap_backend(FaultInjector) for store in service.router.stores
            ]
            for injector in injectors:
                injector.add_latency(0.6)
            for store in service.router.stores:
                store.cache.clear()

            # A keep-alive connection opened before the drain begins: the
            # listening socket closes, but established peers get answers.
            survivor = ServeClient(*handle.address)
            assert survivor.healthz()["status"] == "ok"

            outcome = {}

            def slow_request():
                with ServeClient(*handle.address, timeout=30.0) as client:
                    outcome["region"] = client.get_region(key, 0, 1)

            worker = threading.Thread(target=slow_request)
            worker.start()
            time.sleep(0.2)  # let the decode reach the executor
            assert service.stats.in_flight >= 1

            drained = {}
            drainer = threading.Thread(
                target=lambda: drained.setdefault("ok", handle.drain(budget=10.0))
            )
            drainer.start()
            time.sleep(0.1)
            assert handle.draining

            # New work on the surviving connection is refused, not queued.
            with pytest.raises(ServeError) as info:
                survivor.healthz()
            assert info.value.status == 503
            survivor.close()

            drainer.join(timeout=15.0)
            worker.join(timeout=15.0)
            assert drained["ok"] is True
            assert outcome["region"].height == 6  # in-flight work completed
            assert service.stats.in_flight == 0
        finally:
            handle.stop()

    def test_drain_gives_up_after_its_budget(self, tmp_path):
        service, handle = _boot(tmp_path)
        try:
            key, _ = _ingest(handle)
            for store in service.router.stores:
                store.wrap_backend(FaultInjector).add_latency(1.5)
                store.cache.clear()

            def slow_request():
                try:
                    with ServeClient(*handle.address, timeout=30.0) as client:
                        client.get_region(key, 0, 1)
                except Exception:
                    pass  # the forced close below severs this request

            worker = threading.Thread(target=slow_request)
            worker.start()
            time.sleep(0.2)
            assert service.stats.in_flight >= 1
            begin = time.monotonic()
            assert handle.drain(budget=0.2) is False
            assert time.monotonic() - begin < 5.0
            worker.join(timeout=15.0)
        finally:
            handle.stop()

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """The operator-facing contract: SIGTERM -> drain -> exit code 0."""
        assert _sigterm_drill(tmp_path) == []

    def test_sigterm_drains_proc_and_its_workers(self, tmp_path):
        """The same lifecycle under the proc topology, worker fleet included."""
        pids = _sigterm_drill(tmp_path, "--topology", "proc")
        assert len(pids) == 2
        for pid in pids:  # every worker exited before the proxy did
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def _sigterm_drill(tmp_path, *flags):
    """Boot ``repro-serve``, SIGTERM it, check the drain; the worker pids it listed."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve.cli",
            "--port",
            "0",
            "--shards",
            "2",
            "--root",
            str(tmp_path / "shards"),
            "--drain-budget",
            "5",
            *flags,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        assert "listening on http://" in banner
        address = banner.split("http://", 1)[1].split(" ", 1)[0]
        host, port_text = address.rsplit(":", 1)
        with ServeClient(host, int(port_text)) as client:
            assert client.healthz()["status"] == "ok"
            workers = client.stats().get("workers", {})
        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=15.0)
        assert returncode == 0
        remainder = process.stderr.read()
        assert "draining" in remainder
        assert "drained" in remainder
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)
        process.stdout.close()
        process.stderr.close()

    # The socket really is gone.
    with pytest.raises(OSError):
        socket.create_connection((host, int(port_text)), timeout=1.0).close()
    return [int(row["pid"]) for rows in workers.values() for row in rows]


class TestDeadlines:
    def test_stalled_shard_times_out_without_poisoning_caches(self, tmp_path):
        service, handle = _boot(tmp_path)
        try:
            key, shard = _ingest(handle)
            injectors = dict(
                zip(
                    service.router.names,
                    (store.wrap_backend(FaultInjector) for store in service.router.stores),
                )
            )
            for store in service.router.stores:
                store.cache.clear()
            injectors[shard].stall()
            try:
                begin = time.monotonic()
                with ServeClient(*handle.address, deadline_ms=200) as client:
                    with pytest.raises(ServeError) as info:
                        client.get_region(key, 0, 1)
                assert info.value.status == 504
                assert time.monotonic() - begin < 5.0
                assert service.stats.counter("deadline_exceeded") == 1
            finally:
                injectors[shard].clear_stall()

            # The abandoned leader leaves the single-flight map; the same
            # region then decodes cleanly -- twice, to prove nothing broken
            # was cached in its place.
            deadline = time.monotonic() + 5.0
            while service.flight.in_flight and time.monotonic() < deadline:
                time.sleep(0.02)
            assert service.flight.in_flight == 0
            with ServeClient(*handle.address) as client:
                assert client.get_region(key, 0, 1).height == 6
                assert client.get_region(key, 0, 1).height == 6
        finally:
            handle.stop()

    def test_header_deadline_tightens_the_server_budget(self, tmp_path):
        service, handle = _boot(tmp_path, default_deadline=30.0)
        try:
            key, shard = _ingest(handle)
            injectors = dict(
                zip(
                    service.router.names,
                    (store.wrap_backend(FaultInjector) for store in service.router.stores),
                )
            )
            for store in service.router.stores:
                store.cache.clear()
            injectors[shard].stall()
            try:
                begin = time.monotonic()
                with ServeClient(*handle.address, deadline_ms=150) as client:
                    with pytest.raises(ServeError) as info:
                        client.get_region(key, 0, 1)
                elapsed = time.monotonic() - begin
                assert info.value.status == 504
                # The 150 ms header won over the 30 s server default.
                assert elapsed < 10.0
            finally:
                injectors[shard].clear_stall()
        finally:
            handle.stop()

    def test_lapsed_put_stops_encoding_and_stores_nothing(self, tmp_path, monkeypatch):
        image = generate_image("lena", size=256)
        body = io.BytesIO()
        write_pgm(image, body)
        stream, _ = encode_grid(
            image, CodecConfig.hardware(bit_depth=8), engine="fast", stripes=16
        )
        key = hashlib.sha256(stream).hexdigest()
        encode_payload = cellgrid.encode_payload
        encoded_widths = []

        def counting(cell, config, engine="reference"):
            encoded_widths.append(cell.width)
            return encode_payload(cell, config, engine=engine)

        monkeypatch.setattr(cellgrid, "encode_payload", counting)
        service, handle = _boot(tmp_path, max_workers=1)
        try:
            with ServeClient(*handle.address, deadline_ms=300) as client:
                with pytest.raises(ServeError) as info:
                    client.put_image(body.getvalue(), stripes=16)
            assert info.value.status == 504
            # Queued behind the abandoned encode on the one pool thread.
            small = generate_planar_image("lena", size=16, seed=3, planes=3)
            with ServeClient(*handle.address) as client:
                client.put_image(_ppm_bytes(small), stripes=2)
            for store in service.router.stores:
                assert not store.contains(key)
                assert store.catalog.get(key) is None
            assert encoded_widths.count(image.width) < 16
        finally:
            handle.stop()

    def test_put_checks_its_deadline_before_the_first_write(self, tmp_path):
        store = ImageStore.open(tmp_path / "shard-00")
        service = ImageService([store])
        image = generate_planar_image("lena", size=16, seed=5, planes=3)
        stream, _ = encode_grid(image, CodecConfig.hardware(bit_depth=8), stripes=2)
        bind_context(RequestContext(Deadline(0.0)))
        try:
            with pytest.raises(DeadlineExceededError):
                service.put_image(stream)
        finally:
            bind_context(None)
            service.close()
        assert list(store.keys()) == []

    def test_bad_deadline_header_is_a_400(self, tmp_path):
        service, handle = _boot(tmp_path)
        try:
            import http.client

            connection = http.client.HTTPConnection(*handle.address, timeout=10)
            connection.request(
                "GET", "/healthz", headers={"x-deadline-ms": "soon"}
            )
            response = connection.getresponse()
            response.read()
            connection.close()
            assert response.status == 400
        finally:
            handle.stop()
