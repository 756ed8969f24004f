"""Both topologies, one API: e2e suite + route-table parity.

The same client-visible behaviour must hold whether the tier runs
in-process (``thread``) or as shard worker processes behind the routing
proxy (``proc``).  A parameterized fixture runs the e2e suite against
each topology, and the parity class drives *every* route of the table
against both servers at once, comparing status, envelope code and — for
deterministic routes — the exact body bytes.  The fault-parity class
breaks replicas the same way under both topologies and expects the
same answers, since one replica policy decides them.
"""

from __future__ import annotations

import http.client
import io
import json

import pytest

from repro.imaging.pnm import write_ppm
from repro.imaging.synthetic import generate_planar_image
from repro.serve.app import ImageService, start_server_thread
from repro.serve.chaos import FaultInjector
from repro.serve.cli import shard_paths
from repro.serve.client import ServeClient
from repro.serve.proxy import ProxyService, start_proxy_thread
from repro.serve.routes import ROUTES
from repro.serve.worker import WorkerSpec, WorkerSupervisor
from repro.store.store import ImageStore

SHARDS = 2


def _boot(topology, root):
    """One running server of the given topology over a fresh 2-shard root."""
    if topology == "thread":
        stores = [
            ImageStore.open(path) for path in shard_paths(root, SHARDS, "fs")
        ]
        service = ImageService(stores)
        return start_server_thread(service), None
    specs = [
        WorkerSpec(shard_name="shard-%02d" % index, store_path=path)
        for index, path in enumerate(shard_paths(root, SHARDS, "fs"))
    ]
    supervisor = WorkerSupervisor(specs, workers_per_shard=1).start()
    service = ProxyService(supervisor)
    return start_proxy_thread(service), supervisor


@pytest.fixture(scope="module", params=["thread", "proc"])
def server(request, tmp_path_factory):
    root = tmp_path_factory.mktemp("topo-%s" % request.param)
    handle, _supervisor = _boot(request.param, root)
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with ServeClient(*server.address) as active:
        yield active


def _ppm_bytes(image):
    buffer = io.BytesIO()
    write_ppm(image, buffer)
    return buffer.getvalue()


def _raw(address, method, target, body=b"", headers=None):
    """One raw HTTP exchange: (status, headers-dict, body bytes)."""
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.request(method, target, body=body, headers=headers or {})
        response = connection.getresponse()
        payload = response.read()
        return response.status, dict(response.getheaders()), payload
    finally:
        connection.close()


class TestEndpointsBothTopologies:
    """The e2e surface, identical under thread and proc topologies."""

    def test_put_get_roundtrip(self, client):
        image = generate_planar_image("lena", size=24, seed=11, planes=3)
        outcome = client.put_image(_ppm_bytes(image), stripes=4)
        assert outcome["encoded"] is True
        assert client.get_image(outcome["key"]) == image

    def test_plane_region_and_batch(self, client):
        image = generate_planar_image("peppers", size=24, seed=3, planes=3)
        key = client.put_image(_ppm_bytes(image), stripes=4)["key"]
        plane = client.get_plane(key, 1)
        assert plane.height == image.height
        region = client.get_region(key, 1, 3)
        assert region.height < image.height
        batch = client.get_regions(key, [(0, 1), (1, 3)])
        assert len(batch) == 2
        assert batch[1] == region

    def test_region_stream_matches_buffered(self, client, server):
        image = generate_planar_image("mandrill", size=24, seed=9, planes=3)
        key = client.put_image(_ppm_bytes(image), stripes=4)["key"]
        target = "/images/%s/region/0-4" % key
        status, _, buffered = _raw(server.address, "GET", target)
        assert status == 200
        status, headers, streamed = _raw(server.address, "GET", target + "?stream=1")
        assert status == 200
        assert headers.get("Transfer-Encoding") == "chunked"
        assert streamed == buffered

    def test_catalog_lists_the_keys(self, client):
        image = generate_planar_image("lena", size=16, seed=21, planes=3)
        key = client.put_image(_ppm_bytes(image))["key"]
        listing = client.catalog()
        assert any(row["key"] == key for row in listing["entries"])

    def test_delete_tombstones_everywhere(self, client):
        image = generate_planar_image("lena", size=16, seed=22, planes=3)
        key = client.put_image(_ppm_bytes(image))["key"]
        outcome = client.delete_image(key)
        assert outcome["key"] == key
        assert outcome["replicas"]
        with pytest.raises(Exception) as caught:
            client.get_image(key)
        assert getattr(caught.value, "status", None) == 404

    def test_error_envelopes_carry_stable_codes(self, client, server):
        cases = [
            ("GET", "/images/%s" % ("0" * 64), b"", 404, "not_found"),
            ("GET", "/nope", b"", 404, "not_found"),
            ("POST", "/healthz", b"", 405, "method_allowed".replace("method_", "method_not_")),
            ("GET", "/images/k/plane/xyz", b"", 400, "bad_request"),
            ("GET", "/images/k/region/zz", b"", 400, "bad_request"),
            ("PUT", "/images", b"", 400, "bad_request"),
        ]
        for method, target, body, expected_status, expected_code in cases:
            status, headers, payload = _raw(server.address, method, target, body)
            assert status == expected_status, (method, target, payload)
            envelope = json.loads(payload)
            assert envelope["code"] == expected_code, (method, target, envelope)
            assert envelope["request_id"]
            assert "x-repro-version" in {name.lower() for name in headers}

    def test_version_endpoint_and_header(self, client, server):
        import repro

        assert client.version()["version"] == repro.__version__
        _, headers, _ = _raw(server.address, "GET", "/healthz")
        lowered = {name.lower(): value for name, value in headers.items()}
        assert lowered["x-repro-version"] == repro.__version__

    def test_tiny_deadline_answers_504_deadline(self, client, server):
        image = generate_planar_image("lena", size=32, seed=31, planes=3)
        key = client.put_image(_ppm_bytes(image), stripes=4)["key"]
        status, _, payload = _raw(
            server.address,
            "GET",
            "/images/%s" % key,
            headers={"x-deadline-ms": "1"},
        )
        assert status == 504
        assert json.loads(payload)["code"] == "deadline"

    def test_stats_exposes_flight_and_shards(self, client):
        stats = client.stats()
        assert "flight" in stats and "shards" in stats
        assert len(stats["shards"]) == SHARDS
        assert {section["name"] for section in stats["shards"]} == {
            "shard-00",
            "shard-01",
        }


# --------------------------------------------------------------------- #
# route-table parity: every route, both topologies, at once
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def paired(tmp_path_factory):
    """Both topologies over separate roots, seeded with identical data."""
    thread_handle, _ = _boot("thread", tmp_path_factory.mktemp("parity-thread"))
    proc_handle, supervisor = _boot("proc", tmp_path_factory.mktemp("parity-proc"))
    image = generate_planar_image("lena", size=24, seed=77, planes=3)
    body = _ppm_bytes(image)
    with ServeClient(*thread_handle.address) as seed:
        key = seed.put_image(body, stripes=4)["key"]
    with ServeClient(*proc_handle.address) as seed:
        assert seed.put_image(body, stripes=4)["key"] == key
    yield thread_handle, proc_handle, key, body
    thread_handle.stop()
    proc_handle.stop()


#: (endpoint, method, target, body, headers, compare) — ``target`` may hold
#: ``{key}``.  compare: "exact" = status + body bytes identical;
#: "envelope" = status + code + error text identical (request ids differ);
#: "shape" = status + document keys identical (timestamps/latencies differ).
PARITY_CASES = [
    ("healthz", "GET", "/healthz", b"", None, "exact"),
    ("version", "GET", "/version", b"", None, "exact"),
    ("stats", "GET", "/stats", b"", None, "shape"),
    ("catalog", "GET", "/catalog", b"", None, "shape"),
    ("put_image", "PUT", "/images", b"SEED", None, "exact"),
    ("get_image", "GET", "/images/{key}", b"", None, "exact"),
    ("get_plane", "GET", "/images/{key}/plane/0", b"", None, "exact"),
    ("get_region", "GET", "/images/{key}/region/0-2", b"", None, "exact"),
    ("get_region", "GET", "/images/{key}/region/0-2?stream=1", b"", None, "exact"),
    (
        "get_regions",
        "POST",
        "/images/{key}/regions",
        b'{"ranges": [[0, 1], [1, 2]]}',
        None,
        "exact",
    ),
    # error surface — identical status + code + message on both sides
    ("get_image", "GET", "/images/" + "0" * 64, b"", None, "envelope"),
    ("get_plane", "GET", "/images/{key}/plane/nine", b"", None, "envelope"),
    ("get_plane", "GET", "/images/{key}/plane/99", b"", None, "envelope"),
    ("get_region", "GET", "/images/{key}/region/banana", b"", None, "envelope"),
    ("get_regions", "POST", "/images/{key}/regions", b"not json", None, "envelope"),
    ("put_image", "PUT", "/images", b"", None, "envelope"),
    ("healthz", "POST", "/healthz", b"", None, "envelope"),
    ("*", "GET", "/definitely/not/a/route", b"", None, "envelope"),
    ("get_image", "GET", "/images/{key}", b"", {"x-deadline-ms": "soon"}, "envelope"),
    # mutation last: it tombstones the seeded key
    ("delete_image", "DELETE", "/images/{key}", b"", None, "shape"),
]


class TestRouteTableParity:
    def test_every_route_has_parity_coverage(self):
        covered = {case[0] for case in PARITY_CASES}
        assert {route.endpoint for route in ROUTES} <= covered

    def test_routes_answer_identically(self, paired):
        thread_handle, proc_handle, key, put_body = paired
        for endpoint, method, target, body, headers, compare in PARITY_CASES:
            target = target.replace("{key}", key)
            if body == b"SEED":
                body = put_body
            a = _raw(thread_handle.address, method, target, body, headers)
            b = _raw(proc_handle.address, method, target, body, headers)
            label = "%s %s" % (method, target)
            assert a[0] == b[0], (label, a[2], b[2])
            if compare == "exact":
                assert a[2] == b[2], label
                continue
            doc_a, doc_b = json.loads(a[2]), json.loads(b[2])
            if compare == "envelope":
                assert doc_a["code"] == doc_b["code"], label
                assert doc_a["error"] == doc_b["error"], label
            else:
                assert set(doc_a) <= set(doc_b), label


# --------------------------------------------------------------------- #
# fault parity: broken replicas answer the same under both topologies
# --------------------------------------------------------------------- #


class _Replicated:
    """A 2-shard server of one topology, with handles to break its shards."""

    def __init__(self, topology, root, replication):
        self.topology = topology
        self.root = root
        paths = shard_paths(root, SHARDS, "fs")
        if topology == "thread":
            stores = [ImageStore.open(path) for path in paths]
            service = ImageService(stores, replication=replication)
            self.handle = start_server_thread(service)
            self.injectors = dict(
                zip(service.router.names, (s.wrap_backend(FaultInjector) for s in stores))
            )
            return
        specs = [
            WorkerSpec(shard_name="shard-%02d" % index, store_path=path)
            for index, path in enumerate(paths)
        ]
        # A restart backoff longer than any test: a killed worker stays down.
        self.supervisor = WorkerSupervisor(
            specs, workers_per_shard=1, restart_backoff=600.0
        ).start()
        self.handle = start_proxy_thread(
            ProxyService(self.supervisor, replication=replication)
        )

    def put(self, seed):
        image = generate_planar_image("lena", size=24, seed=seed, planes=3)
        return _raw(self.handle.address, "PUT", "/images?stripes=4", _ppm_bytes(image))

    def cut(self, name):
        """Make shard ``name`` unreachable: dead backend, or its only worker dead."""
        if self.topology == "thread":
            self.injectors[name].kill()
            return
        group = next(g for g in self.supervisor.groups if g.shard_name == name)
        worker = group.workers[0]
        worker.kill()
        assert worker.wait(10.0)

    def corrupt(self, name, key):
        """Flip the last payload byte of ``key``'s blob on shard ``name``."""
        path = next((self.root / name).rglob(key + ".rplc"))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))

    def counters(self):
        with ServeClient(*self.handle.address) as client:
            return client.stats()["server"]["counters"]


@pytest.fixture(params=["thread", "proc"])
def replicated(request, tmp_path):
    """Boot a :class:`_Replicated` server per call; all stop at teardown."""
    booted = []

    def boot(replication=2):
        server = _Replicated(request.param, tmp_path / ("r%d" % len(booted)), replication)
        booted.append(server)
        return server

    yield boot
    for server in booted:
        server.handle.stop()


class TestFaultParity:
    """Replica faults, answered alike by the in-process tier and the proxy."""

    def test_corrupt_primary_replica_fails_over(self, replicated):
        server = replicated()
        status, _, body = server.put(seed=61)
        assert status == 201
        outcome = json.loads(body)
        key = outcome["key"]
        server.corrupt(outcome["shard"], key)
        status, _, payload = _raw(server.handle.address, "GET", "/images/" + key)
        assert status == 200, payload
        assert server.counters().get("failovers", 0) >= 1

    def test_corrupt_only_replica_answers_500_with_the_crc_error(self, replicated):
        server = replicated(replication=1)
        outcome = json.loads(server.put(seed=62)[2])
        key = outcome["key"]
        server.corrupt(outcome["shard"], key)
        status, _, payload = _raw(server.handle.address, "GET", "/images/" + key)
        assert status == 500
        envelope = json.loads(payload)
        assert envelope["code"] == "internal"
        assert "CRC mismatch" in envelope["error"]

    def test_missing_key_with_an_owner_down_is_upstream_unhealthy(self, replicated):
        server = replicated()
        server.cut("shard-00")
        target = "/images/" + "0" * 64
        for method in ("GET", "DELETE"):
            status, _, payload = _raw(server.handle.address, method, target)
            assert status == 503, (method, payload)
            assert json.loads(payload)["code"] == "upstream_unhealthy", method

    def test_put_lands_on_the_live_owner(self, replicated):
        server = replicated()
        server.cut("shard-00")
        status, _, body = server.put(seed=63)
        assert status == 201, body
        assert json.loads(body)["replicas"] == ["shard-01"]
        assert server.counters().get("write_failovers", 0) == 1

    def test_every_owner_down_is_503(self, replicated):
        server = replicated()
        key = json.loads(server.put(seed=64)[2])["key"]
        server.cut("shard-00")
        server.cut("shard-01")
        status, _, payload = _raw(server.handle.address, "GET", "/images/" + key)
        assert status == 503, payload
        assert server.put(seed=65)[0] == 503
