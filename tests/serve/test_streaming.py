"""Streaming region responses: chunked framing, byte identity, semantics.

The streamed endpoints are only allowed to exist because their reassembled
bodies are byte-identical to the buffered ones.  These tests drive real
sockets end-to-end: raw chunked framing on the wire, gray and colour
regions, NDJSON batches, error parity before the status line commits,
deadline aborts mid-stream, and the admission watermark returning to zero
after streams finish or die.
"""

from __future__ import annotations

import http.client
import io
import json

import pytest

from repro.exceptions import ServeError
from repro.imaging.image import GrayImage
from repro.imaging.pnm import write_pgm, write_ppm
from repro.imaging.synthetic import generate_image, generate_planar_image
from repro.serve.app import ImageService, start_server_thread
from repro.serve.client import ServeClient
from repro.store.store import ImageStore


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-streaming")
    store = ImageStore.open(root / "shard-00")
    service = ImageService([store], default_stripes=6)
    handle = start_server_thread(service)
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with ServeClient(*server.address) as active:
        yield active


@pytest.fixture(scope="module")
def gray_key(server):
    image = generate_image("lena", size=36, seed=4)
    buffer = io.BytesIO()
    write_pgm(image, buffer)
    with ServeClient(*server.address) as client:
        return client.put_image(buffer.getvalue(), stripes=6)["key"]


@pytest.fixture(scope="module")
def cold_gray_key(server):
    """A key no other test reads, so none of its cells is cached."""
    image = generate_image("boat", size=48, seed=11)
    buffer = io.BytesIO()
    write_pgm(image, buffer)
    with ServeClient(*server.address) as client:
        return client.put_image(buffer.getvalue(), stripes=6)["key"]


@pytest.fixture(scope="module")
def color_key(server):
    image = generate_planar_image("peppers", size=30, seed=9, planes=3)
    buffer = io.BytesIO()
    write_ppm(image, buffer)
    with ServeClient(*server.address) as client:
        return client.put_image(buffer.getvalue(), stripes=6)["key"]


def _same(a, b):
    if isinstance(a, GrayImage):
        return a.to_bytes() == b.to_bytes()
    return a.interleaved_samples() == b.interleaved_samples()


class TestRegionStream:
    @pytest.mark.parametrize("fixture", ["gray_key", "color_key"])
    def test_streamed_equals_buffered(self, request, client, fixture):
        key = request.getfixturevalue(fixture)
        buffered = client.get_region(key, 1, 5)
        streamed, timings = client.get_region_stream(key, 1, 5)
        assert type(streamed) is type(buffered)
        assert _same(streamed, buffered)
        assert timings["ttfb_ms"] <= timings["total_ms"]

    def test_raw_bodies_are_byte_identical(self, server, gray_key):
        connection = http.client.HTTPConnection(*server.address)
        try:
            connection.request("GET", "/images/%s/region/0-6" % gray_key)
            plain = connection.getresponse().read()
            connection.request("GET", "/images/%s/region/0-6?stream=1" % gray_key)
            response = connection.getresponse()
            assert response.getheader("Transfer-Encoding") == "chunked"
            assert response.getheader("Content-Length") is None
            assert response.read() == plain
        finally:
            connection.close()

    def test_header_arrives_as_its_own_chunk(self, server, gray_key):
        # Read the raw socket: the first chunk must be the Netpbm header,
        # available before the stripe decodes stream in behind it.
        connection = http.client.HTTPConnection(*server.address)
        try:
            connection.request("GET", "/images/%s/region/0-6?stream=1" % gray_key)
            response = connection.getresponse()
            first = response.read1(4096)
            assert first.startswith(b"P5\n")
            rest = response.read()
            assert rest  # the sample chunks follow
        finally:
            connection.close()

    def test_error_parity_before_status_commits(self, client, gray_key):
        with pytest.raises(ServeError) as bad_range:
            client.get_region_stream(gray_key, 5, 99)
        assert bad_range.value.status == 400
        with pytest.raises(ServeError) as missing:
            client.get_region_stream("no-such-key", 0, 1)
        assert missing.value.status == 404
        # The connection survives both error responses.
        assert client.healthz()["status"] == "ok"

    def test_deadline_abort_truncates_the_stream(self, server, cold_gray_key):
        # A warm stream is answered from memory well inside 1 ms; the cold
        # key's stripes must decode, which the budget cannot cover.
        with ServeClient(*server.address, deadline_ms=1) as tight:
            with pytest.raises(ServeError):
                tight.get_region_stream(cold_gray_key, 0, 6)
        with ServeClient(*server.address) as observer:
            stats = observer.stats()
        # Either the plan offload answered 504 before the status line, or
        # the stream aborted mid-flight; both paths count the deadline.
        assert stats["server"]["counters"].get("deadline_exceeded", 0) >= 1


class TestRegionsStream:
    def test_ndjson_entries_match_buffered_batch(self, client, color_key):
        ranges = [(0, 2), (2, 6), (1, 3)]
        streamed = list(client.iter_regions(color_key, ranges))
        buffered = client.get_regions(color_key, ranges)
        assert [(e["start"], e["stop"]) for e, _ in streamed] == ranges
        for (entry, image), reference in zip(streamed, buffered):
            assert entry["key"] == color_key
            assert _same(image, reference)

    def test_bad_ranges_rejected_before_the_stream_starts(self, client, color_key):
        with pytest.raises(ServeError) as bad:
            list(client.iter_regions(color_key, [(0, 99)]))
        assert bad.value.status == 400
        with pytest.raises(ServeError) as missing:
            list(client.iter_regions("no-such-key", [(0, 1)]))
        assert missing.value.status == 404
        assert client.healthz()["status"] == "ok"

    def test_abandoned_stream_leaves_client_usable(self, client, color_key):
        generator = client.iter_regions(color_key, [(0, 2), (2, 6)])
        next(generator)
        generator.close()  # drops the connection mid-stream
        assert client.healthz()["status"] == "ok"

    def test_raw_wire_format_is_ndjson(self, server, color_key):
        connection = http.client.HTTPConnection(*server.address)
        try:
            body = json.dumps({"ranges": [[0, 2], [2, 4]]}).encode()
            connection.request(
                "POST",
                "/images/%s/regions?stream=1" % color_key,
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.getheader("Content-Type") == "application/x-ndjson"
            assert response.getheader("Transfer-Encoding") == "chunked"
            lines = response.read().decode("utf-8").splitlines()
            assert len(lines) == 2
            for line in lines:
                entry = json.loads(line)
                assert entry["key"] == color_key
        finally:
            connection.close()


class TestStreamingAccounting:
    def test_admission_slots_drain_to_zero(self, server, client, gray_key, color_key):
        client.get_region_stream(gray_key, 0, 3)
        list(client.iter_regions(color_key, [(0, 2)]))
        with pytest.raises(ServeError):
            client.get_region_stream(gray_key, 3, 99)
        stats = client.stats()
        assert stats["admission"]["active"] == 0

    def test_single_flight_covers_streamed_stripes(self, server, gray_key):
        # A streamed stripe fetch and a buffered single-stripe GET share
        # the same flight key, so the flight stats keep accounting.
        with ServeClient(*server.address) as client:
            client.get_region_stream(gray_key, 0, 2)
            before = client.stats()["flight"]
            client.get_region(gray_key, 0, 1)
            after = client.stats()["flight"]
        assert after["leaders"] >= before["leaders"]
        assert before["leaders"] >= 2  # one flight per streamed stripe
