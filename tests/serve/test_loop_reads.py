"""Warm reads answered on the event loop, with no thread-pool hop.

A full-image, plane or region read (buffered, or the plan and each stripe
of a streamed one) first runs on the loop in the store's memory-only mode.
These tests count the executor submissions over real sockets: warm reads
make none, and every read memory cannot answer on its own (a partial hit,
an unmemoized header, a read over the sample budget) is offloaded as
before, with the same status codes and the same cache counters.
"""

from __future__ import annotations

import io
import time

import pytest

import repro.serve.app as app_module
import repro.store.store as store_module
from repro.exceptions import ServeError
from repro.imaging.pnm import write_ppm
from repro.imaging.synthetic import generate_planar_image
from repro.serve.app import ImageService, ReproServer, start_server_thread
from repro.serve.client import ServeClient
from repro.store.store import ImageStore

#: 24x24x3 image in 4 stripes: every stripe is 6 rows of 24 samples.
SIZE, STRIPES = 24, 4


class _CountingSubmit:
    """Counts ``executor.submit`` calls: one per offloaded operation."""

    def __init__(self, executor) -> None:
        self.calls = 0
        self._submit = executor.submit

    def __call__(self, function, *args, **kwargs):
        self.calls += 1
        return self._submit(function, *args, **kwargs)


class _Served:
    def __init__(self, tmp_path, server_class=ReproServer) -> None:
        self.store = ImageStore.open(tmp_path / "shard-00")
        self.service = ImageService([self.store])
        self.submits = _CountingSubmit(self.service.executor)
        self.service.executor.submit = self.submits
        self.handle = start_server_thread(self.service, server_class=server_class)
        self.image = generate_planar_image("lena", size=SIZE, seed=5, planes=3)
        buffer = io.BytesIO()
        write_ppm(self.image, buffer)
        with self.client() as client:
            self.key = client.put_image(buffer.getvalue(), stripes=STRIPES)["key"]
            client.get_image(self.key)  # decodes every cell into the decoded tier

    def client(self, **kwargs) -> ServeClient:
        return ServeClient(*self.handle.address, **kwargs)

    def loop_served(self) -> int:
        return self.service.stats.counter("loop_served")


@pytest.fixture()
def served(tmp_path):
    state = _Served(tmp_path)
    yield state
    state.handle.stop()


class TestWarmReadsStayOnTheLoop:
    def test_warm_reads_make_no_executor_submission(self, served):
        with served.client() as client:
            served.submits.calls = 0
            before = served.loop_served()
            region = client.get_region(served.key, 1, 3)
            streamed, _ = client.get_region_stream(served.key, 0, STRIPES)
            plane = client.get_plane(served.key, 2)
            whole = client.get_image(served.key)
            assert served.submits.calls == 0
            # One each, plus the stream's plan and its 4 stripes.
            assert served.loop_served() - before == 3 + 1 + STRIPES
            assert client.stats()["server"]["counters"]["loop_served"] >= 8
        assert whole == served.image == streamed
        assert plane == served.image.plane(2)
        assert region.height == 2 * SIZE // STRIPES

    def test_bad_stripe_range_answers_400_on_the_loop(self, served):
        with served.client() as client:
            served.submits.calls = 0
            with pytest.raises(ServeError) as bad:
                client.get_region(served.key, 3, 9)
            assert bad.value.status == 400
            assert served.submits.calls == 0

    def test_each_request_matches_its_route_once(self, served, monkeypatch):
        calls = []
        original = app_module.match_route

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(app_module, "match_route", counting)
        with served.client() as client:
            client.get_region(served.key, 0, 1)
            client.healthz()
            status, _, _ = client._request("GET", "/no/such/route")
            assert status == 404
        assert len(calls) == 3


class TestReadsMemoryCannotAnswer:
    def test_partial_hit_is_offloaded_and_counted_like_a_plain_read(self, served):
        store = served.store
        store.cache.clear()
        store.get_region(served.key, (0, 2))
        before = store.cache_stats
        served.submits.calls = 0
        with served.client() as client:
            region = client.get_region(served.key, 0, STRIPES)
        assert served.submits.calls == 1
        assert region == served.image
        served_delta = _counts(store.cache_stats, before)
        # The same read without the probe, from the same cache state.
        store.cache.clear()
        store.get_region(served.key, (0, 2))
        before = store.cache_stats
        store.get_region(served.key, (0, STRIPES))
        assert served_delta == _counts(store.cache_stats, before) == (6, 6)

    def test_unmemoized_header_is_offloaded(self, served):
        served.store._headers.clear()
        served.submits.calls = 0
        with served.client() as client:
            client.get_region(served.key, 0, 1)
            assert served.submits.calls == 1
            client.get_region(served.key, 0, 1)  # the header is memoized again
            assert served.submits.calls == 1

    def test_read_over_the_sample_budget_is_offloaded(self, served, monkeypatch):
        one_stripe = (SIZE // STRIPES) * SIZE * 3
        monkeypatch.setattr(store_module, "MEMORY_READ_MAX_SAMPLES", one_stripe)
        served.submits.calls = 0
        with served.client() as client:
            client.get_region(served.key, 0, 1)
            assert served.submits.calls == 0
            assert client.get_region(served.key, 0, 2).height == 2 * SIZE // STRIPES
            assert served.submits.calls == 1

    def test_cached_tombstoned_key_answers_404(self, served):
        with served.client() as client:
            client.delete_image(served.key)
            assert (served.key, 0, 0) in served.store.cache
            for read in (
                lambda: client.get_region(served.key, 0, 1),
                lambda: client.get_image(served.key),
            ):
                with pytest.raises(ServeError) as gone:
                    read()
                assert gone.value.status == 404


class _SlowStart(ReproServer):
    """Lets 5 ms pass between a request's deadline being set and its dispatch."""

    def _start_dispatch(self, request, host):
        outcome = super()._start_dispatch(request, host)
        time.sleep(0.005)
        return outcome


def test_expired_deadline_answers_504_before_the_probe(tmp_path):
    state = _Served(tmp_path, server_class=_SlowStart)
    try:
        state.submits.calls = 0
        with state.client(deadline_ms=1) as tight:
            for read in (
                lambda: tight.get_region(state.key, 0, 1),
                # The plan reads no cells, so no cell hook would catch it.
                lambda: tight.get_region_stream(state.key, 0, 1),
            ):
                with pytest.raises(ServeError) as expired:
                    read()
                assert expired.value.status == 504
        assert state.submits.calls == 0
        assert state.loop_served() == 0
        assert state.service.stats.counter("deadline_exceeded") == 2
    finally:
        state.handle.stop()


def _counts(after, before):
    return after.hits - before.hits, after.misses - before.misses
