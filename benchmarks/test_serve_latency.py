"""Serving-tier load benchmark — the acceptance gate of ``repro.serve``.

Boots the real network tier (sockets, HTTP, thread pool, single-flight)
against the synthetic corpus and enforces the two contracts from the
issue:

* a **warm coalesced** region read must have a p50 at least **5x** below
  the cold p50 (in practice the gap is ~10x even with HTTP overhead on
  both sides — a warm read is cache reassembly, a cold one an entropy
  decode);
* a **64-client stampede** on one cold region must reach the backend at
  most **twice** — the single-flight map collapses the herd, so one herd
  can at worst straddle one flight boundary;
* a **warm full-region read of a 512x512x3 image** through
  ``ImageService.get_region`` — cached cells to Netpbm bytes, no decoding —
  must have a p50 of at most **5 ms**.

The formatted report lands in ``benchmarks/results/serve_latency.txt``;
the same numbers are produced machine-readably by ``repro-bench serve
--json`` (the BENCH_5.json trajectory artifact).
"""

from __future__ import annotations

import statistics
import time

from repro.core.cellgrid import encode_grid
from repro.core.config import CodecConfig
from repro.experiments.serve_bench import run_serve_bench
from repro.imaging.synthetic import generate_planar_image
from repro.serve.app import ImageService
from repro.store.backends import FilesystemBackend
from repro.store.store import ImageStore

#: Acceptance floor from the issue: warm coalesced p50 >= 5x below cold p50.
MINIMUM_WARM_OVER_COLD = 5.0

#: Acceptance ceiling from the issue: a 64-client stampede on one region
#: performs at most 2 backend decodes.
MAXIMUM_STAMPEDE_DECODES = 2

#: Ceiling on the p50 of a warm full-region read of a 512x512x3 image.  On a
#: 2-CPU x86-64 VM (Python 3.11, NumPy 2.4) the p50 was 1.7-1.8 ms with
#: array-backed images and ~160-180 ms with the list-of-ints image model they
#: replaced; the ceiling leaves room for that host's ~2x speed swings.
MAXIMUM_WARM_FULL_REGION_512_P50_MS = 5.0


def test_serve_warm_p50_beats_cold_p50(ablation_size, record_report):
    result = run_serve_bench(
        size=min(ablation_size, 64),
        stripes=4,
        shards=2,
        clients=8,
        stampede_clients=64,
    )
    path = record_report("serve_latency", result.format_report())
    assert path.exists()

    assert result.cold_samples_ms, "cold phase produced no samples"
    assert result.warm_samples_ms, "warm phase produced no samples"
    ratio = result.warm_over_cold_p50
    assert ratio >= MINIMUM_WARM_OVER_COLD, (
        "warm p50 %.2f ms is only %.2fx below cold p50 %.2f ms (floor %.1fx)"
        % (result.warm_p50_ms, ratio, result.cold_p50_ms, MINIMUM_WARM_OVER_COLD)
    )

    assert len(result.stampede_samples_ms) == 64
    assert result.stampede_backend_decodes <= MAXIMUM_STAMPEDE_DECODES, (
        "64-client stampede performed %d backend decodes (ceiling %d)"
        % (result.stampede_backend_decodes, MAXIMUM_STAMPEDE_DECODES)
    )
    # The herd was actually coalesced, not accidentally serialised.
    assert result.stampede_coalesced > 0

    # Throughput sanity: the closed loop must be serving, not crawling.
    assert result.warm_requests_per_second > 50

    # Streaming gate: on a warm multi-cell region, the chunked response
    # commits its Netpbm header before any stripe work, so its time to
    # first byte must beat the buffered response's full-assembly total.
    assert result.stream_ttfb_samples_ms, "streaming phase produced no samples"
    assert result.stream_ttfb_p50_ms < result.buffered_full_p50_ms, (
        "streamed TTFB p50 %.2f ms did not beat the buffered full-assembly "
        "p50 %.2f ms" % (result.stream_ttfb_p50_ms, result.buffered_full_p50_ms)
    )


def test_warm_full_region_read_512_rgb(tmp_path, record_report):
    # The container bytes do not depend on the engine, so the fast engine
    # encodes and first-decodes it; the timed reads never decode at all.
    image = generate_planar_image("lena", size=512)
    stream, _ = encode_grid(
        image, CodecConfig.hardware(bit_depth=8), engine="fast", stripes=4
    )
    store = ImageStore(FilesystemBackend(tmp_path / "blobs"), engine="fast")
    key = store.put_stream(stream)
    service = ImageService([store])
    try:
        body, content_type = service.get_region(key, 0, 4)
        samples_ms = []
        for _ in range(30):
            started = time.perf_counter()
            warm_body, _ = service.get_region(key, 0, 4)
            samples_ms.append((time.perf_counter() - started) * 1e3)
        misses = store.cache_stats.misses
    finally:
        service.close()

    assert content_type == "image/x-portable-pixmap"
    assert warm_body == body
    assert body.endswith(image.to_array().astype("uint8").tobytes())
    assert misses == 12, "the warm reads decoded cells (%d cache misses)" % misses
    p50 = statistics.median(samples_ms)
    record_report(
        "warm_full_region_512",
        "warm full-region read, 512x512x3, 4 stripes, 30 reads: "
        "p50 %.2f ms, min %.2f ms, max %.2f ms (ceiling %.1f ms)"
        % (p50, min(samples_ms), max(samples_ms), MAXIMUM_WARM_FULL_REGION_512_P50_MS),
    )
    assert p50 <= MAXIMUM_WARM_FULL_REGION_512_P50_MS, (
        "warm 512x512x3 full-region p50 %.2f ms exceeds %.1f ms"
        % (p50, MAXIMUM_WARM_FULL_REGION_512_P50_MS)
    )
