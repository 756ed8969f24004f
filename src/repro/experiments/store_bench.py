"""Store experiment — cold-vs-warm random-access latency and batch throughput.

The serving layer (:mod:`repro.store`) exists for region-heavy read traffic
over large stored signals: workloads that repeatedly pull row bands out of
a few hot streams (cumulative-plot scans, cohort-style batched region
pulls).  This experiment quantifies what the layer buys on the synthetic
planar corpus, per image:

* **cold full** — decoding the whole image on an empty cache (the only
  option without an index): fetch + entropy-decode every cell;
* **cold region** — one stripe-range query on an empty cache: range reads
  and decodes of exactly the region's cells;
* **warm region** — the same query again: pure cache reassembly, no
  backend bytes, no entropy decoding;
* **batch throughput** — a duplicate-heavy batch of region queries served
  by :meth:`~repro.store.store.ImageStore.get_regions` (cells deduped
  across regions) versus the same list as sequential
  :meth:`~repro.store.store.ImageStore.get_region` calls, both from cold.

The headline number is the warm-over-cold-full speedup; the acceptance
floor asserted by ``benchmarks/test_store_latency.py`` is 5x.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import CodecConfig
from repro.exceptions import ConfigError, ReproError
from repro.imaging.synthetic import CORPUS_IMAGE_NAMES, generate_planar_image
from repro.store.store import ImageStore

__all__ = ["StoreBenchRow", "StoreBenchResult", "run_store_bench"]


def _best_of(repeats: int, action: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass(frozen=True)
class StoreBenchRow:
    """Measured serving behaviour for one stored corpus image."""

    image: str
    blob_bytes: int
    cold_full_seconds: float
    cold_region_seconds: float
    warm_region_seconds: float
    batch_requests: int
    batched_seconds: float
    sequential_seconds: float

    @property
    def warm_speedup(self) -> float:
        """Cold full-blob decode over warm cached region read."""
        if self.warm_region_seconds <= 0.0:
            return float("inf")
        return self.cold_full_seconds / self.warm_region_seconds

    @property
    def index_speedup(self) -> float:
        """Cold full-blob decode over cold indexed region read."""
        if self.cold_region_seconds <= 0.0:
            return float("inf")
        return self.cold_full_seconds / self.cold_region_seconds

    @property
    def batched_requests_per_second(self) -> float:
        if self.batched_seconds <= 0.0:
            return float("inf")
        return self.batch_requests / self.batched_seconds

    @property
    def sequential_requests_per_second(self) -> float:
        if self.sequential_seconds <= 0.0:
            return float("inf")
        return self.batch_requests / self.sequential_seconds

    def format_row(self) -> str:
        return "%-10s %8.2f ms %8.2f ms %8.3f ms %8.1fx %8.1fx %9.0f/s %9.0f/s" % (
            self.image,
            1e3 * self.cold_full_seconds,
            1e3 * self.cold_region_seconds,
            1e3 * self.warm_region_seconds,
            self.index_speedup,
            self.warm_speedup,
            self.batched_requests_per_second,
            self.sequential_requests_per_second,
        )


@dataclass
class StoreBenchResult:
    """Complete store-serving comparison over a corpus subset."""

    size: int
    seed: int
    planes: int
    stripes: int
    backend: str
    engine: str
    rows: List[StoreBenchRow] = field(default_factory=list)

    def min_warm_speedup(self) -> float:
        if not self.rows:
            return 0.0
        return min(row.warm_speedup for row in self.rows)

    def mean_warm_speedup(self) -> float:
        if not self.rows:
            return 0.0
        return sum(row.warm_speedup for row in self.rows) / len(self.rows)

    def format_report(self) -> str:
        lines = [
            "%-10s %11s %11s %11s %9s %9s %11s %11s"
            % (
                "Image",
                "cold full",
                "cold region",
                "warm region",
                "index",
                "warm",
                "batched",
                "sequential",
            )
        ]
        for row in self.rows:
            lines.append(row.format_row())
        lines.append(
            "warm-cache region reads: %.1fx mean / %.1fx min over cold full decode "
            "(%d planes, %d stripes, %s backend, %s engine)"
            % (
                self.mean_warm_speedup(),
                self.min_warm_speedup(),
                self.planes,
                self.stripes,
                self.backend,
                self.engine,
            )
        )
        return "\n".join(lines)

    def as_json(self) -> Dict[str, dict]:
        """Machine-readable summary for ``repro-bench --json``."""
        return {
            "bpp": {},
            "mb_per_s": {},
            "extra": {
                "warm_speedup": {row.image: row.warm_speedup for row in self.rows},
                "index_speedup": {row.image: row.index_speedup for row in self.rows},
                "batched_requests_per_second": {
                    row.image: row.batched_requests_per_second for row in self.rows
                },
                "sequential_requests_per_second": {
                    row.image: row.sequential_requests_per_second for row in self.rows
                },
                "min_warm_speedup": self.min_warm_speedup(),
                "mean_warm_speedup": self.mean_warm_speedup(),
                "planes": self.planes,
                "stripes": self.stripes,
                "backend": self.backend,
                "engine": self.engine,
                "size": self.size,
                "seed": self.seed,
            },
        }


def run_store_bench(
    size: int = 48,
    seed: int = 2007,
    planes: int = 3,
    stripes: int = 4,
    images: Optional[Sequence[str]] = None,
    config: Optional[CodecConfig] = None,
    backend: str = "filesystem",
    engine: str = "reference",
    repeats: int = 3,
) -> StoreBenchResult:
    """Measure cold/warm random-access latency and batch throughput.

    Every corpus image is encoded into a throwaway store (``backend`` is
    ``"filesystem"`` or ``"sqlite"``), then served three ways: cold
    whole-image decode, cold indexed region read, warm cached region read, plus a
    duplicate-heavy batch of region queries both batched and sequential.
    """
    if size < 16:
        raise ConfigError("store bench image size must be at least 16, got %d" % size)
    if planes < 2:
        raise ConfigError("store bench needs at least 2 planes, got %d" % planes)
    if stripes < 2 or stripes > size:
        raise ConfigError("stripes must be in [2, %d], got %d" % (size, stripes))
    if repeats < 1:
        raise ConfigError("repeats must be at least 1, got %d" % repeats)
    if backend not in ("filesystem", "sqlite"):
        raise ConfigError(
            "backend must be 'filesystem' or 'sqlite', got %r" % (backend,)
        )
    selected = list(images) if images is not None else list(CORPUS_IMAGE_NAMES)

    result = StoreBenchResult(
        size=size,
        seed=seed,
        planes=planes,
        stripes=stripes,
        backend=backend,
        engine=engine,
    )
    # A duplicate-heavy request mix: every stripe once, then the first half
    # again — the overlap is what batching dedupes.
    ranges: List[Tuple[int, int]] = [(s, s + 1) for s in range(stripes)]
    ranges += ranges[: max(1, stripes // 2)]
    region = (stripes // 2, stripes // 2 + 1)

    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as root:
        path = root if backend == "filesystem" else root + "/corpus.sqlite"
        with ImageStore.open(path, engine=engine, config=config) as store:
            for image_name in selected:
                image = generate_planar_image(
                    image_name, size=size, seed=seed, planes=planes
                )
                key = store.put(image, stripes=stripes)
                if store.get(key) != image:
                    raise ReproError(
                        "store round-trip failed to reconstruct %r" % image_name
                    )

                def cold_full_read():
                    store.cache.clear()
                    return store.get(key)

                cold_full = _best_of(repeats, cold_full_read)

                def cold_region():
                    store.cache.clear()
                    return store.get_region(key, region)

                cold_region_seconds = _best_of(repeats, cold_region)
                store.get_region(key, region)  # prime the cache
                warm_region_seconds = _best_of(
                    repeats, lambda: store.get_region(key, region)
                )

                def batched():
                    store.cache.clear()
                    return store.get_regions(key, ranges)

                def sequential():
                    store.cache.clear()
                    return [store.get_region(key, r) for r in ranges]

                batched_seconds = _best_of(repeats, batched)
                sequential_seconds = _best_of(repeats, sequential)

                result.rows.append(
                    StoreBenchRow(
                        image=image_name,
                        blob_bytes=store.backend.length(key),
                        cold_full_seconds=cold_full,
                        cold_region_seconds=cold_region_seconds,
                        warm_region_seconds=warm_region_seconds,
                        batch_requests=len(ranges),
                        batched_seconds=batched_seconds,
                        sequential_seconds=sequential_seconds,
                    )
                )
    return result
