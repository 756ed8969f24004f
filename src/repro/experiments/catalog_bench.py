"""Catalog experiment — query latency at scale and lifecycle space reclaim.

The data-plane management layer (:mod:`repro.store.catalog`,
:mod:`repro.store.gc`, :mod:`repro.store.compactor`) has two costs worth
numbers:

* **query latency at scale** — ``repro-store ls`` is Python-side
  filtering over an in-memory entry map; this experiment loads the
  catalog's one persistence, a SQLite table (the one both backends
  use), with ``entries`` synthetic rows (default 10k) and times a full
  unfiltered page, a tag-filtered scan, a deep-offset page (pagination
  near the end of the result set, the worst case for offset-based
  paging) and a reopen;
* **bytes reclaimed by the lifecycle** — a small real corpus is
  ingested, half the streams are tombstoned with an already-lapsed TTL
  and GC-swept (measuring purged bytes), and the survivors are
  recompacted to a different stripe layout (measuring the byte delta of
  a verified, atomic in-place re-encode).

Catalog rows are synthesised directly (no 10k encodes): the filter path
never touches blobs, so entry volume is the only variable that matters
for the latency half.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.config import CodecConfig
from repro.exceptions import ConfigError
from repro.imaging.synthetic import CORPUS_IMAGE_NAMES, generate_planar_image
from repro.store.catalog import CatalogEntry, CatalogFilter, SQLiteCatalog
from repro.store.compactor import compact
from repro.store.gc import sweep
from repro.store.store import ImageStore

__all__ = ["CatalogQueryRow", "CatalogBenchResult", "run_catalog_bench"]


def _best_of(repeats: int, action: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - start)
    return best


def _synthetic_entry(index: int, created_at: float) -> CatalogEntry:
    """A plausible catalog row; every 10th entry carries the rare tag."""
    tags = [("set", "bench"), ("bucket", "b%d" % (index % 7))]
    if index % 10 == 0:
        tags.append(("rare", "yes"))
    return CatalogEntry(
        key="%064x" % index,
        width=64,
        height=64,
        planes=3,
        bit_depth=8,
        version=3,
        stripes=4,
        plane_delta=False,
        engine="reference",
        encoded_bytes=4096 + index % 512,
        decoded_bytes=64 * 64 * 3,
        created_at=created_at + index,
        tags=tuple(sorted(tags)),
    )


@dataclass(frozen=True)
class CatalogQueryRow:
    """ls/filter latency against one persisted catalog."""

    catalog: str
    entries: int
    ls_page_seconds: float
    tag_filter_seconds: float
    deep_offset_seconds: float
    reopen_seconds: float

    def format_row(self) -> str:
        return "%-16s %7d %10.2f ms %10.2f ms %10.2f ms %10.1f ms" % (
            self.catalog,
            self.entries,
            1e3 * self.ls_page_seconds,
            1e3 * self.tag_filter_seconds,
            1e3 * self.deep_offset_seconds,
            1e3 * self.reopen_seconds,
        )


@dataclass
class CatalogBenchResult:
    """Query latency rows plus the lifecycle space-reclaim numbers."""

    entries: int
    corpus_images: int
    rows: List[CatalogQueryRow] = field(default_factory=list)
    gc_bytes_reclaimed: int = 0
    gc_purged: int = 0
    compact_bytes_delta: int = 0
    compact_swapped: int = 0
    corpus_bytes_before: int = 0

    def format_report(self) -> str:
        lines = [
            "%-16s %7s %13s %13s %13s %12s"
            % ("Catalog", "entries", "ls page", "tag filter", "deep offset", "reopen")
        ]
        for row in self.rows:
            lines.append(row.format_row())
        lines.append(
            "lifecycle over %d corpus image(s), %d bytes stored: gc purged %d "
            "stream(s) reclaiming %d bytes; compaction swapped %d stream(s), "
            "%+d bytes"
            % (
                self.corpus_images,
                self.corpus_bytes_before,
                self.gc_purged,
                self.gc_bytes_reclaimed,
                self.compact_swapped,
                self.compact_bytes_delta,
            )
        )
        return "\n".join(lines)

    def as_json(self) -> Dict[str, dict]:
        """Machine-readable summary for ``repro-bench --json``."""
        return {
            "bpp": {},
            "mb_per_s": {},
            "extra": {
                "entries": self.entries,
                "ls_page_ms": {
                    row.catalog: 1e3 * row.ls_page_seconds for row in self.rows
                },
                "tag_filter_ms": {
                    row.catalog: 1e3 * row.tag_filter_seconds for row in self.rows
                },
                "deep_offset_ms": {
                    row.catalog: 1e3 * row.deep_offset_seconds for row in self.rows
                },
                "reopen_ms": {
                    row.catalog: 1e3 * row.reopen_seconds for row in self.rows
                },
                "gc_bytes_reclaimed": self.gc_bytes_reclaimed,
                "gc_purged": self.gc_purged,
                "compact_bytes_delta": self.compact_bytes_delta,
                "compact_swapped": self.compact_swapped,
                "corpus_bytes_before": self.corpus_bytes_before,
            },
        }


def _time_queries(
    name: str, catalog, entries: int, repeats: int, reopen: Callable[[], object]
) -> CatalogQueryRow:
    def page():
        return catalog.query(CatalogFilter(), limit=50)

    def rare():
        return catalog.query(CatalogFilter(tags=(("rare", "yes"),)))

    def deep():
        return catalog.query(CatalogFilter(), limit=50, offset=max(0, entries - 50))

    row = CatalogQueryRow(
        catalog=name,
        entries=len(catalog),
        ls_page_seconds=_best_of(repeats, page),
        tag_filter_seconds=_best_of(repeats, rare),
        deep_offset_seconds=_best_of(repeats, deep),
        reopen_seconds=_best_of(1, reopen),
    )
    return row


def run_catalog_bench(
    entries: int = 10_000,
    size: int = 24,
    seed: int = 2007,
    images: Optional[int] = None,
    config: Optional[CodecConfig] = None,
    engine: str = "reference",
    repeats: int = 3,
) -> CatalogBenchResult:
    """Measure catalog query latency at ``entries`` rows + lifecycle reclaim.

    The latency half loads a SQLite catalog with synthetic rows and
    times unfiltered, tag-filtered and deep-offset queries plus a cold
    reopen (table load).  The lifecycle half ingests a real corpus,
    GC-sweeps half of it and recompacts the rest.
    """
    if entries < 100:
        raise ConfigError("catalog bench needs at least 100 entries, got %d" % entries)
    if repeats < 1:
        raise ConfigError("repeats must be at least 1, got %d" % repeats)
    image_count = images if images is not None else len(CORPUS_IMAGE_NAMES)
    if image_count < 2 or image_count > len(CORPUS_IMAGE_NAMES):
        raise ConfigError(
            "images must be in [2, %d], got %d" % (len(CORPUS_IMAGE_NAMES), image_count)
        )

    result = CatalogBenchResult(entries=entries, corpus_images=image_count)
    base_time = 1_600_000_000.0

    with tempfile.TemporaryDirectory(prefix="repro-catalog-bench-") as root:
        # -- query latency at scale ------------------------------------ #
        sqlite_path = root + "/catalog.sqlite"
        sqlite_catalog = SQLiteCatalog(sqlite_path)
        for index in range(entries):
            sqlite_catalog.record_put(_synthetic_entry(index, base_time))
        result.rows.append(
            _time_queries(
                "sqlite",
                sqlite_catalog,
                entries,
                repeats,
                reopen=lambda: SQLiteCatalog(sqlite_path).close(),
            )
        )
        sqlite_catalog.close()

        # -- lifecycle: GC reclaim + recompaction delta ----------------- #
        with ImageStore.open(root + "/corpus", engine=engine, config=config) as store:
            keys = []
            for image_name in CORPUS_IMAGE_NAMES[:image_count]:
                image = generate_planar_image(image_name, size=size, seed=seed)
                keys.append(store.put(image, stripes=2, tags={"set": "bench"}))
            result.corpus_bytes_before = sum(
                store.backend.length(key) for key in keys
            )
            doomed = keys[: len(keys) // 2]
            for key in doomed:
                store.soft_delete(key, ttl_seconds=0.0, now=0.0)
            gc_result = sweep(store, now=1.0)
            result.gc_bytes_reclaimed = gc_result.bytes_reclaimed
            result.gc_purged = gc_result.purged
            compaction = compact(store, keys=keys[len(keys) // 2 :], stripes=4)
            result.compact_swapped = compaction.swapped
            result.compact_bytes_delta = sum(
                row.bytes_after - row.bytes_before
                for row in compaction.rows
                if row.status == "swapped"
            )
    return result
