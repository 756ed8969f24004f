"""Per-layer numbers from the spans the trace hook wrote.

A span's self time is its duration minus the time its direct children
(same process, same thread or task) cover.  Layer times are reported per
client operation of the kind that drives the layer: read layers per
successful region GET, write layers per successful PUT, both counted
over the timed phases only.  ``store.header_ms`` is the exception: the
stream header is parsed on a key's first read, which the set-up's
warm-up pass makes, so it is the header time of one set-up.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from load import Op

Window = Tuple[float, float]


@dataclass
class Span:
    name: str
    start: int
    end: int
    id: int
    parent: int
    request: str
    pid: int
    extra: int
    proxy: bool

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


def load_spans(trace_dir: Path) -> List[Span]:
    spans: List[Span] = []
    for path in sorted(trace_dir.glob("spans-*.json")):
        document = json.loads(path.read_text())
        pid = int(document["pid"])
        proxy = document["main"] == "repro.serve.cli"
        for row in document["spans"]:
            spans.append(
                Span(row["name"], row["start"], row["end"], row["id"], row["parent"],
                     row["request"], pid, row["extra"], proxy)
            )
    return spans


def _inside(spans: Iterable[Span], windows: Sequence[Window]) -> List[Span]:
    bounds = [(int(a * 1e9), int(b * 1e9)) for a, b in windows]
    return [s for s in spans if any(a <= s.start <= b for a, b in bounds)]


def layer_metrics(
    spans: List[Span],
    timed: Sequence[Window],
    setup: Window,
    ops: List[Op],
    topology: str,
) -> Dict[str, float]:
    """Every span-derived per-layer metric, by name."""
    children: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for span in spans:
        children[(span.pid, span.parent)].append(span)

    def self_ms(span: Span) -> float:
        return span.ms - sum(child.ms for child in children[(span.pid, span.id)])

    live = _inside(spans, timed)
    named: Dict[str, List[Span]] = defaultdict(list)
    for span in live:
        named[span.name].append(span)
    reads = [op for op in ops if op.kind == "read" and op.ok]
    puts = [op for op in ops if op.kind == "put" and op.ok]

    def per(total: float, base: Sequence[Op]) -> float:
        return total / len(base) if base else 0.0

    def total_ms(name: str) -> float:
        return sum(s.ms for s in named[name])

    metrics: Dict[str, float] = {}
    service = named["serve.service"]
    metrics["serve.service_self_ms"] = per(sum(self_ms(s) for s in service), reads + puts)

    by_request = {s.request: s for s in service if s.request}
    dispatch_by_request = {s.request: s for s in named["serve.dispatch"] if s.proxy and s.request}
    joined = [op for op in reads + puts if op.request_id in by_request]
    metrics["serve.outside_service_ms"] = per(
        sum(1e3 * (op.done - op.sent) - by_request[op.request_id].ms for op in joined), joined
    )
    metrics["serve.joined_requests"] = float(len(joined))
    covered = [op for op in reads + puts if op.request_id in dispatch_by_request]
    client_ms = sum(1e3 * (op.done - op.sent) for op in covered)
    metrics["trace.coverage"] = (
        sum(dispatch_by_request[op.request_id].ms for op in covered) / client_ms if client_ms else 0.0
    )
    proxy_dispatch = [s for s in named["serve.dispatch"] if s.proxy] if topology == "proc" else []
    metrics["serve.proxy_self_ms"] = per(
        sum(self_ms(s) for s in proxy_dispatch), reads + puts
    )

    backend_reads = named["store.backend_read"]
    metrics["store.backend_read_ms"] = per(total_ms("store.backend_read"), reads)
    metrics["store.backend_reads"] = float(len(backend_reads))
    served = sum(op.samples for op in reads)
    metrics["store.bytes_read_per_sample"] = (
        sum(s.extra for s in backend_reads) / served if served else 0.0
    )
    metrics["store.header_ms"] = sum(s.ms for s in _inside(spans, [setup]) if s.name == "store.header")
    metrics["store.put_self_ms"] = per(sum(self_ms(s) for s in named["store.put_stream"]), puts)
    metrics["store.backend_put_ms"] = per(total_ms("store.backend_put"), puts)
    catalog_ids = {(s.pid, s.id) for s in named["store.catalog_put"]}
    outer_catalog = [s for s in named["store.catalog_put"] if (s.pid, s.parent) not in catalog_ids]
    metrics["store.catalog_put_ms"] = per(sum(s.ms for s in outer_catalog), puts)

    metrics["core.crc_ms"] = per(total_ms("core.crc"), reads)
    metrics["core.assemble_ms"] = per(total_ms("core.assemble"), reads)
    metrics["core.encode_grid_self_ms"] = per(
        sum(self_ms(s) for s in named["core.encode_grid"]), puts
    )

    decodes = named["engine.decode"]
    decoded = sum(s.extra for s in decodes)
    metrics["engine.decode_calls"] = float(len(decodes))
    metrics["engine.decode_samples"] = float(decoded)
    metrics["engine.decode_ns_per_sample"] = 1e6 * sum(s.ms for s in decodes) / decoded if decoded else 0.0
    encodes = named["engine.encode"]
    encoded = sum(s.extra for s in encodes)
    encode_ids = {(s.pid, s.id) for s in encodes}
    frontend_ms = sum(s.ms for s in named["engine.frontend"] if (s.pid, s.parent) in encode_ids)
    encode_ms = sum(s.ms for s in encodes)
    metrics["engine.encode_samples"] = float(encoded)
    metrics["engine.encode_ns_per_sample"] = 1e6 * encode_ms / encoded if encoded else 0.0
    metrics["engine.frontend_ns_per_sample"] = 1e6 * frontend_ms / encoded if encoded else 0.0
    metrics["engine.backend_ns_per_sample"] = (
        1e6 * (encode_ms - frontend_ms) / encoded if encoded else 0.0
    )

    metrics["imaging.image_ms"] = per(total_ms("imaging.image"), reads)
    metrics["imaging.render_ms"] = per(total_ms("imaging.render"), reads)
    metrics["imaging.parse_ms"] = per(total_ms("imaging.parse"), puts)
    metrics["trace.spans"] = float(len(spans))
    return metrics

