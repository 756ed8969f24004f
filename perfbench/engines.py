"""Per-engine codec cost in the paper's terms, beside the hardware model.

For every engine ``engine_names()`` lists, encode and decode the same
cells (single-plane stripes of the cold corpus) in this process and
report ns per sample.  Encode splits into the modelling front-end
(``repro.fast.rowmodel.model_image``, for engines that call it) and the
back-end (the rest: tree walk, arithmetic coder, bit I/O).  The hardware
model's figure is ``hardware.pipeline.PipelineModel`` at its default
123 MHz: about 8 cycles, so about 65 ns, per pixel.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Sequence

from inputs import SourceImage


def _cells(images: Sequence[SourceImage], count: int):
    from repro.imaging.image import GrayImage

    cells = []
    image = images[0]
    rows = image.rows_per_stripe
    for stripe in range(image.stripes):
        for plane in range(image.planes):
            block = image.samples[plane, stripe * rows : (stripe + 1) * rows, :]
            cells.append(GrayImage.from_array(block.astype("int64"), bit_depth=8))
            if len(cells) == count:
                return cells
    return cells


def engine_table(images: Sequence[SourceImage], count: int = 6) -> List[Dict[str, object]]:
    """One row per engine; ``identical`` is False if its payloads differ from the first engine's."""
    import repro.fast.rowmodel as rowmodel
    from repro.core.config import CodecConfig
    from repro.core.interface import engine_names, get_engine
    from repro.hardware.pipeline import PipelineModel

    config = CodecConfig.hardware(bit_depth=8)
    cells = _cells(images, count)
    samples = sum(cell.width * cell.height for cell in cells)
    report = PipelineModel(config).analyse(cells[0].width, cells[0].height)
    hardware_ns = 1e3 * report.cycles_per_pixel / report.clock_mhz

    original = rowmodel.model_image
    frontend = [0.0]

    def timed_model_image(*args, **kwargs):
        started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            frontend[0] += time.perf_counter() - started

    # Every engine is loaded first: one imported lazily by get_engine binds
    # model_image at import, and must bind the original to be patched below.
    engines = {name: get_engine(name) for name in engine_names()}
    holders = [m for m in list(sys.modules.values()) if getattr(m, "model_image", None) is original]
    rows: List[Dict[str, object]] = []
    reference_payloads = None
    for name, engine in engines.items():
        for module in holders:
            module.model_image = timed_model_image
        frontend[0] = 0.0
        try:
            started = time.perf_counter()
            payloads = [engine.encode_payload(cell, config)[0] for cell in cells]
            encode = time.perf_counter() - started
        finally:
            for module in holders:
                module.model_image = original
        started = time.perf_counter()
        decoded = [
            engine.decode_payload(payload, cell.width, cell.height, config)
            for payload, cell in zip(payloads, cells)
        ]
        decode = time.perf_counter() - started
        if reference_payloads is None:
            reference_payloads = payloads
        rows.append(
            {
                "engine": name,
                "samples": samples,
                "encode_ns_per_sample": 1e9 * encode / samples,
                "frontend_ns_per_sample": 1e9 * frontend[0] / samples,
                "backend_ns_per_sample": 1e9 * (encode - frontend[0]) / samples,
                "decode_ns_per_sample": 1e9 * decode / samples,
                "identical": payloads == reference_payloads
                and all(list(d) == c.pixels() for d, c in zip(decoded, cells)),
                "hardware_cycles_per_px": report.cycles_per_pixel,
                "hardware_ns_per_px": hardware_ns,
            }
        )
    return rows


def format_table(rows: List[Dict[str, object]]) -> List[str]:
    lines = [
        "engine table (%d samples of the cold corpus; hardware model %.2f cycles/px = %.1f ns/px)"
        % (rows[0]["samples"], rows[0]["hardware_cycles_per_px"], rows[0]["hardware_ns_per_px"]),
        "  %-10s %12s %12s %12s %12s  %s"
        % ("engine", "encode", "front-end", "back-end", "decode", "bytes"),
    ]
    for row in rows:
        lines.append(
            "  %-10s %9.0f ns %9.0f ns %9.0f ns %9.0f ns  %s"
            % (
                row["engine"],
                row["encode_ns_per_sample"],
                row["frontend_ns_per_sample"],
                row["backend_ns_per_sample"],
                row["decode_ns_per_sample"],
                "identical" if row["identical"] else "DIFFERENT",
            )
        )
    return lines
