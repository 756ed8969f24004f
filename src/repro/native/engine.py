"""Array marshalling around the native kernels.

The functions here mirror :func:`repro.fast.engine.encode_payload_fast` /
``decode_payload_fast`` exactly — same inputs, same outputs, same exception
types on the same inputs — but execute the hot loops through the
``nopython`` kernels of :mod:`repro.native.kernels`.  The encode side reuses
the fast engine's row-vectorized modelling front-end
(:func:`repro.fast.rowmodel.model_image`); the decode side reads the
payload bytes in place through :func:`numpy.frombuffer`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.config import CodecConfig
from repro.core.encoder import EncodeStatistics
from repro.core.tables import ModelingTables
from repro.entropy.freqtree import StaticTree, symbol_path_table
from repro.exceptions import BitstreamError, ConfigError, ModelStateError
from repro.fast.rowmodel import model_image
from repro.imaging.image import GrayImage
from repro.native.kernels import (
    DECODE_IMPOSSIBLE,
    DECODE_OK,
    DECODE_PADDING_LEAF,
    DECODE_STATIC_OVERFLOW,
    DECODE_TRUNCATED,
    decode_cell_kernel,
    encode_cell_kernel,
)

__all__ = ["encode_payload_native", "decode_payload_native"]

#: Widest kernel intermediate is ``span * left`` < 2**(precision +
#: count_bits + tree depth); int64 gives 62 usable magnitude bits.
_INT64_BUDGET_BITS = 62


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power


def _tree_geometry(config: CodecConfig) -> Tuple[int, int]:
    """``(num_leaves, depth)`` of the per-context escape-carrying tree."""
    num_leaves = _next_power_of_two(config.alphabet_size + 1)
    return num_leaves, num_leaves.bit_length() - 1


def _require_int64_headroom(config: CodecConfig, depth: int) -> None:
    needed = config.coder_precision + config.count_bits + depth
    if needed > _INT64_BUDGET_BITS:
        raise ConfigError(
            "native engine: coder_precision (%d) + count_bits (%d) + tree depth (%d) "
            "= %d bits exceeds the %d-bit int64 kernel budget; use the reference or "
            "fast engine for this configuration"
            % (config.coder_precision, config.count_bits, depth, needed, _INT64_BUDGET_BITS)
        )


def _fresh_counts(config: CodecConfig, num_leaves: int) -> np.ndarray:
    """One implicit-heap frequency tree per context, fresh initial state.

    Identical numbers to :class:`repro.entropy.freqtree.FrequencyTree`:
    every real leaf and the escape leaf start at one, internal nodes sum
    their children, padding leaves stay zero.
    """
    counts = np.zeros((config.energy_levels, 2 * num_leaves), dtype=np.int64)
    counts[:, num_leaves : num_leaves + config.alphabet_size + 1] = 1
    for node in range(num_leaves - 1, 0, -1):
        counts[:, node] = counts[:, 2 * node] + counts[:, 2 * node + 1]
    return counts


class _KernelTables:
    """Array-shaped :class:`~repro.core.tables.ModelingTables`, per config."""

    def __init__(self, config: CodecConfig) -> None:
        tables = ModelingTables(config)
        self.energy_lut = np.asarray(tables.energy_lut, dtype=np.int64)
        self.energy_lut_limit = tables.energy_lut_limit
        if tables.reciprocal_rom is not None:
            self.use_rom = 1
            self.rom = np.asarray(tables.reciprocal_rom, dtype=np.int64)
        else:
            self.use_rom = 0
            self.rom = np.zeros(1, dtype=np.int64)
        self.rom_shift = tables.reciprocal_shift
        self.rom_rounding = tables.reciprocal_rounding
        self.dividend_max = tables.dividend_max
        self.sum_max = tables.sum_max
        self.bias_count_max = tables.count_max
        self.num_leaves, self.depth = _tree_geometry(config)
        self.static_depth = StaticTree(config.alphabet_size).depth
        # Shared with the other engines so all three warm the same cache.
        symbol_path_table(self.depth)


_TABLE_CACHE: dict = {}


def _kernel_tables(config: CodecConfig) -> _KernelTables:
    cached = _TABLE_CACHE.get(config)
    if cached is None:
        cached = _KernelTables(config)
        _TABLE_CACHE[config] = cached
    return cached


def encode_payload_native(image: GrayImage, config: CodecConfig) -> tuple:
    """Native-engine equivalent of :func:`repro.core.encoder.encode_payload`.

    Returns ``(payload, statistics)`` with a byte-identical payload and the
    same :class:`~repro.core.encoder.EncodeStatistics` counters.
    """
    kt = _kernel_tables(config)
    _require_int64_headroom(config, kt.depth)
    px = image.to_array()
    if px.size and (px.max() > config.max_sample or px.min() < 0):
        out_of_range = px[(px > config.max_sample) | (px < 0)]
        raise ModelStateError(
            "pixel value %d outside [0, %d]" % (int(out_of_range.flat[0]), config.max_sample)
        )
    model = model_image(px, config)
    values = np.ascontiguousarray(px)
    predicted = np.ascontiguousarray(model.predicted)
    texture = np.ascontiguousarray(model.texture)
    gradient = np.ascontiguousarray(model.gradient)

    size = 1 << config.bit_depth
    out = np.empty(px.size * 4 + 1024, dtype=np.uint8)
    while True:
        # Fresh adaptive state per attempt: the kernel mutates it in place.
        counts = _fresh_counts(config, kt.num_leaves)
        bias_sums = np.zeros(config.compound_contexts, dtype=np.int64)
        bias_counts = np.zeros(config.compound_contexts, dtype=np.int64)
        stats = np.zeros(4, dtype=np.int64)
        symbols_per_context = np.zeros(config.energy_levels, dtype=np.int64)
        written = encode_cell_kernel(
            values,
            predicted,
            texture,
            gradient,
            kt.energy_lut,
            kt.energy_lut_limit,
            config.energy_levels - 1,
            config.energy_levels,
            kt.use_rom,
            kt.rom,
            kt.rom_shift,
            kt.rom_rounding,
            kt.dividend_max,
            kt.sum_max,
            kt.bias_count_max,
            1 if config.use_overflow_guard_aging else 0,
            1 if config.use_error_feedback else 0,
            counts,
            kt.num_leaves,
            kt.depth,
            config.estimator_increment,
            (1 << config.count_bits) - 1,
            config.alphabet_size,
            kt.static_depth,
            bias_sums,
            bias_counts,
            config.max_sample,
            size,
            size - 1,
            size >> 1,
            config.coder_precision,
            out,
            stats,
            symbols_per_context,
        )
        if written <= out.shape[0]:
            break
        # The kernel kept counting past the buffer: retry with the exact size.
        out = np.empty(int(written), dtype=np.uint8)

    payload = out[: int(written)].tobytes()
    statistics = EncodeStatistics(
        payload_bytes=len(payload),
        escapes=int(stats[0]),
        tree_rescales=int(stats[1]),
        binary_decisions=int(stats[2]),
        context_usage={
            context: int(used)
            for context, used in enumerate(symbols_per_context)
            if used
        },
        bias_saturations=int(stats[3]),
    )
    return payload, statistics


def decode_payload_native(
    payload, width: int, height: int, config: CodecConfig
) -> List[int]:
    """Native-engine equivalent of :func:`repro.core.decoder.decode_payload`.

    The kernel reads ``payload`` in place through :func:`numpy.frombuffer`
    without copying.
    """
    if width <= 0:
        raise ModelStateError("window width must be positive, got %d" % width)
    kt = _kernel_tables(config)
    _require_int64_headroom(config, kt.depth)
    data = np.frombuffer(payload, dtype=np.uint8)
    pixels = np.empty(height * width, dtype=np.int64)
    counts = _fresh_counts(config, kt.num_leaves)
    bias_sums = np.zeros(config.compound_contexts, dtype=np.int64)
    bias_counts = np.zeros(config.compound_contexts, dtype=np.int64)
    size = 1 << config.bit_depth
    status = decode_cell_kernel(
        data,
        pixels,
        width,
        height,
        kt.energy_lut,
        kt.energy_lut_limit,
        config.energy_levels - 1,
        config.energy_levels,
        kt.use_rom,
        kt.rom,
        kt.rom_shift,
        kt.rom_rounding,
        kt.dividend_max,
        kt.sum_max,
        kt.bias_count_max,
        1 if config.use_overflow_guard_aging else 0,
        1 if config.use_error_feedback else 0,
        counts,
        kt.num_leaves,
        kt.depth,
        config.estimator_increment,
        (1 << config.count_bits) - 1,
        config.alphabet_size,
        kt.static_depth,
        bias_sums,
        bias_counts,
        config.max_sample,
        size,
        size - 1,
        size >> 1,
        (config.max_sample + 1) // 2,
        config.gap_sharp_threshold,
        config.gap_strong_threshold,
        config.gap_weak_threshold,
        (1 << config.texture_bits) - 1,
        config.coder_precision,
    )
    if status == DECODE_OK:
        return pixels.tolist()
    if status == DECODE_TRUNCATED:
        raise BitstreamError(
            "read past the end of a %d-byte bitstream; "
            "the stream is truncated or corrupt" % data.shape[0]
        )
    if status == DECODE_IMPOSSIBLE:
        raise BitstreamError("decoded a decision the model deems impossible")
    if status == DECODE_STATIC_OVERFLOW:
        raise ModelStateError(
            "static tree decoded a symbol outside the alphabet of %d" % config.alphabet_size
        )
    if status == DECODE_PADDING_LEAF:
        raise ModelStateError("decoded padding leaf; bitstream is corrupt")
    raise ModelStateError("native decode kernel returned unknown status %d" % status)
