"""Tightened serial entropy back-end of the fast engine.

The fast engine restructures the per-pixel loop of the reference codec into
two phases:

1. the **row-vectorized modelling front-end** (:mod:`repro.fast.rowmodel`)
   computes prediction, texture pattern and gradient energy for the whole
   image as NumPy array passes — everything with no serial feedback;
2. this module's **serial back-end** walks the pixels once, resolving only
   the feedback-coupled quantities (error-energy quantisation with the
   previous error, per-context bias feedback, probability-tree adaptation)
   and drives a fully inlined binary arithmetic coder: local-variable-bound
   register arithmetic, precomputed tree path tables
   (:func:`repro.entropy.freqtree.symbol_path_table`), the shared
   reciprocal-division ROM (:class:`repro.core.tables.ModelingTables`) and
   batched byte-level bit I/O.

Every arithmetic step replicates the reference implementation exactly —
same register geometry, same split computation, same renormalisation, same
adaptation order — so the produced stream is **byte-identical** to
:func:`repro.core.encoder.encode_payload` and the decoder accepts streams
from either engine.  ``tests/fast/`` sweeps corpora, bit depths and
degenerate geometries to enforce that identity.

The decoder cannot vectorize its modelling front-end (the causal neighbours
only exist once earlier pixels are decoded), so :func:`decode_payload_fast`
is "only" a fully inlined scalar loop — still several times faster than the
layered reference decoder.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.config import CodecConfig
from repro.core.encoder import EncodeStatistics
from repro.core.tables import ModelingTables
from repro.entropy.freqtree import FrequencyTree, StaticTree, symbol_path_table
from repro.exceptions import BitstreamError, ModelStateError
from repro.fast.rowmodel import model_image
from repro.imaging.image import GrayImage

__all__ = ["encode_payload_fast", "decode_payload_fast"]


def _make_trees(config: CodecConfig) -> List[FrequencyTree]:
    """One dynamic tree per coding context, identical to the estimator's."""
    return [
        FrequencyTree(
            alphabet_size=config.alphabet_size,
            count_bits=config.count_bits,
            with_escape=True,
            increment=config.estimator_increment,
        )
        for _ in range(config.energy_levels)
    ]


def encode_payload_fast(image: GrayImage, config: CodecConfig) -> tuple:
    """Fast-engine equivalent of :func:`repro.core.encoder.encode_payload`.

    Returns ``(payload, statistics)`` with a byte-identical payload and the
    same :class:`~repro.core.encoder.EncodeStatistics` counters the
    reference engine reports.
    """
    width = image.width
    height = image.height
    px = image.to_array()
    # Same loud failure as the reference engine's map_error when the image
    # range exceeds the configured bit depth (e.g. encode_payload called
    # directly with a mismatched config): wrapping silently would produce a
    # lossy stream.
    if px.size and (px.max() > config.max_sample or px.min() < 0):
        out_of_range = px[(px > config.max_sample) | (px < 0)]
        raise ModelStateError(
            "pixel value %d outside [0, %d]" % (int(out_of_range.flat[0]), config.max_sample)
        )
    model = model_image(px, config)
    # Whole-image conversions: list indexing in the serial loop is far
    # cheaper than per-element NumPy scalar access.
    value_rows = px.tolist()
    pred_rows = model.predicted.tolist()
    texture_rows = model.texture.tolist()
    gradient_rows = model.gradient.tolist()

    tables = ModelingTables(config)
    energy_lut = tables.energy_lut
    energy_lut_limit = tables.energy_lut_limit
    top_level = config.energy_levels - 1
    levels = config.energy_levels
    rom = tables.reciprocal_rom
    rom_shift = tables.reciprocal_shift
    rom_rounding = tables.reciprocal_rounding
    dividend_max = tables.dividend_max
    sum_max = tables.sum_max
    bias_count_max = tables.count_max
    aging = config.use_overflow_guard_aging
    use_feedback = config.use_error_feedback

    trees = _make_trees(config)
    tree_counts = [tree.counts for tree in trees]
    depth = trees[0].depth
    num_leaves = trees[0].num_leaves
    paths = symbol_path_table(depth)
    increment = config.estimator_increment
    max_count = trees[0].max_count
    alphabet = config.alphabet_size
    static_depth = StaticTree(alphabet).depth

    bias_sums = [0] * config.compound_contexts
    bias_counts = [0] * config.compound_contexts

    maxv = config.max_sample
    size = 1 << config.bit_depth
    mask = size - 1
    half = size >> 1

    # Arithmetic-coder registers (same geometry as BinaryArithmeticEncoder).
    precision = config.coder_precision
    top = (1 << precision) - 1
    reg_half = 1 << (precision - 1)
    reg_quarter = 1 << (precision - 2)
    reg_three_quarters = reg_half + reg_quarter
    low = 0
    high = top
    pending = 0

    out = bytearray()
    bitbuf = 0
    nbits = 0

    escapes = 0
    tree_rescales = 0
    binary_decisions = 0
    bias_saturations = 0
    symbols_per_context = [0] * levels

    for y in range(height):
        value_row = value_rows[y]
        pred_row = pred_rows[y]
        texture_row = texture_rows[y]
        gradient_row = gradient_rows[y]
        twice_prev = 0  # 2 * |previous wrapped error|; reset per row

        for x in range(width):
            # --- serial modelling tail: QE, compound context, feedback --- #
            energy = gradient_row[x] + twice_prev
            q = energy_lut[energy] if energy <= energy_lut_limit else top_level
            compound = texture_row[x] * levels + q
            predicted = pred_row[x]
            count = bias_counts[compound]
            if count and use_feedback:
                total = bias_sums[compound]
                if total > dividend_max:
                    total = dividend_max
                elif total < -dividend_max:
                    total = -dividend_max
                if rom is not None:
                    if total < 0:
                        mean = -((-total * rom[count] + rom_rounding) >> rom_shift)
                    else:
                        mean = (total * rom[count] + rom_rounding) >> rom_shift
                else:
                    if total < 0:
                        mean = -((-total + count // 2) // count)
                    else:
                        mean = (total + count // 2) // count
                adjusted = predicted + mean
                if adjusted < 0:
                    adjusted = 0
                elif adjusted > maxv:
                    adjusted = maxv
            else:
                adjusted = predicted

            # --- error mapping (modulo reduction + interleaved fold) ----- #
            error = (value_row[x] - adjusted) & mask
            if error >= half:
                error -= size
            symbol = error + error if error >= 0 else -error - error - 1

            # --- entropy coding: inlined tree walk + arithmetic coder ---- #
            counts = tree_counts[q]
            escaped = counts[num_leaves + symbol] <= 0
            for node, direction in paths[alphabet] if escaped else paths[symbol]:
                left = counts[node + node]
                span = high - low + 1
                split = low + (span * left) // counts[node] - 1
                if direction == 0:
                    high = split
                else:
                    low = split + 1
                while True:
                    if high < reg_half:
                        nbits += 1 + pending
                        bitbuf = (bitbuf << (1 + pending)) | ((1 << pending) - 1)
                        pending = 0
                        if nbits >= 8:
                            while nbits >= 8:
                                nbits -= 8
                                out.append((bitbuf >> nbits) & 0xFF)
                            bitbuf &= (1 << nbits) - 1
                    elif low >= reg_half:
                        nbits += 1 + pending
                        bitbuf = ((bitbuf << 1) | 1) << pending
                        pending = 0
                        if nbits >= 8:
                            while nbits >= 8:
                                nbits -= 8
                                out.append((bitbuf >> nbits) & 0xFF)
                            bitbuf &= (1 << nbits) - 1
                        low -= reg_half
                        high -= reg_half
                    elif low >= reg_quarter and high < reg_three_quarters:
                        pending += 1
                        low -= reg_quarter
                        high -= reg_quarter
                    else:
                        break
                    low <<= 1
                    high = (high << 1) | 1
            binary_decisions += depth
            if escaped:
                # Escape: the raw symbol goes through the uniform static
                # tree (probability one half per level).
                escapes += 1
                binary_decisions += static_depth
                for level in range(static_depth - 1, -1, -1):
                    span = high - low + 1
                    split = low + (span >> 1) - 1
                    if (symbol >> level) & 1:
                        low = split + 1
                    else:
                        high = split
                    while True:
                        if high < reg_half:
                            nbits += 1 + pending
                            bitbuf = (bitbuf << (1 + pending)) | ((1 << pending) - 1)
                            pending = 0
                            if nbits >= 8:
                                while nbits >= 8:
                                    nbits -= 8
                                    out.append((bitbuf >> nbits) & 0xFF)
                                bitbuf &= (1 << nbits) - 1
                        elif low >= reg_half:
                            nbits += 1 + pending
                            bitbuf = ((bitbuf << 1) | 1) << pending
                            pending = 0
                            if nbits >= 8:
                                while nbits >= 8:
                                    nbits -= 8
                                    out.append((bitbuf >> nbits) & 0xFF)
                                bitbuf &= (1 << nbits) - 1
                            low -= reg_half
                            high -= reg_half
                        elif low >= reg_quarter and high < reg_three_quarters:
                            pending += 1
                            low -= reg_quarter
                            high -= reg_quarter
                        else:
                            break
                        low <<= 1
                        high = (high << 1) | 1

            # --- probability-estimator adaptation (inlined tree update) -- #
            leaf = num_leaves + symbol
            if counts[leaf] + increment > max_count:
                trees[q].rescale()
                tree_rescales += 1
            counts[leaf] += increment
            node = leaf >> 1
            while node:
                counts[node] += increment
                node >>= 1
            symbols_per_context[q] += 1

            # --- bias-corrector adaptation (Overflow Guard) -------------- #
            count = bias_counts[compound]
            if count < bias_count_max or aging:
                total = bias_sums[compound]
                if count >= bias_count_max:
                    count >>= 1
                    total = -((-total) >> 1) if total < 0 else total >> 1
                count += 1
                total += error
                if total > sum_max:
                    total = sum_max
                elif total < -sum_max:
                    total = -sum_max
                bias_counts[compound] = count
                bias_sums[compound] = total
                if count == bias_count_max:
                    bias_saturations += 1

            twice_prev = error + error if error >= 0 else -error - error

    # Coder termination: one extra pending bit, then one disambiguating bit
    # (0 selects the lower quarter, 1 the upper) with its pending complement.
    pending += 1
    if low < reg_quarter:
        nbits += 1 + pending
        bitbuf = (bitbuf << (1 + pending)) | ((1 << pending) - 1)
    else:
        nbits += 1 + pending
        bitbuf = ((bitbuf << 1) | 1) << pending
    while nbits >= 8:
        nbits -= 8
        out.append((bitbuf >> nbits) & 0xFF)
    bitbuf &= (1 << nbits) - 1
    if nbits:
        out.append((bitbuf << (8 - nbits)) & 0xFF)

    payload = bytes(out)
    statistics = EncodeStatistics(
        payload_bytes=len(payload),
        escapes=escapes,
        tree_rescales=tree_rescales,
        binary_decisions=binary_decisions,
        context_usage={
            context: used for context, used in enumerate(symbols_per_context) if used
        },
        bias_saturations=bias_saturations,
    )
    return payload, statistics


def decode_payload_fast(
    payload: bytes, width: int, height: int, config: CodecConfig, _debug=None
) -> List[int]:
    """Fast-engine equivalent of :func:`repro.core.decoder.decode_payload`.

    The modelling front-end cannot be vectorized on the decode side (the
    causal window only fills as pixels are reconstructed), so this is a
    fully inlined scalar loop sharing the same tables as the encoder.

    ``_debug``, when given, is called after every pixel with
    ``(pixel_index, q, symbol, value, low, high, code)`` — a lock-step
    tracing hook for diagnosing any divergence from the reference decoder.
    """
    if width <= 0:
        raise ModelStateError("window width must be positive, got %d" % width)

    tables = ModelingTables(config)
    energy_lut = tables.energy_lut
    energy_lut_limit = tables.energy_lut_limit
    top_level = config.energy_levels - 1
    levels = config.energy_levels
    rom = tables.reciprocal_rom
    rom_shift = tables.reciprocal_shift
    rom_rounding = tables.reciprocal_rounding
    dividend_max = tables.dividend_max
    sum_max = tables.sum_max
    bias_count_max = tables.count_max
    aging = config.use_overflow_guard_aging
    use_feedback = config.use_error_feedback

    trees = _make_trees(config)
    tree_counts = [tree.counts for tree in trees]
    depth = trees[0].depth
    num_leaves = trees[0].num_leaves
    increment = config.estimator_increment
    max_count = trees[0].max_count
    alphabet = config.alphabet_size
    escape_index = alphabet
    static_depth = StaticTree(alphabet).depth

    bias_sums = [0] * config.compound_contexts
    bias_counts = [0] * config.compound_contexts

    maxv = config.max_sample
    size = 1 << config.bit_depth
    mask = size - 1
    half = size >> 1
    default = (maxv + 1) // 2
    sharp = config.gap_sharp_threshold
    strong = config.gap_strong_threshold
    weak = config.gap_weak_threshold
    texture_mask = (1 << config.texture_bits) - 1

    # Bounded bit input (mirrors BitReader with max_phantom_bits).
    data = bytes(payload)
    data_len = len(data)
    byte_pos = 0
    bit_pos = 0
    phantom = 0
    max_phantom = 4 * config.coder_precision

    precision = config.coder_precision
    top = (1 << precision) - 1
    reg_half = 1 << (precision - 1)
    reg_quarter = 1 << (precision - 2)
    reg_three_quarters = reg_half + reg_quarter
    low = 0
    high = top
    code = 0
    for _ in range(precision):
        if byte_pos < data_len:
            bit = (data[byte_pos] >> (7 - bit_pos)) & 1
            bit_pos += 1
            if bit_pos == 8:
                bit_pos = 0
                byte_pos += 1
        else:
            phantom += 1
            if phantom > max_phantom:
                raise BitstreamError(
                    "read %d bits past the end of a %d-byte bitstream; "
                    "the stream is truncated or corrupt" % (phantom, data_len)
                )
            bit = 0
        code = (code << 1) | bit

    pixels: List[int] = []
    above1: Optional[List[int]] = None
    above2: Optional[List[int]] = None

    for _y in range(height):
        current: List[int] = []
        twice_prev = 0
        for x in range(width):
            # --- causal neighbourhood (three-row window, inlined) -------- #
            if x >= 1:
                w = current[x - 1]
            elif above1 is not None:
                w = above1[0]
            else:
                w = default
            ww = current[x - 2] if x >= 2 else w
            if above1 is not None:
                n = above1[x]
                nw = above1[x - 1] if x >= 1 else n
                ne = above1[x + 1] if x + 1 < width else n
            else:
                n = w
                nw = w
                ne = w
            if above2 is not None:
                nn = above2[x]
                nne = above2[x + 1] if x + 1 < width else nn
            else:
                nn = n
                nne = ne

            # --- GAP prediction (inlined scalar cascade) ----------------- #
            dh = abs(w - ww) + abs(n - nw) + abs(n - ne)
            dv = abs(w - nw) + abs(n - nn) + abs(ne - nne)
            diff = dv - dh
            if diff > sharp:
                predicted = w
            elif -diff > sharp:
                predicted = n
            else:
                predicted = ((w + n) >> 1) + ((ne - nw) >> 2)
                if diff > strong:
                    predicted = (predicted + w) >> 1
                elif diff > weak:
                    predicted = (3 * predicted + w) >> 2
                elif -diff > strong:
                    predicted = (predicted + n) >> 1
                elif -diff > weak:
                    predicted = (3 * predicted + n) >> 2
            if predicted < 0:
                predicted = 0
            elif predicted > maxv:
                predicted = maxv

            # --- texture pattern + coding context ------------------------ #
            texture = (
                (1 if n < predicted else 0)
                | (2 if w < predicted else 0)
                | (4 if nw < predicted else 0)
                | (8 if ne < predicted else 0)
                | (16 if nn < predicted else 0)
                | (32 if ww < predicted else 0)
            ) & texture_mask
            energy = dh + dv + twice_prev
            q = energy_lut[energy] if energy <= energy_lut_limit else top_level
            compound = texture * levels + q

            # --- error feedback ------------------------------------------ #
            count = bias_counts[compound]
            if count and use_feedback:
                total = bias_sums[compound]
                if total > dividend_max:
                    total = dividend_max
                elif total < -dividend_max:
                    total = -dividend_max
                if rom is not None:
                    if total < 0:
                        mean = -((-total * rom[count] + rom_rounding) >> rom_shift)
                    else:
                        mean = (total * rom[count] + rom_rounding) >> rom_shift
                else:
                    if total < 0:
                        mean = -((-total + count // 2) // count)
                    else:
                        mean = (total + count // 2) // count
                adjusted = predicted + mean
                if adjusted < 0:
                    adjusted = 0
                elif adjusted > maxv:
                    adjusted = maxv
            else:
                adjusted = predicted

            # --- entropy decoding: inlined tree walk + coder ------------- #
            counts = tree_counts[q]
            symbol = 0
            node = 1
            for _level in range(depth):
                left = counts[node + node]
                span = high - low + 1
                split = low + (span * left) // counts[node] - 1
                if code <= split:
                    if left <= 0:
                        raise BitstreamError(
                            "decoded a decision the model deems impossible"
                        )
                    bit = 0
                    high = split
                else:
                    if left >= counts[node]:
                        raise BitstreamError(
                            "decoded a decision the model deems impossible"
                        )
                    bit = 1
                    low = split + 1
                while True:
                    if high < reg_half:
                        pass
                    elif low >= reg_half:
                        low -= reg_half
                        high -= reg_half
                        code -= reg_half
                    elif low >= reg_quarter and high < reg_three_quarters:
                        low -= reg_quarter
                        high -= reg_quarter
                        code -= reg_quarter
                    else:
                        break
                    low <<= 1
                    high = (high << 1) | 1
                    if byte_pos < data_len:
                        in_bit = (data[byte_pos] >> (7 - bit_pos)) & 1
                        bit_pos += 1
                        if bit_pos == 8:
                            bit_pos = 0
                            byte_pos += 1
                    else:
                        phantom += 1
                        if phantom > max_phantom:
                            raise BitstreamError(
                                "read %d bits past the end of a %d-byte bitstream; "
                                "the stream is truncated or corrupt"
                                % (phantom, data_len)
                            )
                        in_bit = 0
                    code = (code << 1) | in_bit
                symbol = (symbol << 1) | bit
                node = node + node + bit

            if symbol == escape_index:
                # Escaped symbol: read it from the uniform static tree.
                symbol = 0
                for _level in range(static_depth):
                    span = high - low + 1
                    split = low + (span >> 1) - 1
                    if code <= split:
                        bit = 0
                        high = split
                    else:
                        bit = 1
                        low = split + 1
                    while True:
                        if high < reg_half:
                            pass
                        elif low >= reg_half:
                            low -= reg_half
                            high -= reg_half
                            code -= reg_half
                        elif low >= reg_quarter and high < reg_three_quarters:
                            low -= reg_quarter
                            high -= reg_quarter
                            code -= reg_quarter
                        else:
                            break
                        low <<= 1
                        high = (high << 1) | 1
                        if byte_pos < data_len:
                            in_bit = (data[byte_pos] >> (7 - bit_pos)) & 1
                            bit_pos += 1
                            if bit_pos == 8:
                                bit_pos = 0
                                byte_pos += 1
                        else:
                            phantom += 1
                            if phantom > max_phantom:
                                raise BitstreamError(
                                    "read %d bits past the end of a %d-byte "
                                    "bitstream; the stream is truncated or corrupt"
                                    % (phantom, data_len)
                                )
                            in_bit = 0
                        code = (code << 1) | in_bit
                    symbol = (symbol << 1) | bit
                if symbol >= alphabet:
                    raise ModelStateError(
                        "static tree decoded %d outside alphabet of %d"
                        % (symbol, alphabet)
                    )
            elif symbol >= alphabet:
                raise ModelStateError(
                    "decoded padding leaf %d; bitstream is corrupt" % symbol
                )

            # --- probability-estimator adaptation ------------------------ #
            leaf = num_leaves + symbol
            if counts[leaf] + increment > max_count:
                trees[q].rescale()
            counts[leaf] += increment
            node = leaf >> 1
            while node:
                counts[node] += increment
                node >>= 1

            # --- error unmapping + model commit -------------------------- #
            error = symbol >> 1 if symbol % 2 == 0 else -(symbol + 1) >> 1
            value = (adjusted + error) & mask

            count = bias_counts[compound]
            if count < bias_count_max or aging:
                total = bias_sums[compound]
                if count >= bias_count_max:
                    count >>= 1
                    total = -((-total) >> 1) if total < 0 else total >> 1
                count += 1
                total += error
                if total > sum_max:
                    total = sum_max
                elif total < -sum_max:
                    total = -sum_max
                bias_counts[compound] = count
                bias_sums[compound] = total

            twice_prev = error + error if error >= 0 else -error - error
            current.append(value)
            pixels.append(value)
            if _debug is not None:
                _debug(len(pixels) - 1, q, symbol, value, low, high, code)

        above2 = above1
        above1 = current

    return pixels
