"""``nopython`` kernels of the native engine — the codec's hot loops.

Each kernel is a module-level function over plain ``int64``/``uint8`` NumPy
arrays and scalars, written in the intersection of numba's ``nopython``
dialect and ordinary Python: the same source either JIT-compiles (numba
installed) or runs interpreted (the ``REPRO_NATIVE_PURE_PYTHON=1`` test
mode), producing bit-for-bit identical output either way.

The arithmetic replicates :mod:`repro.fast.engine` decision for decision —
same register geometry, same split computation, same renormalisation and
adaptation order — with one deliberate restructuring: the fast engine
batches pending-bit emission through an *unbounded* Python integer
(``bitbuf << (1 + pending)``), which an ``int64`` kernel cannot do.  The
kernels emit carry-safe, bit by bit (:func:`_put_bit` keeps the staging
buffer under one byte), which produces exactly the same byte stream: a
renormalisation that emits ``b`` then ``pending`` complements of ``b`` is
the same MSB-first bit sequence whichever way it is buffered.

Register-width budget: the widest intermediate is ``span * left`` with
``span < 2**precision`` and ``left`` bounded by the tree root (at most
``2**(count_bits + depth)``), so the wrapper refuses configurations where
``precision + count_bits + depth`` exceeds 62 — every default and every
bit depth up to 15 fits comfortably.

Errors are returned as status codes (see ``DECODE_*``), not raised: numba
restricts in-kernel exceptions, and status returns keep the JIT and
pure-Python paths identical.  The wrappers in :mod:`repro.native.engine`
translate them into the package's exception types.
"""

from __future__ import annotations

from repro.native.jit import njit

__all__ = [
    "encode_cell_kernel",
    "decode_cell_kernel",
    "DECODE_OK",
    "DECODE_TRUNCATED",
    "DECODE_IMPOSSIBLE",
    "DECODE_STATIC_OVERFLOW",
    "DECODE_PADDING_LEAF",
]

DECODE_OK = 0
DECODE_TRUNCATED = 1
DECODE_IMPOSSIBLE = 2
DECODE_STATIC_OVERFLOW = 3
DECODE_PADDING_LEAF = 4


@njit(cache=True, nogil=True)
def _put_bit(out, pos, bitbuf, nbits, bit):
    """Append one bit MSB-first; flush whole bytes into ``out``.

    ``pos`` keeps advancing past the end of ``out`` without writing, so a
    too-small buffer still yields the exact byte count for the retry.
    """
    bitbuf = (bitbuf << 1) | bit
    nbits += 1
    if nbits == 8:
        if pos < out.shape[0]:
            out[pos] = bitbuf
        pos += 1
        bitbuf = 0
        nbits = 0
    return pos, bitbuf, nbits


@njit(cache=True, nogil=True)
def _encoder_renorm(
    out, pos, bitbuf, nbits, low, high, pending, reg_half, reg_quarter, reg_three_quarters
):
    """E1/E2/E3 renormalisation after one coded decision (encoder side)."""
    while True:
        if high < reg_half:
            pos, bitbuf, nbits = _put_bit(out, pos, bitbuf, nbits, 0)
            while pending > 0:
                pos, bitbuf, nbits = _put_bit(out, pos, bitbuf, nbits, 1)
                pending -= 1
        elif low >= reg_half:
            pos, bitbuf, nbits = _put_bit(out, pos, bitbuf, nbits, 1)
            while pending > 0:
                pos, bitbuf, nbits = _put_bit(out, pos, bitbuf, nbits, 0)
                pending -= 1
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
    return pos, bitbuf, nbits, low, high, pending


@njit(cache=True, nogil=True)
def _read_bit(data, byte_pos, bit_pos, phantom, max_phantom):
    """One MSB-first bit; phantom zeros past the end, ``-1`` = truncated."""
    if byte_pos < data.shape[0]:
        bit = (int(data[byte_pos]) >> (7 - bit_pos)) & 1
        bit_pos += 1
        if bit_pos == 8:
            bit_pos = 0
            byte_pos += 1
        return bit, byte_pos, bit_pos, phantom
    phantom += 1
    if phantom > max_phantom:
        return -1, byte_pos, bit_pos, phantom
    return 0, byte_pos, bit_pos, phantom


@njit(cache=True, nogil=True)
def _decoder_renorm(
    data,
    low,
    high,
    code,
    byte_pos,
    bit_pos,
    phantom,
    reg_half,
    reg_quarter,
    reg_three_quarters,
    max_phantom,
):
    """Decoder-side renormalisation; the trailing flag is 0 on truncation."""
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
        bit, byte_pos, bit_pos, phantom = _read_bit(data, byte_pos, bit_pos, phantom, max_phantom)
        if bit < 0:
            return low, high, code, byte_pos, bit_pos, phantom, 0
        code = (code << 1) | bit
    return low, high, code, byte_pos, bit_pos, phantom, 1


@njit(cache=True, nogil=True)
def encode_cell_kernel(
    values,
    predicted,
    texture,
    gradient,
    energy_lut,
    energy_lut_limit,
    top_level,
    levels,
    use_rom,
    rom,
    rom_shift,
    rom_rounding,
    dividend_max,
    sum_max,
    bias_count_max,
    aging,
    use_feedback,
    counts,
    num_leaves,
    depth,
    increment,
    max_count,
    alphabet,
    static_depth,
    bias_sums,
    bias_counts,
    maxv,
    size,
    mask,
    half,
    precision,
    out,
    stats,
    symbols_per_context,
):
    """Serial back-end of the encoder over a pre-modelled cell.

    ``values``/``predicted``/``texture``/``gradient`` are the row-model
    outputs (``int64``, height x width); ``counts`` is one implicit-heap
    frequency tree per context (``levels x 2*num_leaves``) with fresh
    initial state; ``stats`` receives ``[escapes, rescales, decisions,
    bias_saturations]``.  Returns the payload byte count — which exceeds
    ``out.shape[0]`` when the buffer was too small (re-run with a buffer of
    exactly that size; all state arrays must be re-initialised first).
    """
    height = values.shape[0]
    width = values.shape[1]

    reg_half = 1 << (precision - 1)
    reg_quarter = 1 << (precision - 2)
    reg_three_quarters = reg_half + reg_quarter
    low = 0
    high = (1 << precision) - 1
    pending = 0

    pos = 0
    bitbuf = 0
    nbits = 0

    for y in range(height):
        twice_prev = 0
        for x in range(width):
            # --- serial modelling tail: QE, compound context, feedback --- #
            energy = gradient[y, x] + twice_prev
            if energy <= energy_lut_limit:
                q = energy_lut[energy]
            else:
                q = top_level
            compound = texture[y, x] * levels + q
            adjusted = predicted[y, x]
            count = bias_counts[compound]
            if count != 0 and use_feedback != 0:
                total = bias_sums[compound]
                if total > dividend_max:
                    total = dividend_max
                elif total < -dividend_max:
                    total = -dividend_max
                if use_rom != 0:
                    if total < 0:
                        mean = -((-total * rom[count] + rom_rounding) >> rom_shift)
                    else:
                        mean = (total * rom[count] + rom_rounding) >> rom_shift
                else:
                    if total < 0:
                        mean = -((-total + count // 2) // count)
                    else:
                        mean = (total + count // 2) // count
                adjusted = adjusted + mean
                if adjusted < 0:
                    adjusted = 0
                elif adjusted > maxv:
                    adjusted = maxv

            # --- error mapping (modulo reduction + interleaved fold) ----- #
            error = (values[y, x] - adjusted) & mask
            if error >= half:
                error -= size
            if error >= 0:
                symbol = error + error
            else:
                symbol = -error - error - 1

            # --- entropy coding: tree path walk + arithmetic coder ------- #
            escaped = counts[q, num_leaves + symbol] <= 0
            walk = alphabet if escaped else symbol
            node = 1
            for level in range(depth - 1, -1, -1):
                direction = (walk >> level) & 1
                left = counts[q, node + node]
                span = high - low + 1
                split = low + (span * left) // counts[q, node] - 1
                if direction == 0:
                    high = split
                else:
                    low = split + 1
                node = node + node + direction
                pos, bitbuf, nbits, low, high, pending = _encoder_renorm(
                    out, pos, bitbuf, nbits, low, high, pending,
                    reg_half, reg_quarter, reg_three_quarters,
                )
            stats[2] += depth
            if escaped:
                # Escape: the raw symbol goes through the uniform static
                # tree (probability one half per level).
                stats[0] += 1
                stats[2] += static_depth
                for level in range(static_depth - 1, -1, -1):
                    span = high - low + 1
                    split = low + (span >> 1) - 1
                    if (symbol >> level) & 1:
                        low = split + 1
                    else:
                        high = split
                    pos, bitbuf, nbits, low, high, pending = _encoder_renorm(
                        out, pos, bitbuf, nbits, low, high, pending,
                        reg_half, reg_quarter, reg_three_quarters,
                    )

            # --- probability-estimator adaptation ------------------------ #
            leaf = num_leaves + symbol
            if counts[q, leaf] + increment > max_count:
                for i in range(num_leaves, num_leaves + num_leaves):
                    counts[q, i] >>= 1
                if counts[q, num_leaves + alphabet] < 1:
                    counts[q, num_leaves + alphabet] = 1
                for parent in range(num_leaves - 1, 0, -1):
                    counts[q, parent] = counts[q, parent + parent] + counts[q, parent + parent + 1]
                stats[1] += 1
            counts[q, leaf] += increment
            up = leaf >> 1
            while up:
                counts[q, up] += increment
                up >>= 1
            symbols_per_context[q] += 1

            # --- bias-corrector adaptation (Overflow Guard) -------------- #
            count = bias_counts[compound]
            if count < bias_count_max or aging != 0:
                total = bias_sums[compound]
                if count >= bias_count_max:
                    count >>= 1
                    if total < 0:
                        total = -((-total) >> 1)
                    else:
                        total = total >> 1
                count += 1
                total += error
                if total > sum_max:
                    total = sum_max
                elif total < -sum_max:
                    total = -sum_max
                bias_counts[compound] = count
                bias_sums[compound] = total
                if count == bias_count_max:
                    stats[3] += 1

            if error >= 0:
                twice_prev = error + error
            else:
                twice_prev = -error - error

    # Coder termination: one extra pending bit, then one disambiguating bit
    # (0 selects the lower quarter, 1 the upper) with its pending complement.
    pending += 1
    if low < reg_quarter:
        pos, bitbuf, nbits = _put_bit(out, pos, bitbuf, nbits, 0)
        while pending > 0:
            pos, bitbuf, nbits = _put_bit(out, pos, bitbuf, nbits, 1)
            pending -= 1
    else:
        pos, bitbuf, nbits = _put_bit(out, pos, bitbuf, nbits, 1)
        while pending > 0:
            pos, bitbuf, nbits = _put_bit(out, pos, bitbuf, nbits, 0)
            pending -= 1
    if nbits > 0:
        if pos < out.shape[0]:
            out[pos] = (bitbuf << (8 - nbits)) & 0xFF
        pos += 1
    return pos


@njit(cache=True, nogil=True)
def decode_cell_kernel(
    data,
    pixels,
    width,
    height,
    energy_lut,
    energy_lut_limit,
    top_level,
    levels,
    use_rom,
    rom,
    rom_shift,
    rom_rounding,
    dividend_max,
    sum_max,
    bias_count_max,
    aging,
    use_feedback,
    counts,
    num_leaves,
    depth,
    increment,
    max_count,
    alphabet,
    static_depth,
    bias_sums,
    bias_counts,
    maxv,
    size,
    mask,
    half,
    default,
    sharp,
    strong,
    weak,
    texture_mask,
    precision,
):
    """Fully inlined decoder over one cell payload.

    ``data`` is the raw payload (``uint8``, read only); ``pixels`` (``int64``,
    ``height * width``) receives the reconstruction and doubles as the
    causal window (rows decoded earlier are read back by index).  Returns
    one of the ``DECODE_*`` status codes.
    """
    reg_half = 1 << (precision - 1)
    reg_quarter = 1 << (precision - 2)
    reg_three_quarters = reg_half + reg_quarter
    max_phantom = 4 * precision
    byte_pos = 0
    bit_pos = 0
    phantom = 0
    low = 0
    high = (1 << precision) - 1
    code = 0
    for _ in range(precision):
        bit, byte_pos, bit_pos, phantom = _read_bit(data, byte_pos, bit_pos, phantom, max_phantom)
        if bit < 0:
            return DECODE_TRUNCATED
        code = (code << 1) | bit

    for y in range(height):
        row = y * width
        twice_prev = 0
        for x in range(width):
            # --- causal neighbourhood (three-row window, inlined) -------- #
            if x >= 1:
                w = pixels[row + x - 1]
            elif y >= 1:
                w = pixels[row - width]
            else:
                w = default
            ww = pixels[row + x - 2] if x >= 2 else w
            if y >= 1:
                n = pixels[row - width + x]
                nw = pixels[row - width + x - 1] if x >= 1 else n
                ne = pixels[row - width + x + 1] if x + 1 < width else n
            else:
                n = w
                nw = w
                ne = w
            if y >= 2:
                nn = pixels[row - width - width + x]
                nne = pixels[row - width - width + x + 1] if x + 1 < width else nn
            else:
                nn = n
                nne = ne

            # --- GAP prediction (inlined scalar cascade) ----------------- #
            dh = abs(w - ww) + abs(n - nw) + abs(n - ne)
            dv = abs(w - nw) + abs(n - nn) + abs(ne - nne)
            diff = dv - dh
            if diff > sharp:
                pred = w
            elif -diff > sharp:
                pred = n
            else:
                pred = ((w + n) >> 1) + ((ne - nw) >> 2)
                if diff > strong:
                    pred = (pred + w) >> 1
                elif diff > weak:
                    pred = (3 * pred + w) >> 2
                elif -diff > strong:
                    pred = (pred + n) >> 1
                elif -diff > weak:
                    pred = (3 * pred + n) >> 2
            if pred < 0:
                pred = 0
            elif pred > maxv:
                pred = maxv

            # --- texture pattern + coding context ------------------------ #
            pattern = 0
            if n < pred:
                pattern |= 1
            if w < pred:
                pattern |= 2
            if nw < pred:
                pattern |= 4
            if ne < pred:
                pattern |= 8
            if nn < pred:
                pattern |= 16
            if ww < pred:
                pattern |= 32
            pattern &= texture_mask
            energy = dh + dv + twice_prev
            if energy <= energy_lut_limit:
                q = energy_lut[energy]
            else:
                q = top_level
            compound = pattern * levels + q

            # --- error feedback ------------------------------------------ #
            adjusted = pred
            count = bias_counts[compound]
            if count != 0 and use_feedback != 0:
                total = bias_sums[compound]
                if total > dividend_max:
                    total = dividend_max
                elif total < -dividend_max:
                    total = -dividend_max
                if use_rom != 0:
                    if total < 0:
                        mean = -((-total * rom[count] + rom_rounding) >> rom_shift)
                    else:
                        mean = (total * rom[count] + rom_rounding) >> rom_shift
                else:
                    if total < 0:
                        mean = -((-total + count // 2) // count)
                    else:
                        mean = (total + count // 2) // count
                adjusted = adjusted + mean
                if adjusted < 0:
                    adjusted = 0
                elif adjusted > maxv:
                    adjusted = maxv

            # --- entropy decoding: tree walk + arithmetic coder ---------- #
            symbol = 0
            node = 1
            for _level in range(depth):
                left = counts[q, node + node]
                span = high - low + 1
                split = low + (span * left) // counts[q, node] - 1
                if code <= split:
                    if left <= 0:
                        return DECODE_IMPOSSIBLE
                    bit = 0
                    high = split
                else:
                    if left >= counts[q, node]:
                        return DECODE_IMPOSSIBLE
                    bit = 1
                    low = split + 1
                low, high, code, byte_pos, bit_pos, phantom, alive = _decoder_renorm(
                    data, low, high, code, byte_pos, bit_pos, phantom,
                    reg_half, reg_quarter, reg_three_quarters, max_phantom,
                )
                if alive == 0:
                    return DECODE_TRUNCATED
                symbol = (symbol << 1) | bit
                node = node + node + bit

            if symbol == alphabet:
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
                    low, high, code, byte_pos, bit_pos, phantom, alive = _decoder_renorm(
                        data, low, high, code, byte_pos, bit_pos, phantom,
                        reg_half, reg_quarter, reg_three_quarters, max_phantom,
                    )
                    if alive == 0:
                        return DECODE_TRUNCATED
                    symbol = (symbol << 1) | bit
                if symbol >= alphabet:
                    return DECODE_STATIC_OVERFLOW
            elif symbol > alphabet:
                return DECODE_PADDING_LEAF

            # --- probability-estimator adaptation ------------------------ #
            leaf = num_leaves + symbol
            if counts[q, leaf] + increment > max_count:
                for i in range(num_leaves, num_leaves + num_leaves):
                    counts[q, i] >>= 1
                if counts[q, num_leaves + alphabet] < 1:
                    counts[q, num_leaves + alphabet] = 1
                for parent in range(num_leaves - 1, 0, -1):
                    counts[q, parent] = counts[q, parent + parent] + counts[q, parent + parent + 1]
            counts[q, leaf] += increment
            up = leaf >> 1
            while up:
                counts[q, up] += increment
                up >>= 1

            # --- error unmapping + model commit -------------------------- #
            if symbol % 2 == 0:
                error = symbol >> 1
            else:
                error = -(symbol + 1) >> 1
            value = (adjusted + error) & mask

            count = bias_counts[compound]
            if count < bias_count_max or aging != 0:
                total = bias_sums[compound]
                if count >= bias_count_max:
                    count >>= 1
                    if total < 0:
                        total = -((-total) >> 1)
                    else:
                        total = total >> 1
                count += 1
                total += error
                if total > sum_max:
                    total = sum_max
                elif total < -sum_max:
                    total = -sum_max
                bias_counts[compound] = count
                bias_sums[compound] = total

            if error >= 0:
                twice_prev = error + error
            else:
                twice_prev = -error - error
            pixels[row + x] = value

    return DECODE_OK
