"""Image and bitstream metrics used by the benchmark harness.

The paper reports *bit rate* in bits per pixel (bpp): compressed size in bits
divided by the number of pixels.  This module provides that computation plus
the supporting statistics (first-order entropy, compression ratio, residual
statistics) the examples and EXPERIMENTS.md rely on.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, Sequence

import numpy as np

from repro.exceptions import ImageFormatError
from repro.imaging.image import GrayImage

__all__ = [
    "first_order_entropy",
    "bits_per_pixel",
    "compression_ratio",
    "images_identical",
    "mean_absolute_error",
    "residual_entropy",
    "gradient_statistics",
    "histogram",
]


def histogram(image: GrayImage) -> Dict[int, int]:
    """Return the pixel-value histogram as a dict ``value -> count``."""
    return dict(Counter(image.iter_pixels()))


def first_order_entropy(image: GrayImage) -> float:
    """Zeroth-order (memoryless) entropy of the pixel values, in bits/pixel."""
    counts = Counter(image.iter_pixels())
    total = image.pixel_count
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def residual_entropy(image: GrayImage) -> float:
    """Entropy of the horizontal first-difference signal, in bits/pixel.

    A quick estimate of how predictable the image is; lossless codecs with a
    good predictor land below this number, simple DPCM schemes land near it.
    """
    array = image.to_array()
    left = np.concatenate([array[:, :1], array[:, :-1]], axis=1)
    residual = (array - left).reshape(-1)
    counts = Counter(int(v) for v in residual)
    total = residual.size
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def gradient_statistics(image: GrayImage) -> Dict[str, float]:
    """Mean absolute horizontal/vertical gradients (texture indicators)."""
    array = image.to_array().astype(np.float64)
    dh = np.abs(np.diff(array, axis=1))
    dv = np.abs(np.diff(array, axis=0))
    return {
        "mean_abs_dh": float(np.mean(dh)) if dh.size else 0.0,
        "mean_abs_dv": float(np.mean(dv)) if dv.size else 0.0,
        "std": float(np.std(array)),
    }


def bits_per_pixel(compressed: bytes, image: GrayImage) -> float:
    """Bit rate of ``compressed`` relative to ``image`` (bits per pixel)."""
    if image.pixel_count == 0:
        raise ImageFormatError("cannot compute bpp of an empty image")
    return 8.0 * len(compressed) / image.pixel_count


def compression_ratio(compressed: bytes, image: GrayImage) -> float:
    """Uncompressed bits divided by compressed bits (higher is better)."""
    compressed_bits = 8 * len(compressed)
    if compressed_bits == 0:
        raise ImageFormatError("cannot compute ratio of an empty bitstream")
    return image.pixel_count * image.bit_depth / compressed_bits


def images_identical(first: GrayImage, second: GrayImage) -> bool:
    """True when both images have identical geometry, depth and samples."""
    return (
        first.width == second.width
        and first.height == second.height
        and first.bit_depth == second.bit_depth
        and bool(np.array_equal(first.to_array(), second.to_array()))
    )


def mean_absolute_error(first: GrayImage, second: GrayImage) -> float:
    """Mean absolute pixel difference (0.0 for a correct lossless codec)."""
    if first.width != second.width or first.height != second.height:
        raise ImageFormatError(
            "cannot compare %dx%d with %dx%d"
            % (first.width, first.height, second.width, second.height)
        )
    a = first.to_array()
    b = second.to_array()
    return float(np.mean(np.abs(a - b)))


def average_bits_per_pixel(results: Iterable[float]) -> float:
    """Arithmetic mean of a sequence of per-image bit rates (Table 1 bottom row)."""
    values: Sequence[float] = list(results)
    if not values:
        raise ImageFormatError("cannot average an empty result set")
    return sum(values) / len(values)
