"""Grey-scale image container.

All codecs in this package operate on :class:`GrayImage`: a small, immutable
wrapper around one read-only ``(height, width)`` int64 numpy array with an
explicit bit depth.  The array is the image: :meth:`GrayImage.to_array`
hands it out without copying, and the Netpbm writers render it directly.
The per-pixel accessors (:meth:`~GrayImage.pixels`, :meth:`~GrayImage.row`,
:meth:`~GrayImage.get`, :meth:`~GrayImage.iter_pixels`) return plain Python
integers for the integer-exact per-pixel loops of the reference engine and
the baselines; the list behind them is built on first use only.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ImageFormatError

__all__ = ["GrayImage", "first_out_of_range"]


def first_out_of_range(samples: np.ndarray, max_value: int) -> Optional[int]:
    """The first sample (raster order) outside ``[0, max_value]``, or ``None``."""
    if samples.size and (samples.min() < 0 or samples.max() > max_value):
        flat = samples.reshape(-1)
        return int(flat[np.flatnonzero((flat < 0) | (flat > max_value))[0]])
    return None


class GrayImage:
    """An immutable grey-scale image of ``height`` x ``width`` pixels.

    Parameters
    ----------
    width, height:
        Image dimensions in pixels; both must be positive.
    pixels:
        ``width * height`` integer samples in row-major order: a flat
        sequence or any numpy array of that size.  They are copied, so
        later changes to the source do not reach the image.
    bit_depth:
        Bits per sample (1-16).  All samples must lie in
        ``[0, 2**bit_depth - 1]``.
    name:
        Optional label used in reports (e.g. the corpus image name).
    """

    __slots__ = ("_width", "_height", "_array", "_bit_depth", "_name", "_samples")

    def __init__(
        self,
        width: int,
        height: int,
        pixels: Union[np.ndarray, Sequence[int]],
        bit_depth: int = 8,
        name: str = "",
    ) -> None:
        if width <= 0 or height <= 0:
            raise ImageFormatError(
                "image dimensions must be positive, got %dx%d" % (width, height)
            )
        if not 1 <= bit_depth <= 16:
            raise ImageFormatError("bit_depth must be in [1, 16], got %d" % bit_depth)
        try:
            array = np.array(pixels, dtype=np.int64)  # always a private copy
        except OverflowError as exc:
            raise ImageFormatError("pixel value outside the int64 range: %s" % exc) from exc
        if array.size != width * height:
            raise ImageFormatError(
                "expected %d pixels for %dx%d image, got %d"
                % (width * height, width, height, array.size)
            )
        max_value = (1 << bit_depth) - 1
        bad = first_out_of_range(array, max_value)
        if bad is not None:
            raise ImageFormatError(
                "pixel value %d outside [0, %d] for bit depth %d" % (bad, max_value, bit_depth)
            )
        array.flags.writeable = False
        self._init(array.reshape(height, width), bit_depth, name)

    def _init(self, array: np.ndarray, bit_depth: int, name: str) -> None:
        self._height, self._width = array.shape
        # Hand out a view, never the owner: numpy refuses to make a view of
        # a read-only array writeable again.
        self._array = array.view() if array.base is None else array
        self._bit_depth = bit_depth
        self._name = name
        self._samples: Optional[List[int]] = None

    @classmethod
    def _wrap(cls, array: np.ndarray, bit_depth: int, name: str = "") -> "GrayImage":
        """Adopt a read-only, in-range ``(height, width)`` int64 array without copying.

        For arrays this package produced itself (decoded cells, planes of a
        :class:`~repro.imaging.planar.PlanarImage`); the caller vouches for
        the dtype, the range and that nothing writes to the array.
        """
        image = cls.__new__(cls)
        image._init(array, bit_depth, name)
        return image

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_array(cls, array: np.ndarray, bit_depth: int = 8, name: str = "") -> "GrayImage":
        """Build an image from a 2-D numpy array (values are clipped)."""
        if array.ndim != 2:
            raise ImageFormatError(
                "expected a 2-D array, got %d dimensions" % array.ndim
            )
        max_value = (1 << bit_depth) - 1
        clipped = np.clip(np.rint(array), 0, max_value)
        height, width = clipped.shape
        return cls(width, height, clipped, bit_depth, name)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], bit_depth: int = 8, name: str = "") -> "GrayImage":
        """Build an image from a list of equal-length rows."""
        if not rows:
            raise ImageFormatError("cannot build an image from zero rows")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ImageFormatError("rows have inconsistent lengths")
        return cls(width, len(rows), [v for row in rows for v in row], bit_depth, name)

    @classmethod
    def constant(cls, width: int, height: int, value: int, bit_depth: int = 8, name: str = "") -> "GrayImage":
        """Build an image filled with a single value."""
        return cls(width, height, [value] * (width * height), bit_depth, name)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def width(self) -> int:
        return self._width

    @property
    def height(self) -> int:
        return self._height

    @property
    def bit_depth(self) -> int:
        return self._bit_depth

    @property
    def name(self) -> str:
        return self._name

    @property
    def max_value(self) -> int:
        """Largest representable sample value."""
        return (1 << self._bit_depth) - 1

    @property
    def pixel_count(self) -> int:
        return self._width * self._height

    def _sample_list(self) -> List[int]:
        """The row-major samples as Python ints, built on first use."""
        samples = self._samples
        if samples is None:
            samples = self._samples = self._array.reshape(-1).tolist()
        return samples

    def get(self, x: int, y: int) -> int:
        """Return the sample at column ``x``, row ``y`` (bounds-checked)."""
        if not 0 <= x < self._width or not 0 <= y < self._height:
            raise ImageFormatError(
                "pixel (%d, %d) outside %dx%d image"
                % (x, y, self._width, self._height)
            )
        return self._sample_list()[y * self._width + x]

    def row(self, y: int) -> List[int]:
        """Return row ``y`` as a list."""
        if not 0 <= y < self._height:
            raise ImageFormatError("row %d outside image of height %d" % (y, self._height))
        start = y * self._width
        return self._sample_list()[start : start + self._width]

    def pixels(self) -> List[int]:
        """Return a copy of the row-major pixel list."""
        return list(self._sample_list())

    def iter_pixels(self) -> Iterable[int]:
        """Iterate over pixels in raster order without copying."""
        return iter(self._sample_list())

    def to_array(self) -> np.ndarray:
        """Return the image's read-only ``(height, width)`` int64 array (no copy)."""
        return self._array

    def to_bytes(self) -> bytes:
        """Serialise the raw samples (big-endian 16-bit when depth > 8)."""
        return self._array.astype(np.uint8 if self._bit_depth <= 8 else ">u2").tobytes()

    def with_name(self, name: str) -> "GrayImage":
        """Return a copy of this image carrying a different label."""
        return GrayImage._wrap(self._array, self._bit_depth, name)

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #

    def __reduce__(self):
        return (
            GrayImage,
            (self._width, self._height, self._array, self._bit_depth, self._name),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self._bit_depth == other._bit_depth and bool(
            np.array_equal(self._array, other._array)
        )

    def __hash__(self) -> int:
        return hash((self._width, self._height, self._bit_depth, self._array.tobytes()))

    def __repr__(self) -> str:
        label = " %r" % self._name if self._name else ""
        return "<GrayImage%s %dx%d depth=%d>" % (
            label,
            self._width,
            self._height,
            self._bit_depth,
        )
