"""Multi-component (planar) image container.

:class:`PlanarImage` holds ``N`` co-registered sample planes — RGB colour,
multi-band sensor payloads, or any stack of equally sized components — as a
single read-only ``(planes, height, width)`` int64 array; each plane is a
:class:`~repro.imaging.image.GrayImage` over a view of it, so all planes
share one geometry and bit depth.  The codecs treat every plane as an
independent grey-scale image (optionally after the inter-plane delta
predictor of :mod:`repro.core.components`), which is what lets the
single-plane pipeline serve colour traffic unchanged.

Planes are stored planar (one full plane after another), not interleaved;
:meth:`PlanarImage.to_array` is a pixel-interleaved ``(H, W, C)`` view of
them, and the PPM/PAM writers in :mod:`repro.imaging.pnm` interleave as
they render.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ImageFormatError
from repro.imaging.image import GrayImage

__all__ = ["PlanarImage", "MAX_PLANES", "RGB_PLANE_NAMES", "default_plane_names"]

#: Largest number of components a :class:`PlanarImage` (and the version-3
#: container, which stores the count in one byte) can carry.
MAX_PLANES = 255

#: Conventional plane labels applied to three-plane images.
RGB_PLANE_NAMES: Tuple[str, ...] = ("R", "G", "B")


def default_plane_names(count: int) -> Tuple[str, ...]:
    """Conventional plane labels: R/G/B for three planes, unnamed otherwise."""
    return RGB_PLANE_NAMES if count == 3 else ("",) * count


class PlanarImage:
    """An immutable stack of ``N`` equally sized, equally deep sample planes.

    Parameters
    ----------
    planes:
        The component planes, in order (e.g. R, G, B).  Every plane must have
        the same width, height and bit depth; between 1 and ``MAX_PLANES``
        planes are accepted.
    name:
        Optional label used in reports.

    Equality compares geometry, bit depth and samples — plane labels and the
    image name are ignored, mirroring :class:`GrayImage`.
    """

    __slots__ = ("_array", "_planes", "_name")

    def __init__(self, planes: Iterable[GrayImage], name: str = "") -> None:
        plane_tuple = tuple(planes)
        if not 1 <= len(plane_tuple) <= MAX_PLANES:
            raise ImageFormatError(
                "a planar image needs 1-%d planes, got %d" % (MAX_PLANES, len(plane_tuple))
            )
        first = plane_tuple[0]
        if not isinstance(first, GrayImage):
            raise ImageFormatError(
                "planes must be GrayImage instances, got %s" % type(first).__name__
            )
        for index, plane in enumerate(plane_tuple[1:], start=1):
            if not isinstance(plane, GrayImage):
                raise ImageFormatError(
                    "planes must be GrayImage instances, got %s" % type(plane).__name__
                )
            if (
                plane.width != first.width
                or plane.height != first.height
                or plane.bit_depth != first.bit_depth
            ):
                raise ImageFormatError(
                    "plane %d is %dx%d depth=%d but plane 0 is %dx%d depth=%d"
                    % (
                        index,
                        plane.width,
                        plane.height,
                        plane.bit_depth,
                        first.width,
                        first.height,
                        first.bit_depth,
                    )
                )
        array = np.stack([plane.to_array() for plane in plane_tuple])
        array.flags.writeable = False
        self._init(array, first.bit_depth, [plane.name for plane in plane_tuple], name)

    def _init(
        self, array: np.ndarray, bit_depth: int, plane_names: Sequence[str], name: str
    ) -> None:
        self._array = array
        self._planes = tuple(
            GrayImage._wrap(plane, bit_depth, label) for plane, label in zip(array, plane_names)
        )
        self._name = name

    @classmethod
    def _wrap(
        cls,
        array: np.ndarray,
        bit_depth: int,
        plane_names: Optional[Sequence[str]] = None,
        name: str = "",
    ) -> "PlanarImage":
        """Adopt a read-only, in-range ``(planes, H, W)`` int64 array without copying.

        The same contract as :meth:`GrayImage._wrap
        <repro.imaging.image.GrayImage._wrap>`: only for arrays this package
        produced and nobody writes to.
        """
        if plane_names is None:
            plane_names = default_plane_names(array.shape[0])
        image = cls.__new__(cls)
        image._init(array, bit_depth, plane_names, name)
        return image

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_array(
        cls,
        array: np.ndarray,
        bit_depth: int = 8,
        name: str = "",
        plane_names: Optional[Sequence[str]] = None,
    ) -> "PlanarImage":
        """Build a planar image from an ``(H, W, C)`` numpy array."""
        if array.ndim != 3:
            raise ImageFormatError(
                "expected an (H, W, C) array, got %d dimensions" % array.ndim
            )
        height, width, count = array.shape
        if not 1 <= count <= MAX_PLANES:
            raise ImageFormatError(
                "a planar image needs 1-%d planes, got %d" % (MAX_PLANES, count)
            )
        if plane_names is None:
            plane_names = default_plane_names(count)
        elif len(plane_names) != count:
            raise ImageFormatError(
                "got %d plane names for %d planes" % (len(plane_names), count)
            )
        planes = [
            GrayImage.from_array(array[:, :, k], bit_depth=bit_depth, name=plane_names[k])
            for k in range(count)
        ]
        return cls(planes, name=name)

    @classmethod
    def from_gray(cls, image: GrayImage, name: str = "") -> "PlanarImage":
        """Wrap a grey-scale image as a one-plane planar image."""
        return cls([image], name=name or image.name)

    @classmethod
    def rgb(cls, red: GrayImage, green: GrayImage, blue: GrayImage, name: str = "") -> "PlanarImage":
        """Build a three-plane colour image with conventional plane labels."""
        return cls(
            [
                red.with_name("R"),
                green.with_name("G"),
                blue.with_name("B"),
            ],
            name=name,
        )

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def width(self) -> int:
        return self._planes[0].width

    @property
    def height(self) -> int:
        return self._planes[0].height

    @property
    def bit_depth(self) -> int:
        return self._planes[0].bit_depth

    @property
    def name(self) -> str:
        return self._name

    @property
    def num_planes(self) -> int:
        return len(self._planes)

    @property
    def max_value(self) -> int:
        """Largest representable sample value."""
        return self._planes[0].max_value

    @property
    def pixel_count(self) -> int:
        """Pixels per plane (not total samples; see :attr:`sample_count`)."""
        return self._planes[0].pixel_count

    @property
    def sample_count(self) -> int:
        """Total number of samples across all planes."""
        return self.pixel_count * self.num_planes

    @property
    def plane_names(self) -> Tuple[str, ...]:
        return tuple(plane.name for plane in self._planes)

    def plane(self, index: int) -> GrayImage:
        """Return component plane ``index`` (bounds-checked)."""
        if not 0 <= index < len(self._planes):
            raise ImageFormatError(
                "plane %d outside image of %d planes" % (index, len(self._planes))
            )
        return self._planes[index]

    def planes(self) -> Tuple[GrayImage, ...]:
        """Return all planes, in order."""
        return self._planes

    def to_array(self) -> np.ndarray:
        """Return the image as a read-only ``(H, W, C)`` int64 view (no copy)."""
        return self._array.transpose(1, 2, 0)

    def interleaved_samples(self) -> List[int]:
        """Return samples in pixel-interleaved order (r g b r g b ...)."""
        return self.to_array().reshape(-1).tolist()

    def gray(self) -> GrayImage:
        """Unwrap a single-plane image back to :class:`GrayImage`."""
        if len(self._planes) != 1:
            raise ImageFormatError(
                "cannot view a %d-plane image as grey-scale" % len(self._planes)
            )
        return self._planes[0]

    def with_name(self, name: str) -> "PlanarImage":
        """Return a copy of this image carrying a different label."""
        return PlanarImage._wrap(self._array, self.bit_depth, self.plane_names, name)

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanarImage):
            return NotImplemented
        return self.bit_depth == other.bit_depth and bool(
            np.array_equal(self._array, other._array)
        )

    def __hash__(self) -> int:
        return hash((self._array.shape, self.bit_depth, self._array.tobytes()))

    def __repr__(self) -> str:
        label = " %r" % self._name if self._name else ""
        return "<PlanarImage%s %dx%dx%d depth=%d>" % (
            label,
            self.width,
            self.height,
            self.num_planes,
            self.bit_depth,
        )
