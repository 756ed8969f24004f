"""Seeded benchmark inputs and the bytes every response must equal.

Images are drawn with the benchmark's own numpy generator, never the
package's, so a change to ``repro.imaging.synthetic`` cannot change what
the benchmark feeds the server.  Read workloads upload pre-encoded
``.rplc`` containers.  Every run encodes them afresh, before any clock
starts, with this checkout's encoder (the container format is the
program's) on the fastest registered engine; every engine writes the same
bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

#: Seed of the fixed calibration set every workload PUTs during set-up.
CALIBRATION_SEED = 20070101


@dataclass(frozen=True)
class SourceImage:
    """One input image: ``(planes, height, width)`` uint8 samples plus its grid."""

    samples: np.ndarray
    stripes: int

    @property
    def planes(self) -> int:
        return int(self.samples.shape[0])

    @property
    def height(self) -> int:
        return int(self.samples.shape[1])

    @property
    def width(self) -> int:
        return int(self.samples.shape[2])

    @property
    def sample_count(self) -> int:
        return int(self.samples.size)

    @property
    def rows_per_stripe(self) -> int:
        return self.height // self.stripes

    def netpbm(self) -> bytes:
        """The whole image as binary Netpbm (P5 grey, P6 colour)."""
        return self.region_netpbm(0, self.stripes)

    def region_netpbm(self, start: int, stop: int) -> bytes:
        """The Netpbm bytes a region GET over stripes ``[start, stop)`` must return."""
        rows = self.samples[:, start * self.rows_per_stripe : stop * self.rows_per_stripe, :]
        magic = b"P6" if self.planes == 3 else b"P5"
        head = b"%s\n%d %d\n255\n" % (magic, self.width, rows.shape[1])
        return head + np.ascontiguousarray(np.moveaxis(rows, 0, -1)).tobytes()


def synth_image(rng: np.random.Generator, width: int, height: int, stripes: int) -> SourceImage:
    """A photo-like RGB image: smooth structure, correlated planes, sensor noise.

    The stripe count must divide the height, so every stripe has the same
    row count and the expected region bytes need no knowledge of the
    server's stripe planner.
    """
    if height % stripes:
        raise ValueError("height %d is not a multiple of %d stripes" % (height, stripes))
    y, x = np.mgrid[0:height, 0:width].astype(np.float64)
    fx, fy, fd = rng.uniform(6.0, 40.0, 3)
    px, py = rng.uniform(0.0, 2.0 * np.pi, 2)
    base = (
        128.0
        + 55.0 * np.sin(x / fx + px) * np.cos(y / fy + py)
        + 25.0 * np.sin((x + y) / fd)
        + rng.normal(0.0, 4.0, (height, width))
    )
    planes = []
    for k in range(3):
        gain = 1.0 + 0.06 * (k - 1)
        plane = base * gain + rng.uniform(-12.0, 12.0) + rng.normal(0.0, 2.0, (height, width))
        planes.append(np.clip(np.rint(plane), 0, 255).astype(np.uint8))
    return SourceImage(np.stack(planes), stripes)


def synth_set(seed: int, stream: str, count: int, width: int, height: int, stripes: int) -> List[SourceImage]:
    """``count`` images from an independent random stream per (seed, purpose)."""
    tag = int.from_bytes(hashlib.sha256(stream.encode("ascii")).digest()[:4], "big")
    rng = np.random.default_rng([seed, tag])
    return [synth_image(rng, width, height, stripes) for _ in range(count)]


def calibration_set() -> List[SourceImage]:
    """Fixed images (the same for every seed) whose stored size guards the format."""
    return synth_set(CALIBRATION_SEED, "calibration", 8, 32, 32, 4)


def fastest_engine() -> str:
    """The engine that encodes inputs quickest here; every engine writes the same bytes."""
    from repro.core.interface import engine_names

    names = engine_names()
    for name in ("native", "fast"):
        if name in names:
            return name
    return "reference"


def encode_container(image: SourceImage) -> bytes:
    """Encode ``image`` with the package's cell-grid encoder."""
    from repro.core.cellgrid import encode_grid
    from repro.core.config import CodecConfig
    from repro.imaging.image import GrayImage
    from repro.imaging.planar import PlanarImage

    planar = PlanarImage(
        [GrayImage.from_array(plane.astype(np.int64), bit_depth=8) for plane in image.samples]
    )
    stream, _ = encode_grid(
        planar, CodecConfig.hardware(bit_depth=8), engine=fastest_engine(), stripes=image.stripes
    )
    return stream


def containers(images: Sequence[SourceImage]) -> List[bytes]:
    """Encoded containers for ``images``."""
    return [encode_container(image) for image in images]


def poisson_schedule(seed: int, rate: float, duration: float) -> List[float]:
    """Due offsets (seconds) of a Poisson arrival process over ``duration``."""
    rng = np.random.default_rng([seed, 7])
    offsets: List[float] = []
    now = 0.0
    while True:
        now += float(rng.exponential(1.0 / rate))
        if now >= duration:
            return offsets
        offsets.append(now)
