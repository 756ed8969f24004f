"""Deterministic synthetic test-image corpus.

The paper evaluates on seven classic 512×512 grey-scale images (barb, boat,
goldhill, lena, mandrill, peppers, zelda).  Those images cannot be shipped
with this reproduction, so this module provides a *synthetic* stand-in
corpus: one seeded generator per image name, each combining smooth shading,
edges, oriented texture and sensor noise in proportions chosen so that the
generated image sits in the same "difficulty class" as the original — smooth
portraits compress to low bit rates, the fur-textured ``mandrill`` stand-in
compresses worst, the striped ``barb`` stand-in sits in between, and so on.

The corpus is fully deterministic: the same name, size and seed always
produce the identical image, so benchmark results are reproducible bit for
bit.

The composition model is additive:

``image = base shading + structures (edges) + oriented texture + noise``

with every component's amplitude controlled by the per-image
:class:`SyntheticSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import CorpusError
from repro.imaging.image import GrayImage
from repro.imaging.planar import PlanarImage

__all__ = [
    "SyntheticSpec",
    "CORPUS_IMAGE_NAMES",
    "CORPUS_SPECS",
    "generate_image",
    "generate_corpus",
    "generate_planar_image",
    "generate_gradient_image",
    "generate_noise_image",
    "generate_text_like_image",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic corpus image.

    Attributes
    ----------
    name:
        Corpus image name (matches the paper's Table 1 rows).
    base_scale:
        Spatial scale (as a fraction of image size) of the smooth shading
        component; larger values give broader, easier-to-predict shading.
    base_amplitude:
        Peak-to-peak amplitude of the smooth shading.
    edge_count:
        Number of random polygonal/elliptic structures composited into the
        image; these create the sharp edges that exercise the predictor's
        edge detection.
    edge_amplitude:
        Intensity step across structure boundaries.
    texture_amplitude:
        Amplitude of the oriented sinusoidal texture (the "striped trousers"
        of barb, the fur of mandrill).
    texture_frequency:
        Spatial frequency of that texture in cycles per image width.
    texture_orientations:
        Number of distinct stripe orientations blended together.
    noise_sigma:
        Standard deviation of the white Gaussian sensor noise.  This is the
        dominant control of the achievable lossless bit rate.
    description:
        Human-readable summary used in reports.
    """

    name: str
    base_scale: float
    base_amplitude: float
    edge_count: int
    edge_amplitude: float
    texture_amplitude: float
    texture_frequency: float
    texture_orientations: int
    noise_sigma: float
    description: str = ""


#: Per-image specifications.  Noise and texture levels are graded so the
#: relative compressibility ordering matches Table 1 of the paper:
#: zelda (easiest) < lena < boat < peppers < goldhill < barb < mandrill.
CORPUS_SPECS: Dict[str, SyntheticSpec] = {
    "barb": SyntheticSpec(
        name="barb",
        base_scale=0.35,
        base_amplitude=90.0,
        edge_count=14,
        edge_amplitude=55.0,
        texture_amplitude=34.0,
        texture_frequency=46.0,
        texture_orientations=3,
        noise_sigma=6.0,
        description="striped-textile stand-in: strong oriented high-frequency texture",
    ),
    "boat": SyntheticSpec(
        name="boat",
        base_scale=0.40,
        base_amplitude=100.0,
        edge_count=26,
        edge_amplitude=70.0,
        texture_amplitude=10.0,
        texture_frequency=24.0,
        texture_orientations=2,
        noise_sigma=4.6,
        description="man-made-scene stand-in: many straight edges, moderate detail",
    ),
    "goldhill": SyntheticSpec(
        name="goldhill",
        base_scale=0.30,
        base_amplitude=85.0,
        edge_count=32,
        edge_amplitude=45.0,
        texture_amplitude=16.0,
        texture_frequency=30.0,
        texture_orientations=2,
        noise_sigma=6.0,
        description="village-scene stand-in: dense small structures and roof texture",
    ),
    "lena": SyntheticSpec(
        name="lena",
        base_scale=0.45,
        base_amplitude=110.0,
        edge_count=12,
        edge_amplitude=60.0,
        texture_amplitude=9.0,
        texture_frequency=18.0,
        texture_orientations=2,
        noise_sigma=4.4,
        description="portrait stand-in: large smooth areas, a few strong edges",
    ),
    "mandrill": SyntheticSpec(
        name="mandrill",
        base_scale=0.40,
        base_amplitude=70.0,
        edge_count=8,
        edge_amplitude=40.0,
        texture_amplitude=40.0,
        texture_frequency=70.0,
        texture_orientations=4,
        noise_sigma=13.0,
        description="fur-texture stand-in: broadband texture, hardest to compress",
    ),
    "peppers": SyntheticSpec(
        name="peppers",
        base_scale=0.38,
        base_amplitude=105.0,
        edge_count=18,
        edge_amplitude=65.0,
        texture_amplitude=7.0,
        texture_frequency=14.0,
        texture_orientations=1,
        noise_sigma=5.0,
        description="smooth-blob stand-in: large glossy regions bounded by curved edges",
    ),
    "zelda": SyntheticSpec(
        name="zelda",
        base_scale=0.50,
        base_amplitude=95.0,
        edge_count=10,
        edge_amplitude=45.0,
        texture_amplitude=5.0,
        texture_frequency=12.0,
        texture_orientations=1,
        noise_sigma=3.8,
        description="soft-portrait stand-in: the smoothest, most predictable image",
    ),
}

#: Table 1 image order.
CORPUS_IMAGE_NAMES: Tuple[str, ...] = (
    "barb",
    "boat",
    "goldhill",
    "lena",
    "mandrill",
    "peppers",
    "zelda",
)

#: Seed offset per image so different images use decorrelated random streams.
_NAME_SEED_OFFSET = {name: index * 1009 for index, name in enumerate(CORPUS_IMAGE_NAMES)}


def _smooth_base(rng: np.random.Generator, size: int, spec: SyntheticSpec) -> np.ndarray:
    """Low-frequency shading: heavily blurred white noise plus a ramp."""
    from scipy.ndimage import gaussian_filter

    noise = rng.standard_normal((size, size))
    sigma = max(2.0, spec.base_scale * size / 4.0)
    shading = gaussian_filter(noise, sigma=sigma, mode="reflect")
    peak = np.max(np.abs(shading)) or 1.0
    shading = shading / peak * (spec.base_amplitude / 2.0)
    ramp_direction = rng.uniform(0.0, 2.0 * np.pi)
    ys, xs = np.mgrid[0:size, 0:size]
    ramp = (
        (xs * np.cos(ramp_direction) + ys * np.sin(ramp_direction))
        / size
        * (spec.base_amplitude / 3.0)
    )
    return shading + ramp


def _structures(rng: np.random.Generator, size: int, spec: SyntheticSpec) -> np.ndarray:
    """Sharp-edged elliptical and rectangular structures."""
    from scipy.ndimage import gaussian_filter

    canvas = np.zeros((size, size))
    ys, xs = np.mgrid[0:size, 0:size]
    for _ in range(spec.edge_count):
        kind = rng.integers(0, 2)
        cx, cy = rng.uniform(0, size, size=2)
        amplitude = rng.uniform(0.4, 1.0) * spec.edge_amplitude * rng.choice([-1.0, 1.0])
        if kind == 0:
            # Rotated ellipse.
            a = rng.uniform(0.05, 0.30) * size
            b = rng.uniform(0.05, 0.30) * size
            theta = rng.uniform(0, np.pi)
            xr = (xs - cx) * np.cos(theta) + (ys - cy) * np.sin(theta)
            yr = -(xs - cx) * np.sin(theta) + (ys - cy) * np.cos(theta)
            mask = (xr / a) ** 2 + (yr / b) ** 2 <= 1.0
        else:
            # Axis-aligned rectangle.
            w = rng.uniform(0.05, 0.35) * size
            h = rng.uniform(0.05, 0.35) * size
            mask = (np.abs(xs - cx) <= w / 2) & (np.abs(ys - cy) <= h / 2)
        canvas[mask] += amplitude
    # A touch of blur keeps edges a couple of pixels wide, like optics would.
    return gaussian_filter(canvas, sigma=0.6, mode="reflect")


def _oriented_texture(rng: np.random.Generator, size: int, spec: SyntheticSpec) -> np.ndarray:
    """Oriented sinusoidal texture with spatially varying amplitude."""
    from scipy.ndimage import gaussian_filter

    if spec.texture_amplitude <= 0 or spec.texture_orientations <= 0:
        return np.zeros((size, size))
    ys, xs = np.mgrid[0:size, 0:size]
    texture = np.zeros((size, size))
    for _ in range(spec.texture_orientations):
        theta = rng.uniform(0, np.pi)
        frequency = spec.texture_frequency * rng.uniform(0.7, 1.3)
        phase = rng.uniform(0, 2 * np.pi)
        carrier = np.sin(
            2 * np.pi * frequency * (xs * np.cos(theta) + ys * np.sin(theta)) / size
            + phase
        )
        envelope = gaussian_filter(
            rng.standard_normal((size, size)), sigma=size / 10.0, mode="reflect"
        )
        envelope = np.abs(envelope)
        envelope /= np.max(envelope) or 1.0
        texture += carrier * envelope
    texture /= spec.texture_orientations
    return texture * spec.texture_amplitude


def generate_image(
    name: str,
    size: int = 512,
    seed: int = 2007,
    spec: Optional[SyntheticSpec] = None,
) -> GrayImage:
    """Generate one synthetic corpus image.

    Parameters
    ----------
    name:
        One of :data:`CORPUS_IMAGE_NAMES` (or any name when ``spec`` is given).
    size:
        Image width and height in pixels (the corpus is square).
    seed:
        Base random seed; the image name adds a fixed offset so each image
        uses an independent random stream.
    spec:
        Override the built-in :class:`SyntheticSpec` for custom experiments.
    """
    if spec is None:
        try:
            spec = CORPUS_SPECS[name]
        except KeyError as exc:
            raise CorpusError(
                "unknown corpus image %r; expected one of %s"
                % (name, ", ".join(CORPUS_IMAGE_NAMES))
            ) from exc
    if size < 16:
        raise CorpusError("corpus images must be at least 16x16, got %d" % size)

    rng = np.random.default_rng(seed + _NAME_SEED_OFFSET.get(name, hash(name) % 7919))
    base = _smooth_base(rng, size, spec)
    structures = _structures(rng, size, spec)
    texture = _oriented_texture(rng, size, spec)
    noise = rng.standard_normal((size, size)) * spec.noise_sigma

    composite = 128.0 + base + structures + texture + noise
    return GrayImage.from_array(composite, bit_depth=8, name=name)


def generate_corpus(
    size: int = 512,
    seed: int = 2007,
    names: Optional[Tuple[str, ...]] = None,
) -> List[GrayImage]:
    """Generate the full seven-image corpus (or a subset given ``names``)."""
    selected = names if names is not None else CORPUS_IMAGE_NAMES
    images = []
    for name in selected:
        images.append(generate_image(name, size=size, seed=seed))
    return images


def generate_planar_image(
    name: str,
    size: int = 512,
    seed: int = 2007,
    planes: int = 3,
) -> PlanarImage:
    """Generate a multi-component (default RGB) synthetic corpus image.

    The planes share the corpus image's luminance structure and differ by a
    per-plane gain, a low-frequency chroma field and independent sensor
    noise — the strong inter-plane correlation natural photographs have,
    which is what makes the inter-plane delta predictor of
    :mod:`repro.core.components` pay off.
    """
    from scipy.ndimage import gaussian_filter

    if not 1 <= planes <= 255:
        raise CorpusError("plane count must be in [1, 255], got %d" % planes)
    base = generate_image(name, size=size, seed=seed).to_array().astype(np.float64)
    plane_images = []
    for k in range(planes):
        # generate_image above already rejected non-corpus names, so the
        # offset lookup cannot miss (no hash() fallback: str hashing is
        # per-process and would break the corpus's determinism).
        rng = np.random.default_rng(seed + _NAME_SEED_OFFSET[name] + 104729 * (k + 1))
        gain = 1.0 + (k - (planes - 1) / 2.0) * 0.06
        chroma = gaussian_filter(
            rng.standard_normal((size, size)), sigma=max(2.0, size / 6.0), mode="reflect"
        )
        peak = np.max(np.abs(chroma)) or 1.0
        chroma = chroma / peak * 14.0
        noise = rng.standard_normal((size, size)) * 1.5
        label = "RGB"[k] if planes == 3 else "band%d" % k
        plane_images.append(
            GrayImage.from_array(base * gain + chroma + noise, bit_depth=8, name=label)
        )
    return PlanarImage(plane_images, name=name)


# --------------------------------------------------------------------------- #
# Generic generators used by the test-suite and the universal-compressor demo
# --------------------------------------------------------------------------- #


def generate_gradient_image(size: int = 64, direction: str = "horizontal") -> GrayImage:
    """A perfectly smooth ramp — the easiest possible input for a predictor."""
    ys, xs = np.mgrid[0:size, 0:size]
    if direction == "horizontal":
        values = xs
    elif direction == "vertical":
        values = ys
    elif direction == "diagonal":
        values = (xs + ys) / 2.0
    else:
        raise CorpusError("unknown gradient direction %r" % direction)
    scaled = values / max(1, size - 1) * 255.0
    return GrayImage.from_array(scaled, name="gradient-%s" % direction)


def generate_noise_image(size: int = 64, seed: int = 0, bit_depth: int = 8) -> GrayImage:
    """Uniform white noise — incompressible, the worst case for every codec."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, (1 << bit_depth), size=(size, size))
    return GrayImage.from_array(values, bit_depth=bit_depth, name="noise")


def generate_text_like_image(size: int = 64, seed: int = 1) -> GrayImage:
    """A bi-level, text-like image (runs of black strokes on white)."""
    rng = np.random.default_rng(seed)
    canvas = np.full((size, size), 235.0)
    line_height = max(4, size // 16)
    for top in range(2, size - line_height, line_height + 2):
        x = 2
        while x < size - 4:
            stroke = rng.integers(1, 5)
            gap = rng.integers(1, 4)
            if rng.random() < 0.75:
                canvas[top : top + line_height - 1, x : x + stroke] = 25.0
            x += stroke + gap
    return GrayImage.from_array(canvas, name="text")
