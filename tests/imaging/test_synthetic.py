"""Tests for the synthetic corpus generators."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import CorpusError
from repro.imaging.metrics import first_order_entropy, gradient_statistics, residual_entropy
from repro.imaging.synthetic import (
    CORPUS_IMAGE_NAMES,
    CORPUS_SPECS,
    generate_corpus,
    generate_gradient_image,
    generate_image,
    generate_noise_image,
    generate_text_like_image,
)


class TestCorpusGenerators:
    def test_all_seven_names_exist(self):
        assert set(CORPUS_IMAGE_NAMES) == set(CORPUS_SPECS)
        assert len(CORPUS_IMAGE_NAMES) == 7

    def test_generation_is_deterministic(self):
        a = generate_image("lena", size=48, seed=123)
        b = generate_image("lena", size=48, seed=123)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_image("lena", size=48, seed=1) != generate_image("lena", size=48, seed=2)

    def test_different_names_differ(self):
        assert generate_image("lena", size=48) != generate_image("boat", size=48)

    def test_geometry_and_depth(self):
        image = generate_image("peppers", size=40)
        assert image.width == image.height == 40
        assert image.bit_depth == 8
        assert image.name == "peppers"

    def test_unknown_name_rejected(self):
        with pytest.raises(CorpusError):
            generate_image("does-not-exist", size=32)

    def test_too_small_size_rejected(self):
        with pytest.raises(CorpusError):
            generate_image("lena", size=8)

    def test_custom_spec_allows_new_names(self):
        spec = CORPUS_SPECS["lena"]
        image = generate_image("my-image", size=32, spec=spec)
        assert image.name == "my-image"

    def test_generate_corpus_default(self):
        corpus = generate_corpus(size=32)
        assert [image.name for image in corpus] == list(CORPUS_IMAGE_NAMES)

    def test_generate_corpus_subset(self):
        corpus = generate_corpus(size=32, names=("zelda", "barb"))
        assert [image.name for image in corpus] == ["zelda", "barb"]

    def test_difficulty_ordering_matches_paper(self):
        """The corpus must preserve the paper's compressibility ordering at the
        extremes: mandrill (texture) hardest, zelda (smooth) easiest."""
        size = 96
        residuals = {
            name: residual_entropy(generate_image(name, size=size))
            for name in ("mandrill", "zelda", "lena", "barb")
        }
        assert residuals["mandrill"] > residuals["barb"]
        assert residuals["mandrill"] > residuals["lena"]
        assert residuals["zelda"] < residuals["barb"]
        assert residuals["zelda"] < residuals["mandrill"]

    def test_entropy_in_plausible_band(self):
        for name in CORPUS_IMAGE_NAMES:
            entropy = first_order_entropy(generate_image(name, size=64))
            assert 4.0 < entropy <= 8.0, name

    def test_texture_images_have_larger_gradients(self):
        mandrill = gradient_statistics(generate_image("mandrill", size=64))
        zelda = gradient_statistics(generate_image("zelda", size=64))
        assert mandrill["mean_abs_dh"] > zelda["mean_abs_dh"]


class TestGenericGenerators:
    @pytest.mark.parametrize("direction", ["horizontal", "vertical", "diagonal"])
    def test_gradient_directions(self, direction):
        image = generate_gradient_image(24, direction=direction)
        assert image.width == 24
        assert min(image.iter_pixels()) == 0
        assert max(image.iter_pixels()) == 255

    def test_gradient_unknown_direction(self):
        with pytest.raises(CorpusError):
            generate_gradient_image(24, direction="sideways")

    def test_noise_image_covers_range(self):
        image = generate_noise_image(48, seed=0)
        assert first_order_entropy(image) > 7.5

    def test_noise_image_deterministic(self):
        assert generate_noise_image(24, seed=3) == generate_noise_image(24, seed=3)

    def test_text_image_is_mostly_bi_level(self):
        image = generate_text_like_image(48)
        values = set(image.iter_pixels())
        assert values <= {25, 235}


class TestLazyScipy:
    def test_serving_entry_points_do_not_import_scipy(self):
        # Only the corpus generators need SciPy; the server and worker
        # processes must not pay its import time and memory at start-up.
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ))
        code = (
            "import sys, repro.serve.cli, repro.serve.worker; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_generators_still_use_scipy(self):
        assert generate_image("lena", size=16) == generate_image("lena", size=16)
        assert "scipy.ndimage" in sys.modules
