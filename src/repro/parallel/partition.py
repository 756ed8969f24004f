"""Horizontal stripe partitioning for the stripe-parallel codec.

The paper's multi-core option replicates the whole pipeline once per core
and hands every core a horizontal stripe of the image.  This module is the
software equivalent of that wiring: a deterministic, balanced partition of
the image rows that both the encoder and the decoder derive independently
(the container's stripe table stores payload *lengths*, not row counts, so
the partition itself must be a pure function of ``(height, stripes)``).

The partition is balanced — stripe heights differ by at most one row, the
taller stripes coming first — which minimises the wall-clock of the slowest
core.  ``plan_for_cores`` clamps the stripe count to the image height, so
asking for more cores than rows degrades gracefully to one-row stripes.

This module deliberately depends only on :mod:`repro.exceptions` and the
image container so the core decoder can import it without creating an
import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.exceptions import StripingError
from repro.imaging.image import GrayImage

__all__ = ["StripeSpec", "plan_stripes", "plan_for_cores", "extract_stripe"]


@dataclass(frozen=True)
class StripeSpec:
    """One horizontal stripe of an image partition."""

    index: int
    start_row: int
    row_count: int

    @property
    def stop_row(self) -> int:
        """First row *after* the stripe (exclusive bound)."""
        return self.start_row + self.row_count


def plan_stripes(height: int, stripes: int) -> List[StripeSpec]:
    """Partition ``height`` rows into exactly ``stripes`` balanced stripes.

    Stripe heights differ by at most one row; the first ``height % stripes``
    stripes carry the extra row.  Raises :class:`StripingError` when the
    request cannot be satisfied (more stripes than rows, or a non-positive
    count).
    """
    if height <= 0:
        raise StripingError("image height must be positive, got %d" % height)
    if stripes <= 0:
        raise StripingError("stripe count must be positive, got %d" % stripes)
    if stripes > height:
        raise StripingError(
            "cannot split %d rows into %d stripes" % (height, stripes)
        )
    base = height // stripes
    extra = height % stripes
    plan: List[StripeSpec] = []
    start = 0
    for index in range(stripes):
        rows = base + (1 if index < extra else 0)
        plan.append(StripeSpec(index=index, start_row=start, row_count=rows))
        start += rows
    return plan


def plan_for_cores(height: int, cores: int) -> List[StripeSpec]:
    """Partition for ``cores`` workers, clamping to at most one stripe per row.

    ``cores`` greater than the image height simply yields ``height``
    single-row stripes — the extra workers would have nothing to do.
    """
    if cores <= 0:
        raise StripingError("core count must be positive, got %d" % cores)
    return plan_stripes(height, min(cores, height))


def extract_stripe(image: GrayImage, spec: StripeSpec) -> GrayImage:
    """Return the sub-image covered by ``spec``."""
    if spec.start_row < 0 or spec.stop_row > image.height or spec.row_count <= 0:
        raise StripingError(
            "stripe rows [%d, %d) outside image of height %d"
            % (spec.start_row, spec.stop_row, image.height)
        )
    name = "%s-stripe%d" % (image.name, spec.index) if image.name else ""
    # A row slice of a read-only image array is itself a valid image array.
    return GrayImage._wrap(
        image.to_array()[spec.start_row : spec.stop_row], image.bit_depth, name
    )
