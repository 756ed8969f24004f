"""The unified (planes x stripes) cell-grid pipeline.

Every stream this package writes — grey-scale or planar, serial or
stripe-parallel, reference or fast engine — is the same thing underneath: a
grid of ``planes x stripes`` cells, each cell an independently entropy-coded
payload with fresh adaptive state.  This module is the one place that grid
is planned, fanned out, and reassembled; :mod:`repro.core.encoder`,
:mod:`repro.core.components` and :mod:`repro.parallel.codec` are thin
wrappers over it, so serial, parallel, grey and planar all run the same
code path and cannot drift apart.

A :class:`~repro.imaging.image.GrayImage` is simply the one-plane special
case of the grid; the container version is the only thing that
distinguishes the front-ends:

* grey, single cell, ``striped=False`` — version-1 container;
* grey, striped — version-2 container (stripe table);
* planar — version-3 container (component table doubling as the
  random-access index with per-cell CRC-32).

Cell payload bytes are computed by whichever registered engine is selected
(:func:`repro.core.interface.get_engine`), and the fan-out accepts any
executor with a ``map`` method, so the process pool of
:mod:`repro.parallel.executor` composes with every path.  Streams are
byte-identical regardless of engine or executor.

On the decode side, :func:`decode_selection` is the single random-access
reader behind ``decode_image``, ``decode_planar``, ``decode_plane``,
``decode_region`` and the parallel decoder: it maps any (planes, stripe
range) selection onto the container's byte-offset index, CRC-checks and
entropy-decodes exactly the cells the selection needs, and inverts the
inter-plane delta predictor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.bitstream import (
    COMPONENT_FLAG_PLANE_DELTA,
    CodecId,
    StreamHeader,
    component_spans,
    pack_component_stream,
    pack_stream,
    parse_stream_header,
    verify_component_cell,
)
from repro.core.config import CodecConfig
from repro.core.decoder import decode_payload, resolve_stream_config
from repro.core.encoder import EncodeStatistics, encode_payload, merge_statistics
from repro.exceptions import (
    BitstreamError,
    ConfigError,
    ModelStateError,
    StripingError,
)
from repro.imaging.image import GrayImage
from repro.imaging.planar import PlanarImage, default_plane_names

__all__ = [
    "DecodedSelection",
    "plan_for_header",
    "plane_residuals",
    "reconstruct_plane_arrays",
    "encode_grid",
    "decode_selection",
    "select_cells",
    "assemble_selection",
    "decode_one_cell",
]


# ---------------------------------------------------------------------- #
# inter-plane predictor
# ---------------------------------------------------------------------- #


def plane_residuals(
    image: Union[GrayImage, PlanarImage], plane_delta: bool
) -> List[GrayImage]:
    """Return the plane images actually handed to the entropy coder.

    A grey image is its own single residual plane.  Without the predictor
    the planes themselves are returned.  With it, plane ``k > 0`` becomes
    ``(plane_k - plane_{k-1}) mod 2**bit_depth`` — the modular delta is
    exactly invertible, so the scheme stays lossless.
    """
    if isinstance(image, GrayImage):
        return [image]
    planes = list(image.planes())
    if not plane_delta or len(planes) == 1:
        return planes
    size = 1 << image.bit_depth
    residuals = [planes[0]]
    for k in range(1, len(planes)):
        delta = (planes[k].to_array() - planes[k - 1].to_array()) % size
        delta.flags.writeable = False
        residuals.append(GrayImage._wrap(delta, image.bit_depth, planes[k].name))
    return residuals


def reconstruct_plane_arrays(
    residuals: np.ndarray, bit_depth: int, plane_delta: bool
) -> np.ndarray:
    """Invert :func:`plane_residuals` in place on a ``(planes, H, W)`` residual array.

    Plane ``k`` becomes ``(residual_0 + ... + residual_k) mod 2**bit_depth``,
    the running modular sum that undoes the plane-to-plane delta.
    """
    if plane_delta and len(residuals) > 1:
        np.cumsum(residuals, axis=0, out=residuals)
        residuals %= 1 << bit_depth
    return residuals


# ---------------------------------------------------------------------- #
# grid planning
# ---------------------------------------------------------------------- #


def _plan_stripes(height: int, stripes: int):
    # Function-level import: repro.parallel re-exports ParallelCodec, which
    # imports this module, so a top-level import would be a cycle.
    from repro.parallel.partition import plan_stripes

    return plan_stripes(height, stripes)


def plan_for_header(header: StreamHeader):
    """Derive the deterministic stripe partition a stream was coded with."""
    try:
        return _plan_stripes(header.height, header.stripe_count)
    except StripingError as exc:
        raise BitstreamError("invalid stripe table: %s" % exc) from exc


def _resolve_map(executor, task_count: int) -> Callable:
    """Turn the ``executor`` argument into a ``map(fn, tasks)`` callable.

    ``None`` runs the tasks inline; an object with a ``map`` method is used
    as-is; anything else is treated as a factory called with the task count
    (the :meth:`~repro.parallel.codec.ParallelCodec._executor_for` shape),
    letting callers defer the serial-vs-pool choice until the grid is known.
    """
    if executor is None:
        return lambda fn, tasks: [fn(task) for task in tasks]
    if not hasattr(executor, "map"):
        executor = executor(task_count)
    return executor.map


# ---------------------------------------------------------------------- #
# encode
# ---------------------------------------------------------------------- #


def _encode_cell_task(task: Tuple[GrayImage, CodecConfig, str]):
    """Worker: encode one cell; returns (payload, statistics).

    Module-level so it can be pickled into pool workers; the task tuple is
    ``(cell, config, engine)``.
    """
    cell, config, engine = task
    return encode_payload(cell, config, engine=engine)


def encode_grid(
    image: Union[GrayImage, PlanarImage],
    config: CodecConfig,
    engine: str = "reference",
    stripes: int = 1,
    plane_delta: bool = False,
    executor=None,
    striped: bool = False,
) -> Tuple[bytes, EncodeStatistics]:
    """Compress any image through the unified cell grid; return (stream, stats).

    The image is planned into ``planes x stripes`` cells, every cell is
    coded by the selected engine (optionally fanned over ``executor``), and
    the payloads are assembled into the container the grid shape implies:
    version 3 for planar inputs, version 2 for striped grey inputs
    (``striped=True`` keeps a one-stripe grey stream in the striped format,
    so the parallel codec's output never depends on the machine), version 1
    otherwise.  The stream is byte-identical for every engine and executor.
    """
    if image.bit_depth != config.bit_depth:
        raise ConfigError(
            "image bit depth %d does not match codec bit depth %d"
            % (image.bit_depth, config.bit_depth)
        )
    try:
        plan = _plan_stripes(image.height, stripes)
    except StripingError as exc:
        raise ConfigError(str(exc)) from exc

    residuals = plane_residuals(image, plane_delta)
    tasks = [
        (
            GrayImage._wrap(
                residual.to_array()[spec.start_row : spec.stop_row], image.bit_depth
            ),
            config,
            engine,
        )
        for residual in residuals
        for spec in plan
    ]
    results = _resolve_map(executor, len(tasks))(_encode_cell_task, tasks)
    payloads = [payload for payload, _ in results]
    plane_payloads = [
        payloads[plane * len(plan) : (plane + 1) * len(plan)]
        for plane in range(len(residuals))
    ]

    codec_id = CodecId.PROPOSED_HARDWARE if config.use_lut_division else CodecId.PROPOSED
    flags = 1 if config.use_lut_division else 0
    if isinstance(image, PlanarImage):
        stream = pack_component_stream(
            codec_id,
            image.width,
            image.height,
            image.bit_depth,
            plane_payloads,
            parameter=config.count_bits,
            flags=flags,
            component_flags=COMPONENT_FLAG_PLANE_DELTA if plane_delta else 0,
        )
    else:
        stream = pack_stream(
            codec_id,
            image.width,
            image.height,
            image.bit_depth,
            b"".join(plane_payloads[0]),
            parameter=config.count_bits,
            flags=flags,
            stripe_lengths=(
                [len(payload) for payload in plane_payloads[0]]
                if striped or len(plan) > 1
                else None
            ),
        )
    statistics = merge_statistics([stats for _, stats in results])
    statistics.total_bytes = len(stream)
    sample_count = getattr(image, "sample_count", None) or image.pixel_count
    statistics.bits_per_pixel = 8.0 * len(stream) / sample_count
    return stream, statistics


# ---------------------------------------------------------------------- #
# decode
# ---------------------------------------------------------------------- #


def _decode_cell_task(task: Tuple[bytes, int, int, CodecConfig, str]) -> List[int]:
    """Worker: decode one cell payload into its row-major pixel list.

    Corrupt payloads drive the entropy models into impossible states; for a
    container consumer that is a corrupt bitstream, so
    :class:`~repro.exceptions.ModelStateError` is normalised to
    :class:`~repro.exceptions.BitstreamError` here, inside the worker, and
    propagates identically from the serial and pooled paths.
    """
    payload, width, row_count, config, engine = task
    try:
        return decode_payload(payload, width, row_count, config, engine=engine)
    except ModelStateError as exc:
        raise BitstreamError("corrupt cell payload: %s" % exc) from exc


def decode_one_cell(
    data_or_cell: bytes,
    header: StreamHeader,
    plane: int,
    spec,
    config: CodecConfig,
    engine: str = "reference",
    from_container: bool = True,
) -> np.ndarray:
    """CRC-verify and decode a single (plane, stripe) cell to a row array.

    With ``from_container=True`` (the default) the cell bytes are sliced
    out of the whole container ``data_or_cell``; with ``False`` the caller
    already fetched exactly the cell payload (the store's range-read path).
    """
    if from_container:
        offset, length = component_spans(header)[plane][spec.index]
        cell = data_or_cell[offset : offset + length]
    else:
        cell = data_or_cell
    cell = verify_component_cell(header, plane, spec.index, cell)
    pixels = _decode_cell_task((cell, header.width, spec.row_count, config, engine))
    array = np.asarray(pixels, dtype=np.int64).reshape(spec.row_count, header.width)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class DecodedSelection:
    """The reconstructed samples of one (planes, stripe-range) query."""

    header: StreamHeader
    #: The stripe specs actually decoded (a contiguous slice of the plan).
    plan: tuple
    #: Rows covered by the selection.
    row_count: int
    #: The requested plane indices, ascending.
    plane_indices: Tuple[int, ...]
    #: Read-only ``(len(plane_indices), row_count, width)`` samples;
    #: ``samples[i]`` is plane ``plane_indices[i]``.
    samples: np.ndarray

    def plane_image(self, plane: int) -> GrayImage:
        """One requested plane as a :class:`GrayImage` (no copy)."""
        name = default_plane_names(self.header.component_count)[plane]
        return GrayImage._wrap(
            self.samples[self.plane_indices.index(plane)], self.header.bit_depth, name
        )

    def planar_image(self) -> PlanarImage:
        """All requested planes as a :class:`PlanarImage` (no copy)."""
        names = default_plane_names(self.header.component_count)
        return PlanarImage._wrap(
            self.samples,
            self.header.bit_depth,
            [names[plane] for plane in self.plane_indices],
        )

    def image(self) -> Union[GrayImage, PlanarImage]:
        """The selection in the container shape a full decode would yield.

        Grey (version-1/2) streams come back as :class:`GrayImage`,
        version-3 streams — even single-plane ones — as
        :class:`PlanarImage`, matching the historical behaviour of the
        per-path decoders this pipeline replaced.
        """
        if self.header.component_count == 1 and not self.header.component_lengths:
            return self.plane_image(0)
        return self.planar_image()


def decode_selection(
    data: bytes,
    config: Optional[CodecConfig] = None,
    engine: str = "reference",
    planes: Optional[Sequence[int]] = None,
    stripe_range: Optional[Tuple[int, int]] = None,
    executor=None,
) -> DecodedSelection:
    """Decode any (planes, stripe-range) selection of any container version.

    ``planes=None`` selects every plane; ``stripe_range=None`` every
    stripe.  Only the cells the selection needs are CRC-checked and
    entropy-decoded (on a delta-coded stream the predictor chain extends
    the fetch to planes ``0..max(planes)``, never past it), so the cost of
    a region query is proportional to the region, not the stream.
    Out-of-range ``planes``/``stripe_range`` arguments raise
    :class:`~repro.exceptions.ConfigError`; a corrupt container raises
    :class:`~repro.exceptions.BitstreamError`.
    """
    header = parse_stream_header(data)
    config = resolve_stream_config(header, config)
    plan, requested, needed = select_cells(header, planes, stripe_range)

    spans = component_spans(header)
    tasks = []
    for plane in needed:
        for spec in plan:
            offset, length = spans[plane][spec.index]
            cell = verify_component_cell(
                header, plane, spec.index, data[offset : offset + length]
            )
            tasks.append((cell, header.width, spec.row_count, config, engine))
    cell_pixels = _resolve_map(executor, len(tasks))(_decode_cell_task, tasks)

    # Tasks run plane-major, stripes in row order, so the concatenated
    # cells are exactly the (planes, rows, width) residual stack.
    residuals = np.fromiter(
        itertools.chain.from_iterable(cell_pixels), dtype=np.int64
    ).reshape(len(needed), -1, header.width)
    return assemble_selection(header, plan, requested, needed, residuals)


def select_cells(
    header: StreamHeader,
    planes: Optional[Sequence[int]] = None,
    stripe_range: Optional[Tuple[int, int]] = None,
) -> Tuple[tuple, List[int], List[int]]:
    """Validate a (planes, stripe-range) query against a stream's grid.

    Returns ``(plan, requested, needed)``: the stripe specs of the selected
    range, the plane indices the caller asked for, and the planes that must
    actually be decoded (the delta-predictor chain extends ``requested``
    down to plane 0 on delta-coded streams).  Out-of-range arguments raise
    :class:`~repro.exceptions.ConfigError` — the shared front door for
    every random-access reader, in-memory or stored.
    """
    plan = plan_for_header(header)
    if stripe_range is not None:
        try:
            start, stop = stripe_range
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                "stripe range must be a (start, stop) pair, got %r" % (stripe_range,)
            ) from exc
        if not 0 <= start < stop <= header.stripe_count:
            raise ConfigError(
                "stripe range [%d, %d) outside stream of %d stripe(s)"
                % (start, stop, header.stripe_count)
            )
        plan = plan[start:stop]
    requested = (
        list(range(header.component_count)) if planes is None else list(planes)
    )
    if not requested:
        raise ConfigError("at least one plane must be selected")
    for plane in requested:
        if not 0 <= plane < header.component_count:
            raise ConfigError(
                "plane %d outside stream of %d component(s)"
                % (plane, header.component_count)
            )
    needed = (
        list(range(max(requested) + 1))
        if header.plane_delta
        else sorted(set(requested))
    )
    return tuple(plan), requested, needed


def assemble_selection(
    header: StreamHeader,
    plan: Sequence,
    requested: Sequence[int],
    needed: Sequence[int],
    residuals: np.ndarray,
) -> DecodedSelection:
    """Invert the plane delta over decoded residuals and pick the planes asked for.

    ``residuals`` is a fresh ``(len(needed), row_count, width)`` int64
    array, ``residuals[i]`` holding plane ``needed[i]``'s decoded cells in
    row order.  It is reconstructed in place and frozen, so the selection's
    images wrap it without copying; only a request for a strict subset of
    the decoded planes (a delta chain) copies the planes it keeps.
    """
    samples = reconstruct_plane_arrays(residuals, header.bit_depth, header.plane_delta)
    plane_indices = tuple(sorted(set(requested)))
    if plane_indices != tuple(needed):
        samples = samples[[list(needed).index(plane) for plane in plane_indices]]
    samples.flags.writeable = False
    return DecodedSelection(
        header=header,
        plan=tuple(plan),
        row_count=sum(spec.row_count for spec in plan),
        plane_indices=plane_indices,
        samples=samples,
    )
