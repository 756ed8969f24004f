"""Property tests of the array-backed image model and its Netpbm renderers.

Images wrap one read-only int64 array; the Netpbm writers render that array
directly.  The oracle below is the list-based writer set the array
renderers replaced, kept verbatim in behaviour: every binary and ASCII
output must match it byte for byte, at every bit depth 1-16 and for 1, 3
and 4 planes.
"""

from __future__ import annotations

import io
import re
from typing import List, Sequence

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.cellgrid import plane_residuals
from repro.exceptions import ImageFormatError
from repro.imaging.image import GrayImage
from repro.imaging.planar import PlanarImage
from repro.imaging.pnm import read_image, write_image

# ---------------------------------------------------------------------- #
# oracle: the per-sample list writers
# ---------------------------------------------------------------------- #


def _oracle_binary(samples: List[int], maxval: int) -> bytes:
    if maxval <= 255:
        return bytes(samples)
    out = bytearray()
    for value in samples:
        out.append(value >> 8)
        out.append(value & 0xFF)
    return bytes(out)


def _oracle_ascii(samples: List[int], per_row: int, rows: int) -> bytes:
    text = io.StringIO()
    for y in range(rows):
        text.write(" ".join(str(v) for v in samples[y * per_row : (y + 1) * per_row]))
        text.write("\n")
    return text.getvalue().encode("ascii")


def oracle_netpbm(
    planes: Sequence[List[int]], width: int, height: int, bit_depth: int, binary: bool
) -> bytes:
    """What the list-based ``write_image`` wrote for these planes."""
    maxval = (1 << bit_depth) - 1
    depth = len(planes)
    interleaved = [planes[k][i] for i in range(width * height) for k in range(depth)]
    if depth in (1, 3):
        magic = {(1, True): "P5", (1, False): "P2", (3, True): "P6", (3, False): "P3"}
        head = "%s\n%d %d\n%d\n" % (magic[depth, binary], width, height, maxval)
        body = (
            _oracle_binary(interleaved, maxval)
            if binary
            else _oracle_ascii(interleaved, width * depth, height)
        )
        return head.encode("ascii") + body
    lines = ["P7", "WIDTH %d" % width, "HEIGHT %d" % height, "DEPTH %d" % depth,
             "MAXVAL %d" % maxval, "ENDHDR"]
    return ("\n".join(lines) + "\n").encode("ascii") + _oracle_binary(interleaved, maxval)


# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #


@st.composite
def sample_planes(draw, plane_counts=(1, 3, 4)):
    """``(planes, width, height, bit_depth)``: lists of ints over depths 1-16."""
    width = draw(st.integers(min_value=1, max_value=9))
    height = draw(st.integers(min_value=1, max_value=7))
    bit_depth = draw(st.integers(min_value=1, max_value=16))
    count = draw(st.sampled_from(plane_counts))
    max_value = (1 << bit_depth) - 1
    edge = st.sampled_from([0, max_value, max_value >> 1])
    sample = st.one_of(edge, st.integers(min_value=0, max_value=max_value))
    planes = [
        draw(st.lists(sample, min_size=width * height, max_size=width * height))
        for _ in range(count)
    ]
    return planes, width, height, bit_depth


def _image(planes, width, height, bit_depth, as_gray=False):
    grays = [GrayImage(width, height, plane, bit_depth) for plane in planes]
    if as_gray:
        return grays[0]
    return PlanarImage(grays)


def _render(image, binary=True) -> bytes:
    buffer = io.BytesIO()
    write_image(image, buffer, binary=binary)
    return buffer.getvalue()


# ---------------------------------------------------------------------- #
# renderers
# ---------------------------------------------------------------------- #


@given(sample_planes())
def test_binary_renderer_matches_list_writer(drawn):
    planes, width, height, bit_depth = drawn
    expected = oracle_netpbm(planes, width, height, bit_depth, binary=True)
    assert _render(_image(planes, width, height, bit_depth)) == expected
    if len(planes) == 1:
        assert _render(_image(planes, width, height, bit_depth, as_gray=True)) == expected


@given(sample_planes(plane_counts=(1, 3)))
def test_ascii_renderer_matches_list_writer(drawn):
    planes, width, height, bit_depth = drawn
    expected = oracle_netpbm(planes, width, height, bit_depth, binary=False)
    assert _render(_image(planes, width, height, bit_depth), binary=False) == expected


@given(sample_planes(), st.booleans())
def test_read_inverts_write(drawn, binary):
    planes, width, height, bit_depth = drawn
    image = _image(planes, width, height, bit_depth)
    back = read_image(io.BytesIO(_render(image, binary=binary)))
    if len(planes) == 1:
        assert back == image.gray()
        assert back.pixels() == planes[0]
    else:
        assert back == image
        assert [plane.pixels() for plane in back.planes()] == planes


@given(sample_planes(plane_counts=(1,)))
def test_gray_to_bytes_matches_list_writer(drawn):
    [plane], width, height, bit_depth = drawn
    image = GrayImage(width, height, plane, bit_depth)
    assert image.to_bytes() == _oracle_binary(plane, image.max_value)


# ---------------------------------------------------------------------- #
# range checks
# ---------------------------------------------------------------------- #


def _naming(value: int) -> str:
    """A regex matching ``value`` as a whole number inside an error message."""
    return r"(?<![\d-])%s(?!\d)" % re.escape(str(value))


@given(
    sample_planes(plane_counts=(1,)),
    st.data(),
)
def test_out_of_range_sample_is_named(drawn, data):
    [plane], width, height, bit_depth = drawn
    max_value = (1 << bit_depth) - 1
    bad = data.draw(
        st.one_of(
            st.integers(min_value=max_value + 1, max_value=max_value + 70000),
            st.integers(min_value=-70000, max_value=-1),
        )
    )
    position = data.draw(st.integers(min_value=0, max_value=width * height - 1))
    plane = list(plane)
    plane[position] = bad
    for pixels in (plane, np.array(plane)):
        with pytest.raises(ImageFormatError, match=_naming(bad)):
            GrayImage(width, height, pixels, bit_depth)


@given(sample_planes(plane_counts=(1, 3)), st.data())
def test_netpbm_sample_above_maxval_is_named(drawn, data):
    planes, width, height, bit_depth = drawn
    maxval = (1 << bit_depth) - 1
    assume(maxval not in (255, 65535))  # the sample width holds nothing larger
    bad = data.draw(st.integers(min_value=maxval + 1, max_value=255 if maxval < 255 else 65535))
    payload = bytearray(_render(_image(planes, width, height, bit_depth)))
    width_bytes = 1 if maxval <= 255 else 2
    payload[len(payload) - width_bytes :] = bad.to_bytes(width_bytes, "big")
    with pytest.raises(ImageFormatError, match=_naming(bad)):
        read_image(io.BytesIO(bytes(payload)))


# ---------------------------------------------------------------------- #
# accessors and immutability
# ---------------------------------------------------------------------- #


@given(sample_planes())
def test_accessors_return_python_ints(drawn):
    planes, width, height, bit_depth = drawn
    image = _image(planes, width, height, bit_depth)
    for plane, expected in zip(image.planes(), planes):
        assert plane.pixels() == expected
        assert all(type(value) is int for value in plane.pixels())
        assert type(plane.get(width - 1, height - 1)) is int
        assert all(type(value) is int for value in plane.row(0))
        assert all(type(value) is int for value in plane.iter_pixels())
    assert all(type(value) is int for value in image.interleaved_samples())


@given(sample_planes())
def test_mutating_the_source_array_does_not_change_the_image(drawn):
    planes, width, height, bit_depth = drawn
    source = np.array(planes[0], dtype=np.int64)
    image = GrayImage(width, height, source, bit_depth)
    source[...] = 0 if planes[0][0] else 1
    assert image.to_array().reshape(-1).tolist() == planes[0]
    assert image.pixels() == planes[0]

    stack = np.stack([np.array(p).reshape(height, width) for p in planes], axis=-1)
    planar = PlanarImage.from_array(stack, bit_depth=bit_depth)
    stack[...] = 0 if planes[0][0] else 1
    assert np.moveaxis(planar.to_array(), -1, 0).reshape(len(planes), -1).tolist() == planes


@given(sample_planes())
def test_to_array_is_read_only(drawn):
    planes, width, height, bit_depth = drawn
    image = _image(planes, width, height, bit_depth)
    for array in [image.to_array()] + [plane.to_array() for plane in image.planes()]:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0 if array[0, 0] else 1
        with pytest.raises(ValueError):
            array.flags.writeable = True
    gray = GrayImage(width, height, planes[0], bit_depth)
    derived = [gray, GrayImage.from_array(gray.to_array(), bit_depth)]
    derived += plane_residuals(image, plane_delta=True)  # arrays computed, not copied in
    for other in derived:
        with pytest.raises(ValueError):
            other.to_array().flags.writeable = True
    assert [plane.to_array().reshape(-1).tolist() for plane in image.planes()] == planes


def test_to_array_does_not_copy():
    image = GrayImage(3, 2, [1, 2, 3, 4, 5, 6])
    assert image.to_array() is image.to_array()
    planar = PlanarImage([image, image.with_name("b")])
    assert np.shares_memory(planar.to_array(), planar.plane(1).to_array())
