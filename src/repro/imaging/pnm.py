"""Netpbm (PGM/PPM/PAM) reading and writing.

The command-line tools operate on Netpbm files because the formats are
trivial, self-describing and supported by every image viewer:

* PGM (``P2`` ASCII / ``P5`` binary) — grey-scale, one sample per pixel,
  read into :class:`~repro.imaging.image.GrayImage`;
* PPM (``P3`` ASCII / ``P6`` binary) — RGB colour, three interleaved samples
  per pixel, read into a three-plane
  :class:`~repro.imaging.planar.PlanarImage`;
* PAM (``P7`` binary) — arbitrary ``DEPTH`` components per pixel, the
  container for multi-band payloads beyond RGB.

16-bit samples are stored big-endian as the Netpbm specification requires.
:func:`read_image` sniffs the magic number and dispatches to the right
reader, returning whichever of the two image containers matches the file.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import BinaryIO, List, Tuple, Union

import numpy as np

from repro.exceptions import ImageFormatError
from repro.imaging.image import GrayImage, first_out_of_range
from repro.imaging.planar import MAX_PLANES, PlanarImage

__all__ = [
    "read_pgm",
    "write_pgm",
    "read_ppm",
    "write_ppm",
    "read_pam",
    "write_pam",
    "read_image",
    "write_image",
    "netpbm_region_header",
    "split_netpbm_payload",
]

_PathOrFile = Union[str, Path, BinaryIO]

_GRAY_MAGICS = (b"P2", b"P5")
_RGB_MAGICS = (b"P3", b"P6")
_PAM_MAGIC = b"P7"


def _tokenise_header(stream: BinaryIO, magics: Tuple[bytes, ...]) -> Tuple[bytes, int, int, int]:
    """Read magic, width, height, maxval, skipping whitespace and comments."""
    magic = stream.read(2)
    if magic not in magics:
        raise ImageFormatError(
            "not a %s file (magic %r)" % ("/".join(m.decode() for m in magics), magic)
        )
    tokens: List[bytes] = []
    while len(tokens) < 3:
        char = stream.read(1)
        if not char:
            raise ImageFormatError("truncated %s header" % magic.decode())
        if char == b"#":
            while char not in (b"\n", b""):
                char = stream.read(1)
            continue
        if char.isspace():
            continue
        token = bytearray(char)
        while True:
            char = stream.read(1)
            if not char or char.isspace():
                break
            if char == b"#":
                while char not in (b"\n", b""):
                    char = stream.read(1)
                break
            token.extend(char)
        tokens.append(bytes(token))
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise ImageFormatError("non-numeric header field: %r" % tokens) from exc
    return magic, width, height, maxval


def _check_geometry(kind: str, width: int, height: int, maxval: int) -> int:
    """Validate header fields; return the implied bit depth."""
    if width <= 0 or height <= 0:
        raise ImageFormatError("invalid %s dimensions %dx%d" % (kind, width, height))
    if not 1 <= maxval <= 65535:
        raise ImageFormatError("invalid %s maxval %d" % (kind, maxval))
    return max(1, maxval.bit_length())


def _read_samples(
    stream: BinaryIO, binary: bool, count: int, maxval: int, kind: str
) -> np.ndarray:
    """Read ``count`` samples as a read-only int64 array, range-checked against ``maxval``.

    Binary samples are 1 byte each, or 2 big-endian bytes when ``maxval``
    exceeds 255; ASCII samples are whitespace-separated decimals.
    """
    if binary:
        size = 1 if maxval <= 255 else 2
        raw = stream.read(size * count)
        if len(raw) != size * count:
            raise ImageFormatError(
                "truncated %s%s payload: expected %d bytes, got %d"
                % ("16-bit " if size == 2 else "", kind, size * count, len(raw))
            )
        samples = np.frombuffer(raw, dtype=np.uint8 if size == 1 else ">u2").astype(np.int64)
    else:
        samples = _read_ascii_samples(stream, count, kind)
    bad = first_out_of_range(samples, maxval)
    if bad is not None:
        raise ImageFormatError("sample %d outside %s range [0, maxval %d]" % (bad, kind, maxval))
    samples.flags.writeable = False
    return samples


def _read_ascii_samples(stream: BinaryIO, count: int, kind: str) -> np.ndarray:
    """Read ``count`` whitespace-separated ASCII samples."""
    text = stream.read().decode("ascii", errors="strict")
    values = text.split()
    if len(values) < count:
        raise ImageFormatError(
            "truncated ASCII %s: expected %d samples, got %d" % (kind, count, len(values))
        )
    try:
        return np.array([int(v) for v in values[:count]], dtype=np.int64)
    except ValueError as exc:
        raise ImageFormatError("non-numeric sample in ASCII %s" % kind) from exc
    except OverflowError as exc:
        raise ImageFormatError("sample in ASCII %s exceeds 64 bits" % kind) from exc


def _sample_bytes(image: Union[GrayImage, PlanarImage], maxval: int) -> bytes:
    """Pixel-interleaved samples in raster order: 1 byte each, or 2 big-endian bytes above 255."""
    planes = image.planes() if isinstance(image, PlanarImage) else (image,)
    out = np.empty(
        (image.height, image.width, len(planes)), dtype=np.uint8 if maxval <= 255 else ">u2"
    )
    # One plane at a time: contiguous reads, and no int64 interleaved copy.
    for index, plane in enumerate(planes):
        out[:, :, index] = plane.to_array()
    return out.tobytes()


def _ascii_rows(rows: np.ndarray) -> bytes:
    """One line of space-separated decimals per row of ``rows``."""
    return "".join(" ".join(map(str, row)) + "\n" for row in rows.tolist()).encode("ascii")


def _deinterleave(
    samples: np.ndarray, width: int, height: int, depth: int, bit_depth: int
) -> PlanarImage:
    """Split pixel-interleaved samples into a planar image."""
    planes = np.ascontiguousarray(samples.reshape(height, width, depth).transpose(2, 0, 1))
    planes.flags.writeable = False
    return PlanarImage._wrap(planes, bit_depth)


# ---------------------------------------------------------------------- #
# PGM — grey-scale
# ---------------------------------------------------------------------- #


def read_pgm(source: _PathOrFile) -> GrayImage:
    """Read a PGM file (P2 or P5) into a :class:`GrayImage`."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            return read_pgm(handle)

    magic, width, height, maxval = _tokenise_header(source, _GRAY_MAGICS)
    bit_depth = _check_geometry("PGM", width, height, maxval)
    samples = _read_samples(source, magic == b"P5", width * height, maxval, "PGM")
    return GrayImage._wrap(samples.reshape(height, width), bit_depth)


def write_pgm(image: GrayImage, destination: _PathOrFile, binary: bool = True) -> None:
    """Write ``image`` as a PGM file (P5 when ``binary`` else P2)."""
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as handle:
            write_pgm(image, handle, binary=binary)
        return

    maxval = image.max_value
    header = "%s\n%d %d\n%d\n" % ("P5" if binary else "P2", image.width, image.height, maxval)
    destination.write(header.encode("ascii"))
    if binary:
        destination.write(_sample_bytes(image, maxval))
    else:
        destination.write(_ascii_rows(image.to_array()))


# ---------------------------------------------------------------------- #
# PPM — RGB colour
# ---------------------------------------------------------------------- #


def read_ppm(source: _PathOrFile) -> PlanarImage:
    """Read a PPM file (P3 or P6) into a three-plane :class:`PlanarImage`."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            return read_ppm(handle)

    magic, width, height, maxval = _tokenise_header(source, _RGB_MAGICS)
    bit_depth = _check_geometry("PPM", width, height, maxval)
    samples = _read_samples(source, magic == b"P6", width * height * 3, maxval, "PPM")
    return _deinterleave(samples, width, height, 3, bit_depth)


def write_ppm(image: PlanarImage, destination: _PathOrFile, binary: bool = True) -> None:
    """Write a three-plane ``image`` as a PPM file (P6 when ``binary`` else P3)."""
    if image.num_planes != 3:
        raise ImageFormatError(
            "PPM stores exactly 3 components, image has %d (use write_pam)"
            % image.num_planes
        )
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as handle:
            write_ppm(image, handle, binary=binary)
        return

    maxval = image.max_value
    header = "%s\n%d %d\n%d\n" % ("P6" if binary else "P3", image.width, image.height, maxval)
    destination.write(header.encode("ascii"))
    if binary:
        destination.write(_sample_bytes(image, maxval))
    else:
        destination.write(_ascii_rows(image.to_array().reshape(image.height, -1)))


# ---------------------------------------------------------------------- #
# PAM — arbitrary component count
# ---------------------------------------------------------------------- #

_PAM_TUPLTYPES = {1: "GRAYSCALE", 3: "RGB"}


def read_pam(source: _PathOrFile) -> PlanarImage:
    """Read a PAM file (P7) into a :class:`PlanarImage` of ``DEPTH`` planes."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            return read_pam(handle)

    magic = source.read(2)
    if magic != _PAM_MAGIC:
        raise ImageFormatError("not a PAM file (magic %r)" % magic)
    fields = {}
    while True:
        line = bytearray()
        while True:
            char = source.read(1)
            if not char:
                raise ImageFormatError("truncated PAM header (missing ENDHDR)")
            if char == b"\n":
                break
            line.extend(char)
        text = bytes(line).decode("ascii", errors="replace").strip()
        if not text or text.startswith("#"):
            continue
        if text == "ENDHDR":
            break
        parts = text.split(None, 1)
        fields[parts[0].upper()] = parts[1] if len(parts) > 1 else ""
    try:
        width = int(fields["WIDTH"])
        height = int(fields["HEIGHT"])
        depth = int(fields["DEPTH"])
        maxval = int(fields["MAXVAL"])
    except KeyError as exc:
        raise ImageFormatError("PAM header is missing the %s field" % exc) from exc
    except ValueError as exc:
        raise ImageFormatError("non-numeric PAM header field") from exc
    bit_depth = _check_geometry("PAM", width, height, maxval)
    if not 1 <= depth <= MAX_PLANES:
        raise ImageFormatError("PAM depth must be in [1, %d], got %d" % (MAX_PLANES, depth))
    samples = _read_samples(source, True, width * height * depth, maxval, "PAM")
    return _deinterleave(samples, width, height, depth, bit_depth)


def write_pam(image: PlanarImage, destination: _PathOrFile) -> None:
    """Write ``image`` as a binary PAM (P7) file."""
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as handle:
            write_pam(image, handle)
        return

    tupltype = _PAM_TUPLTYPES.get(image.num_planes)
    header = ["P7"]
    header.append("WIDTH %d" % image.width)
    header.append("HEIGHT %d" % image.height)
    header.append("DEPTH %d" % image.num_planes)
    header.append("MAXVAL %d" % image.max_value)
    if tupltype:
        header.append("TUPLTYPE %s" % tupltype)
    header.append("ENDHDR")
    destination.write(("\n".join(header) + "\n").encode("ascii"))
    destination.write(_sample_bytes(image, image.max_value))


# ---------------------------------------------------------------------- #
# streaming: header synthesis and header/sample splitting
# ---------------------------------------------------------------------- #


def netpbm_region_header(planes: int, width: int, height: int, bit_depth: int) -> Tuple[bytes, str]:
    """Synthesise the binary Netpbm header for a region of known geometry.

    Returns ``(header_bytes, kind)`` where ``kind`` is ``"pgm"``, ``"ppm"``
    or ``"pam"`` — the format :func:`write_image` would pick for an image
    of ``planes`` components.  The bytes are exactly what the corresponding
    writer emits (our writers never emit comments), so a streamed response
    can send the header first and follow with raw sample chunks whose
    concatenation is byte-identical to a fully assembled file.
    """
    if width <= 0 or height <= 0:
        raise ImageFormatError("invalid region dimensions %dx%d" % (width, height))
    if not 1 <= planes <= MAX_PLANES:
        raise ImageFormatError("plane count must be in [1, %d], got %d" % (MAX_PLANES, planes))
    maxval = (1 << bit_depth) - 1
    if not 1 <= maxval <= 65535:
        raise ImageFormatError("invalid region bit depth %d" % bit_depth)
    if planes == 1:
        return ("P5\n%d %d\n%d\n" % (width, height, maxval)).encode("ascii"), "pgm"
    if planes == 3:
        return ("P6\n%d %d\n%d\n" % (width, height, maxval)).encode("ascii"), "ppm"
    lines = ["P7", "WIDTH %d" % width, "HEIGHT %d" % height, "DEPTH %d" % planes,
             "MAXVAL %d" % maxval]
    tupltype = _PAM_TUPLTYPES.get(planes)
    if tupltype:
        lines.append("TUPLTYPE %s" % tupltype)
    lines.append("ENDHDR")
    return ("\n".join(lines) + "\n").encode("ascii"), "pam"


def split_netpbm_payload(payload: bytes) -> Tuple[bytes, bytes]:
    """Split a binary Netpbm payload written by this module into (header, samples).

    Only the exact output of our binary writers is supported: P5/P6 headers
    are three newline-terminated lines with no comments, P7 headers end at
    ``ENDHDR``.  The streaming serve path uses this to strip per-stripe
    headers so stripe sample chunks can be concatenated under one
    region-wide header.
    """
    magic = payload[:2]
    if magic == _PAM_MAGIC:
        marker = b"ENDHDR\n"
        end = payload.find(marker)
        if end < 0:
            raise ImageFormatError("PAM payload is missing ENDHDR")
        cut = end + len(marker)
        return payload[:cut], payload[cut:]
    if magic in (b"P5", b"P6"):
        cut = 0
        for _ in range(3):
            cut = payload.find(b"\n", cut) + 1
            if cut == 0:
                raise ImageFormatError("truncated %s header" % magic.decode())
        return payload[:cut], payload[cut:]
    raise ImageFormatError("not a binary PGM/PPM/PAM payload (magic %r)" % magic)


# ---------------------------------------------------------------------- #
# format auto-detection
# ---------------------------------------------------------------------- #


def read_image(source: _PathOrFile) -> Union[GrayImage, PlanarImage]:
    """Read any supported Netpbm file, dispatching on the magic number.

    PGM files come back as :class:`GrayImage`; PPM and PAM files as
    :class:`PlanarImage` (three and ``DEPTH`` planes respectively).
    """
    if isinstance(source, (str, Path)):
        # Peek two magic bytes, then hand the path to the format reader —
        # no whole-file copy just to dispatch.
        with open(source, "rb") as handle:
            magic = handle.read(2)
        return _reader_for_magic(magic)(source)

    if source.seekable():
        magic = source.read(2)
        source.seek(-len(magic), io.SEEK_CUR)
        return _reader_for_magic(magic)(source)
    # Non-seekable stream (pipe): buffering is the only way to replay the
    # magic bytes for the chosen reader.
    buffered = io.BytesIO(source.read())
    magic = buffered.read(2)
    buffered.seek(0)
    return _reader_for_magic(magic)(buffered)


def _reader_for_magic(magic: bytes):
    if magic in _GRAY_MAGICS:
        return read_pgm
    if magic in _RGB_MAGICS:
        return read_ppm
    if magic == _PAM_MAGIC:
        return read_pam
    raise ImageFormatError("not a PGM/PPM/PAM file (magic %r)" % magic)


def write_image(
    image: Union[GrayImage, PlanarImage], destination: _PathOrFile, binary: bool = True
) -> None:
    """Write an image in the most natural Netpbm format for its shape.

    :class:`GrayImage` and single-plane images go to PGM, three-plane images
    to PPM and any other component count to PAM.  Paths ending in ``.pam``
    always get a PAM file, whatever the plane count.
    """
    if isinstance(destination, (str, Path)) and str(destination).lower().endswith(".pam"):
        if isinstance(image, GrayImage):
            image = PlanarImage.from_gray(image)
        write_pam(image, destination)
        return
    if isinstance(image, GrayImage):
        write_pgm(image, destination, binary=binary)
        return
    if image.num_planes == 1:
        write_pgm(image.gray(), destination, binary=binary)
    elif image.num_planes == 3:
        write_ppm(image, destination, binary=binary)
    else:
        write_pam(image, destination)
