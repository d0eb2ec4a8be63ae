"""PGM reading/writing and text parsers for kernel and LUT files.

PGM is the package's only image format. Reading accepts both the ASCII (P2)
and binary (P5) encodings with '#' comments between header tokens; writing
emits one canonical byte sequence per image and format, so write-read-write
is byte-identical. The maxval must be 255: other depths are rejected rather
than silently rescaled.

The codec is :mod:`grayfilt._bytes`, the numpy-free one every command runs:
``read_pgm`` wraps the raster of its ``decode_pgm`` as uint8 pixels, and the
writers hand the image's own pixels to its ``pgm_chunks``.
"""

from __future__ import annotations

import reprlib

import numpy as np

from . import _bytes
from ._bytes import load_text, refused, write_bytes_atomic  # noqa: F401
from .core import Image, Kernel
from .errors import FormatError
from .kinds import choice


def read_pgm(data: bytes) -> Image:
    """Decode a P2 or P5 PGM byte sequence into an Image, copying it once at
    most: a bytearray or memoryview to the bytearray ``decode_pgm`` cuts in place.

    Raises:
        FormatError: bad magic, maxval != 255, dimensions < 1, truncated
            data, or (P2) a pixel outside [0, maxval]; messages carry the
            byte offset of the offending content.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise FormatError("PGM input must be a byte sequence")
    return _image(*_bytes.decode_pgm(data if isinstance(data, bytes) else bytearray(data)))


def _image(width: int, height: int, raster) -> Image:
    """Wrap a decoded raster, one level per pixel, as an Image without a copy."""
    return Image._trusted(np.frombuffer(raster, dtype=np.uint8).reshape(height, width))


def _chunks(img: Image, format: str) -> tuple:
    """``img``'s (header, pixels) in a checked ``format``: :func:`_bytes.pgm_chunks`."""
    choice("P2", "P5").check(format, "format")
    return _bytes.pgm_chunks(img.width, img.height, img.pixels.ravel().data, format)


def write_pgm(img: Image, format: str = "P5") -> bytes:
    """Encode an Image canonically: magic line, "width height" line, "255"
    line, then the raster (raw bytes for P5; one space-separated text row
    per line for P2), joined in one bytes. read_pgm inverts this exactly."""
    return b"".join(_chunks(img, format))


def load_pgm(path) -> Image:
    return _image(*_bytes.load_pgm(path))


def save_pgm(path, img: Image, format: str = "P5") -> None:
    """Write :func:`write_pgm`'s bytes to ``path``, as a command does: unjoined."""
    write_bytes_atomic(path, *_chunks(img, format))


def parse_kernel(text: str) -> Kernel:
    """Parse a kernel file: a "kheight kwidth" line (both odd and positive),
    then kheight rows of kwidth whitespace-separated reals.

    Raises:
        FormatError: non-positive dimensions, wrong token count or
            non-numeric token (messages name the offending line number), or
            anything :class:`Kernel` rejects, such as even dimensions or an
            all-zero kernel.
    """
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise FormatError("line 1: missing kernel dimensions")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError(f"line 1: expected 'kheight kwidth', got {len(header)} tokens")
    dims = []
    for tok in header:
        try:
            dims.append(int(tok))
        except ValueError:
            raise FormatError(f"line 1: {refused(tok, 'dimension')}") from None
    kheight, kwidth = dims
    kh, kw = map(reprlib.repr, dims)  # messages echo a 4000-digit dimension short
    if kheight < 1 or kwidth < 1:
        raise FormatError(f"line 1: dimensions must be positive, got {kh}x{kw}")

    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        if len(rows) == kheight:
            raise FormatError(f"line {lineno}: expected {kh} rows, found extra data")
        if len(tokens) != kwidth:
            raise FormatError(
                f"line {lineno}: expected {kw} coefficients, got {len(tokens)}"
            )
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric coefficient") from None
    if len(rows) < kheight:
        raise FormatError(f"expected {kh} coefficient rows, got {len(rows)}")
    try:
        return Kernel(rows)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def parse_lut(text: str) -> np.ndarray:
    """Parse a LUT table file: 256 whitespace-separated integers in [0, 255]."""
    return np.frombuffer(_bytes.parse_lut(text), dtype=np.uint8).copy()
