"""PGM reading/writing and text parsers for kernel and LUT files.

PGM is the package's only image format. Reading accepts both the ASCII (P2)
and binary (P5) encodings with '#' comments between header tokens; writing
emits one canonical byte sequence per image and format, so write-read-write
is byte-identical. The maxval must be 255: other depths are rejected rather
than silently rescaled.

A P2 raster is decoded with whole-array numpy operations when it is in the
fast grammar: every byte after the maxval, up to and including the byte that
ends the width*height-th token, is an ASCII digit or one of the six
whitespace bytes, and each of those tokens has 1 to 3 digits and a value of
at most 255. Anything after that byte is ignored. Any other raster
goes to the token scanner, which gives every error message and byte offset
and accepts whatever ``int()`` does, such as ``+7``, ``1_0`` or ``0255``.
Both give the same pixels for every raster the fast grammar takes. The
header checks, the scanner and the file helpers live in
:mod:`grayfilt._bytes`, which the numpy-free table commands share.
"""

from __future__ import annotations

import reprlib

import numpy as np

from . import _bytes
from ._bytes import WHITESPACE, load_text, refused, write_bytes_atomic  # noqa: F401
from .core import MAX_GRAY, Image, Kernel
from .errors import FormatError
from .kinds import choice

#: Byte classes of the fast P2 grammar: a digit's value, 10 for whitespace,
#: 11 for any other byte.
_P2_CODES = np.full(256, 11, dtype=np.uint8)
_P2_CODES[np.frombuffer(b"0123456789", dtype=np.uint8)] = np.arange(10)
_P2_CODES[np.frombuffer(WHITESPACE, dtype=np.uint8)] = 10


def _p2_fast(data: bytes, pos: int, count: int):
    """Decode the first ``count`` P2 tokens after byte ``pos`` as uint8 with
    whole-array operations, or return None for a raster outside the fast
    grammar (see the module docstring). The raster must start with
    whitespace, as read_pgm's does (the byte that ended the maxval), so that
    every token's tens and hundreds are looked up inside the array."""
    codes = _P2_CODES[np.frombuffer(data, dtype=np.uint8, offset=pos)]
    if codes[0] < 10:
        return None
    digit = codes < 10
    # A token's last digit is a digit followed by a non-digit or the end.
    last = np.flatnonzero(digit > np.append(digit[1:], False))[:count]
    # Bytes after the one that ends the count-th token are ignored, as by the scanner.
    if len(last) < count or codes[:last[-1] + 2].max() > 10:
        return None
    head = digit[:last[-1] + 1]
    if (head[:-3] & head[1:-2] & head[2:-1] & head[3:]).any():  # a token of 4+ digits
        return None
    values = codes[last].astype(np.uint16)
    last -= 1
    has_tens = digit[last]
    values += np.where(has_tens, codes[last], 0).astype(np.uint16) * 10
    last -= 1
    values += np.where(has_tens & digit[last], codes[last], 0).astype(np.uint16) * 100
    if values.max() > MAX_GRAY:
        return None
    return values.astype(np.uint8)


def read_pgm(data: bytes) -> Image:
    """Decode a P2 or P5 PGM byte sequence into an Image.

    Raises:
        FormatError: bad magic, maxval != 255, dimensions < 1, truncated
            data, or (P2) a pixel outside [0, maxval]; messages carry the
            byte offset of the offending content.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise FormatError("PGM input must be a byte sequence")
    width, height, raster = _bytes.decode_pgm(bytes(data), _p2_fast)
    return Image._trusted(np.frombuffer(raster, dtype=np.uint8).reshape(height, width))


def write_pgm(img: Image, format: str = "P5") -> bytes:
    """Encode an Image canonically: magic line, "width height" line, "255"
    line, then the raster (raw bytes for P5; one space-separated text row
    per line for P2). read_pgm inverts this exactly for both formats."""
    choice("P2", "P5").check(format, "format")
    return _bytes.encode_pgm(img.width, img.height, img.pixels.tobytes(), format)


def load_pgm(path) -> Image:
    with open(path, "rb") as fh:
        return read_pgm(fh.read())


def save_pgm(path, img: Image, format: str = "P5") -> None:
    write_bytes_atomic(path, write_pgm(img, format))


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
