"""PGM reading/writing and text parsers for kernel and LUT files.

PGM is the package's only image format. Reading accepts both the ASCII (P2)
and binary (P5) encodings with '#' comments between header tokens; writing
emits one canonical byte sequence per image and format, so write-read-write
is byte-identical. The maxval must be 255: other depths are rejected rather
than silently rescaled.
"""

from __future__ import annotations

import os
import re
import tempfile

import numpy as np

from .core import GRAY_LEVELS, Image, Kernel, choice
from .errors import FormatError
from .point_ops import _as_lut

_WHITESPACE = b" \t\n\r\x0b\x0c"


def _next_token(data: bytes, pos: int):
    """Scan past whitespace and '#' comments; return (token, start, end)."""
    n = len(data)
    while pos < n:
        byte = data[pos:pos + 1]
        if byte in (b"#",):
            eol = data.find(b"\n", pos)
            pos = n if eol < 0 else eol + 1
        elif byte in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError(f"unexpected end of header at byte {n}")
    end = pos
    while end < n and data[end:end + 1] not in _WHITESPACE and data[end:end + 1] != b"#":
        end += 1
    return data[pos:end], pos, end


def _header_int(data: bytes, pos: int, what: str):
    token, start, end = _next_token(data, pos)
    try:
        value = int(token.decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        raise FormatError(f"{what}: non-numeric token {token!r} at byte {start}") from None
    return value, end


def read_pgm(data: bytes) -> Image:
    """Decode a P2 or P5 PGM byte sequence into an Image.

    Raises:
        FormatError: bad magic, maxval != 255, dimensions < 1, truncated
            data, or (P2) a pixel outside [0, maxval]; messages carry the
            byte offset of the offending content.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise FormatError("PGM input must be a byte sequence")
    data = bytes(data)
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"bad magic {magic!r} at byte 0: expected P2 or P5")
    if len(data) < 3 or data[2:3] not in _WHITESPACE:
        raise FormatError("expected whitespace after magic at byte 2")

    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise FormatError(f"dimensions must be >= 1, got {width}x{height}")
    if maxval != GRAY_LEVELS - 1:
        raise FormatError(f"unsupported maxval {maxval}: only 255 is accepted")
    count = width * height

    if magic == b"P5":
        if pos >= len(data) or data[pos:pos + 1] not in _WHITESPACE:
            raise FormatError(f"expected a single whitespace byte before raster at byte {pos}")
        raster = data[pos + 1:pos + 1 + count]
        if len(raster) < count:
            raise FormatError(
                f"truncated raster: need {count} bytes, file ends at byte {len(data)}"
            )
        pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
        return Image(pixels)

    # A P2 pixel takes a separator and a digit: check the bytes before allocating.
    if len(data) - pos < 2 * count:
        raise FormatError(f"truncated raster: need {count} pixels, file ends at byte {len(data)}")
    values = np.empty(count, dtype=np.int64)
    filled = 0
    for match in re.finditer(rb"\S+", data[pos:]):
        if filled == count:
            break
        token = match.group()
        try:
            value = int(token.decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            raise FormatError(
                f"non-numeric pixel token {token!r} at byte {pos + match.start()}"
            ) from None
        if not 0 <= value <= maxval:
            raise FormatError(
                f"pixel value {value} out of [0, {maxval}] at byte {pos + match.start()}"
            )
        values[filled] = value
        filled += 1
    if filled < count:
        raise FormatError(
            f"truncated raster: need {count} pixels, found {filled} by byte {len(data)}"
        )
    return Image(values.reshape(height, width))


def write_pgm(img: Image, format: str = "P5") -> bytes:
    """Encode an Image canonically: magic line, "width height" line, "255"
    line, then the raster (raw bytes for P5; one space-separated text row
    per line for P2). read_pgm inverts this exactly for both formats."""
    choice("P2", "P5").check(format, "format")
    header = f"{format}\n{img.width} {img.height}\n{img.max_gray}\n".encode("ascii")
    if format == "P5":
        return header + img.pixels.tobytes()
    body = "".join(" ".join(map(str, row)) + "\n" for row in img.pixels)
    return header + body.encode("ascii")


def load_pgm(path) -> Image:
    with open(path, "rb") as fh:
        return read_pgm(fh.read())


def load_text(path) -> str:
    """Read a small text input (kernel, LUT table, pipeline spec)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{os.fspath(path)}: not a text file") from None


def write_bytes_atomic(path, data: bytes) -> None:
    """Write via a temp file in the destination directory, then rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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
    try:
        kheight, kwidth = int(header[0]), int(header[1])
    except ValueError:
        raise FormatError(f"line 1: non-numeric dimension in {header!r}") from None
    if kheight < 1 or kwidth < 1:
        raise FormatError(f"line 1: dimensions must be positive, got {kheight}x{kwidth}")

    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        if len(rows) == kheight:
            raise FormatError(f"line {lineno}: expected {kheight} rows, found extra data")
        if len(tokens) != kwidth:
            raise FormatError(
                f"line {lineno}: expected {kwidth} coefficients, got {len(tokens)}"
            )
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric coefficient") from None
    if len(rows) < kheight:
        raise FormatError(f"expected {kheight} coefficient rows, got {len(rows)}")
    try:
        return Kernel(rows)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def parse_lut(text: str) -> np.ndarray:
    """Parse a LUT table file: 256 whitespace-separated integers in [0, 255]."""
    try:
        values = [int(tok) for tok in text.split()]
    except ValueError:
        raise FormatError("LUT table contains a non-numeric entry") from None
    try:
        return _as_lut(values)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
