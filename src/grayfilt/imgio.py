"""PGM reading/writing and text parsers for kernel and LUT files.

PGM is the package's only image format. Reading accepts both the ASCII (P2)
and binary (P5) encodings with '#' comments between header tokens; writing
emits one canonical byte sequence per image and format, so write-read-write
is byte-identical. The maxval must be 255: other depths are rejected rather
than silently rescaled.

A P2 raster is decoded with whole-array numpy operations when it is in the
fast grammar: every byte after the maxval is an ASCII digit or one of the six
whitespace bytes, and each of the first width*height tokens has 1 to 3 digits
and a value of at most 255 (anything after them is ignored). Any other raster
goes to the token scanner, which gives every error message and byte offset
and accepts whatever ``int()`` does, such as ``+7``, ``1_0`` or ``0255``.
Both give the same pixels for every raster the fast grammar takes.
"""

from __future__ import annotations

import os
import re
import reprlib
import tempfile

import numpy as np

from .core import GRAY_LEVELS, MAX_GRAY, Image, Kernel
from .errors import FormatError
from .kinds import choice
from .point_ops import _as_lut

_WHITESPACE = b" \t\n\r\x0b\x0c"

#: Byte classes of the fast P2 grammar: a digit's value, 10 for whitespace,
#: 11 for any other byte.
_P2_CODES = np.full(256, 11, dtype=np.uint8)
_P2_CODES[np.frombuffer(b"0123456789", dtype=np.uint8)] = np.arange(10)
_P2_CODES[np.frombuffer(_WHITESPACE, dtype=np.uint8)] = 10

#: The canonical P2 text of each gray level.
_LEVEL_TEXT = np.array([str(v) for v in range(GRAY_LEVELS)], dtype=object)


def _refused(token, noun: str) -> str:
    """Say why ``int()`` refused ``token``, with a shortened echo of it. A sign
    and ASCII digits form a valid literal, so ``int()`` refuses one only for
    having more digits than Python converts."""
    text = token.decode("latin-1") if isinstance(token, bytes) else token
    reason = "too many digits in" if re.fullmatch(r"[+-]?[0-9]+", text) else "non-numeric"
    return f"{reason} {noun} {reprlib.repr(token)}"


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
        raise FormatError(f"{what}: {_refused(token, 'token')} at byte {start}") from None
    return value, end


def _p2_fast(data: bytes, pos: int, count: int):
    """Decode the first ``count`` P2 tokens after byte ``pos`` as uint8 with
    whole-array operations, or return None for a raster outside the fast
    grammar (see the module docstring). The raster must start with
    whitespace, as read_pgm's does (the byte that ended the maxval), so that
    every token's tens and hundreds are looked up inside the array."""
    codes = _P2_CODES[np.frombuffer(data, dtype=np.uint8, offset=pos)]
    if codes.max() > 10 or codes[0] < 10:
        return None
    digit = codes < 10
    # A token's last digit is a digit followed by whitespace or the end.
    last = np.flatnonzero(digit > np.append(digit[1:], False))[:count]
    if len(last) < count:
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


def _p2_scan(data: bytes, pos: int, count: int) -> np.ndarray:
    """Decode the first ``count`` P2 tokens after byte ``pos`` one by one with
    ``int()``; every P2 raster error is raised here."""
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
                f"{_refused(token, 'pixel token')} at byte {pos + match.start()}"
            ) from None
        if not 0 <= value <= MAX_GRAY:
            raise FormatError(
                f"pixel value {reprlib.repr(value)} out of [0, {MAX_GRAY}] "
                f"at byte {pos + match.start()}"
            )
        values[filled] = value
        filled += 1
    if filled < count:
        raise FormatError(
            f"truncated raster: need {count} pixels, found {filled} by byte {len(data)}"
        )
    return values


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
    size = f"{reprlib.repr(width)}x{reprlib.repr(height)}"
    if width < 1 or height < 1:
        raise FormatError(f"dimensions must be >= 1, got {size}")
    if maxval != GRAY_LEVELS - 1:
        raise FormatError(f"unsupported maxval {reprlib.repr(maxval)}: only 255 is accepted")
    if max(width, height) > len(data):
        # Caught before the product, whose digits could outnumber what Python
        # converts to text for the messages below.
        raise FormatError(f"truncated raster: a {size} image cannot fit in {len(data)} bytes")
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
    values = _p2_fast(data, pos, count)
    if values is None:
        values = _p2_scan(data, pos, count)
    return Image(values.reshape(height, width))


def write_pgm(img: Image, format: str = "P5") -> bytes:
    """Encode an Image canonically: magic line, "width height" line, "255"
    line, then the raster (raw bytes for P5; one space-separated text row
    per line for P2). read_pgm inverts this exactly for both formats."""
    choice("P2", "P5").check(format, "format")
    header = f"{format}\n{img.width} {img.height}\n{img.max_gray}\n".encode("ascii")
    if format == "P5":
        return header + img.pixels.tobytes()
    body = "".join(" ".join(_LEVEL_TEXT[row].tolist()) + "\n" for row in img.pixels)
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
    dims = []
    for tok in header:
        try:
            dims.append(int(tok))
        except ValueError:
            raise FormatError(f"line 1: {_refused(tok, 'dimension')}") from None
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
    values = []
    for tok in text.split():
        try:
            values.append(int(tok))
        except ValueError:
            raise FormatError(f"LUT table: {_refused(tok, 'entry')}") from None
    try:
        return _as_lut(values)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
