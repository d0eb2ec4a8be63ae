"""Point-op tables and the PGM codec on plain bytes, without numpy.

A point op is a 256-byte table (entry r is the level r maps to); a chain of
them composes to one table, applied with ``bytes.translate``. The CLI runs a
chain of table ops with this module alone; imgio and point_ops build on it.

:func:`decode_pgm` is the one PGM decoder: every command and ``read_pgm``
call runs it. Whitespace is the six ASCII bytes space, \\t, \\n, \\r, \\v and
\\f, as ``bytes.split()`` and a bytes ``\\s`` take them; '#' starts a comment
that runs to the next \\n, only between header tokens. One compiled pattern
reads each header token, so a header of any length is scanned in linear
time. A P2 raster is decoded a slice of text at a time with big-int SWAR
(a few shifts and masks per slice, not an object per token) while each
token is 1 to 3 digits with a value of at most 255; tokens after the
width*height-th are ignored. From the first slice with any other token,
the token scanner decodes the rest of the raster: it gives every error
message and byte offset and accepts whatever ``int()`` does, such as
``+7``, ``1_0`` or ``0255``.

No raster is copied that need not be: :func:`load_pgm` hands back a P5
raster in the buffer the file was read into, and every PGM written to a file
is :func:`pgm_chunks`' header and raster, never joined (:func:`write_bytes_atomic`).
"""

from __future__ import annotations

import os
import re
import reprlib
import stat

from .errors import FormatError
from .kinds import GRAY_LEVELS, MAX_GRAY, _is_int

NEGATE_TABLE = bytes(range(MAX_GRAY, -1, -1))
#: The first two bytes of a PGM: plain (P2) or raw (P5).
_MAGICS = (b"P2", b"P5")


def lut_table(entries, shape=None) -> bytes:
    """The LUT rule, for tables passed in and LUT files alike: exactly 256
    integer entries in [0, 255]. ``shape`` is that of the array the entries
    came from, if any. Entries are compared as Python numbers, so an integer
    too wide for int64 is simply out of range."""
    shape = (len(entries),) if shape is None else shape
    if shape != (GRAY_LEVELS,):
        raise ValueError(f"LUT must have exactly {GRAY_LEVELS} entries, got shape {shape}")
    for value in entries:
        if not _is_int(value):
            raise ValueError(f"LUT entries must be integers, got {reprlib.repr(value)}")
        if not 0 <= value <= MAX_GRAY:
            raise ValueError(f"LUT entries must lie in [0, {MAX_GRAY}], got {reprlib.repr(value)}")
    return bytes(entries)


def binarize_table(threshold: int) -> bytes:
    """Entry r is 255 where r >= threshold, else 0."""
    return bytes(MAX_GRAY * (r >= threshold) for r in range(GRAY_LEVELS))


def stretch_table(gamma: float) -> bytes:
    """Entry r is round_half_away(255 * (r/255)**gamma), correctly rounded."""
    return bytes([0, *(_stretch_level(r, gamma) for r in range(1, MAX_GRAY)), MAX_GRAY])


def _stretch_level(r: int, gamma: float) -> int:
    """The float estimate where it lies clear of a half by more than its
    error bound; else ``decimal`` at rising precision, which ends because no
    level is exactly a half (README, "Point transforms")."""
    v = MAX_GRAY * (r / MAX_GRAY) ** gamma
    # pow errs by an ulp or two, and rounding r/255 by about gamma ulps more;
    # past gamma = 2**20, every level below 255 is far under a half anyway.
    if abs(v % 1 - 0.5) > v * ((gamma + 8) * 2**-52) + 2**-1000:
        return int(v) + (v % 1 > 0.5)
    import decimal

    exp, half = decimal.Decimal(gamma), decimal.Decimal("0.5")
    with decimal.localcontext(decimal.Context(Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)) as ctx:
        while True:
            ctx.prec *= 2
            d = MAX_GRAY * (decimal.Decimal(r) / MAX_GRAY) ** exp
            gap = d % 1 - half
            if abs(gap) > d * (exp + 8) * decimal.Decimal(10) ** (1 - ctx.prec):
                return int(d) + (gap > 0)


#: A sign and digit groups joined by single underscores: a valid literal, which
#: ``int()`` refuses only for having more digits than Python converts.
INT_LITERAL = re.compile(r"[+-]?\d+(?:_\d+)*")


def refused(token, noun: str) -> str:
    """Say why ``int()`` refused ``token``, with a shortened echo of it."""
    text = token.decode("latin-1") if isinstance(token, bytes) else token
    reason = "too many digits in" if INT_LITERAL.fullmatch(text) else "non-numeric"
    return f"{reason} {noun} {reprlib.repr(token)}"


def _int_at(token: bytes, start: int, noun: str, prefix: str = "") -> int:
    """``int(token)``, or a FormatError saying why it was refused at byte
    ``start``. A token read from a bytearray is echoed as bytes."""
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"{prefix}{refused(bytes(token), noun)} at byte {start}") from None


#: Whitespace and '#' comments, then a header token. The token is empty only
#: at the end of the data, so the match never fails and never backtracks.
_HEADER_TOKEN = re.compile(rb"\s*(?:#[^\n]*\s*)*([^\s#]*)")
#: The message of a header that the data ends in, which more bytes may complete.
_HEADER_END = "unexpected end of header"


def _header_int(data: bytes, pos: int, what: str):
    match = _HEADER_TOKEN.match(data, pos)
    if not match.group(1):
        raise FormatError(f"{_HEADER_END} at byte {len(data)}")
    return _int_at(match.group(1), match.start(1), "token", f"{what}: "), match.end()


#: A P2 raster token: a run of bytes that ``bytes.split()`` does not split.
_TOKEN = re.compile(rb"\S+")


def p2_scan(data: bytes, pos: int, count: int, values: bytearray | None = None,
            filled: int = 0) -> bytearray:
    """Decode P2 tokens after byte ``pos`` one by one with ``int()`` until
    ``count`` pixels are filled: into ``values`` from pixel ``filled`` on,
    where :func:`p2_tokens` stopped, else into a new raster. Every P2 raster
    error is raised here."""
    values = bytearray(count) if values is None else values
    for match in _TOKEN.finditer(data, pos):
        if filled == count:
            break
        value = _int_at(match.group(), match.start(), "pixel token")
        if not 0 <= value <= MAX_GRAY:
            raise FormatError(
                f"pixel value {reprlib.repr(value)} out of [0, {MAX_GRAY}] "
                f"at byte {match.start()}"
            )
        values[filled] = value
        filled += 1
    if filled < count:
        raise FormatError(
            f"truncated raster: need {count} pixels, found {filled} by byte {len(data)}"
        )
    return values


#: The whitespace bytes, as ``bytes.split()`` and a bytes ``\s`` take them.
_WHITESPACE = b" \t\n\r\v\f"
_SPACE = re.compile(rb"\s")
#: Bytes of P2 text decoded at a time.
_SLICE = 1 << 16
#: 1 for a whitespace byte, else 0: a P2 token ends where 0 is followed by 1.
_ENDS = bytes(c in _WHITESPACE for c in range(GRAY_LEVELS))
#: The class of each byte of P2 text: a digit is 1 plus 16 times its value,
#: whitespace 2 and any other byte 4.
_P2_CLASS = bytes((c - 48) << 4 | 1 if 48 <= c <= 57 else 2 if c in _WHITESPACE else 4
                  for c in range(GRAY_LEVELS))


def p2_tokens(data: bytes, pos: int, count: int) -> bytearray:
    """Decode the first ``count`` P2 tokens after byte ``pos``. The text is
    decoded a slice at a time, each cut at a whitespace byte, into one
    preallocated raster while each token is 1 to 3 digits with a value of at
    most 255; the slice that reaches the count-th token is decoded only up to
    the whitespace after it. From the first slice with any other token, or
    where the text runs out, :func:`p2_scan` fills the rest of the raster."""
    raster = bytearray(count)
    filled = 0
    while filled < count and pos < len(data):
        cut = _SPACE.search(data, pos + _SLICE)
        end = cut.start() if cut else len(data)
        text = data[pos:end]
        levels = _p2_levels(text)
        need = count - filled
        if levels is None or len(levels) > need:
            # bytes.split's whitespace is _P2_CLASS's: rest[-1] follows the need-th token.
            rest = text.split(None, need)
            levels = _p2_levels(text[:len(text) - len(rest[-1])]) if len(rest) > need else None
        if levels is None:
            break
        raster[filled:filled + len(levels)] = levels
        filled += len(levels)
        pos = end
    return raster if filled == count else p2_scan(data, pos, count, raster, filled)


def _p2_levels(text: bytes):
    """The levels of the tokens of ``text``, or None where one of them is
    not 1 to 3 digits with a value of at most 255. Whitespace or the end of
    the data follows ``text``.

    SWAR (see ``_swar``) on one int with a byte per byte of ``text``, its
    class in ``_P2_CLASS``: a token ends at byte i where byte i is a digit
    and byte i + 1 whitespace. Sixteen times its level is summed there from
    its last three digits, 16·(o + 10·t + 100·h), h counted only where t is
    a digit too. That is below 2**14 and fills bytes i and i + 1, so no two
    sums overlap, and a level over 255 shows in the high half of byte i + 1.
    Else byte i holds the level's low nibble in its high half and byte i + 1
    the high nibble in its low half, so neither byte is 0xFF, where a level
    may be: every other byte is set to 0xFF and deleted by ``translate``,
    and a 4-bit shift of what is left puts each level in the first byte of
    its pair."""
    cls = text.translate(_P2_CLASS) + b"\x02"
    if b"\x04" in cls:
        return None
    width = len(cls)
    ones = int.from_bytes(b"\x01" * width, "little")
    x = int.from_bytes(cls, "little")
    digit = x & ones
    ends = digit & x >> 9
    pair = digit & digit << 8
    high = ends * 0xF0
    level = (x & high) + 10 * (x << 8 & high) + 100 * (x << 16 & (pair & ends) * 0xF0)
    if pair & pair << 16 or level >> 8 & high:
        return None
    rest = (ones ^ ends ^ ends << 8) * 255
    nibbles = (level | rest).to_bytes(width, "little").translate(None, b"\xff")
    return (int.from_bytes(nibbles, "little") >> 4).to_bytes(len(nibbles), "little")[::2]


def _header(data):
    """Check the header of a PGM: the magic, whitespace after it, and the
    width, height and maxval tokens, dimensions >= 1 and maxval 255. Return
    (magic, width, height, size, pos), ``size`` the "WxH" text and ``pos``
    the byte after maxval; else raise the FormatError of the first fault."""
    magic = bytes(data[:2])
    if magic not in _MAGICS:
        raise FormatError(f"bad magic {magic!r} at byte 0: expected P2 or P5")
    if not _SPACE.match(data, 2):
        raise FormatError("expected whitespace after magic at byte 2")
    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    size = f"{reprlib.repr(width)}x{reprlib.repr(height)}"
    if width < 1 or height < 1:
        raise FormatError(f"dimensions must be >= 1, got {size}")
    if maxval != MAX_GRAY:
        raise FormatError(f"unsupported maxval {reprlib.repr(maxval)}: only 255 is accepted")
    return magic, width, height, size, pos


def decode_pgm(data):
    """Check a P2 or P5 PGM, bytes or a bytearray, and return (width,
    height, raster), the raster one level per pixel, row-major. A P2 raster
    goes to :func:`p2_tokens`. The P5 raster of a bytearray is ``data``
    itself, its header and any bytes after the raster cut off in place, so
    it is not copied; bytes are copied to a bytearray once first."""
    magic, width, height, size, pos = _header(data)
    if max(width, height) > len(data):
        # Caught before the product, whose digits could outnumber what Python
        # converts to text for the messages below.
        raise FormatError(f"truncated raster: a {size} image cannot fit in {len(data)} bytes")
    count = width * height

    if magic == b"P5":
        if not _SPACE.match(data, pos):
            raise FormatError(f"expected a single whitespace byte before raster at byte {pos}")
        end = pos + 1 + count
        if len(data) < end:
            raise FormatError(
                f"truncated raster: need {count} bytes, file ends at byte {len(data)}"
            )
        if isinstance(data, bytes):
            data = bytearray(data)
        # CPython drops a bytearray's prefix in O(1), by moving its start.
        del data[end:]
        del data[:pos + 1]
        return width, height, data

    # A P2 pixel takes a separator and a digit: check the bytes before allocating.
    if len(data) - pos < 2 * count:
        raise FormatError(f"truncated raster: need {count} pixels, file ends at byte {len(data)}")
    return width, height, p2_tokens(data, pos, count)


#: The hundreds, tens and ones digit of each level, NUL for a leading zero.
_DIGITS = [bytes(48 + v // 10**k % 10 if v >= 10**k or k == 0 else 0 for v in range(GRAY_LEVELS))
           for k in (2, 1, 0)]


def pgm_chunks(width: int, height: int, raster, format: str) -> tuple:
    """The canonical PGM of a raster as (header, body): the magic line, the
    "width height" line and the "255" line, then for P5 ``raster`` itself,
    uncopied, or for P2 one line of space-separated levels per row, each laid
    out as three digit bytes and a separator before the NULs of leading
    zeros go. ``raster`` is bytes, a bytearray, or a memoryview of numpy's
    output, which the P2 layout copies to bytes first."""
    header = f"{format}\n{width} {height}\n{MAX_GRAY}\n".encode("ascii")
    if format == "P5":
        return header, raster
    if isinstance(raster, memoryview):
        raster = raster.tobytes()
    text = bytearray(b" ") * (4 * len(raster))
    for k, digits in enumerate(_DIGITS):
        text[k::4] = raster.translate(digits)
    text[4 * width - 1::4 * width] = b"\n" * height
    return header, text.translate(None, b"\0")


def read_file(path) -> bytearray:
    """Every byte of a PGM file, a FIFO or a device, in one bytearray. A
    regular file is read straight into a buffer one byte longer than the
    file, so the read that finds its end needs no other buffer; for a FIFO
    or a device, or a file that grows, the buffer doubles in place as it
    fills. It stops growing where :func:`_header` refuses the bytes up to
    their last whitespace byte, as a FIFO may deliver the ``25`` of ``255``
    before the ``5``, so only a header the data ends in reads on; and once
    the header passes, at the end of a P5 raster, or for P2 at the first
    fill after a whitespace byte ends its width*height-th token."""
    with open(path, "rb", buffering=0) as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size + 1)
        filled = 0
        end = None  # of the frame, once the header has passed
        tokens = 0  # P2 raster tokens yet to end, once the header has passed
        while end is None or filled < end:
            if filled == len(data):
                if end is None and filled > 2:
                    # Two bytes may be part of a magic. With no whitespace
                    # from byte 2 on, the first three refuse the header.
                    cut = max(max(map(data.rfind, _WHITESPACE)) + 1, 3)
                    try:
                        magic, width, height, _, pos = _header(data[:cut])
                    except FormatError as exc:
                        if not str(exc).startswith(_HEADER_END):
                            break
                    else:  # a P2 raster ends with a token, not at a byte
                        tokens = width * height if magic == b"P2" else 0
                        end = float("inf") if tokens else pos + 1 + width * height
                if tokens:
                    tokens -= data[pos:filled].translate(_ENDS).count(b"\x00\x01")
                    if tokens <= 0:
                        break
                    pos = filled - 1  # its pair with the next byte is not yet counted
                data *= 2
            with memoryview(data) as view:
                n = fh.readinto(view[filled:])
            if not n:
                break
            filled += n
    del data[filled:]
    return data


def load_pgm(path):
    """Read and decode a PGM file: (width, height, raster), as :func:`decode_pgm`.
    A P5 raster is the buffer the file was read into."""
    return decode_pgm(read_file(path))


#: The most bytes a text input (kernel, LUT table, pipeline spec) may hold: 16 MiB.
TEXT_LIMIT = 2**24


def load_text(path) -> str:
    """Read a small text input (kernel, LUT table, pipeline spec). At most
    ``TEXT_LIMIT`` bytes and one more are read, so a longer file, or a
    device without an end such as /dev/zero, is refused, not read."""
    with open(path, "rb") as fh:
        data = fh.read(TEXT_LIMIT + 1)
    if len(data) > TEXT_LIMIT:
        raise FormatError(f"{os.fspath(path)}: text input longer than {TEXT_LIMIT} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{os.fspath(path)}: not a text file") from None


def parse_lut(text: str) -> bytes:
    """Parse a LUT table file: 256 whitespace-separated integers in [0, 255]."""
    values = []
    for tok in text.split():
        try:
            values.append(int(tok))
        except ValueError:
            raise FormatError(f"LUT table: {refused(tok, 'entry')}") from None
    try:
        return lut_table(values)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_bytes_atomic(path, *chunks) -> None:
    """Write ``chunks``, bytes-like objects, one after the other (a header
    and a raster are not joined first): a new path or a regular file via a
    temp file in the destination directory, then a rename. A symlink, even
    a dangling one, is followed: its target is written in the target's
    directory and the link stays, as with ``cp``. A new file gets mode
    0o666 less the umask, as ``open()`` would; a replaced regular file keeps
    its permission bits, as with ``cp``, but not its setuid, setgid or
    sticky bit. Any other existing path, such as
    a FIFO, a device or ``/dev/stdout``, is opened as given and written in
    place, as a shell redirection would; a directory or a symlink loop is
    refused. ``path`` may be str, bytes or path-like. An error names
    ``path``, not its target or the temp file."""
    path = os.fsdecode(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = 0
    flags = os.O_WRONLY | getattr(os, "O_BINARY", 0)
    if mode and not stat.S_ISREG(mode):
        # No O_CREAT: should the path go in between, this fails, not creates.
        with os.fdopen(os.open(path, flags), "wb") as fh:
            fh.writelines(chunks)
        return
    # Resolved only here: a magic link such as /dev/fd/N reads as "pipe:[N]".
    target = os.path.realpath(path)
    flags |= os.O_CREAT | os.O_EXCL
    tmp = fd = None
    try:
        while fd is None:
            tmp = os.path.join(os.path.dirname(target), f".tmp-{os.urandom(4).hex()}")
            try:
                fd = os.open(tmp, flags, 0o666)
            except FileExistsError:
                pass
        with os.fdopen(fd, "wb") as fh:
            if stat.S_ISREG(mode):
                os.chmod(tmp, stat.S_IMODE(mode) & 0o777)
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException as exc:
        if fd is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError) and exc.filename in (tmp, target):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
