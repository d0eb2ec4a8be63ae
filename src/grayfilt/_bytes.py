"""Point-op tables and the PGM codec on plain bytes, without numpy.

A point op is a 256-byte table (entry r is the level r maps to); a chain of
them composes to one table, applied with ``bytes.translate``. The CLI runs a
chain of table ops with this module alone; imgio and point_ops build on it.

One PGM reader, on bytes or on a file: ``read_pgm`` runs it as :func:`decode_pgm` on
bytes, for the first image, and ``load_pgm`` and every command as :func:`frames` on a
file, for each image of a stream, from what the last read past. Whitespace is the six
ASCII bytes space, \\t, \\n, \\r, \\v and \\f, as ``bytes.split()`` and a
bytes ``\\s`` take them; '#' starts a comment that runs to the next \\n,
only between header tokens. One compiled pattern reads each header token,
so a header of any length is scanned in linear time. P2 text is read and
decoded a piece at a time, each cut at a whitespace byte ``_SLICE`` bytes on
or later or, before a read that may wait, at the last one in hand if every token
the image needs ends by it, with big-int SWAR (a few shifts and masks a piece, not an object
per token) while each token is 1 to 3 digits with a value of at most 255;
tokens after the width*height-th are ignored. A piece with any other token
goes to the token scanner, which decodes that piece alone: it gives every
error message and byte offset and accepts whatever ``int()`` does, such as
``+7``, ``1_0`` or ``0255``.

No raster is copied that need not be: :func:`load_pgm` hands back a P5
raster in the buffer the file was read into, and every PGM written to a file
is :func:`pgm_chunks`' header and raster, never joined (:func:`write_bytes_atomic`).
"""

from __future__ import annotations

import functools
import os
import re
import reprlib
import stat

from .errors import FormatError
from .kinds import GRAY_LEVELS, MAX_GRAY, _is_int, kernel_rule

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


def token_int(token, noun: str, prefix: str = "", start: int | None = None) -> int:
    """``int(token)``, or a FormatError: ``prefix`` and why it was refused,
    and the byte it starts at where ``start`` is given."""
    try:
        return int(token)
    except ValueError:
        at = "" if start is None else f" at byte {start}"
        raise FormatError(f"{prefix}{refused(token, noun)}{at}") from None


#: Whitespace and '#' comments, then a header token. The token is empty only
#: at the end of the data, so the match never fails and never backtracks.
_HEADER_TOKEN = re.compile(rb"\s*(?:#[^\n]*\s*)*([^\s#]*)")


def _header_int(data: bytes, pos: int, end: int, what: str, final: bool = True):
    """The header integer ``what`` in ``data[pos:end]`` and the byte after it, or None where
    more bytes may complete it: no token is in hand, or, unless ``final``, its token runs to
    ``end``. ``final`` data is all there is, so with no token in hand the header ends too soon."""
    match = _HEADER_TOKEN.match(data, pos, end)
    if match.group(1) and (final or match.end() < end):
        return token_int(match.group(1), "token", f"{what}: ", match.start(1)), match.end()
    if final:
        raise FormatError(f"unexpected end of header at byte {end}")
    return None


#: A P2 raster token: a run of bytes that ``bytes.split()`` does not split.
_TOKEN = re.compile(rb"\S+")


def p2_scan(text, offset: int, count: int) -> bytearray:
    """Decode the first ``count`` P2 tokens of ``text``, which starts at byte
    ``offset``, one by one with ``int()``: fewer where it has fewer. Every P2
    token error is raised here."""
    values = bytearray()
    for match in _TOKEN.finditer(text):
        if len(values) == count:
            break
        start = offset + match.start()
        value = token_int(match.group(), "pixel token", start=start)
        if not 0 <= value <= MAX_GRAY:
            raise FormatError(
                f"pixel value {reprlib.repr(value)} out of [0, {MAX_GRAY}] at byte {start}"
            )
        values.append(value)
    return values


@functools.lru_cache(8)
def _ones(fields: int, b: int = 8) -> int:
    """The int with a 1 in each of ``fields`` b-bit fields, kept for the last few
    lengths: a strip loop or a P2 text takes each of a few lengths many times."""
    return int.from_bytes((b"\x01" + bytes(b // 8 - 1)) * fields, "little")


#: Pixels per strip, the cache block of every strip loop, numpy's (correlation, display
#: mapping, box blur, table ops, histogram) and the bytes engine's (``_swar.correlate_clamp``
#: and ``edge_points``), and the correlation's unit of parallel work: whole rows, at least
#: one, counted in pixels of a row as the loop's buffers hold it, padding included. A numpy
#: loop allocates its strip buffers once per call (once per thread): for a float64 correlation
#: about 512 KB each for the padded source, the sums and one product, in a core's L2 cache.
_STRIP_PIXELS = 2**16


def _row_strips(height: int, row: int) -> list:
    """[s0, s1) ranges of ``_STRIP_PIXELS // row`` rows, at least one, covering ``height``
    rows (the last may be shorter); ``row`` is a row's length in the loop's buffers."""
    step = max(1, _STRIP_PIXELS // row)
    return [(s0, min(s0 + step, height)) for s0 in range(0, height, step)]


#: The whitespace bytes, as ``bytes.split()`` and a bytes ``\s`` take them.
_WHITESPACE = b" \t\n\r\v\f"
_SPACE = re.compile(rb"\s")
#: 0 for a whitespace byte, 1 for any other: a token ends at each b"\x01\x00" it maps to.
_NOT_SPACE = bytes(c not in _WHITESPACE for c in range(GRAY_LEVELS))
#: Bytes of the first read, and of a piece of P2 text at least: the text is
#: read a piece at a time, into about two pieces.
_SLICE = 1 << 14
#: The class of each byte of P2 text: a digit is 1 plus 16 times its value,
#: whitespace 2 and any other byte 4.
_P2_CLASS = bytes((c - 48) << 4 | 1 if 48 <= c <= 57 else 2 if c in _WHITESPACE else 4
                  for c in range(GRAY_LEVELS))


def _p2_piece(text, offset: int, need: int):
    """The levels of the first ``need`` P2 tokens of ``text``, a piece from byte ``offset``
    on cut at a whitespace byte or the end of the data, and the bytes they take: all, or
    up to a token past them. SWAR decodes it whole, or else up to the whitespace after the
    need-th token, where those tokens are all 1 to 3 digits up to 255; else :func:`p2_scan` does."""
    levels, used = _p2_levels(text), len(text)
    if levels is None or len(levels) > need:
        # A bad token or a next frame may lie past the need-th, which rest[-1] follows:
        # bytes.split's whitespace is _P2_CLASS's. A header may declare more than split can count.
        rest = text.split(None, min(need, len(text)))
        if len(rest) > need:
            used -= len(rest[-1])
            text = text[:used]
            levels = _p2_levels(text) if levels is None else levels
    return (p2_scan(text, offset, need) if levels is None else levels[:need]), used


def _p2_levels(text: bytes):
    """The levels of the tokens of ``text``, or None where one of them is
    not 1 to 3 digits with a value of at most 255, as a piece of over ``_SLICE + 3``
    bytes ends in one: its mask is not built. Whitespace or the end of the data
    follows ``text``.

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
    if len(text) > _SLICE + 3:
        return None
    cls = text.translate(_P2_CLASS) + b"\x02"
    if b"\x04" in cls:
        return None
    width = len(cls)
    ones = _ones(width)
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


def _header(data, end: int, final: bool):
    """Check the header of a PGM in ``data[:end]``, read in place: the magic, whitespace
    after it, and the width, height and maxval tokens, dimensions >= 1 and maxval
    255. Return (magic, width, height, size, pos), ``size`` the "WxH" text and
    ``pos`` the byte after maxval; None where more bytes may complete a token, unless
    ``data[:end]`` is ``final``; else raise the FormatError of the first fault."""
    magic = bytes(data[:min(2, end)])
    if magic not in _MAGICS:
        raise FormatError(f"bad magic {magic!r} at byte 0: expected P2 or P5")
    if not _SPACE.match(data, 2, end):
        raise FormatError("expected whitespace after magic at byte 2")
    values, pos = [], 2
    for what in ("width", "height", "maxval"):
        if not (token := _header_int(data, pos, end, what, final)):
            return None
        value, pos = token
        values.append(value)
    width, height, maxval = values
    size = f"{reprlib.repr(width)}x{reprlib.repr(height)}"
    if width < 1 or height < 1:
        raise FormatError(f"dimensions must be >= 1, got {size}")
    if maxval != MAX_GRAY:
        raise FormatError(f"unsupported maxval {reprlib.repr(maxval)}: only 255 is accepted")
    return magic, width, height, size, pos


def decode_pgm(data):
    """Check a P2 or P5 PGM and return (width, height, raster), the raster a bytearray of one
    level per pixel, row-major. ``data``, bytes-like, is left as it is, read through a memoryview
    of its bytes (a copy of them where they are not contiguous): a P5 raster is copied out of it,
    and P2 text a piece at a time, up to the W*H-th token."""
    view = memoryview(data)
    return _decode(view.cast("B") if view.c_contiguous else memoryview(view.tobytes()), None)[:3]


def frames(fh):
    """Yield (width, height, raster) for each image of the PGM stream that the binary file
    ``fh`` reads, decoded as by :func:`decode_pgm` from what the last read past, before any
    read, then from ``fh`` as far as it needs. A next image starts only at a P2 or P5 magic,
    after any whitespace, and its byte offsets count from it."""
    rest = b""
    while True:
        width, height, raster, rest = _decode(rest, fh)
        yield width, height, raster
        while len(rest := rest.lstrip(_WHITESPACE)) < 2 and (got := fh.read(_SLICE)):
            rest += got
        if rest[:2] not in _MAGICS:
            return


def _decode(data, fh):
    """:func:`decode_pgm`'s (width, height, raster), and what it read past the image."""
    buf, base, filled, ended, room = data, 0, len(data), fh is None, 0
    if fh is not None:
        # A regular file's size, and a byte for the read that finds its end.
        room = os.fstat(fh.fileno()).st_size + 1 if fh.seekable() else 1
        buf = bytearray(data).ljust(_SLICE)  # a slice, however few bytes are in hand

    def more(keep=0, least=0):
        # Read on, keeping buf[keep:filled]: a full buf moves it to its front
        # (base counts the bytes dropped), then doubles; one shorter than least grows to it.
        nonlocal buf, base, filled, ended
        if keep and filled == len(buf):
            with memoryview(buf) as view:
                view[:filled - keep] = view[keep:filled]
            base, filled = base + keep, filled - keep
        if filled == len(buf) or len(buf) < least:
            buf = buf.ljust(max(2 * filled, least))
        ended = not (n := fh.readinto(memoryview(buf)[filled:]))
        filled += n

    def short(need, unit):
        # Refuse an input that cannot hold the raster: need bytes, a P5's after one
        # whitespace byte. Read on to learn it, a P5 keeping what it reads (so base
        # stays 0), a P2 dropping it: that fault comes ahead of a token's, and before
        # a message names the count, whose digits could outnumber what Python converts.
        while base + filled < need and not ended:
            if magic == b"P5":
                more(0, min(need, room))
            else:
                more(filled)
        if max(width, height) > base + filled:
            raise FormatError(f"truncated raster: a {size} image cannot fit in "
                              f"{base + filled} bytes") from None
        if magic == b"P5" and not _SPACE.match(buf, pos, filled):
            raise FormatError(f"expected a single whitespace byte before raster at byte {pos}")
        if base + filled < need:
            raise FormatError(f"truncated raster: need {count} {unit}, "
                              f"file ends at byte {base + filled}") from None

    # Before each read, the header in hand is judged, and is None where more bytes may complete
    # it, as a FIFO may deliver the 25 of 255 before the 5: a token is judged once whitespace or
    # '#' follows it. Two bytes may be part of a magic. Past _SLICE bytes it is judged only as buf
    # fills, doubling, so a header that never ends is read in linear time. At the end it is
    # judged whole.
    while (not (ended or 2 < filled and (filled <= _SLICE or filled == len(buf)))
           or not (header := _header(buf, filled, ended))):
        more()
    magic, width, height, size, pos = header
    count = width * height

    if magic == b"P5":
        end = pos + 1 + count
        short(end, "bytes")
        if fh is None:
            return width, height, bytearray(memoryview(data)[pos + 1:end]), data[end:]
        rest = buf[end:filled]
        # CPython drops a bytearray's prefix in O(1), by moving its start.
        del buf[end:]
        del buf[:pos + 1]
        return width, height, buf, rest

    # P2 text from byte start on is read as it is taken and cut into pieces at a whitespace
    # byte _SLICE bytes on or later, splitting no token, or at the end: the last piece. Before a
    # read that may wait (room is 1 but for a regular file's), at the last one in hand if every
    # token needed, 2 bytes or more each, ends by it.
    raster, start, cut = bytearray(), pos, True
    try:
        while cut and (need := count - len(raster)):
            while not (cut := _SPACE.search(buf, start - base + _SLICE, filled)) and not ended:
                lo, hi = start - base, min(filled, start - base + _SLICE)  # no whitespace past hi
                ends = room == 1 and hi - lo >= 2 * need and buf[lo:hi].translate(_NOT_SPACE)
                if ends and ends.count(b"\x01\x00") >= need:
                    cut = _SPACE.match(buf, lo + ends.rindex(0))
                    break
                more(start - base)
            end = base + (cut.start() if cut else filled)
            # A bytearray, one copy whatever buf is: its translate, the decode's
            # first step, runs about a quarter faster than that of bytes.
            text = bytearray(memoryview(buf)[start - base:end - base])
            levels, used = _p2_piece(text, start, need)
            raster += levels
            start += used
    except FormatError:
        short(pos + 2 * count, "pixels")  # a P2 pixel takes a separator and a digit
        raise
    if len(raster) < count:
        short(pos + 2 * count, "pixels")  # before the message below names the count
        raise FormatError(f"truncated raster: need {count} pixels, "
                          f"found {len(raster)} by byte {base + filled}")
    return width, height, raster, buf[start - base:filled]


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


def load_pgm(path):
    """Read and decode a PGM file: (width, height, raster), the first image of
    :func:`frames`. A P5 raster is the buffer the file was read into."""
    with open(path, "rb", buffering=0) as fh:
        return next(frames(fh))


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
    values = [token_int(tok, "entry", "LUT table: ") for tok in text.split()]
    try:
        return lut_table(values)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def parse_kernel(text: str) -> list:
    """Parse a kernel file: a "kheight kwidth" line (both positive), then
    kheight rows of kwidth whitespace-separated reals, into its rows of
    floats, checked by :func:`grayfilt.kinds.kernel_rule`.

    Raises:
        FormatError: non-positive dimensions, wrong token count, non-numeric
            token or one a float reads as inf or nan (messages name the line),
            or a broken kernel rule, such as even dimensions or an all-zero
            kernel (naming a token a float reads as 0, if any).
    """
    import math

    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise FormatError("line 1: missing kernel dimensions")
    header = lines[0].split()
    if len(header) != 2:
        raise FormatError(f"line 1: expected 'kheight kwidth', got {len(header)} tokens")
    kheight, kwidth = dims = [token_int(tok, "dimension", "line 1: ") for tok in header]
    kh, kw = map(reprlib.repr, dims)  # messages echo a 4000-digit dimension short
    if kheight < 1 or kwidth < 1:
        raise FormatError(f"line 1: dimensions must be positive, got {kh}x{kw}")

    rows, underflow = [], None
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        if len(rows) == kheight:
            raise FormatError(f"line {lineno}: expected {kh} rows, found extra data")
        if len(tokens) != kwidth:
            raise FormatError(f"line {lineno}: expected {kw} coefficients, got {len(tokens)}")
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric coefficient") from None
        # A float reads a token past its range as inf, and a nonzero one below it as 0.
        for tok, value in zip(tokens, rows[-1]):
            if not math.isfinite(value) or (not value and float(tok.lower().partition("e")[0])):
                misread = f"line {lineno}: coefficient {reprlib.repr(tok)} is {value} as a float"
                if value:
                    raise FormatError(f"{misread}: kernel coefficients must be finite")
                underflow = underflow or misread
    if len(rows) < kheight:
        raise FormatError(f"expected {kh} coefficient rows, got {len(rows)}")
    nonzero = any(map(any, rows))
    if underflow and not nonzero:
        raise FormatError(f"{underflow}: kernel must have at least one nonzero coefficient")
    try:
        kernel_rule(kheight, kwidth, True, nonzero)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return rows


def _descriptor(path: str):
    """N if ``path``, or a symlink it reaches, is ``/proc/self/fd/N``, as
    ``/dev/stdout`` and ``/dev/fd/N`` are on Linux, with N as the kernel
    writes a descriptor (ASCII digits, no leading zero, below 2**31); else
    the path its symlinks reach. Only each head is resolved: a magic link
    such as ``/dev/fd/N`` reads as "pipe:[ino]"."""
    fds = os.path.realpath("/proc/self/fd")
    for _ in range(40):  # then a loop, which os.stat refuses
        head, name = os.path.split(path)
        head = os.path.realpath(head)
        if head == fds and re.fullmatch(r"0|[1-9][0-9]{0,9}", name) and int(name) < 2**31:
            return int(name)
        path = os.path.join(head, name)
        if not os.path.islink(path):
            return path
        path = os.path.join(head, os.readlink(path))
    return path


def write_bytes_atomic(path, *chunks) -> None:
    """Write ``chunks``, bytes-like objects, one after the other (a header
    and a raster are not joined first) to one descriptor, as
    :func:`_descriptor` resolves ``path``: a new path or a regular file via
    a temp file in the destination directory, then a rename. A symlink,
    even a dangling one, is followed: its target is written in the target's
    directory and the link stays, as with ``cp``. A new file gets mode
    0o666 less the umask, as ``open()`` would; a replaced regular file keeps
    its permission bits, as with ``cp``, but not its setuid, setgid or
    sticky bit. A descriptor's path is written through a duplicate of it, at
    its offset and in its append mode, as ``>&N`` would: the path names the
    file behind it, which a shell may since have replaced. Any other
    existing path, such as a FIFO or a device, is written in place, as a
    shell redirection would; a directory or a symlink loop is refused.
    ``path`` may be str, bytes or path-like. Every error names ``path``, not
    its target or the temp file, and leaves no temp file behind."""
    path = os.fsdecode(path)
    flags = os.O_WRONLY | getattr(os, "O_BINARY", 0)
    fd = tmp = None
    try:
        target = _descriptor(path)
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            mode = 0
        if isinstance(target, int):
            fd = os.dup(target)
        elif mode and not stat.S_ISREG(mode):
            # No O_CREAT: should the path go in between, this fails, not creates.
            fd = os.open(target, flags)
        while fd is None:
            tmp = os.path.join(os.path.dirname(target), f".tmp-{os.urandom(4).hex()}")
            try:
                fd = os.open(tmp, flags | os.O_CREAT | os.O_EXCL, 0o666)
            except FileExistsError:
                pass
        with os.fdopen(fd, "wb") as fh:
            if tmp and mode:  # a regular file, replaced
                os.chmod(tmp, stat.S_IMODE(mode) & 0o777)
            fh.writelines(chunks)
        if tmp:
            os.replace(tmp, target)
    except BaseException as exc:
        if tmp and fd is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
