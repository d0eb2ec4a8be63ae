"""Exact integer filters on plain bytes, without numpy, for small images.

SWAR, "SIMD within a register" (Fisher and Dietz, "Compiling for SIMD Within a
Register", LCPC 1998), one strip of ``_row_strips`` at a time: a strip and its
halo rows, taken from the neighbouring rows, are padded and widened on their own
into one Python int with a b-bit field per pixel, b = 16, and a few big-int
operations compute all its fields at once. A tap at offset d is a right shift by
16·d. Starting from ones·(K + bias), where ``ones`` has a 1 in every field, each
positive tap is added and each negative tap subtracted, so every field of the
total T holds K + bias + sum. K = 2**g is a power of two with K ≥ neg·255 + 256
and K > pos·255 + bias, for the sums pos·255 of the positive and neg·255 of the
negative taps over 8-bit pixels. So every field stays in [256, 2**(g+1)), within
its 16 bits where g ≤ 15, in any tap order: no field borrows from or carries
into its neighbour, and every sum is exact. Bit g of a field is set where
bias + sum is at least 0, and bit g of T − 256·ones where it is at least 256;
these two guard-bit masks clamp the low byte of each field, which K leaves as it
is, to [0, 255]. A stencil whose guard bit passes 15 has no bytes form.

A step's work grows with fields × taps, where numpy's barely grows at these
sizes once its import is paid for, and a padded step also slices and joins
each row in Python. So each step runs only where fields × its cost a field
+ rows × ``_ROW_TAPS`` is at most ``_CUT``, and returns None above it, for
the numpy engine to take over; ``_by_strips`` prices a padded step from the
fields and rows it pads. A 16-bit field costs its taps plus
``_FIXED_TAPS``; edges' 8-bit field costs ``_EDGE_TAPS``. The stencils of the built-in
kernel ops (the Laplacians, sharpening, the shadow and its negative) are
declared here, as integer tuples that both engines read: ``pipeline._kernel_step``
builds every kernel op's forms from one stencil, bias, border and display,
and gives every clamp under the replicate border a bytes form. The taps
alone decide whether it runs: :func:`correlate_clamp` gives None for a
non-integer tap as for a guard bit past 15, so a kernel file of integers
(spelled ``3``, ``3.0`` or ``3e0``) runs here as a built-in stencil does.
The histogram chart drawn here is also the library's ``render_histogram``.
"""

from __future__ import annotations

from collections import Counter

from ._bytes import _ones, _row_strips, binarize_table
from .errors import DomainError
from .kinds import GRAY_LEVELS, MAX_GRAY

#: Center -4 stencil: f(x+1,y) + f(x-1,y) + f(x,y+1) + f(x,y-1) - 4 f(x,y); and
#: the center -8 stencil surrounded by 1s, which responds to diagonals as well.
LAPLACIANS = {"four": ((0, 1, 0), (1, -4, 1), (0, 1, 0)),
              "eight": ((1, 1, 1), (1, -8, 1), (1, 1, 1))}
#: δ − L for each Laplacian stencil L: one correlation with it gives f − laplacian(f).
SHARPEN = {name: tuple(tuple((i == j == 1) - c for j, c in enumerate(row))
                       for i, row in enumerate(lap))
           for name, lap in LAPLACIANS.items()}
#: Difference of the northeast neighbor minus the southwest neighbor.
SHADOW_NE = ((0, 0, 1), (0, 0, 0), (-1, 0, 0))
#: Mid-gray bias added to the directional difference before clamping.
SHADOW_BIAS = 128
#: The shadow's negative is one clamp display, as 255 − clamp(v + 128) =
#: clamp(127 − v) for every integer v: southwest minus northeast, plus 127.
SHADOW_SW = tuple(tuple(-c for c in row) for row in SHADOW_NE)
SHADOW_SW_BIAS = MAX_GRAY - SHADOW_BIAS

#: Most pixel-taps a bytes step takes on: the work of a small image's step
#: stays below the cost of importing numpy (CHANGES.md has the process
#: timings), and every 2048x2048 input, 2**22 pixels, is above it but for edges.
_CUT = 2**25
#: The taps' worth of work a step of 16-bit fields does per field whatever
#: its taps: padding, widening, the clamp masks and the read-back.
_FIXED_TAPS = 16
#: The taps' worth of work ``edge_points`` does per 8-bit field, all told: it
#: needs no widening, multiplies or clamp masks, and takes 4.5 to 5 taps'
#: worth in process, against 9 + ``_FIXED_TAPS`` for sharpen. 4 puts the cut
#: at 2831x2831, between 2560x2560, where the bytes form is the faster
#: process, and 3072x3072, where the two tie (CHANGES.md has the timings).
_EDGE_TAPS = 4
#: The taps' worth of work of padding and cropping one row, about 1 µs: it
#: keeps a tall, thin image, whose rows are few pixels each, on numpy.
_ROW_TAPS = 512
#: ``histogram`` costs this plus ``_FIXED_TAPS`` a pixel, 28 taps' worth, all of
#: it ``collections.Counter``'s (it pads and widens nothing): a cut at 1094x1094.
_COUNT_TAPS = 12
#: Height of the rendered histogram bar chart; its width is one column per level.
CHART_HEIGHT = 100


def _under_cut(fields: int, cost: int, rows: int = 0) -> bool:
    """Whether ``cost`` taps' worth of work over each of ``fields`` fields,
    and ``rows`` padded rows, are work below the cost of importing numpy."""
    return fields * cost + rows * _ROW_TAPS <= _CUT


def _widen(raster: bytes) -> int:
    """One 16-bit field per byte of ``raster``, the first byte lowest."""
    wide = bytearray(2 * len(raster))
    wide[::2] = raster
    return int.from_bytes(wide, "little")


def _by_strips(width: int, height: int, raster, py: int, px: int, cost: int, step):
    """The raster of ``step`` run on each strip of ``_row_strips(height, width + 2·px)``: its
    rows, with ``py`` halo rows and ``px`` columns either side under the replicate border;
    None where those padded fields at ``cost`` and padded rows are above the cut. ``step``
    returns a byte a field; each row keeps ``width``."""
    stride, out = width + 2 * px, bytearray()
    if not _under_cut((height + 2 * py) * stride, cost, height + 2 * py):
        return None
    for s0, s1 in _row_strips(height, stride):
        first, last = max(s0 - py, 0), min(s1 + py, height)
        rows = [raster[y * width:(y + 1) * width] for y in range(first, last)]
        rows = [rows[0]] * (first - s0 + py) + rows + [rows[-1]] * (s1 + py - last)
        flat = step(b"".join([row[:1] * px + row + row[-1:] * px for row in rows]))
        out += b"".join([flat[y:y + width] for y in range(0, stride * (s1 - s0), stride)])
    return out


def correlate_clamp(width: int, height: int, raster: bytes, kernel, bias: int = 0):
    """``clamp_round(bias + correlate(...))`` of the image under the replicate
    border for a ``kernel`` of odd-length rows, as the raster of the result;
    None for a tap that is not an integer (a float such as 2.0 is one), above
    the cut, or where the guard bit g, with 2**g ≥ neg·255 + 256 and
    2**g > pos·255 + ``bias``, passes 15."""
    if any(c % 1 for row in kernel for c in row):
        return None
    taps = [(i, j, int(c)) for i, row in enumerate(kernel) for j, c in enumerate(row) if c]
    pos = sum(c for _, _, c in taps if c > 0)
    neg = -sum(c for _, _, c in taps if c < 0)
    g = max(neg * MAX_GRAY + GRAY_LEVELS - 1, pos * MAX_GRAY + bias).bit_length()
    if g > 15:
        return None
    py, px = len(kernel) // 2, len(kernel[0]) // 2
    stride = width + 2 * px

    def clamp(padded):
        x = _widen(padded)
        ones = _ones(len(padded), 16)
        total = ones * ((1 << g) + bias)
        for i, j, c in taps:
            term = x >> 16 * (i * stride + j)
            if abs(c) != 1:
                term *= abs(c)
            total = total + term if c > 0 else total - term
        del x, term
        # ones stays cached, so over goes before the next mask; OR-ing low bytes keeps bit g.
        over = ((total - (ones << 8)) >> g) & ones
        total |= over * 255
        del over
        total &= ((total >> g) & ones) * 255
        return total.to_bytes(2 * len(padded), "little")[::2]

    return _by_strips(width, height, raster, py, px, len(taps) + _FIXED_TAPS, clamp)


def edge_points(width: int, height: int, raster: bytes, threshold: int):
    """The edges op: binarize at ``threshold`` to 0/255, then mark 255 where
    a pixel is 0 and a 4-neighbor is not, in 8-bit fields; None above the cut.
    A neighbor outside the image is a copy of the pixel, so never differs."""
    stride, table = width + 2, binarize_table(threshold)

    def edges(padded):
        x = int.from_bytes(padded.translate(table), "little")
        # Field p is the top left of a 3x3 window: its center is at p + stride + 1.
        near = (x >> 8) | (x >> 8 * stride) | (x >> 8 * (stride + 2)) | (x >> 8 * (2 * stride + 1))
        near ^= near & (x >> 8 * (stride + 1))
        return near.to_bytes(len(padded), "little")

    return _by_strips(width, height, raster, 1, 1, _EDGE_TAPS, edges)


def same_size(a, b) -> None:
    """Raise the DomainError of adding images of (width, height) ``a`` and ``b`` that differ."""
    if a != b:
        raise DomainError(f"cannot add images of different sizes: "
                          f"{a[0]}x{a[1]} vs {b[0]}x{b[1]}")


def add(width: int, height: int, raster: bytes, second) -> bytearray:
    """The saturating sum min(a + b, 255) of the image and ``second``, a (width,
    height, raster), in 16-bit fields a strip at a time; None above the cut."""
    same_size((width, height), second[:2])
    if not _under_cut(width * height, 1 + _FIXED_TAPS):
        return None
    out, a, b = bytearray(), memoryview(raster), memoryview(second[2])
    for y0, y1 in _row_strips(height, width):
        s0, s1 = y0 * width, y1 * width
        total = _widen(a[s0:s1]) + _widen(b[s0:s1])
        over = (total >> 8) & _ones(s1 - s0, 16)  # a sum of at most 510 sets bit 8 from 256
        total |= (over << 8) - over
        out += total.to_bytes(2 * (s1 - s0), "little")[::2]
    return out


def histogram(raster: bytes):
    """The count of each gray level, as a list of 256 ints; None above the cut."""
    if not _under_cut(len(raster), _COUNT_TAPS + _FIXED_TAPS):
        return None
    counts = Counter(raster)
    return [counts[level] for level in range(GRAY_LEVELS)]


def histogram_csv(counts) -> str:
    """257 newline-terminated lines: a header plus one "level,count" line per level."""
    return "level,count\n" + "".join(f"{level},{count}\n" for level, count in enumerate(counts))


def histogram_chart(counts) -> bytes:
    """The raster of the 256-wide bar chart: white, with a black bar of
    round_half_away(100·count/max) = (200·count + max) // (2·max) pixels under
    each level, exact in Python ints for counts of any size; all white if every
    count is 0. Row r translates each bar height h to black where h ≥ 100 − r."""
    top = max(counts) or 1
    heights = bytes((2 * CHART_HEIGHT * count + top) // (2 * top) for count in counts)
    return b"".join(heights.translate(b"\xff" * (CHART_HEIGHT - row)
                                      + bytes(GRAY_LEVELS - CHART_HEIGHT + row))
                    for row in range(CHART_HEIGHT))
