"""Shared test support: brute-force oracles, random input makers, an
in-process CLI runner, and op cases generated from ``pipeline.OPS``.

The oracles are deliberately naive nested-loop implementations, written
against the definitions rather than the library internals, so they can
serve as independent ground truth. Where a result requires rounding, the
oracles use exact rational arithmetic.
"""

from fractions import Fraction
from itertools import product
from math import isqrt
from unittest import mock

import numpy as np
import pytest

from grayfilt import BinaryImage, FormatError, Image, PipelineSpec, _bytes, _swar
from grayfilt._bytes import refused
from grayfilt.cli import main
from grayfilt.kinds import FLAG, POSITIVE_FLOAT, POSITIVE_INT, THRESHOLD
from grayfilt.pipeline import OPS, _compile, _run_raster


def run_cli(argv):
    """Run the CLI in process and return its exit code, usage errors included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# Random input makers
# ---------------------------------------------------------------------------

def rand_image(rng, max_side=16, min_side=1):
    h = int(rng.integers(min_side, max_side + 1))
    w = int(rng.integers(min_side, max_side + 1))
    return Image(rng.integers(0, 256, size=(h, w), dtype=np.uint8))


def rand_bits(rng, max_side=16, min_side=1):
    h = int(rng.integers(min_side, max_side + 1))
    w = int(rng.integers(min_side, max_side + 1))
    return BinaryImage(rng.integers(0, 2, size=(h, w), dtype=np.uint8))


def rand_kernel(rng, sizes=(1, 3, 5)):
    kh = int(rng.choice(sizes))
    kw = int(rng.choice(sizes))
    while True:
        coeffs = np.round(rng.normal(0.0, 2.0, size=(kh, kw)), 3)
        if np.any(coeffs != 0.0):
            return coeffs


# ---------------------------------------------------------------------------
# Exact rounding
# ---------------------------------------------------------------------------

def round_half_away_exact(x) -> int:
    """Round a Fraction/int to the nearest integer, ties away from zero."""
    frac = Fraction(x)
    if frac < 0:
        return -round_half_away_exact(-frac)
    whole, rem = divmod(frac.numerator, frac.denominator)
    return whole + (1 if 2 * rem >= frac.denominator else 0)


def clamp_round_exact(x) -> int:
    return min(max(round_half_away_exact(x), 0), 255)


# ---------------------------------------------------------------------------
# Brute-force filters
# ---------------------------------------------------------------------------

def _sample(pixels, y, x, border):
    h, w = len(pixels), len(pixels[0])
    if 0 <= y < h and 0 <= x < w:
        return pixels[y][x]
    if border == "replicate":
        return pixels[min(max(y, 0), h - 1)][min(max(x, 0), w - 1)]
    return 0


def correlate_brute(pixels, coeffs, border="replicate"):
    """Nested-loop sliding-window sum; taps accumulate in row-major order
    (the same per-pixel float operation sequence the definition implies)."""
    h, w = len(pixels), len(pixels[0])
    kh, kw = len(coeffs), len(coeffs[0])
    cy, cx = kh // 2, kw // 2
    out = [[0.0] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    acc += coeffs[i][j] * _sample(pixels, y + i - cy, x + j - cx, border)
            out[y][x] = acc
    return out


def box_mean_brute(pixels, radius, border="replicate"):
    """Windowed integer sum divided exactly, rounded half away from zero."""
    h, w = len(pixels), len(pixels[0])
    n = 2 * radius + 1
    out = [[0] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            total = 0
            for i in range(-radius, radius + 1):
                for j in range(-radius, radius + 1):
                    total += _sample(pixels, y + i, x + j, border)
            out[y][x] = clamp_round_exact(Fraction(total, n * n))
    return out


def box_mean_by_counts(pixels, radius, border="replicate"):
    """The same windowed mean, for any radius: each in-range pixel is
    weighted by how many window positions resolve to it in each axis,
    which makes the cost independent of the radius."""
    h, w = len(pixels), len(pixels[0])
    n = 2 * radius + 1

    def counts(center, length):
        # How often each index 0..length-1 is sampled from [center-r, center+r].
        c = [1 if abs(k - center) <= radius else 0 for k in range(length)]
        if border == "replicate":
            c[0] += max(0, radius - center)
            c[length - 1] += max(0, center + radius - (length - 1))
        return c

    out = [[0] * w for _ in range(h)]
    for y in range(h):
        rows = counts(y, h)
        for x in range(w):
            cols = counts(x, w)
            total = sum(rows[i] * cols[j] * pixels[i][j] for i in range(h) for j in range(w))
            out[y][x] = clamp_round_exact(Fraction(total, n * n))
    return out


def edge_map_brute(bits):
    """Per-pixel scan: 1 iff the pixel differs from an existing 4-neighbor."""
    h, w = len(bits), len(bits[0])
    out = [[0] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            center = bits[y][x]
            for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and bits[ny][nx] != center:
                    out[y][x] = 1
                    break
    return out


def edge_points_brute(bits):
    g = edge_map_brute(bits)
    h, w = len(bits), len(bits[0])
    return [[1 if (bits[y][x] == 0 and g[y][x] == 1) else 0 for x in range(w)]
            for y in range(h)]


def laplacian_interior_brute(pixels, variant):
    """Direct neighbor-summation stencil on interior pixels only."""
    h, w = len(pixels), len(pixels[0])
    out = [[None] * w for _ in range(h)]
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            axis = (pixels[y][x + 1] + pixels[y][x - 1]
                    + pixels[y + 1][x] + pixels[y - 1][x])
            if variant == "four":
                out[y][x] = axis - 4 * pixels[y][x]
            else:
                diag = (pixels[y - 1][x - 1] + pixels[y - 1][x + 1]
                        + pixels[y + 1][x - 1] + pixels[y + 1][x + 1])
                out[y][x] = axis + diag - 8 * pixels[y][x]
    return out


def histogram_brute(pixels):
    counts = [0] * 256
    for row in pixels:
        for value in row:
            counts[value] += 1
    return counts


# ---------------------------------------------------------------------------
# The cut of the bytes steps (grayfilt._swar)
# ---------------------------------------------------------------------------

def swar_cost(width, height, cost, pad):
    """The work a bytes step of ``cost`` taps' worth a field counts against
    the cut on a width x height image padded by ``pad`` rows and columns each
    side; an unpadded step (pad 0) slices no rows."""
    from grayfilt import _swar

    rows = height + 2 * pad
    fields = rows * (width + 2 * pad)
    return fields * cost + (rows * _swar._ROW_TAPS if pad else 0)


def swar_side_at_cut(cost, pad):
    """The side of the largest square image a bytes step takes on."""
    from grayfilt import _swar

    side = isqrt(_swar._CUT // cost)
    while swar_cost(side, side, cost, pad) > _swar._CUT:
        side -= 1
    return side


# ---------------------------------------------------------------------------
# Op cases, and the CLI's engine under a patched cut and strip size
# ---------------------------------------------------------------------------

#: The values a parameter of each kind that is neither a choice nor a path
#: takes in the generated op cases.
_SAMPLES = {POSITIVE_FLOAT: (0.5, 2.0), POSITIVE_INT: (1, 2), THRESHOLD: (90, 170),
            FLAG: (False, True)}


def op_stages(paths):
    """A stage mapping for each op in ``pipeline.OPS`` and each combination
    of its parameters' values: every option of a choice, ``_SAMPLES`` of
    the other kinds, and for a path parameter the paths in
    ``paths[param.name]``. An op declared later is covered as it comes."""
    for name, op in OPS.items():
        values = [param.kind.choices or _SAMPLES.get(param.kind) or paths[param.name]
                  for param in op.params]
        for combo in product(*values):
            yield {"op": name, **{param.name: v for param, v in zip(op.params, combo)}}


def stage_label(stage) -> str:
    """The op name of a stage mapping, then each parameter as key=value."""
    return " ".join([stage["op"], *(f"{k}={v}" for k, v in stage.items() if k != "op")])


#: The engines the CLI's ``_run_raster`` runs: "bytes" at the default cut,
#: so that a small image takes every bytes form; "numpy" at a cut of 0; and
#: "seams" and "bytes seams", numpy and bytes with strips of 5 pixels: 5 // row
#: whole rows and at least one, so that a seam falls between every two rows
#: where a row, padding included, holds 3 pixels or more, as every row of a
#: padded step does.
ENGINES = {"bytes": {}, "numpy": {"cut": 0}, "seams": {"cut": 0, "strip": 5},
           "bytes seams": {"strip": 5}}


def strips_of(pixels):
    """Patch the strip size of every strip loop, numpy's and the bytes
    engine's, so that a small image spans many strips."""
    return mock.patch.object(_bytes, "_STRIP_PIXELS", pixels)


def run_stages(stages, pixels, cut=None, strip=None) -> bytes:
    """The output raster of the stage mappings ``stages`` on the uint8 array
    ``pixels``, as the CLI computes it (``_run_raster``), with ``_swar._CUT``
    set to ``cut`` and the strip size of every strip loop to ``strip`` where
    each is given."""
    height, width = pixels.shape
    with pytest.MonkeyPatch.context() as patch:
        if cut is not None:
            patch.setattr(_swar, "_CUT", cut)
        if strip is not None:
            patch.setattr(_bytes, "_STRIP_PIXELS", strip)
        return bytes(_run_raster(_compile(PipelineSpec(stages)), width, height, pixels.tobytes()))


# ---------------------------------------------------------------------------
# PGM header
# ---------------------------------------------------------------------------

#: PGM whitespace: the six ASCII bytes that ``bytes.split()`` splits at.
WHITESPACE = b" \t\n\r\x0b\x0c"


def _next_token(data: bytes, pos: int):
    """Scan past whitespace and '#' comments; return (token, start, end)."""
    n = len(data)
    while pos < n:
        byte = data[pos:pos + 1]
        if byte in (b"#",):
            eol = data.find(b"\n", pos)
            pos = n if eol < 0 else eol + 1
        elif byte in WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise FormatError(f"unexpected end of header at byte {n}")
    end = pos
    while end < n and data[end:end + 1] not in WHITESPACE and data[end:end + 1] != b"#":
        end += 1
    return data[pos:end], pos, end


def header_int_brute(data: bytes, pos: int, what: str):
    """Read one header integer byte by byte: (value, end), or a FormatError."""
    token, start, end = _next_token(data, pos)
    try:
        value = int(token.decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        raise FormatError(f"{what}: {refused(token, 'token')} at byte {start}") from None
    return value, end


#: A sound 2x1 frame, and faulty frames to follow it with the fault of each, whose
#: byte offsets count from that frame's own magic.
FRAME_ONE = b"P5\n2 1\n255\n\x01\x02"
LATER_FRAME_FAULTS = [
    pytest.param(b"P5\n2 x\n255\n\x03\x04", "height: non-numeric token b'x' at byte 5",
                 id="bad-header"),
    pytest.param(b"P5x", "expected whitespace after magic at byte 2", id="no-whitespace"),
    pytest.param(b"P5\n2 1\n255\n\x03", "truncated raster: need 2 bytes, file ends at byte 12",
                 id="short-p5"),
    pytest.param(b"\nP2\n2 1\n255\n3", "truncated raster: need 2 pixels, file ends at byte 12",
                 id="short-p2"),
]
