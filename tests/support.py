"""Shared test support: brute-force oracles, random input makers, and an
in-process CLI runner.

The oracles are deliberately naive nested-loop implementations, written
against the definitions rather than the library internals, so they can
serve as independent ground truth. Where a result requires rounding, the
oracles use exact rational arithmetic.
"""

from fractions import Fraction

import numpy as np

from grayfilt import BinaryImage, Image
from grayfilt.cli import main


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
