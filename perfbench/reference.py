"""Reference outputs computed from the README formulas, independently of grayfilt.

Correlation follows the definition: taps accumulate in row-major order in
float64. For kernels with integer coefficients every product and partial sum
is an integer far below 2**53, so float64 accumulation is exact in any order
and the references accumulate in int32 instead, which gives the same values
faster. Display mapping rounds half away from zero, then clips to [0, 255].
Divisions that precede a rounding (box mean, rescale, histogram bars) are
done in exact integer arithmetic: none of their quotients can land within
float64 error of a rounding tie, so the library's float quotient rounds to
the same integer.

A :class:`Stats` passed along records the input properties that later
optimisations depend on: how many display-mapped pixels were clipped, and
how many kernel taps were zero or integer.
"""

from __future__ import annotations

import numpy as np

#: The 4- and 8-neighbour Laplacian stencils (centre -4 and centre -8).
LAPLACIANS = {
    "four": np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]], dtype=np.float64),
    "eight": np.array([[1, 1, 1], [1, -8, 1], [1, 1, 1]], dtype=np.float64),
}

#: Northeast neighbour minus southwest neighbour, biased by mid-gray.
SHADOW_NE = np.array([[0, 0, 1], [0, 0, 0], [-1, 0, 0]], dtype=np.float64)
SHADOW_BIAS = 128


class Stats:
    """Counts over the distinct ops of one workload."""

    def __init__(self):
        self.display_px = 0
        self.clipped_px = 0
        self.conv_px = 0
        self.int_conv_px = 0
        self.taps = 0
        self.zero_taps = 0

    def kernel(self, coeffs: np.ndarray, px: int) -> None:
        self.conv_px += px
        self.int_conv_px += px * bool(np.all(coeffs == np.rint(coeffs)))
        self.taps += px * coeffs.size
        self.zero_taps += px * int(np.count_nonzero(coeffs == 0))

    def as_properties(self) -> dict:
        return {
            "core.clip_share": self.clipped_px / max(self.display_px, 1),
            "convolution.zero_tap_share": self.zero_taps / max(self.taps, 1),
            "convolution.int_kernel_share": self.int_conv_px / max(self.conv_px, 1),
        }


def _pad(p: np.ndarray, ph: int, pw: int, border: str) -> np.ndarray:
    mode = {"replicate": "edge", "zero": "constant"}[border]
    return np.pad(p, ((ph, ph), (pw, pw)), mode=mode)


def correlate(p: np.ndarray, coeffs: np.ndarray, border: str = "replicate",
              stats: Stats | None = None) -> np.ndarray:
    """Same-size correlation; int32 result for integer kernels, else float64."""
    kh, kw = coeffs.shape
    h, w = p.shape
    if stats is not None:
        stats.kernel(coeffs, h * w)
    padded = _pad(p, kh // 2, kw // 2, border)
    if np.all(coeffs == np.rint(coeffs)):
        if np.abs(coeffs).sum() * 255 >= 2 ** 31:
            raise ValueError("integer kernel too large for the int32 reference")
        src = padded.astype(np.int32)
        acc = np.zeros((h, w), dtype=np.int32)
        for (i, j), c in np.ndenumerate(coeffs.astype(np.int32)):
            if c:
                acc += c * src[i:i + h, j:j + w]
        return acc
    src = padded.astype(np.float64)
    acc = np.zeros((h, w))
    for (i, j), c in np.ndenumerate(coeffs):
        acc += c * src[i:i + h, j:j + w]
    return acc


def round_half_away(v: np.ndarray) -> np.ndarray:
    mag = np.abs(v)
    whole = np.floor(mag)
    whole += (mag - whole) >= 0.5
    return np.copysign(whole, v)


def display(values: np.ndarray, mode: str = "clamp", stats: Stats | None = None) -> np.ndarray:
    """Map signed values to uint8 by "clamp" or by integer "rescale"."""
    if mode == "rescale":
        if values.dtype.kind != "i":
            raise ValueError("rescale reference is defined for integer values only")
        vals = values.astype(np.int64)
        lo, hi = int(vals.min()), int(vals.max())
        if stats is not None:
            stats.display_px += vals.size
        if lo == hi:
            return np.zeros(vals.shape, dtype=np.uint8)
        span = hi - lo
        return ((2 * 255 * (vals - lo) + span) // (2 * span)).astype(np.uint8)
    rounded = values if values.dtype.kind == "i" else round_half_away(values)
    if stats is not None:
        stats.display_px += rounded.size
        stats.clipped_px += int(np.count_nonzero((rounded < 0) | (rounded > 255)))
    return np.clip(rounded, 0, 255).astype(np.uint8)


def laplacian(p, variant, mode="clamp", stats=None):
    return display(correlate(p, LAPLACIANS[variant], "replicate", stats), mode, stats)


def sharpen(p, variant, stats=None):
    lap = correlate(p, LAPLACIANS[variant], "replicate", stats)
    return display(p.astype(np.int32) - lap, "clamp", stats)


def box_blur(p, radius, stats=None):
    n = 2 * radius + 1
    sums = correlate(p, np.ones((n, n)), "replicate", stats).astype(np.int64)
    return ((2 * sums + n * n) // (2 * n * n)).astype(np.uint8)


def unsharp(p, radius, mode="clamp", stats=None):
    signed = p.astype(np.int32) - box_blur(p, radius, stats)
    return display(signed, mode, stats)


def convolve(p, coeffs, border="replicate", mode="clamp", stats=None):
    return display(correlate(p, coeffs[::-1, ::-1], border, stats), mode, stats)


def shadow(p, stats=None):
    return display(SHADOW_BIAS + correlate(p, SHADOW_NE, "replicate", stats), "clamp", stats)


def binarize(p, threshold):
    return np.where(p >= threshold, 255, 0).astype(np.uint8)


def edges(p, threshold):
    """Dark pixels with a white 4-neighbour; the frame counts as equal."""
    bits = p >= threshold
    h, w = bits.shape
    q = np.pad(bits, 1, mode="edge")
    differs = ((q[:h, 1:w + 1] != bits) | (q[2:, 1:w + 1] != bits)
               | (q[1:h + 1, :w] != bits) | (q[1:h + 1, 2:] != bits))
    return np.where(~bits & differs, 255, 0).astype(np.uint8)


def negate(p):
    return (255 - p).astype(np.uint8)


def stretch_table(gamma: float) -> np.ndarray:
    """round(255 * (r/255)**gamma) per level. For the gammas the workloads
    use (2 and 1/2) no exact value lies within float error of a tie."""
    return np.array([int(round_half_away(np.float64(255.0 * (r / 255.0) ** gamma)))
                     for r in range(256)], dtype=np.uint8)


def stretch(p, gamma):
    return stretch_table(gamma)[p]


def lut(p, table):
    return np.asarray(table, dtype=np.uint8)[p]


def add(a, b):
    return np.minimum(a.astype(np.int32) + b, 255).astype(np.uint8)


def histogram(p) -> tuple[bytes, np.ndarray]:
    """The CSV text and the 256x100 bar chart."""
    bins = np.bincount(p.ravel(), minlength=256).astype(np.int64)
    csv = "level,count\n" + "".join(f"{i},{c}\n" for i, c in enumerate(bins.tolist()))
    top = int(bins.max())
    heights = (2 * 100 * bins + top) // (2 * top)
    rows = np.arange(100)[:, None]
    chart = np.where(rows >= 100 - heights[None, :], 0, 255).astype(np.uint8)
    return csv.encode("ascii"), chart
