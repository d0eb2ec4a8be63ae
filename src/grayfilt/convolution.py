"""General 2-D neighborhood filtering: correlation, convolution, Laplacians.

A kernel whose coefficients are all integers, with ``sum(|c|) * 255`` below
2**31, is accumulated exactly in ``int32``; every built-in kernel takes this
path. Integer sums are exact in any order, so this equals the float64
evaluation bit for bit. Any other kernel is accumulated in ``float64`` tap by
tap in a fixed row-major order, so results are bit-identical to a per-pixel
nested-loop evaluation in that same order (and exact for an integer kernel
with ``sum(|c|) * 255`` below 2**53, whose partial sums are all integers
that a double holds).
Filtering never clamps: outputs are :class:`SignedImage` and display mapping
is a separate step.
"""

from __future__ import annotations

import os

import numpy as np

from .core import MAX_GRAY, POSITIVE_INT, Image, Kernel, SignedImage, choice, clamp_round

#: Pad modes implementing each border policy.
_BORDER_MODES = {"replicate": "edge", "zero": "constant"}
BORDER = choice(*_BORDER_MODES)

#: Center -4 stencil: f(x+1,y) + f(x-1,y) + f(x,y+1) + f(x,y-1) - 4 f(x,y).
LAPLACIAN_FOUR = Kernel([[0, 1, 0], [1, -4, 1], [0, 1, 0]])

#: Center -8 stencil surrounded by 1s; responds to diagonals as well.
LAPLACIAN_EIGHT = Kernel([[1, 1, 1], [1, -8, 1], [1, 1, 1]])

_LAPLACIANS = {"four": LAPLACIAN_FOUR, "eight": LAPLACIAN_EIGHT}
VARIANT = choice(*_LAPLACIANS)

DISPLAY = choice("clamp", "rescale")
#: Widest [min, max] span whose rescale numerator (values - min) * 255 cannot overflow.
_RESCALE_EXACT_SPAN = np.finfo(np.float64).max / 255.0


def rot180(kernel: Kernel) -> Kernel:
    """Rotate a kernel by 180 degrees: coefficient (i, j) moves to
    (kheight-1-i, kwidth-1-j). Applying it twice gives the original back."""
    return Kernel(kernel.coeffs[::-1, ::-1])


#: Pixels per strip of rows, the correlation loop's cache block and its unit
#: of parallel work: 512 KB per float64 array, so a strip's accumulator and
#: product fit in a core's L2 cache.
_STRIP_PIXELS = 2**16


def _accumulator(coeffs: np.ndarray) -> type:
    """int32 for integer coefficients whose sums over 8-bit pixels stay below
    2**31, so every sum is exact; else float64."""
    with np.errstate(over="ignore"):  # huge finite coefficients sum to inf
        bound = float(np.abs(coeffs).sum()) * MAX_GRAY
    if bound < 2.0**31 and np.array_equal(coeffs, np.round(coeffs)):
        return np.int32
    return np.float64


def _correlate_strip(padded: np.ndarray, coeffs: np.ndarray, out: np.ndarray,
                     s0: int, s1: int) -> None:
    """Add every tap of ``coeffs`` into output rows [s0, s1) of ``out``,
    reading the uint8 ``padded`` source; per-pixel tap order is row-major.
    Strips do not overlap, so threads share ``out`` without a lock.

    Zero taps are skipped and ±1 taps added or subtracted directly; ``out``
    starts at +0.0 (or 0), so neither changes any sum. A float sum that
    overflows becomes non-finite and SignedImage rejects it, so numpy's float
    warnings are silenced. numpy keeps that setting per thread, so it is made
    here, in the function each thread calls."""
    kh, kw = coeffs.shape
    acc = out[s0:s1]
    prod = np.empty_like(acc)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(kh):
            for j in range(kw):
                c, tap = coeffs[i, j], padded[s0 + i:s1 + i, j:j + out.shape[1]]
                if c == 1:
                    acc += tap
                elif c == -1:
                    acc -= tap
                elif c != 0:
                    # The explicit loop dtype keeps numpy 1.x from
                    # choosing uint8 from the scalar's value and wrapping.
                    acc += np.multiply(tap, c, out=prod, dtype=prod.dtype)


def correlate(img: Image, kernel: Kernel, border: str = "replicate",
              workers: int = 1) -> SignedImage:
    """Sliding-window weighted sum with the kernel anchored at its center.

    output(x, y) = sum over taps (i, j) of coeff(i, j) * pixel(x+j-cx, y+i-cy),
    with out-of-range pixels resolved by the border policy.

    Args:
        img: input image.
        kernel: weights; odd dimensions, center anchor.
        border: "replicate" repeats the nearest in-range pixel, "zero"
            treats outside pixels as 0.
        workers: most threads to share the row strips, with at most one
            thread per CPU and one per strip. Output is bit-identical for
            every worker count.

    Returns:
        A SignedImage with the same dimensions as the input: int32 values
        for an integer kernel within the int32 bound, else float64.
    """
    mode = _BORDER_MODES[BORDER.check(border, "border")]
    workers = POSITIVE_INT.check(workers, "workers")
    coeffs = kernel.coeffs.astype(_accumulator(kernel.coeffs))
    ph, pw = kernel.kheight // 2, kernel.kwidth // 2
    padded = np.pad(img.pixels, ((ph, ph), (pw, pw)), mode=mode)
    out = np.zeros((img.height, img.width), coeffs.dtype)

    step = max(1, _STRIP_PIXELS // img.width)
    strips = [(s0, min(s0 + step, img.height)) for s0 in range(0, img.height, step)]
    threads = min(workers, len(strips), os.cpu_count() or 1)
    if threads == 1:
        for s0, s1 in strips:
            _correlate_strip(padded, coeffs, out, s0, s1)
    else:
        # Imported here, as most calls run on one thread: at module level it
        # would add about 8 ms to every CLI process's start-up.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda s: _correlate_strip(padded, coeffs, out, *s), strips))
    return SignedImage._trusted(out)


def convolve(img: Image, kernel: Kernel, border: str = "replicate",
             workers: int = 1) -> SignedImage:
    """True convolution: correlate with the kernel rotated by 180 degrees."""
    return correlate(img, rot180(kernel), border, workers)


def laplacian(img: Image, variant: str = "four", border: str = "replicate",
              workers: int = 1) -> SignedImage:
    """Discrete isotropic second-derivative filter.

    variant "four" uses the center -4 axis stencil, "eight" the center -8
    stencil that also spans diagonals. Both coefficient sets sum to zero,
    so constant regions map to exactly 0 under the replicate border.
    """
    return correlate(img, _LAPLACIANS[VARIANT.check(variant, "variant")], border, workers)


def clamp_to_display(signed: SignedImage, mode: str = "clamp") -> Image:
    """Map a signed intermediate back to displayable gray levels.

    "clamp" rounds each value half away from zero and clips to [0, 255].
    "rescale" maps [min, max] affinely onto [0, 255] (an all-equal input
    comes back as all zeros); this holds for any finite range, even one
    wider than the largest double.
    """
    if DISPLAY.check(mode, "mode") == "clamp":
        return Image(clamp_round(signed.values))
    values = signed.values
    # Python floats hold every float64 and every integer below 2**53 exactly.
    vmin, vmax = float(values.min()), float(values.max())
    if vmin == vmax:
        return Image(np.zeros(values.shape, dtype=np.uint8))
    if vmax - vmin <= _RESCALE_EXACT_SPAN:
        # Multiply before dividing: for integer-valued inputs the numerator
        # stays exact, so half-way quotients round the same as exact rationals.
        # The explicit dtype keeps numpy 1.x from subtracting int16 values in
        # float32.
        scaled = np.subtract(values, vmin, dtype=np.float64)
        scaled *= 255.0
        scaled /= vmax - vmin
    else:
        # The product, or the span itself, would overflow: halve every term
        # (exact for normal doubles) and divide first.
        scaled = (values / 2 - vmin / 2) / (vmax / 2 - vmin / 2) * 255.0
    return Image(clamp_round(scaled))
