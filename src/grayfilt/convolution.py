"""General 2-D neighborhood filtering: correlation, convolution, Laplacians.

The sliding-window sum is accumulated tap by tap in a fixed row-major order,
so results are bit-identical to a per-pixel nested-loop evaluation in that
same order, for integer and real coefficients alike. Filtering never clamps:
outputs are :class:`SignedImage` and display mapping is a separate step.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import POSITIVE_INT, Image, Kernel, SignedImage, choice, clamp_round

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


def _correlate_rows(padded: np.ndarray, coeffs: np.ndarray, r0: int, r1: int,
                    width: int) -> np.ndarray:
    """Correlate output rows [r0, r1); per-pixel tap order is row-major.

    A sum that overflows becomes non-finite and SignedImage rejects it, so
    numpy's float warnings are silenced. numpy keeps that setting per thread,
    so it is made here, in the function each worker calls."""
    kh, kw = coeffs.shape
    out = np.zeros((r1 - r0, width))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(kh):
            for j in range(kw):
                out += coeffs[i, j] * padded[r0 + i:r1 + i, j:j + width]
    return out


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
        workers: number of row blocks to compute in parallel. Output is
            bit-identical for every worker count.

    Returns:
        A SignedImage with the same dimensions as the input.
    """
    mode = _BORDER_MODES[BORDER.check(border, "border")]
    workers = POSITIVE_INT.check(workers, "workers")
    src = img.pixels.astype(np.float64)
    coeffs = kernel.coeffs
    ph, pw = kernel.kheight // 2, kernel.kwidth // 2
    padded = np.pad(src, ((ph, ph), (pw, pw)), mode=mode)
    height, width = src.shape

    if workers == 1 or height == 1:
        return SignedImage(_correlate_rows(padded, coeffs, 0, height, width))

    bounds = np.linspace(0, height, min(workers, height) + 1, dtype=int)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        blocks = list(pool.map(
            lambda rr: _correlate_rows(padded, coeffs, rr[0], rr[1], width),
            zip(bounds[:-1], bounds[1:]),
        ))
    return SignedImage(np.vstack(blocks))


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
    vmin, vmax = values.min(), values.max()
    if vmin == vmax:
        return Image(np.zeros(values.shape, dtype=np.uint8))
    if float(vmax) - float(vmin) <= _RESCALE_EXACT_SPAN:
        # Multiply before dividing: for integer-valued inputs the numerator
        # stays exact, so half-way quotients round the same as exact rationals.
        scaled = (values - vmin) * 255.0 / (vmax - vmin)
    else:
        # The product, or the span itself, would overflow: halve every term
        # (exact for normal doubles) and divide first.
        scaled = (values / 2 - vmin / 2) / (vmax / 2 - vmin / 2) * 255.0
    return Image(clamp_round(scaled))
