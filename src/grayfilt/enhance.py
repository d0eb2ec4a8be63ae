"""Box blur, and the sharpening operators built on it and on the Laplacian.

Both sharpening operators do their arithmetic in the signed domain and clamp exactly
once at the end, which avoids double-rounding artifacts. Both, and the box
blur, write each strip of rows as gray levels as soon as it is computed, so
no full-size signed intermediate exists; only ``unsharp_mask`` with the
rescale display builds one, since a rescale needs the whole range first.
"""

from __future__ import annotations

import numpy as np

from .convolution import _LAPLACIANS, _correlate_gray, _row_strips, clamp_to_display
from .core import MAX_GRAY, Image, Kernel, SignedImage
from .errors import DomainError
from .kinds import BORDER, DISPLAY, POSITIVE_INT, VARIANT

#: δ − L for each Laplacian stencil L: one correlation with it gives f − laplacian(f).
_SHARPEN = {name: Kernel(np.pad([[1.0]], 1) - lap.coeffs) for name, lap in _LAPLACIANS.items()}


def box_blur(img: Image, radius: int = 1, border: str = "replicate") -> Image:
    """Windowed mean: each pixel becomes the rounded average of its
    (2*radius+1)**2 neighborhood under the border policy.

    The window sums come from separable running sums over the zero-padded
    image, so the work per pixel does not grow with the radius; "replicate"
    adds the copies of the edge rows and columns that a window covers
    beyond the image. Zero padding wider than the image adds nothing, so
    memory does not grow with the radius either. Row strip by row strip,
    the column sums are carried on from the strip above, then summed along
    the rows, rounded in exact integers and stored as gray levels.

    Raises:
        DomainError: if a window sum does not fit in 64 bits (a radius over
            about 9.5e7).
    """
    radius = POSITIVE_INT.check(radius, "radius")
    replicate = BORDER.check(border, "border") == "replicate"
    n = 2 * radius + 1
    area = n * n
    # The largest value held, a window sum plus area // 2, must fit.
    largest = MAX_GRAY * area + area // 2
    if largest >= 2**63:
        raise DomainError("radius is too large: window sums would not fit in 64 bits")
    dtype = np.int32 if largest < 2**31 else np.int64
    h, w = img.height, img.width
    ry, rx = min(radius, h), min(radius, w)
    ny, nx = 2 * ry + 1, 2 * rx + 1
    # Padded pixel (y + 1 + ry, x + 1 + rx) is image pixel (y, x). The extra
    # leading row and column make the zero-padded window of output pixel
    # (y, x) padded rows y + 1 .. y + ny and padded columns x + 1 .. x + nx.
    padded = np.pad(img.pixels, ((ry + 1, ry), (rx + 1, rx)))
    col = padded[:ny].sum(axis=0, dtype=dtype)  # the column sums "above" row 0
    out = np.empty((h, w), np.uint8)
    for s0, s1 in _row_strips(h, padded.shape[1]):
        # Each output row's column sums gain padded row y + ny and lose row y.
        # Row by row: numpy's cumsum along axis 0 strides across the rows and
        # is about ten times slower.
        cols = np.subtract(padded[s0 + ny:s1 + ny], padded[s0:s1], dtype=dtype)
        cols[0] += col
        for i in range(1, len(cols)):
            cols[i] += cols[i - 1]
        col = cols[-1].copy()
        if replicate:
            _add_edge_copies(cols, s0, h, radius, padded[ry + 1], padded[ry + h])
            first, last = cols[:, rx + 1].copy(), cols[:, rx + w].copy()
        # Along the rows, each window is the difference of two running sums;
        # the extra leading column cancels out. The running sums may wrap
        # around in dtype; their difference is still exact.
        np.cumsum(cols, axis=1, out=cols)
        sums = cols[:, nx:] - cols[:, :-nx]
        if replicate:
            _add_edge_copies(sums.T, 0, w, radius, first, last)
        # The area is odd, so no mean is a tie: rounding half away from zero is
        # rounding to nearest, floor((s + area/2) / area) = (s + area//2) // area.
        sums += area // 2
        sums //= area
        out[s0:s1] = sums
    return Image._trusted(out)


def _add_edge_copies(sums: np.ndarray, p0: int, length: int, radius: int,
                     first: np.ndarray, last: np.ndarray) -> None:
    """Row i of ``sums`` holds window sums at position p0 + i of an axis of
    ``length``; add ``first`` times the copies of index 0 that a window of
    ``radius`` covers before the axis, and ``last`` times the copies of
    index length - 1 after it. Only rows within ``radius`` of an end change."""
    p1 = p0 + len(sums)
    lo, hi = p0, min(p1, radius)
    if lo < hi:
        copies = radius - np.arange(lo, hi, dtype=sums.dtype)
        sums[lo - p0:hi - p0] += np.multiply.outer(copies, first)
    lo, hi = max(p0, length - radius), p1
    if lo < hi:
        copies = np.arange(lo, hi, dtype=sums.dtype) + (radius - length + 1)
        sums[lo - p0:hi - p0] += np.multiply.outer(copies, last)


def unsharp_mask(img: Image, radius: int = 1, display: str = "clamp",
                 border: str = "replicate") -> Image:
    """Sharpen by subtracting a blurred copy of the image from the image.

    The signed difference f - blur(f) is mapped to gray levels by the chosen
    display mode; the default clamp leaves flat and darker-than-average
    regions at 0, so only detail survives.
    """
    display = DISPLAY.check(display, "display")
    f = img.pixels
    blurred = box_blur(img, radius, border).pixels
    if display == "clamp":
        # clamp(f - blur) = max(f - blur, 0) = f - min(f, blur), all in uint8.
        low = np.minimum(f, blurred)
        return Image._trusted(np.subtract(f, low, out=low))
    signed = SignedImage._trusted(f.astype(np.int16) - blurred)
    return clamp_to_display(signed, display)


def laplacian_sharpen(img: Image, variant: str = "four",
                      border: str = "replicate") -> Image:
    """Edge-boosted image: clamp(f - laplacian(f)).

    The Laplacian is subtracted, not added, because both stencils carry a
    negative center coefficient; flat regions pass through unchanged. It is
    one integer correlation with δ − L, clamped strip by strip.
    """
    return _correlate_gray(img, _SHARPEN[VARIANT.check(variant, "variant")], border)
