"""Box blur, and the sharpening operators built on it and on the Laplacian.

Both sharpening operators do their arithmetic in the signed domain and clamp exactly
once at the end, which avoids double-rounding artifacts. Both, and the box
blur, write each strip of rows as gray levels as soon as it is computed, so
no full-size signed intermediate exists; only ``unsharp_mask`` with the
rescale display builds one, since a rescale needs the whole range first.
"""

from __future__ import annotations

import numpy as np

from .convolution import (
    _BORDER_MODES,
    _LAPLACIANS,
    BORDER,
    VARIANT,
    _correlate_gray,
    _row_strips,
    clamp_to_display,
)
from .core import MAX_GRAY, POSITIVE_INT, Image, Kernel, SignedImage

#: δ − L for each Laplacian stencil L: one correlation with it gives f − laplacian(f).
_SHARPEN = {name: Kernel(np.pad([[1.0]], 1) - lap.coeffs) for name, lap in _LAPLACIANS.items()}


def box_blur(img: Image, radius: int = 1, border: str = "replicate") -> Image:
    """Windowed mean: each pixel becomes the rounded average of its
    (2*radius+1)**2 neighborhood under the border policy.

    The window sums come from separable running sums, so the work per pixel
    does not grow with the radius, and the mean is rounded in exact integers.
    Row strip by row strip, the column sums are carried on from the strip
    above, then summed along the rows, rounded and stored as gray levels."""
    radius = POSITIVE_INT.check(radius, "radius")
    mode = _BORDER_MODES[BORDER.check(border, "border")]
    n = 2 * radius + 1
    area = n * n
    # The largest value held, a window sum plus area // 2, must fit.
    dtype = np.int32 if MAX_GRAY * area + area // 2 < 2**31 else np.int64
    # Padded row y + 1 + radius is image row y; the extra leading row makes
    # the column sum of output row y that of padded rows y + 1 .. y + n.
    rows = np.pad(img.pixels, ((radius + 1, radius), (0, 0)), mode=mode)
    col = rows[:n].sum(axis=0, dtype=dtype)  # the column sum "above" row 0
    w = img.width
    out = np.empty((img.height, w), np.uint8)
    for s0, s1 in _row_strips(img.height, w + n):
        # The strip's column sums, with room for radius + 1 border columns on
        # the left and radius on the right.
        ext = np.empty((s1 - s0, w + n), dtype)
        cols = ext[:, radius + 1:radius + 1 + w]
        # Each output row's column sum gains padded row y + n and loses row y.
        # Row by row: numpy's cumsum along axis 0 strides across the rows and
        # is about ten times slower.
        np.subtract(rows[s0 + n:s1 + n], rows[s0:s1], out=cols, dtype=dtype)
        cols[0] += col
        for i in range(1, len(cols)):
            cols[i] += cols[i - 1]
        col = cols[-1].copy()
        if mode == "edge":
            ext[:, :radius + 1] = cols[:, :1]
            ext[:, radius + 1 + w:] = cols[:, -1:]
        else:
            ext[:, :radius + 1] = 0
            ext[:, radius + 1 + w:] = 0
        # Along the rows, each window is the difference of two running sums;
        # the extra leading column cancels out. The running sums may wrap
        # around in dtype; their difference is still exact.
        np.cumsum(ext, axis=1, out=ext)
        sums = ext[:, n:] - ext[:, :-n]
        # The area is odd, so no mean is a tie: rounding half away from zero is
        # rounding to nearest, floor((s + area/2) / area) = (s + area//2) // area.
        sums += area // 2
        sums //= area
        out[s0:s1] = sums
    return Image._trusted(out)


def unsharp_mask(img: Image, radius: int = 1, display: str = "clamp",
                 border: str = "replicate") -> Image:
    """Sharpen by subtracting a blurred copy of the image from the image.

    The signed difference f - blur(f) is mapped to gray levels by the chosen
    display mode; the default clamp leaves flat and darker-than-average
    regions at 0, so only detail survives.
    """
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
