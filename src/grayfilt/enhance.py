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
    DISPLAY,
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
    Both axes are padded once, under the border policy. Row strip by row
    strip, the column sums are carried on from the strip above, then summed
    along the rows, rounded and stored as gray levels."""
    radius = POSITIVE_INT.check(radius, "radius")
    mode = _BORDER_MODES[BORDER.check(border, "border")]
    n = 2 * radius + 1
    area = n * n
    # The largest value held, a window sum plus area // 2, must fit.
    dtype = np.int32 if MAX_GRAY * area + area // 2 < 2**31 else np.int64
    # Padded pixel (y + 1 + radius, x + 1 + radius) is image pixel (y, x). The
    # extra leading row and column make the window of output pixel (y, x)
    # padded rows y + 1 .. y + n and padded columns x + 1 .. x + n.
    pad = (radius + 1, radius)
    padded = np.pad(img.pixels, (pad, pad), mode=mode)
    col = padded[:n].sum(axis=0, dtype=dtype)  # the column sums "above" row 0
    out = np.empty((img.height, img.width), np.uint8)
    for s0, s1 in _row_strips(img.height, padded.shape[1]):
        # Each output row's column sums gain padded row y + n and lose row y.
        # Row by row: numpy's cumsum along axis 0 strides across the rows and
        # is about ten times slower.
        cols = np.subtract(padded[s0 + n:s1 + n], padded[s0:s1], dtype=dtype)
        cols[0] += col
        for i in range(1, len(cols)):
            cols[i] += cols[i - 1]
        col = cols[-1].copy()
        # Along the rows, each window is the difference of two running sums;
        # the extra leading column cancels out. The running sums may wrap
        # around in dtype; their difference is still exact.
        np.cumsum(cols, axis=1, out=cols)
        sums = cols[:, n:] - cols[:, :-n]
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
