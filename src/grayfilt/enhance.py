"""Box blur, and the sharpening operators built on it and on the Laplacian.

Both sharpening operators do their arithmetic in the signed domain and clamp exactly
once at the end, which avoids double-rounding artifacts.
"""

from __future__ import annotations

import numpy as np

from .convolution import _BORDER_MODES, BORDER, clamp_to_display, laplacian
from .core import MAX_GRAY, POSITIVE_INT, Image, SignedImage, clamp_round


def _box_sums(pixels: np.ndarray, radius: int, mode: str, dtype: type) -> np.ndarray:
    """Sum of each (2*radius+1)**2 window under the ``np.pad`` border mode,
    from running sums down the columns and then along the rows.

    Each window is the difference of two running sums, padded by one extra
    leading element that cancels out. The running sums may wrap around in
    ``dtype``; their difference is still exact wherever the window sum fits.
    """
    n = 2 * radius + 1
    down = np.pad(pixels, ((radius + 1, radius), (0, 0)), mode=mode).astype(dtype)
    # Row by row: numpy's cumsum along axis 0 strides across the rows and is
    # about ten times slower.
    for i in range(1, len(down)):
        down[i] += down[i - 1]
    cols = down[n:] - down[:-n]
    along = np.cumsum(np.pad(cols, ((0, 0), (radius + 1, radius)), mode=mode), axis=1, dtype=dtype)
    return along[:, n:] - along[:, :-n]


def box_blur(img: Image, radius: int = 1, border: str = "replicate") -> Image:
    """Windowed mean: each pixel becomes the rounded average of its
    (2*radius+1)**2 neighborhood under the border policy.

    The window sums come from separable running sums, so the work per pixel
    does not grow with the radius, and the mean is rounded in exact integers."""
    radius = POSITIVE_INT.check(radius, "radius")
    mode = _BORDER_MODES[BORDER.check(border, "border")]
    area = (2 * radius + 1) ** 2
    # The largest value held, a window sum plus area // 2, must fit.
    sums = _box_sums(img.pixels, radius, mode,
                     np.int32 if MAX_GRAY * area + area // 2 < 2**31 else np.int64)
    # The area is odd, so no mean is a tie: rounding half away from zero is
    # rounding to nearest, floor((s + area/2) / area) = (s + area//2) // area.
    sums += area // 2
    sums //= area
    return Image(sums.astype(np.uint8))


def unsharp_mask(img: Image, radius: int = 1, display: str = "clamp",
                 border: str = "replicate") -> Image:
    """Sharpen by subtracting a blurred copy of the image from the image.

    The signed difference f - blur(f) is mapped to gray levels by the chosen
    display mode; the default clamp leaves flat and darker-than-average
    regions at 0, so only detail survives.
    """
    blurred = box_blur(img, radius, border)
    signed = SignedImage._trusted(img.pixels.astype(np.int16) - blurred.pixels)
    return clamp_to_display(signed, display)


def laplacian_sharpen(img: Image, variant: str = "four",
                      border: str = "replicate") -> Image:
    """Edge-boosted image: clamp(f - laplacian(f)).

    The Laplacian is subtracted, not added, because both stencils carry a
    negative center coefficient; flat regions pass through unchanged.
    """
    lap = laplacian(img, variant, border)
    return Image(clamp_round(img.pixels - lap.values))
