"""Sharpening operators built on the convolution engine.

Both operators do their arithmetic in the signed domain and clamp exactly
once at the end, which avoids double-rounding artifacts.
"""

from __future__ import annotations

import numpy as np

from .convolution import clamp_to_display, correlate, laplacian
from .core import POSITIVE_INT, Image, Kernel, SignedImage, clamp_round


def box_blur(img: Image, radius: int = 1, border: str = "replicate") -> Image:
    """Windowed mean: each pixel becomes the rounded average of its
    (2*radius+1)**2 neighborhood under the border policy."""
    radius = POSITIVE_INT.check(radius, "radius")
    n = 2 * radius + 1
    sums = correlate(img, Kernel(np.ones((n, n))), border).values
    return Image(clamp_round(sums / (n * n)))


def unsharp_mask(img: Image, radius: int = 1, display: str = "clamp",
                 border: str = "replicate") -> Image:
    """Sharpen by subtracting a blurred copy of the image from the image.

    The signed difference f - blur(f) is mapped to gray levels by the chosen
    display mode; the default clamp leaves flat and darker-than-average
    regions at 0, so only detail survives.
    """
    blurred = box_blur(img, radius, border)
    signed = SignedImage(img.pixels.astype(np.float64) - blurred.pixels)
    return clamp_to_display(signed, display)


def laplacian_sharpen(img: Image, variant: str = "four",
                      border: str = "replicate") -> Image:
    """Edge-boosted image: clamp(f - laplacian(f)).

    The Laplacian is subtracted, not added, because both stencils carry a
    negative center coefficient; flat regions pass through unchanged.
    """
    lap = laplacian(img, variant, border)
    return Image(clamp_round(img.pixels - lap.values))
