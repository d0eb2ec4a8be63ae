"""Per-pixel intensity transforms.

Each transform depends only on the single pixel's value, so all of them are
realized through a 256-entry lookup table and applied with one fancy-indexing
pass. Observable behavior is defined by the formulas, not the table mechanism.
"""

from __future__ import annotations

import numpy as np

from .core import GRAY_LEVELS, POSITIVE_FLOAT, Image, clamp_round


def _as_lut(table) -> np.ndarray:
    arr = np.asarray(table)
    if arr.ndim != 1 or arr.shape[0] != GRAY_LEVELS:
        raise ValueError(f"LUT must have exactly {GRAY_LEVELS} entries")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"LUT entries must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() > GRAY_LEVELS - 1:
        raise ValueError(f"LUT entries must lie in [0, {GRAY_LEVELS - 1}]")
    return arr.astype(np.uint8)


def apply_lut(img: Image, lut) -> Image:
    """Remap every pixel through a 256-entry table: out = lut[in]."""
    return Image(_as_lut(lut)[img.pixels])


def negate(img: Image) -> Image:
    """Photographic negative: every pixel r becomes max_gray - r."""
    table = (img.max_gray - np.arange(GRAY_LEVELS)).astype(np.uint8)
    return Image(table[img.pixels])


def gray_stretch(img: Image, gamma: float = 2.0) -> Image:
    """Normalized power-law remap: out = round(max_gray * (r/max_gray)**gamma).

    gamma > 1 compresses the low end of the gray scale and expands the high
    end (the curve's slope increases with r); gamma = 1 is the identity.
    """
    gamma = POSITIVE_FLOAT.check(gamma, "gamma")
    m = float(img.max_gray)
    levels = np.arange(GRAY_LEVELS, dtype=np.float64) / m
    table = clamp_round(m * np.power(levels, gamma))
    return Image(table[img.pixels])
