"""Per-pixel intensity transforms.

Each transform depends only on the single pixel's value, so all of them are
realized through a 256-entry lookup table and applied with one fancy-indexing
pass. Observable behavior is defined by the formulas, not the table mechanism.
"""

from __future__ import annotations

import reprlib

import numpy as np

from .core import GRAY_LEVELS, MAX_GRAY, Image, clamp_round
from .kinds import POSITIVE_FLOAT, _is_int


def _as_lut(table) -> np.ndarray:
    """The LUT rule, for tables passed in and LUT files alike: exactly 256
    integer entries in [0, 255], returned as uint8. Entries are compared as
    Python numbers, so an integer too wide for int64 is simply out of range."""
    entries = np.asarray(table, dtype=object)
    if entries.shape != (GRAY_LEVELS,):
        raise ValueError(f"LUT must have exactly {GRAY_LEVELS} entries, got shape {entries.shape}")
    for value in entries:
        if not _is_int(value):
            raise ValueError(f"LUT entries must be integers, got {reprlib.repr(value)}")
        if not 0 <= value <= MAX_GRAY:
            raise ValueError(f"LUT entries must lie in [0, {MAX_GRAY}], got {reprlib.repr(value)}")
    return entries.astype(np.uint8)


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
