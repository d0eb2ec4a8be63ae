"""Per-pixel intensity transforms.

Each transform depends only on the single pixel's value, so each is one
exact 256-entry table (built in :mod:`grayfilt._bytes`, which the CLI also
uses without numpy), applied to the raster's bytes with ``bytes.translate``.
Observable behavior is defined by the formulas, not the table mechanism.
"""

from __future__ import annotations

import numpy as np

from ._bytes import NEGATE_TABLE, _row_strips, lut_table, stretch_table
from .core import Image
from .imgio import _image
from .kinds import POSITIVE_FLOAT


def _apply_table(img: Image, table: bytes) -> Image:
    """Map every pixel r to ``table[r]`` in a copy of the input, a strip at a time."""
    out, w = bytearray(img.pixels.ravel().data), img.width
    for s0, s1 in _row_strips(img.height, w):
        out[s0 * w:s1 * w] = out[s0 * w:s1 * w].translate(table)
    return _image(img.width, img.height, out)


def apply_lut(img: Image, lut) -> Image:
    """Remap every pixel through a 256-entry table: out = lut[in]. The table
    is checked by the LUT rule (:func:`grayfilt._bytes.lut_table`)."""
    entries = np.asarray(lut, dtype=object)
    return _apply_table(img, lut_table(list(entries.flat), entries.shape))


def negate(img: Image) -> Image:
    """Photographic negative: every pixel r becomes max_gray - r."""
    return _apply_table(img, NEGATE_TABLE)


def gray_stretch(img: Image, gamma: float = 2.0) -> Image:
    """Normalized power-law remap: out = round(max_gray * (r/max_gray)**gamma).

    gamma > 1 compresses the low end of the gray scale and expands the high
    end (the curve's slope increases with r); gamma = 1 is the identity.
    Each level is rounded half away from zero from the exact power, so the
    result does not depend on the platform's ``pow``.
    """
    return _apply_table(img, stretch_table(POSITIVE_FLOAT.check(gamma, "gamma")))
