"""Binary edges, where the bits' Laplacian-four (replicate border) is nonzero,
and edge points, where it is positive; saturating image addition; shadow effects."""

from __future__ import annotations

import numpy as np

from ._swar import LAPLACIANS, SHADOW_BIAS, SHADOW_NE, SHADOW_SW, SHADOW_SW_BIAS, same_size
from .convolution import _correlate_strips
from .core import BinaryImage, Image, Kernel
from .kinds import THRESHOLD

#: Difference of the northeast neighbor minus the southwest neighbor
#: (:data:`grayfilt._swar.SHADOW_NE`); SHADOW_BIAS, mid-gray, is added to it.
SHADOW_NE_KERNEL = Kernel(SHADOW_NE)


def binarize(img: Image, threshold: int = 128) -> BinaryImage:
    """Threshold to bits: 1 where pixel >= threshold, else 0."""
    threshold = THRESHOLD.check(threshold, "threshold")
    return BinaryImage._trusted((img.pixels >= threshold).view(np.uint8))


def edge_map(u: BinaryImage) -> BinaryImage:
    """Bits that differ from a 4-neighbor (outside ones equal the center): where
    the bits' Laplacian-four is nonzero, as differing neighbors add one sign."""
    lap = _correlate_strips(Image._trusted(u.bits), LAPLACIANS["four"], bias=4).pixels
    lap.setflags(write=True)  # a new array: compared in place, as in edge_points
    return BinaryImage._trusted(np.not_equal(lap, 4, out=lap.view(np.bool_)).view(np.uint8))


def edge_points(u: BinaryImage) -> BinaryImage:
    """Black pixels with a white 4-neighbor: where the bits' Laplacian-four is
    positive, as it is k at a 0 bit with k white 4-neighbors and k - 4 at a 1 bit."""
    g = _correlate_strips(Image._trusted(u.bits), LAPLACIANS["four"], bias=0).pixels
    g.setflags(write=True)  # a new array: compared in place, as in edge_map
    return BinaryImage._trusted(np.greater(g, 0, out=g.view(np.bool_)).view(np.uint8))


def bits_to_image(u: BinaryImage) -> Image:
    """Render bits as gray levels: 1 -> 255, 0 -> 0."""
    return Image._trusted(u.bits * np.uint8(255))


def image_add(a: Image, b: Image) -> Image:
    """Pixelwise saturating sum min(a + b, 255): min(a, 255 - b) + b in uint8."""
    same_size((a.width, a.height), (b.width, b.height))
    out = np.subtract(a.max_gray, b.pixels, dtype=np.uint8)
    np.minimum(out, a.pixels, out=out)
    out += b.pixels
    return Image._trusted(out)


def shadow_ne(img: Image) -> Image:
    """Relief-lit rendering with shadows on the northeastern sides of edges.

    Correlates with the NE-minus-SW difference kernel (replicate border) and
    biases by mid-gray, so flat regions map to 128 and intensity steps map
    to highlights on one diagonal and shadows on the other. Each strip of
    rows is clamped to gray levels as soon as it is correlated.
    """
    return _correlate_strips(img, SHADOW_NE, bias=SHADOW_BIAS)


def shadow_invert(img: Image) -> Image:
    """Negative of the shadow rendering; swaps highlight and shadow sides.
    It is the opposite-lit shadow, SW minus NE plus 127, clamped once."""
    return _correlate_strips(img, SHADOW_SW, bias=SHADOW_SW_BIAS)
