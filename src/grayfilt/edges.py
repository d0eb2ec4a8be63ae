"""Binary edge detection, saturating image addition, and shadow effects."""

from __future__ import annotations

import numpy as np

from .convolution import _correlate_gray
from .core import BinaryImage, Image, Kernel
from .errors import DomainError
from .kinds import THRESHOLD
from .point_ops import negate

#: Difference of the northeast neighbor minus the southwest neighbor.
SHADOW_NE_KERNEL = Kernel([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])

#: Mid-gray bias added to the directional difference before clamping.
SHADOW_BIAS = 128


def binarize(img: Image, threshold: int = 128) -> BinaryImage:
    """Threshold to bits: 1 where pixel >= threshold, else 0."""
    threshold = THRESHOLD.check(threshold, "threshold")
    return BinaryImage((img.pixels >= threshold).astype(np.uint8))


def edge_map(u: BinaryImage) -> BinaryImage:
    """Mark pixels that differ (XOR) from at least one 4-neighbor.

    Out-of-bounds neighbors count as equal to the center, so the image
    frame never registers as an edge by itself.
    """
    bits = u.bits
    h, w = bits.shape
    padded = np.pad(bits, 1, mode="edge")
    up = padded[0:h, 1:w + 1]
    down = padded[2:h + 2, 1:w + 1]
    left = padded[1:h + 1, 0:w]
    right = padded[1:h + 1, 2:w + 2]
    g = (bits ^ up) | (bits ^ down) | (bits ^ left) | (bits ^ right)
    return BinaryImage(g)


def edge_points(u: BinaryImage) -> BinaryImage:
    """Black pixels with at least one white 4-neighbor: u = 0 and edge_map = 1."""
    g = edge_map(u)
    return BinaryImage(((u.bits == 0) & (g.bits == 1)).astype(np.uint8))


def bits_to_image(u: BinaryImage) -> Image:
    """Render bits as gray levels: 1 -> 255, 0 -> 0."""
    return Image(u.bits * np.uint8(255))


def image_add(a: Image, b: Image) -> Image:
    """Pixelwise saturating sum: min(a + b, 255), never wraparound."""
    if (a.width, a.height) != (b.width, b.height):
        raise DomainError(
            f"cannot add images of different sizes: "
            f"{a.width}x{a.height} vs {b.width}x{b.height}"
        )
    sums = a.pixels.astype(np.uint16) + b.pixels
    return Image(np.minimum(sums, a.max_gray).astype(np.uint8))


def shadow_ne(img: Image) -> Image:
    """Relief-lit rendering with shadows on the northeastern sides of edges.

    Correlates with the NE-minus-SW difference kernel (replicate border) and
    biases by mid-gray, so flat regions map to 128 and intensity steps map
    to highlights on one diagonal and shadows on the other. Each strip of
    rows is clamped to gray levels as soon as it is correlated.
    """
    return _correlate_gray(img, SHADOW_NE_KERNEL, "replicate", bias=SHADOW_BIAS)


def shadow_invert(img: Image) -> Image:
    """Negative of the shadow rendering; swaps highlight and shadow sides."""
    return negate(shadow_ne(img))
