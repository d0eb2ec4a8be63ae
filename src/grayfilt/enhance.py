"""Box blur, and the sharpening operators built on it and on the Laplacian.

Both sharpening operators do their arithmetic in the signed domain and clamp exactly
once at the end, which avoids double-rounding artifacts. Both, and the box
blur, write each strip of rows as gray levels as soon as it is computed, so
no full-size signed intermediate exists; only ``unsharp_mask`` with the
rescale display builds one, since a rescale needs the whole range first.
"""

from __future__ import annotations

import numpy as np

from ._bytes import _row_strips
from ._swar import SHARPEN
from .convolution import _correlate_strips, clamp_to_display
from .core import MAX_GRAY, Image, SignedImage
from .errors import DomainError
from .kinds import BORDER, DISPLAY, POSITIVE_INT, VARIANT


def box_blur(img: Image, radius: int = 1, border: str = "replicate") -> Image:
    """Windowed mean: each pixel becomes the rounded average of its
    (2*radius+1)**2 neighborhood under the border policy.

    Separable window sums over the zero-padded image, row strip by row
    strip, in buffers allocated once per call; "replicate" adds the copies
    of the edge rows and columns that a window covers beyond the image.
    Zero padding wider than the image adds nothing, so neither memory nor
    work grows with the radius beyond the image's size. Down the columns,
    each output row's column sums are the row above's plus the pixel row
    entering the window minus the one leaving it, carried from strip to
    strip: constant work per pixel. Along the rows, each window sum is a
    few contiguous shifted adds of the strip's column sums laid end to end,
    log-step: one per bit of the window's width, plus one per further set
    bit, so about 2·log2(2·radius + 1) adds per pixel. The sums are then
    rounded in exact integers and stored as gray levels. They are int16
    up to radius 5, int32 up to radius 1449, else int64.

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
    dtype = np.int16 if largest < 2**15 else np.int32 if largest < 2**31 else np.int64
    pixels = img.pixels
    h, w = pixels.shape
    rx = min(radius, w)
    stride = w + 2 * rx  # a row of column sums between rx zero columns on either side
    strips = _row_strips(h, stride)
    size = strips[0][1] * stride  # the first strip is the largest
    sums, spare, spare2 = np.empty(size, dtype), np.empty(size, dtype), np.empty(size, dtype)
    # The column sums of the zero-padded rows -radius - 1 .. radius - 1, "above" row 0.
    carry = pixels[:min(radius, h)].sum(axis=0, dtype=dtype)
    out = np.empty((h, w), np.uint8)
    for s0, s1 in strips:
        rows = s1 - s0
        grid = sums[:rows * stride].reshape(rows, stride)
        grid[:, :rx] = 0
        grid[:, rx + w:] = 0
        cols = grid[:, rx:rx + w]
        # Output row y gains pixel row y + radius, if there is one, and loses
        # row y - radius - 1: rows before ``enter`` gain one, rows from
        # ``leave`` on lose one.
        enter = min(max(h - radius, s0), s1)
        leave = min(max(radius + 1, s0), s1)
        a, b = min(enter, leave), max(enter, leave)
        cols[:a - s0] = pixels[s0 + radius:a + radius]
        if enter > leave:
            np.subtract(pixels[a + radius:b + radius], pixels[a - radius - 1:b - radius - 1],
                        out=cols[a - s0:b - s0], dtype=dtype)
        else:
            cols[a - s0:b - s0] = 0
        np.negative(pixels[b - radius - 1:s1 - radius - 1], out=cols[b - s0:], dtype=dtype)
        # Row by row: numpy's cumsum along axis 0 strides across the rows and
        # is about ten times slower.
        cols[0] += carry
        for i in range(1, rows):
            cols[i] += cols[i - 1]
        carry[:] = cols[-1]
        if replicate:
            _add_edge_copies(cols, s0, h, radius, pixels[0], pixels[h - 1])
            first, last = cols[:, 0].copy(), cols[:, w - 1].copy()
        _window_sums(sums[:rows * stride], 2 * rx + 1, (rows - 1) * stride + w, spare, spare2)
        windows = grid[:, :w]
        if replicate:
            _add_edge_copies(windows.T, 0, w, radius, first, last)
        # The area is odd, so no mean is a tie: rounding half away from zero is
        # rounding to nearest, floor((s + area/2) / area) = (s + area//2) // area.
        flat = sums[:(rows - 1) * stride + w]
        flat += area // 2
        flat //= area
        out[s0:s1] = windows
    return Image._trusted(out)


def _window_sums(sums: np.ndarray, n: int, length: int, spare: np.ndarray,
                 spare2: np.ndarray) -> None:
    """Replace ``sums[x]`` with ``sums[x] + ... + sums[x + n - 1]`` for each
    x < ``length``, in shifted contiguous adds, log-step: a sum over a
    window of 2**(k+1) is two sums over windows of 2**k, made into the
    spare buffers in turn, and each set bit k > 0 of ``n`` (odd) adds the
    window of 2**k that follows the part already summed. Integer sums are
    exact in any order. Window sums that run past a row's end into the
    next row are not used."""
    span, doubled = 1, sums
    done = 1
    while 2 * span <= n:
        nxt = spare if doubled is not spare else spare2
        m = len(sums) - 2 * span + 1
        np.add(doubled[:m], doubled[span:span + m], out=nxt[:m])
        doubled, span = nxt, 2 * span
        if n & span:
            sums[:length] += doubled[done:done + length]
            done += span


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
    blurred.setflags(write=True)  # a new array: the clamp reuses it
    if display == "clamp":
        # clamp(f - blur) = max(f - blur, 0) = f - min(f, blur), all in uint8,
        # in place in the blurred copy.
        np.minimum(f, blurred, out=blurred)
        return Image._trusted(np.subtract(f, blurred, out=blurred))
    signed = SignedImage._trusted(np.subtract(f, blurred, dtype=np.int16))
    del blurred  # not held while the display's strips are
    return clamp_to_display(signed, display)


def laplacian_sharpen(img: Image, variant: str = "four",
                      border: str = "replicate") -> Image:
    """Edge-boosted image: clamp(f - laplacian(f)).

    The Laplacian is subtracted, not added, because both stencils carry a
    negative center coefficient; flat regions pass through unchanged. It is
    one integer correlation with δ − L, clamped strip by strip.
    """
    return _correlate_strips(img, SHARPEN[VARIANT.check(variant, "variant")], border, bias=0)
