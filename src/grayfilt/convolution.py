"""General 2-D neighborhood filtering: correlation, convolution, Laplacians.

A kernel whose coefficients are all integers, with ``sum(|c|) * 255`` below
2**31, is accumulated exactly in ``int32``; every built-in kernel takes this
path, and a fused clamp whose sums plus its bias stay below 2**15 takes
``int16``. Integer sums are exact in any order, so this equals the float64
evaluation bit for bit. Any other kernel is accumulated in ``float64`` tap by
tap in a fixed row-major order, so results are bit-identical to a per-pixel
nested-loop evaluation in that same order (and exact for an integer kernel
with ``sum(|c|) * 255`` below 2**53, whose partial sums are all integers
that a double holds).

Every correlation runs one strip loop, ``_correlate_strips``, which each op
calls with its stencil. It writes each strip's source rows, borders included,
into one flat buffer of the accumulator's dtype, so each tap is one
contiguous slice add, and no padded copy of the image is made. Its buffers
are allocated once per call, or per thread. It checks each strip of sums
finite, and its ``bias`` alone picks what it stores: the sums when it is
None, else the strip clamped to gray levels in place, with the same rounding
rule, over the flat strip.
:func:`correlate` passes no bias: its output is a :class:`SignedImage`, and
:func:`clamp_to_display` maps it to gray levels one strip of rows at a time.
An integer intermediate is rescaled in exact integers, as
(510·(v − min) + span) // (2·span) with span = max − min. The clamp displays
(``laplacian_sharpen``, ``shadow_ne``, ``shadow_invert``, the clamp of the
``laplacian`` and ``convolve`` ops, and ``edges``) pass a bias, so no
full-size signed intermediate is built.
The ``laplacian`` and ``convolve`` ops' rescale is ``clamp_to_display`` of
the sums of the op's stencil, as in :func:`laplacian` and :func:`convolve`.

The built-in stencils are declared once, as integer tuples, in
:mod:`grayfilt._swar`, beside the numpy-free clamp display the CLI runs on a
small image; it takes the same tuple and bias as ``_correlate_strips``. Both
are exact, so both engines give the same bytes. The library functions here
always run numpy.
"""

from __future__ import annotations

import os

import numpy as np

from ._bytes import _row_strips
from ._swar import LAPLACIANS
from .core import MAX_GRAY, Image, Kernel, SignedImage, _clamp_levels
from .kinds import BORDER, DISPLAY, POSITIVE_INT, VARIANT

#: Center -4 stencil: f(x+1,y) + f(x-1,y) + f(x,y+1) + f(x,y-1) - 4 f(x,y).
LAPLACIAN_FOUR = Kernel(LAPLACIANS["four"])
#: Center -8 stencil surrounded by 1s; responds to diagonals as well.
LAPLACIAN_EIGHT = Kernel(LAPLACIANS["eight"])

#: Spans [min, max] below this keep the rescale numerator (values - min) * 255
#: finite; at this span itself the product rounds up to inf.
_RESCALE_EXACT_SPAN = np.finfo(np.float64).max / 255.0
#: Widest integer span whose exact rescale numerator 510·(v − min) + span fits in uint64.
_RESCALE_INT_SPAN = (2**64 - 1) // 511


def rot180(kernel: Kernel) -> Kernel:
    """Rotate a kernel by 180 degrees: coefficient (i, j) moves to
    (kheight-1-i, kwidth-1-j). Applying it twice gives the original back."""
    return Kernel(kernel.coeffs[::-1, ::-1])


def _accumulator(coeffs: np.ndarray, bias: int | None = None) -> type:
    """The narrowest exact accumulator of sums of ``coeffs`` over 8-bit
    pixels: for integer coefficients, int16 where a fused clamp adds ``bias``
    and sum(|c|)·255 + |bias| stays below 2**15, else int32 below 2**31;
    else float64."""
    with np.errstate(over="ignore"):  # huge finite coefficients sum to inf
        bound = float(np.abs(coeffs).sum()) * MAX_GRAY
    if bound < 2.0**31 and np.array_equal(coeffs, np.round(coeffs)):
        return np.int16 if bias is not None and bound + abs(bias) < 2**15 else np.int32
    return np.float64


def _correlate_strips(img: Image, stencil, border: str = "replicate", bias: int | None = None,
                      workers: int = 1) -> SignedImage | Image:
    """Correlate ``img`` with ``Kernel(stencil)`` strip by strip, accumulating in
    ``_accumulator(coeffs, bias)``: the sums as a :class:`SignedImage` when
    ``bias`` is None, else ``clamp_round(bias + sums)`` as an :class:`Image`.
    ``stencil`` is an op's coefficient rows: a built-in integer tuple, which
    ``_swar.correlate_clamp`` also takes, or a parsed kernel's ``coeffs``.

    Each strip's padded rows s0 − kh//2 .. s1 − 1 + kh//2, with kw//2 border
    columns on either side under the border policy (copies of the nearest
    edge pixel, or zeros), are written into one flat buffer at row stride
    S = W + kw − 1, and the sums are kept at that stride: tap (i, j) of every
    pixel of the strip is the contiguous slice at offset i·S + j, so each tap
    is one 1-D add, in row-major tap order. Zero taps are skipped and ±1 taps
    added or subtracted directly; the sums start at +0.0 (or 0), so neither
    changes any sum. A float sum that overflows becomes non-finite, so
    numpy's float warnings are silenced; numpy keeps that setting per thread.

    Each strip's sums, a (rows, W) view, are checked finite. A clamp then
    adds the bias, clips and rounds in place over the flat rows·S strip,
    padding columns included; only the (rows, W) view is stored, while in
    cache. Strips do not overlap, so threads store their rows without a
    lock, and each thread allocates its own buffers once."""
    border = BORDER.check(border, "border")
    workers = POSITIVE_INT.check(workers, "workers")
    coeffs = Kernel(stencil).coeffs  # checked, then dropped for its cast
    coeffs = coeffs.astype(_accumulator(coeffs, bias))
    pixels = img.pixels
    height, width = pixels.shape
    kh, kw = coeffs.shape
    ph, pw = kh // 2, kw // 2
    stride = width + kw - 1
    replicate = border == "replicate"
    taps = [(i * stride + j, c) for (i, j), c in np.ndenumerate(coeffs) if c != 0]
    out = np.empty((height, width), coeffs.dtype if bias is None else np.uint8)

    def run(strips):
        most = max(s1 - s0 for s0, s1 in strips)
        grid = np.empty((most + kh - 1, stride), coeffs.dtype)
        source = grid.reshape(-1)
        acc, prod = np.empty(most * stride, coeffs.dtype), np.empty(most * stride, coeffs.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            for s0, s1 in strips:
                rows = s1 - s0
                padded = grid[:rows + kh - 1]
                inner = padded[:, pw:pw + width]
                first, last = max(s0 - ph, 0), min(s1 + ph, height)  # the image's own rows
                top, bottom = first - (s0 - ph), last - (s0 - ph)
                inner[top:bottom] = pixels[first:last]
                inner[:top] = pixels[0] if replicate else 0
                inner[bottom:] = pixels[height - 1] if replicate else 0
                padded[:, :pw] = inner[:, :1].copy() if replicate else 0
                padded[:, pw + width:] = inner[:, -1:].copy() if replicate else 0
                flat = acc[:rows * stride]
                flat.fill(0)
                n = (rows - 1) * stride + width  # the last row's padding is not summed
                sums = flat[:n]
                for offset, c in taps:
                    tap = source[offset:offset + n]
                    if c == 1:
                        sums += tap
                    elif c == -1:
                        sums -= tap
                    else:
                        sums += np.multiply(tap, c, out=prod[:n])
                SignedImage._finite(flat.reshape(rows, stride)[:, :width])
                if bias is not None:
                    if bias:
                        flat += bias
                    flat = _clamp_levels(flat, flat, prod[:rows * stride])
                out[s0:s1] = flat.reshape(rows, stride)[:, :width]

    strips = _row_strips(height, stride)
    threads = min(workers, len(strips), os.cpu_count() or 1)
    if threads == 1:
        run(strips)
    else:
        # Imported here, as most calls run on one thread: at module level it
        # would add about 8 ms to every CLI process's start-up.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, [strips[k::threads] for k in range(threads)]))
    return SignedImage._trusted(out) if bias is None else Image._trusted(out)


def correlate(img: Image, kernel: Kernel, border: str = "replicate",
              workers: int = 1) -> SignedImage:
    """Sliding-window weighted sum with the kernel anchored at its center.

    output(x, y) = sum over taps (i, j) of coeff(i, j) * pixel(x+j-cx, y+i-cy),
    with out-of-range pixels resolved by the border policy.

    Args:
        img: input image.
        kernel: weights; odd dimensions, center anchor.
        border: "replicate" repeats the nearest in-range pixel, "zero"
            treats outside pixels as 0.
        workers: most threads to share the row strips, with at most one
            thread per CPU and one per strip. Output is bit-identical for
            every worker count.

    Returns:
        A SignedImage with the same dimensions as the input: int32 values
        for an integer kernel within the int32 bound, else float64.
    """
    return _correlate_strips(img, kernel.coeffs, border, workers=workers)


def convolve(img: Image, kernel: Kernel, border: str = "replicate",
             workers: int = 1) -> SignedImage:
    """True convolution: correlate with the kernel rotated by 180 degrees."""
    return correlate(img, rot180(kernel), border, workers)


def laplacian(img: Image, variant: str = "four", border: str = "replicate",
              workers: int = 1) -> SignedImage:
    """Discrete isotropic second-derivative filter.

    variant "four" uses the center -4 axis stencil, "eight" the center -8
    stencil that also spans diagonals. Both coefficient sets sum to zero,
    so constant regions map to exactly 0 under the replicate border.
    """
    return _correlate_strips(img, LAPLACIANS[VARIANT.check(variant, "variant")], border,
                             workers=workers)


def clamp_to_display(signed: SignedImage, mode: str = "clamp") -> Image:
    """Map a signed intermediate back to displayable gray levels, one strip
    of rows at a time, in buffers allocated once per call: an integer
    display holds one work strip, uint64 for a rescale, and a float display
    a float64 work strip and a spare one that its levels are rounded in.

    "clamp" rounds each value half away from zero and clips to [0, 255].
    "rescale" maps [min, max] affinely onto [0, 255] (an all-equal input
    comes back as all zeros); this holds for any finite range, even one
    wider than the largest double.

    Integer values are rescaled in exact integers, as
    (510·(v − min) + span) // (2·span) with span = max − min. For int32 and
    narrower values this equals the float64 evaluation bit for bit; wider
    values get the exactly rounded level. Float values, and integer spans of
    2**64 / 511 or more, are rescaled in float64.
    """
    values = signed.values
    mode = DISPLAY.check(mode, "mode")
    work = values.dtype
    if mode == "rescale":
        # Python ints for integer values, Python floats for float64 ones.
        vmin, vmax = values.min().item(), values.max().item()
        if vmin == vmax:
            return Image._trusted(np.zeros(values.shape, dtype=np.uint8))
        if isinstance(vmin, int) and vmax - vmin <= _RESCALE_INT_SPAN:
            work, span = np.uint64, vmax - vmin
            base, times, half, whole = (np.uint64(n) for n in (vmin % 2**64, 510, span, 2 * span))
        else:
            # Python floats hold every float64 and every integer below 2**53 exactly.
            work, vmin, vmax = np.float64, float(vmin), float(vmax)
    strips = _row_strips(*values.shape)
    shape = (strips[0][1], values.shape[1])  # the first strip is the largest
    work = np.empty(shape, work)
    spare = np.empty(shape, np.float64) if work.dtype == np.float64 else None
    out = np.empty(values.shape, np.uint8)
    for s0, s1 in strips:
        v, w = values[s0:s1], work[:s1 - s0]
        if mode == "clamp":  # signed image values are finite
            out[s0:s1] = _clamp_levels(v, w, None if spare is None else spare[:s1 - s0])
        elif work.dtype == np.uint64:
            # (510·(v − min) + span) // (2·span) is 255·(v − min)/span rounded
            # half up, half away from zero for these nonnegative quotients. In
            # uint64, v − min is exact modulo 2**64 for any integer dtype, as it
            # lies in [0, span], and 510·span + span stays below 2**64.
            np.copyto(w, v, casting="unsafe")
            w -= base
            w *= times
            w += half
            out[s0:s1] = np.floor_divide(w, whole, out=w)
        elif vmax - vmin < _RESCALE_EXACT_SPAN:
            # Multiply before dividing: for integer-valued inputs the
            # numerator stays exact, so half-way quotients round the same as
            # exact rationals.
            np.subtract(v, vmin, out=w, dtype=np.float64)
            w *= 255.0
            w /= vmax - vmin
            out[s0:s1] = _clamp_levels(w, w, spare[:s1 - s0])
        else:
            # The product, or the span itself, would overflow: halve every
            # term (exact for normal doubles) and divide first.
            np.divide(v, 2, out=w, dtype=np.float64)
            w -= vmin / 2
            w /= vmax / 2 - vmin / 2
            w *= 255.0
            out[s0:s1] = _clamp_levels(w, w, spare[:s1 - s0])
    return Image._trusted(out)
