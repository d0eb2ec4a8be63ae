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

Every correlation runs one strip loop, ``_correlate_strips``. It writes each
strip's source rows, borders included, into one flat buffer of the
accumulator's dtype (``_padded_strips``), so each tap is one contiguous
slice add, and no padded copy of the image is made. Its buffers are
allocated once per call, or per thread. It checks each strip of sums
finite and stores it through one per-strip finish.
:func:`correlate` never clamps: its finish keeps the sums, its output is a
:class:`SignedImage`, and :func:`clamp_to_display` maps it to gray levels one
strip of rows at a time. An integer intermediate is rescaled in exact
integers, as (510·(v − min) + span) // (2·span) with span = max − min. The
clamp displays (``laplacian_sharpen``, ``shadow_ne``, ``shadow_invert``, the
clamp of the ``laplacian`` and ``convolve`` ops, and ``edges``) all go through
one entry, ``_clamp_display``, whose finish clamps each strip to gray levels
in place with the same rounding rule, so no full-size signed intermediate
is built.
The ``laplacian`` and ``convolve`` ops' rescale is ``clamp_to_display`` of
:func:`correlate` of the op's stencil, as in :func:`laplacian` and :func:`convolve`.

The built-in stencils are declared once, as integer tuples, in
:mod:`grayfilt._swar`, beside the numpy-free clamp display the CLI runs on a
small image; it takes the same tuple and bias as ``_clamp_display``. Both
are exact, so both engines give the same bytes. The library functions here
always run numpy.
"""

from __future__ import annotations

import os
from collections.abc import Callable

import numpy as np

from ._swar import LAPLACIANS
from .core import MAX_GRAY, Image, Kernel, SignedImage, _clamp_levels
from .kinds import BORDER, DISPLAY, POSITIVE_INT, VARIANT

#: The stencil of each ``VARIANT``, as declared in :data:`grayfilt._swar.LAPLACIANS`.
_LAPLACIANS = {name: Kernel(s) for name, s in LAPLACIANS.items()}
#: Center -4 stencil: f(x+1,y) + f(x-1,y) + f(x,y+1) + f(x,y-1) - 4 f(x,y).
LAPLACIAN_FOUR = _LAPLACIANS["four"]
#: Center -8 stencil surrounded by 1s; responds to diagonals as well.
LAPLACIAN_EIGHT = _LAPLACIANS["eight"]

#: Spans [min, max] below this keep the rescale numerator (values - min) * 255
#: finite; at this span itself the product rounds up to inf.
_RESCALE_EXACT_SPAN = np.finfo(np.float64).max / 255.0
#: Widest integer span whose exact rescale numerator 510·(v − min) + span fits in uint64.
_RESCALE_INT_SPAN = (2**64 - 1) // 511


def rot180(kernel: Kernel) -> Kernel:
    """Rotate a kernel by 180 degrees: coefficient (i, j) moves to
    (kheight-1-i, kwidth-1-j). Applying it twice gives the original back."""
    return Kernel(kernel.coeffs[::-1, ::-1])


#: Pixels per strip of rows, the cache block of every strip loop (correlation,
#: display mapping, box blur) and the correlation's unit of parallel work. A
#: loop allocates its strip buffers once per call (once per thread): for a
#: float64 correlation about 512 KB each for the padded source, the sums and
#: one product, so they stay in a core's L2 cache.
_STRIP_PIXELS = 2**16


def _row_strips(height: int, width: int) -> list:
    """[s0, s1) row ranges of about ``_STRIP_PIXELS`` pixels of ``width``
    each, and at least one row, covering ``height`` rows."""
    step = max(1, _STRIP_PIXELS // width)
    return [(s0, min(s0 + step, height)) for s0 in range(0, height, step)]


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


def _padded_strips(pixels: np.ndarray, strips: list, kh: int, kw: int, border: str,
                   dtype: type):
    """Yield (s0, s1, source) for each [s0, s1) of ``strips``: ``source`` is
    one flat ``dtype`` buffer, allocated once and refilled per strip, that
    holds padded rows s0 − kh//2 .. s1 − 1 + kh//2 of the image at row
    stride W + kw − 1, kw//2 border columns on either side of each, under
    the border policy: copies of the nearest edge pixel, or zeros."""
    height, width = pixels.shape
    ph, pw = kh // 2, kw // 2
    grid = np.empty((max(s1 - s0 for s0, s1 in strips) + kh - 1, width + kw - 1), dtype)
    replicate = border == "replicate"
    for s0, s1 in strips:
        rows = grid[:s1 - s0 + kh - 1]
        inner = rows[:, pw:pw + width]
        first, last = max(s0 - ph, 0), min(s1 + ph, height)  # the image's own rows
        top, bottom = first - (s0 - ph), last - (s0 - ph)
        inner[top:bottom] = pixels[first:last]
        inner[:top] = pixels[0] if replicate else 0
        inner[bottom:] = pixels[height - 1] if replicate else 0
        rows[:, :pw] = rows[:, pw:pw + 1] if replicate else 0
        rows[:, pw + width:] = rows[:, pw + width - 1:pw + width] if replicate else 0
        yield s0, s1, grid.reshape(-1)


def _correlate_strips(img: Image, coeffs: np.ndarray, border: str, workers: int,
                      out: np.ndarray, finish: Callable) -> np.ndarray:
    """Correlate with ``coeffs``, already of the accumulator's dtype, strip
    by strip into ``out`` and return it.

    A strip's sums are kept at the padded source's row stride S = W + kw − 1,
    so tap (i, j) of every pixel of the strip is one contiguous slice of the
    source, at offset i·S + j: each tap is one 1-D add, in row-major tap
    order. Zero taps are skipped and ±1 taps added or subtracted directly;
    the sums start at +0.0 (or 0), so neither changes any sum. A float sum
    that overflows becomes non-finite, so numpy's float warnings are
    silenced; numpy keeps that setting per thread.

    Each strip's sums, a (rows, W) view, are checked finite, then stored as
    ``out[s0:s1] = finish(sums, spare)`` while in cache; ``finish`` may
    change ``sums`` and use ``spare``, a free buffer of the same shape.
    Strips do not overlap, so threads store their rows without a lock, and
    each thread allocates its own buffers once."""
    border = BORDER.check(border, "border")
    workers = POSITIVE_INT.check(workers, "workers")
    kh, kw = coeffs.shape
    width = img.width
    stride = width + kw - 1
    taps = [(i * stride + j, c) for (i, j), c in np.ndenumerate(coeffs) if c != 0]

    def run(strips):
        size = max(s1 - s0 for s0, s1 in strips) * stride
        acc, prod = np.empty(size, coeffs.dtype), np.empty(size, coeffs.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            for s0, s1, source in _padded_strips(img.pixels, strips, kh, kw, border,
                                                 coeffs.dtype):
                rows = s1 - s0
                n = (rows - 1) * stride + width  # the last row's padding is not summed
                sums = acc[:n]
                sums.fill(0)
                for offset, c in taps:
                    tap = source[offset:offset + n]
                    if c == 1:
                        sums += tap
                    elif c == -1:
                        sums -= tap
                    else:
                        sums += np.multiply(tap, c, out=prod[:n])
                sums = acc[:rows * stride].reshape(rows, stride)[:, :width]
                spare = prod[:rows * stride].reshape(rows, stride)[:, :width]
                out[s0:s1] = finish(SignedImage._finite(sums), spare)

    strips = _row_strips(img.height, width)
    threads = min(workers, len(strips), os.cpu_count() or 1)
    if threads == 1:
        run(strips)
    else:
        # Imported here, as most calls run on one thread: at module level it
        # would add about 8 ms to every CLI process's start-up.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, [strips[k::threads] for k in range(threads)]))
    return out


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
    coeffs = kernel.coeffs.astype(_accumulator(kernel.coeffs))
    out = np.empty((img.height, img.width), coeffs.dtype)
    return SignedImage._trusted(_correlate_strips(img, coeffs, border, workers, out,
                                                  lambda sums, spare: sums))


def _clamp_display(img: Image, stencil, bias: int = 0, border: str = "replicate") -> Image:
    """``clamp_round(bias + correlate(img, Kernel(stencil), border))``, the one
    numpy clamp display. ``stencil`` is what :func:`grayfilt._swar.correlate_clamp`
    takes from ``pipeline._kernel_step``: a built-in integer tuple, or a
    parsed kernel's float64 ``coeffs``, which only this form runs. The clamp is
    fused into the strip loop: each strip is clamped into the uint8 output
    in place while it is in cache, so no full-size accumulator exists, and
    an integer stencil whose sums and bias stay below 2**15 accumulates in
    int16. A non-finite float sum raises the same DomainError as ``correlate``."""
    kernel = Kernel(stencil)
    coeffs = kernel.coeffs.astype(_accumulator(kernel.coeffs, bias))

    def clamp(sums, spare):
        if bias:
            sums += bias
        return _clamp_levels(sums, sums, spare)  # _correlate_strips has checked sums finite

    out = np.empty((img.height, img.width), np.uint8)
    return Image._trusted(_correlate_strips(img, coeffs, border, 1, out, clamp))


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
    return correlate(img, _LAPLACIANS[VARIANT.check(variant, "variant")], border, workers)


def _int_levels(vmin: int, span: int) -> Callable:
    """The rescale of integer values in [vmin, vmin + span], span >= 1, in
    exact integers: (510·(v − vmin) + span) // (2·span) is 255·(v − vmin)/span
    rounded half up, which for these nonnegative quotients is half away from
    zero. It works in place in ``work``, uint64, where v − vmin is exact
    modulo 2**64 for any integer dtype, since it lies in [0, span], and
    510·span + span stays below 2**64."""
    base = np.uint64(vmin % 2**64)

    def divide(v, work, spare):
        np.copyto(work, v, casting="unsafe")
        work -= base
        work *= np.uint64(510)
        work += np.uint64(span)
        work //= np.uint64(2 * span)
        return work

    return divide


def _float_levels(vmin: float, vmax: float) -> Callable:
    """The rescale of values in [vmin, vmax], vmin < vmax, in float64 in
    place in ``work``, rounded as ``clamp_round`` rounds; every scaled value
    is finite."""
    if vmax - vmin < _RESCALE_EXACT_SPAN:
        def scale(v, work, spare):
            # Multiply before dividing: for integer-valued inputs the
            # numerator stays exact, so half-way quotients round the same as
            # exact rationals.
            np.subtract(v, vmin, out=work, dtype=np.float64)
            work *= 255.0
            work /= vmax - vmin
            return _clamp_levels(work, work, spare)
    else:
        def scale(v, work, spare):
            # The product, or the span itself, would overflow: halve every
            # term (exact for normal doubles) and divide first.
            np.divide(v, 2, out=work, dtype=np.float64)
            work -= vmin / 2
            work /= vmax / 2 - vmin / 2
            work *= 255.0
            return _clamp_levels(work, work, spare)
    return scale


def clamp_to_display(signed: SignedImage, mode: str = "clamp") -> Image:
    """Map a signed intermediate back to displayable gray levels, one strip
    of rows at a time, in buffers allocated once per call.

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
    work = values.dtype
    if DISPLAY.check(mode, "mode") == "clamp":
        levels = _clamp_levels  # signed image values are finite
    else:
        # Python ints for integer values, Python floats for float64 ones.
        vmin, vmax = values.min().item(), values.max().item()
        if vmin == vmax:
            return Image._trusted(np.zeros(values.shape, dtype=np.uint8))
        if isinstance(vmin, int) and vmax - vmin <= _RESCALE_INT_SPAN:
            levels, work = _int_levels(vmin, vmax - vmin), np.uint64
        else:
            # Python floats hold every float64 and every integer below 2**53 exactly.
            levels, work = _float_levels(float(vmin), float(vmax)), np.float64
    strips = _row_strips(*values.shape)
    shape = (strips[0][1], values.shape[1])  # the first strip is the largest
    # An integer display never touches ``spare``, so its pages are never faulted in.
    work, spare = np.empty(shape, work), np.empty(shape, np.float64)
    out = np.empty(values.shape, np.uint8)
    for s0, s1 in strips:
        out[s0:s1] = levels(values[s0:s1], work[:s1 - s0], spare[:s1 - s0])
    return Image._trusted(out)
