"""General 2-D neighborhood filtering: correlation, convolution, Laplacians.

A kernel whose coefficients are all integers, with ``sum(|c|) * 255`` below
2**31, is accumulated exactly in ``int32``; every built-in kernel takes this
path. Integer sums are exact in any order, so this equals the float64
evaluation bit for bit. Any other kernel is accumulated in ``float64`` tap by
tap in a fixed row-major order, so results are bit-identical to a per-pixel
nested-loop evaluation in that same order (and exact for an integer kernel
with ``sum(|c|) * 255`` below 2**53, whose partial sums are all integers
that a double holds).

Every correlation runs one strip loop, ``_correlate_strips``: it checks each
strip of sums finite and stores it through one per-strip finish.
:func:`correlate` never clamps: its finish keeps the sums, its output is a
:class:`SignedImage`, and :func:`clamp_to_display` maps it to gray levels one
strip of rows at a time. An integer intermediate is rescaled in exact
integers, as (510·(v − min) + span) // (2·span) with span = max − min. The
clamp displays (``laplacian_sharpen``, ``shadow_ne``, ``shadow_invert``, and
the clamp of the ``laplacian`` and ``convolve`` ops) all go through one
entry, ``_clamp_display``, whose finish clamps each strip to gray levels
with the same rounding rule, so no full-size signed intermediate is built.
Those two ops' rescale is the library calls, ``clamp_to_display`` of
:func:`laplacian` or :func:`convolve`.

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

#: Pad mode implementing each border policy of ``BORDER``.
_BORDER_MODES = {"replicate": "edge", "zero": "constant"}

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
#: display mapping, box blur) and the correlation's unit of parallel work:
#: 512 KB per float64 array, so a strip's accumulator and product fit in a
#: core's L2 cache.
_STRIP_PIXELS = 2**16


def _row_strips(height: int, width: int) -> list:
    """[s0, s1) row ranges of about ``_STRIP_PIXELS`` pixels of ``width``
    each, and at least one row, covering ``height`` rows."""
    step = max(1, _STRIP_PIXELS // width)
    return [(s0, min(s0 + step, height)) for s0 in range(0, height, step)]


def _accumulator(coeffs: np.ndarray) -> type:
    """int32 for integer coefficients whose sums over 8-bit pixels stay below
    2**31, so every sum is exact; else float64."""
    with np.errstate(over="ignore"):  # huge finite coefficients sum to inf
        bound = float(np.abs(coeffs).sum()) * MAX_GRAY
    if bound < 2.0**31 and np.array_equal(coeffs, np.round(coeffs)):
        return np.int32
    return np.float64


def _correlate_strip(padded: np.ndarray, coeffs: np.ndarray, s0: int, s1: int,
                     width: int) -> np.ndarray:
    """The accumulator of output rows [s0, s1): every tap of ``coeffs`` added
    over the uint8 ``padded`` source, in row-major tap order per pixel.

    Zero taps are skipped and ±1 taps added or subtracted directly; the
    accumulator starts at +0.0 (or 0), so neither changes any sum. A float sum
    that overflows becomes non-finite and is rejected by the caller, so
    numpy's float warnings are silenced. numpy keeps that setting per thread,
    so it is made here, in the function each thread calls."""
    kh, kw = coeffs.shape
    acc = np.zeros((s1 - s0, width), coeffs.dtype)
    prod = np.empty_like(acc)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(kh):
            for j in range(kw):
                c, tap = coeffs[i, j], padded[s0 + i:s1 + i, j:j + width]
                if c == 1:
                    acc += tap
                elif c == -1:
                    acc -= tap
                elif c != 0:
                    # The explicit loop dtype keeps numpy 1.x from
                    # choosing uint8 from the scalar's value and wrapping.
                    acc += np.multiply(tap, c, out=prod, dtype=prod.dtype)
    return acc


def _correlate_strips(img: Image, kernel: Kernel, border: str, workers: int,
                      out: np.ndarray, finish: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Correlate strip by strip into ``out`` and return it. Each strip's
    accumulator is checked finite, then stored as ``out[s0:s1] =
    finish(acc)`` while it is still in cache; ``finish`` may change ``acc``.
    Strips do not overlap, so threads store their rows without a lock."""
    mode = _BORDER_MODES[BORDER.check(border, "border")]
    workers = POSITIVE_INT.check(workers, "workers")
    coeffs = kernel.coeffs.astype(_accumulator(kernel.coeffs))
    ph, pw = kernel.kheight // 2, kernel.kwidth // 2
    padded = np.pad(img.pixels, ((ph, ph), (pw, pw)), mode=mode)

    def run(strip):
        acc = _correlate_strip(padded, coeffs, *strip, img.width)
        out[slice(*strip)] = finish(SignedImage._finite(acc))

    strips = _row_strips(img.height, img.width)
    threads = min(workers, len(strips), os.cpu_count() or 1)
    if threads == 1:
        for strip in strips:
            run(strip)
    else:
        # Imported here, as most calls run on one thread: at module level it
        # would add about 8 ms to every CLI process's start-up.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, strips))
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
    out = np.empty((img.height, img.width), _accumulator(kernel.coeffs))
    return SignedImage._trusted(_correlate_strips(img, kernel, border, workers, out,
                                                  lambda acc: acc))


def _clamp_display(img: Image, stencil, bias: int = 0, border: str = "replicate") -> Image:
    """``clamp_round(bias + correlate(img, Kernel(stencil), border))``, the one
    numpy clamp display. ``stencil`` is what :func:`grayfilt._swar.correlate_clamp`
    takes, a built-in tuple, or a parsed kernel's ``coeffs``. The clamp is
    fused into the strip loop: each strip is clamped into the uint8 output
    while it is in cache, so no full-size accumulator exists. A non-finite
    float sum raises the same DomainError as ``correlate``."""

    def clamp(acc):
        if bias:
            acc += bias
        return _clamp_levels(acc)  # _correlate_strips has checked acc finite

    out = np.empty((img.height, img.width), np.uint8)
    return Image._trusted(_correlate_strips(img, Kernel(stencil), border, 1, out, clamp))


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


def _int_levels(vmin: int, span: int) -> Callable[[np.ndarray], np.ndarray]:
    """The rescale of integer values in [vmin, vmin + span], span >= 1, in
    exact integers: (510·(v − vmin) + span) // (2·span) is 255·(v − vmin)/span
    rounded half up, which for these nonnegative quotients is half away from
    zero. It works in uint64, where v − vmin is exact modulo 2**64 for any
    integer dtype, since it lies in [0, span], and 510·span + span stays below
    2**64."""
    base = np.uint64(vmin % 2**64)

    def divide(v):
        d = v.astype(np.uint64)
        d -= base
        d *= np.uint64(510)
        d += np.uint64(span)
        d //= np.uint64(2 * span)
        return d

    return divide


def _float_levels(vmin: float, vmax: float) -> Callable[[np.ndarray], np.ndarray]:
    """The rescale of values in [vmin, vmax], vmin < vmax, in float64,
    rounded as ``clamp_round`` rounds; every scaled value is finite."""
    if vmax - vmin < _RESCALE_EXACT_SPAN:
        def scale(v):
            # Multiply before dividing: for integer-valued inputs the
            # numerator stays exact, so half-way quotients round the same as
            # exact rationals.
            scaled = np.subtract(v, vmin, dtype=np.float64)
            scaled *= 255.0
            scaled /= vmax - vmin
            return _clamp_levels(scaled)
    else:
        def scale(v):
            # The product, or the span itself, would overflow: halve every
            # term (exact for normal doubles) and divide first.
            return _clamp_levels((v / 2 - vmin / 2) / (vmax / 2 - vmin / 2) * 255.0)
    return scale


def clamp_to_display(signed: SignedImage, mode: str = "clamp") -> Image:
    """Map a signed intermediate back to displayable gray levels, one strip
    of rows at a time.

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
    if DISPLAY.check(mode, "mode") == "clamp":
        levels = _clamp_levels  # signed image values are finite
    else:
        # Python ints for integer values, Python floats for float64 ones.
        vmin, vmax = values.min().item(), values.max().item()
        if vmin == vmax:
            return Image._trusted(np.zeros(values.shape, dtype=np.uint8))
        if isinstance(vmin, int) and vmax - vmin <= _RESCALE_INT_SPAN:
            levels = _int_levels(vmin, vmax - vmin)
        else:
            # Python floats hold every float64 and every integer below 2**53 exactly.
            levels = _float_levels(float(vmin), float(vmax))
    out = np.empty(values.shape, np.uint8)
    for s0, s1 in _row_strips(*values.shape):
        out[s0:s1] = levels(values[s0:s1])
    return Image._trusted(out)
