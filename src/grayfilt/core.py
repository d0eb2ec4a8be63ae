"""Shared value types (images, kernels, histograms) and the rounding rule.

Every filter in this package moves pixels through exactly one rounding and
clamping rule, :func:`clamp_round`, so results are reproducible bit for bit.
All types are immutable after construction: the wrapped numpy arrays are
copied in and marked read-only, which makes the values safe to share between
threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

#: Number of representable gray levels (8-bit images).
GRAY_LEVELS = 256

#: Largest representable gray level.
MAX_GRAY = GRAY_LEVELS - 1


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class Image:
    """An 8-bit grayscale raster.

    Pixels are stored row-major as a read-only ``uint8`` array of shape
    ``(height, width)``; every value lies in ``[0, max_gray]``.
    """

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        arr = np.asarray(pixels)
        if arr.ndim != 2:
            raise ValueError(f"image pixels must be 2-D, got {arr.ndim}-D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image dimensions must be >= 1, got {arr.shape}")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"pixel values must be integers, got dtype {arr.dtype}")
            if arr.min() < 0 or arr.max() > MAX_GRAY:
                raise ValueError(
                    f"pixel values must lie in [0, {MAX_GRAY}], "
                    f"got range [{arr.min()}, {arr.max()}]"
                )
        self.pixels = _frozen(arr.astype(np.uint8, copy=True))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def max_gray(self) -> int:
        return MAX_GRAY

    def __eq__(self, other):
        if not isinstance(other, Image):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)

    __hash__ = None

    def __repr__(self):
        return f"Image({self.width}x{self.height})"


class SignedImage:
    """An unclamped intermediate raster holding signed filter outputs.

    Values are stored as ``float64``, which represents every integer a
    small integer kernel can produce on 8-bit input exactly (magnitudes up
    to 2**53), while also admitting real-coefficient kernels.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"signed image values must be 2-D, got {arr.ndim}-D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"signed image dimensions must be >= 1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise DomainError("signed image values must be finite")
        self.values = _frozen(arr.copy())

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other):
        if not isinstance(other, SignedImage):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    __hash__ = None

    def __repr__(self):
        return f"SignedImage({self.width}x{self.height})"


class Kernel:
    """A small odd-dimension filter mask with real coefficients.

    Odd dimensions put the anchor at the exact center tap. At least one
    coefficient must be nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"kernel coefficients must be 2-D, got {arr.ndim}-D")
        kh, kw = arr.shape
        if kh < 1 or kw < 1 or kh % 2 == 0 or kw % 2 == 0:
            raise ValueError(f"kernel dimensions must be odd and positive, got {kh}x{kw}")
        if not np.isfinite(arr).all():
            raise ValueError("kernel coefficients must be finite")
        if not np.any(arr != 0.0):
            raise ValueError("kernel must have at least one nonzero coefficient")
        self.coeffs = _frozen(arr.copy())

    @property
    def kwidth(self) -> int:
        return self.coeffs.shape[1]

    @property
    def kheight(self) -> int:
        return self.coeffs.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    __hash__ = None

    def __repr__(self):
        return f"Kernel({self.kheight}x{self.kwidth})"


class BinaryImage:
    """A raster whose elements are 0 or 1."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = np.asarray(bits)
        if arr.ndim != 2:
            raise ValueError(f"binary image bits must be 2-D, got {arr.ndim}-D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"binary image dimensions must be >= 1, got {arr.shape}")
        if arr.dtype == np.bool_:
            arr = arr.astype(np.uint8)
        elif not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"binary image elements must be integers, got dtype {arr.dtype}")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("binary image elements must be 0 or 1")
        self.bits = _frozen(arr.astype(np.uint8, copy=True))

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    def __eq__(self, other):
        if not isinstance(other, BinaryImage):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    __hash__ = None

    def __repr__(self):
        return f"BinaryImage({self.width}x{self.height})"


class Histogram:
    """Gray-level occurrence counts: ``bins[i]`` pixels have value ``i``."""

    __slots__ = ("bins",)

    def __init__(self, bins):
        arr = np.asarray(bins)
        if arr.ndim != 1 or arr.shape[0] != GRAY_LEVELS:
            raise ValueError(f"histogram must have exactly {GRAY_LEVELS} bins")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"histogram counts must be integers, got dtype {arr.dtype}")
        if arr.min() < 0:
            raise ValueError("histogram counts must be nonnegative")
        self.bins = _frozen(arr.astype(np.int64, copy=True))

    @property
    def total(self) -> int:
        return int(self.bins.sum())

    def __eq__(self, other):
        if not isinstance(other, Histogram):
            return NotImplemented
        return np.array_equal(self.bins, other.bins)

    __hash__ = None

    def __repr__(self):
        return f"Histogram(total={self.total})"


def round_half_away(v):
    """Round to the nearest integer, ties away from zero.

    Accepts scalars or arrays; the result is a float of integral value.
    The fractional part is computed exactly for |v| < 2**52, so ties are
    decided correctly even where ``floor(v + 0.5)`` would misround.
    """
    arr = np.asarray(v, dtype=np.float64)
    mag = np.abs(arr)
    base = np.floor(mag)
    rounded = np.where(mag - base >= 0.5, base + 1.0, base)
    return np.where(arr < 0, -rounded, rounded)


def clamp_round(v):
    """Map a finite signed value to a gray level.

    Rounds half away from zero, then clamps into ``[0, MAX_GRAY]``. This is
    the single display-mapping rule used by every filter in the package.
    Scalars come back as ``int``, arrays as ``uint8`` arrays.

    Raises:
        DomainError: if any input value is not finite.
    """
    arr = np.asarray(v, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DomainError("clamp_round requires finite input")
    out = np.clip(round_half_away(arr), 0, MAX_GRAY).astype(np.uint8)
    if arr.ndim == 0:
        return int(out)
    return out
