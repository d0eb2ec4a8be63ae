"""Shared value types (images, kernels, histograms) and the rounding rule.

Every filter in this package moves pixels through exactly one rounding and
clamping rule, :func:`clamp_round`, so results are reproducible bit for bit.
All types are immutable after construction: the wrapped numpy arrays are
copied in (an array the package has just computed is taken over instead)
and marked read-only, which makes the values safe to share between threads.
The parameter kinds are defined in :mod:`grayfilt.kinds`, which loads no
numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .kinds import GRAY_LEVELS, MAX_GRAY, kernel_rule


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class _Grid:
    """Base of the 2-D value types. Each subclass keeps its read-only array
    in its one slot (``pixels``, ``values``, ``bits`` or ``coeffs``)."""

    __slots__ = ()

    def _shape_checked(self, arr: np.ndarray) -> np.ndarray:
        if arr.ndim != 2:
            raise ValueError(f"{type(self).__name__} array must be 2-D, got {arr.ndim}-D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"{type(self).__name__} array must be non-empty, got {arr.shape}")
        return arr

    @classmethod
    def _trusted(cls, arr: np.ndarray):
        """Wrap an array the package has just computed, already valid for
        ``cls`` and referenced nowhere else: it is frozen in place, without
        the copy and the checks of the public constructor."""
        self = object.__new__(cls)
        setattr(self, cls.__slots__[0], _frozen(arr))
        return self

    @property
    def _array(self) -> np.ndarray:
        return getattr(self, self.__slots__[0])

    @property
    def width(self) -> int:
        return self._array.shape[1]

    @property
    def height(self) -> int:
        return self._array.shape[0]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self._array, other._array)

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}({self.width}x{self.height})"


class Image(_Grid):
    """An 8-bit grayscale raster.

    Pixels are stored row-major as a read-only ``uint8`` array of shape
    ``(height, width)``; every value lies in ``[0, max_gray]``.
    """

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        arr = self._shape_checked(np.asarray(pixels))
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
    def max_gray(self) -> int:
        return MAX_GRAY


class SignedImage(_Grid):
    """An unclamped intermediate raster holding signed filter outputs.

    Integer values keep their integer dtype: the engine produces ``int32``
    for integer kernels, whose sums are exact. Any other values are stored as
    ``float64`` and must be finite.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values)
        if not np.issubdtype(arr.dtype, np.integer):
            arr = np.asarray(arr, dtype=np.float64)
        self.values = _frozen(self._finite(self._shape_checked(arr)).copy())

    @staticmethod
    def _finite(arr: np.ndarray) -> np.ndarray:
        if arr.dtype == np.float64 and not np.isfinite(arr).all():
            raise DomainError("signed image values must be finite")
        return arr


class Kernel(_Grid):
    """A small odd-dimension filter mask with real coefficients.

    Odd dimensions put the anchor at the exact center tap. At least one
    coefficient must be nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = self._shape_checked(np.asarray(coeffs, dtype=np.float64))
        kernel_rule(*arr.shape, np.isfinite(arr).all(), arr.any())
        self.coeffs = _frozen(arr.copy())

    kwidth = _Grid.width
    kheight = _Grid.height

    def __repr__(self):
        return f"Kernel({self.kheight}x{self.kwidth})"


class BinaryImage(_Grid):
    """A raster whose elements are 0 or 1."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = self._shape_checked(np.asarray(bits))
        if arr.dtype == np.bool_:
            arr = arr.astype(np.uint8)
        elif not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"binary image elements must be integers, got dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() > 1:
            raise ValueError("binary image elements must be 0 or 1")
        self.bits = _frozen(arr.astype(np.uint8, copy=True))


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
        if int(arr.max()) >= 2**63:  # a uint64 count that int64 cannot hold
            raise ValueError("histogram counts must be below 2**63")
        self.bins = _frozen(arr.astype(np.int64, copy=True))

    @property
    def total(self) -> int:
        return sum(self.bins.tolist())  # Python ints: an int64 sum can wrap

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
    # With ``out``, a 0-d input stays an array that can be overwritten.
    rounded = _round_nonnegative(np.abs(arr, out=np.empty_like(arr)))
    return np.where(arr < 0, -rounded, rounded)


def _round_nonnegative(mag, whole=None):
    """Round float64 values >= 0 half up, which is half away from zero:
    the whole part, plus 1 where the exact fractional part is at least 0.5.
    The result is made in ``whole`` when given; ``mag`` is overwritten."""
    whole = np.floor(mag, out=whole)
    mag -= whole
    whole += np.greater_equal(mag, 0.5, out=mag)  # adds 1.0 or 0.0, both exact
    return whole


def clamp_round(v):
    """Map a finite signed value to a gray level.

    Rounds half away from zero, then clamps into ``[0, MAX_GRAY]``. This is
    the single display-mapping rule used by every filter in the package.
    Scalars come back as ``int``, arrays as ``uint8`` arrays. Integer input
    is only clamped, since rounding an integer is the identity.

    Raises:
        DomainError: if any input value is not finite.
    """
    arr = np.asarray(v)
    if not np.issubdtype(arr.dtype, np.integer):
        arr = np.asarray(arr, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise DomainError("clamp_round requires finite input")
    out = _clamp_levels(arr, np.empty_like(arr)).astype(np.uint8)
    if arr.ndim == 0:
        return int(out)
    return out


def _clamp_levels(arr: np.ndarray, work: np.ndarray, spare=None) -> np.ndarray:
    """``clamp_round`` of an integer or float64 array whose values are
    already known to be finite, as an array of levels of the input's dtype,
    made in place: ``work``, of ``arr``'s dtype and shape, and possibly
    ``arr`` itself, gets the clipped values, which are the levels of
    integers. Float levels are made in ``spare``, a float64 buffer of the
    same shape, or in a new array when it is None."""
    # Every value below 0 rounds to 0 or less and every value above 255
    # to 255 or more, so clipping first leaves only [0, 255] to round.
    np.clip(arr, 0, MAX_GRAY, out=work)
    if np.issubdtype(work.dtype, np.integer):
        return work
    return _round_nonnegative(work, spare)
