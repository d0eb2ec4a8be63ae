"""Parameter kinds: the one check of each parameter, shared by the library
functions, the pipeline and the CLI.

This module imports no numpy, so the CLI can parse and check a command line
before numpy loads. A numpy scalar is still accepted where the matching
Python number is: such a value can exist only once numpy is loaded, so the
checks look numpy up in ``sys.modules`` instead of importing it.
"""

from __future__ import annotations

import os
import reprlib
import sys
from typing import Callable, NamedTuple

#: Number of representable gray levels (8-bit images).
GRAY_LEVELS = 256

#: Largest representable gray level.
MAX_GRAY = GRAY_LEVELS - 1


class Kind(NamedTuple):
    """A parameter kind. ``check(value, name)`` is its one validator, shared
    by the library functions, the pipeline and the CLI: it returns the value
    in canonical form or raises ValueError naming the parameter. ``parse``
    turns CLI text into a value; ``choices`` lists the values of a choice kind."""

    check: Callable[[object, str], object]
    parse: Callable[[str], object] = str
    choices: tuple = ()


def _must(ok: bool, name: str, what: str, value):
    if not ok:
        # reprlib shortens a huge integer or a long string to a few dozen characters.
        raise ValueError(f"{name} must be {what}, got {reprlib.repr(value)}")
    return value


def _is_int(v) -> bool:
    """An integer, numpy integers included; bool is not a number here."""
    np = sys.modules.get("numpy")
    return ((isinstance(v, int) or (np is not None and isinstance(v, np.integer)))
            and not isinstance(v, bool))


def int_kind(what: str, ok: Callable[[int], bool]) -> Kind:
    """The kind of the integers for which ``ok`` holds, described as ``what``."""
    return Kind(lambda v, name: int(_must(_is_int(v) and ok(v), name, what, v)), int)


POSITIVE_INT = int_kind("a positive integer", lambda v: v >= 1)
THRESHOLD = int_kind(f"an integer in [0, {MAX_GRAY}]", lambda v: 0 <= v <= MAX_GRAY)


def _positive_float(v, name: str) -> float:
    np = sys.modules.get("numpy")
    if np is not None and isinstance(v, np.generic):
        # Compare numpy scalars as Python numbers (a float32 would cast the
        # bound to inf and warn).
        is_number, num = isinstance(v, (np.integer, np.floating)), v.item()
    else:
        is_number, num = _is_int(v) or isinstance(v, float), v
    # The bound also rejects NaN and ints too large for a float.
    ok = is_number and 0 < num <= sys.float_info.max
    return float(_must(ok, name, "a finite positive number", v))


POSITIVE_FLOAT = Kind(_positive_float, float)


def choice(*options: str) -> Kind:
    """The kind whose values are exactly ``options``."""
    return Kind(lambda v, name: _must(isinstance(v, str) and v in options, name,
                                      f"one of {options}", v), choices=options)


#: Border policies of the correlation engine.
BORDER = choice("replicate", "zero")
#: Laplacian stencils.
VARIANT = choice("four", "eight")
#: Maps of a signed intermediate to gray levels.
DISPLAY = choice("clamp", "rescale")


def _is_path(v) -> bool:
    """A string ``open`` takes as a path: not empty, no NUL, and encodable
    in the file-system encoding (JSON can spell a NUL or a lone surrogate)."""
    if not isinstance(v, str) or v == "" or "\0" in v:
        return False
    try:
        os.fsencode(v)
    except UnicodeEncodeError:
        return False
    return True


PATH = Kind(lambda v, name: _must(_is_path(v), name, "a file path", v))
FLAG = Kind(lambda v, name: _must(isinstance(v, bool), name, "true or false", v))

#: Largest benchmark image side: 8192**2 pixels are 64 MB as uint8 and 256 MB
#: as the int32 output, so a mistyped size cannot exhaust memory.
MAX_BENCH_SIZE = 8192
BENCH_SIZE = int_kind(f"an integer in [1, {MAX_BENCH_SIZE}]", lambda v: 1 <= v <= MAX_BENCH_SIZE)
#: Largest ones-kernel side: the kernel is then 0.5 MB, and a mistyped ksize
#: cannot ask for a kernel or a padding larger than memory.
MAX_BENCH_KSIZE = 255
BENCH_KSIZE = int_kind(f"an odd integer in [1, {MAX_BENCH_KSIZE}]",
                       lambda v: 1 <= v <= MAX_BENCH_KSIZE and v % 2 == 1)
#: Most timed repetitions, so a mistyped count is refused instead of keeping
#: the bench running for hours.
MAX_BENCH_ITERS = 1000
BENCH_ITERS = int_kind(f"an integer in [1, {MAX_BENCH_ITERS}]",
                       lambda v: 1 <= v <= MAX_BENCH_ITERS)
