import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grayfilt import (
    BinaryImage,
    DomainError,
    Histogram,
    Image,
    Kernel,
    SignedImage,
    clamp_round,
    round_half_away,
)
from grayfilt.kinds import (
    BENCH_ITERS,
    BENCH_KSIZE,
    BENCH_SIZE,
    BORDER,
    DISPLAY,
    FLAG,
    PATH,
    POSITIVE_FLOAT,
    POSITIVE_INT,
    THRESHOLD,
    VARIANT,
    choice,
)


class TestClampRound:
    def test_clamp_floor(self):
        assert clamp_round(-3.0) == 0

    def test_rounding_rule_then_in_range(self):
        assert clamp_round(254.5) == 255

    def test_clamp_ceiling(self):
        assert clamp_round(400) == 255

    @pytest.mark.parametrize("value,expected", [
        (0.5, 1), (1.5, 2), (2.5, 3), (100.49, 100), (-0.4, 0), (255.0, 255),
    ])
    def test_half_away_from_zero(self, value, expected):
        assert clamp_round(value) == expected

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            clamp_round(bad)

    def test_array_input(self):
        out = clamp_round(np.array([[-400.0, 0.0, 100.0]]))
        assert out.dtype == np.uint8
        assert out.tolist() == [[0, 0, 100]]

    @given(st.integers(min_value=0, max_value=255))
    def test_idempotent_on_gray_levels(self, v):
        assert clamp_round(v) == v
        assert clamp_round(clamp_round(v)) == clamp_round(v)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64),
           st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_monotone_nondecreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert clamp_round(lo) <= clamp_round(hi)


    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.int64, np.uint64])
    def test_integer_arrays_are_clamped_only(self, dtype):
        info = np.iinfo(dtype)
        values = np.array([[info.min, 0, 1, 128], [255, min(256, info.max), info.max, 7]], dtype)
        out = clamp_round(values)
        assert out.dtype == np.uint8
        assert out.tolist() == [[min(max(int(v), 0), 255) for v in row] for row in values]
        assert np.array_equal(out, clamp_round(values.astype(np.float64)))

    @given(st.integers(min_value=-(2**70), max_value=2**70))
    def test_integer_scalars_follow_the_same_rule(self, v):
        # Python ints beyond int64 take the float path; both give the clamp.
        assert clamp_round(v) == min(max(v, 0), 255)


class TestRoundHalfAway:
    def test_ties_away_from_zero(self):
        assert round_half_away(2.5) == 3.0
        assert round_half_away(-2.5) == -3.0

    def test_largest_double_below_half_rounds_down(self):
        # floor(x + 0.5) would misround this value up.
        assert round_half_away(0.49999999999999994) == 0.0


class TestImage:
    def test_from_nested_lists(self):
        img = Image([[0, 255], [7, 128]])
        assert (img.width, img.height, img.max_gray) == (2, 2, 255)
        assert img.pixels.dtype == np.uint8

    def test_pixels_read_only(self):
        img = Image([[1, 2]])
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 3

    def test_source_array_not_aliased(self):
        src = np.zeros((2, 2), dtype=np.uint8)
        img = Image(src)
        src[0, 0] = 9
        assert img.pixels[0, 0] == 0

    @pytest.mark.parametrize("bad", [
        [[256]], [[-1]], [[1.5]], [1, 2, 3], np.zeros((0, 4), dtype=np.uint8),
        np.zeros((2, 2, 2), dtype=np.uint8),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            Image(bad)

    def test_equality(self):
        assert Image([[5]]) == Image([[5]])
        assert Image([[5]]) != Image([[6]])
        assert Image([[5]]) != Image([[5, 5]])


class TestSignedImage:
    def test_holds_out_of_range_values(self):
        s = SignedImage([[-400.0, 1e6]])
        assert s.values.tolist() == [[-400.0, 1e6]]
        assert (s.width, s.height) == (2, 1)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            SignedImage([1.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.int64])
    def test_integer_values_keep_their_dtype(self, dtype):
        src = np.array([[0, 1], [-1 if np.iinfo(dtype).min else 2, 5]], dtype)
        s = SignedImage(src)
        assert s.values.dtype == dtype
        assert s.values.tolist() == src.tolist()
        assert s.values is not src and not s.values.flags.writeable

    def test_python_integers_stay_integers(self):
        assert SignedImage([[-400, 10**6]]).values.dtype == np.int64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.bool_])
    def test_other_values_become_float64(self, dtype):
        s = SignedImage(np.ones((2, 2), dtype))
        assert s.values.dtype == np.float64
        assert np.all(s.values == 1.0)

    def test_float32_non_finite_rejected(self):
        with pytest.raises(DomainError):
            SignedImage(np.array([[0.0, np.inf]], np.float32))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_requires_finite_values(self, bad):
        with pytest.raises(ValueError):
            SignedImage([[0.0, bad]])


class TestKernel:
    def test_dimensions(self):
        k = Kernel([[0, 1, 0], [1, -4, 1], [0, 1, 0]])
        assert (k.kwidth, k.kheight) == (3, 3)

    @pytest.mark.parametrize("bad", [
        [[1, 2], [3, 4]],          # even dims
        [],                        # empty
        [[0, 0], [0, 0]],
        [[0.0]],                   # all zero
        [[float("nan")]],
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            Kernel(bad)

    def test_even_by_odd_rejected(self):
        with pytest.raises(ValueError):
            Kernel(np.ones((2, 3)))


class TestBinaryImage:
    def test_bits_only(self):
        b = BinaryImage([[0, 1], [1, 0]])
        assert b.bits.tolist() == [[0, 1], [1, 0]]

    def test_bool_array_accepted(self):
        b = BinaryImage(np.array([[True, False]]))
        assert b.bits.tolist() == [[1, 0]]

    def test_other_values_rejected(self):
        with pytest.raises(ValueError):
            BinaryImage([[0, 2]])

    @pytest.mark.parametrize("bits", [
        [[-1, 0]], np.array([[0, 2**62]]), np.array([[1, 2**64 - 1]], np.uint64)])
    def test_negative_and_wide_values_rejected(self, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            BinaryImage(bits)

    def test_float_array_rejected(self):
        with pytest.raises(ValueError) as info:
            BinaryImage(np.array([[0.0, 1.0]]))
        assert str(info.value) == "binary image elements must be integers, got dtype float64"


class TestHistogram:
    def test_bin_count_enforced(self):
        Histogram(np.zeros(256, dtype=np.int64))
        with pytest.raises(ValueError):
            Histogram(np.zeros(255, dtype=np.int64))

    def test_negative_counts_rejected(self):
        bins = np.zeros(256, dtype=np.int64)
        bins[3] = -1
        with pytest.raises(ValueError):
            Histogram(bins)

    def test_total(self):
        bins = np.zeros(256, dtype=np.int64)
        bins[0], bins[255] = 3, 4
        assert Histogram(bins).total == 7

    @pytest.mark.parametrize("bins, total", [
        ([2**62] * 4, 2**64), ([2**63 - 1, 1], 2**63)])
    def test_total_does_not_wrap_past_int64(self, bins, total):
        assert Histogram(bins + [0] * (256 - len(bins))).total == total

    def test_uint64_count_past_int64_rejected(self):
        bins = np.zeros(256, dtype=np.uint64)
        bins[7] = 2**63
        with pytest.raises(ValueError, match="below 2\\*\\*63"):
            Histogram(bins)
        bins[7] = 2**63 - 1
        assert Histogram(bins).bins[7] == 2**63 - 1

    def test_float_counts_rejected(self):
        with pytest.raises(ValueError) as info:
            Histogram(np.zeros(256))
        assert str(info.value) == "histogram counts must be integers, got dtype float64"


class TestValueTypes:
    """What the 2-D value types share: repr, equality within one type only,
    no hashing, and no attributes beyond their declared one."""

    VALUES = [
        Image(np.zeros((2, 3), np.uint8)),
        SignedImage(np.zeros((2, 3))),
        BinaryImage(np.zeros((2, 3), np.uint8)),
        Kernel(np.ones((3, 5))),
        Histogram(np.arange(256)),
    ]
    IDS = ["Image", "SignedImage", "BinaryImage", "Kernel", "Histogram"]

    def test_reprs(self):
        assert list(map(repr, self.VALUES)) == [
            "Image(3x2)", "SignedImage(3x2)", "BinaryImage(3x2)", "Kernel(3x5)",
            f"Histogram(total={255 * 256 // 2})"]

    def test_different_types_are_never_equal(self):
        for a in self.VALUES:
            for b in self.VALUES:
                assert (a == b) is (a is b)

    @pytest.mark.parametrize("value", VALUES, ids=IDS)
    def test_not_hashable(self, value):
        with pytest.raises(TypeError):
            hash(value)

    @pytest.mark.parametrize("value", VALUES, ids=IDS)
    def test_no_undeclared_attributes(self, value):
        with pytest.raises(AttributeError):
            value.label = "x"


class TestParameterMessages:
    """A rejected value is echoed shortened, so one diagnostic stays one short line."""

    @pytest.mark.parametrize("kind,value", [
        (POSITIVE_FLOAT, 10**400),
        (POSITIVE_INT, -(10**400)),
        (THRESHOLD, "x" * 10_000),
        (choice("clamp", "rescale"), "clamp" * 2_000),
        (POSITIVE_INT, list(range(1_000))),
    ])
    def test_echoed_value_is_truncated(self, kind, value):
        with pytest.raises(ValueError, match="^gamma must be") as info:
            kind.check(value, "gamma")
        assert len(str(info.value)) < 120

    def test_short_values_are_echoed_whole(self):
        with pytest.raises(ValueError, match=r"got 'six'$"):
            choice("four", "eight").check("six", "variant")
        with pytest.raises(ValueError, match=r"got -1\.5$"):
            POSITIVE_FLOAT.check(-1.5, "gamma")


_NP_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
_NP_FLOATS = (np.float16, np.float32, np.float64)
#: Values no numeric kind takes: bools (numpy's too), text and non-finite numbers.
_NEVER_NUMBERS = [True, False, np.bool_(True), None, "3", [3], float("nan"), float("inf"),
                  -float("inf"), np.float64("nan"), np.float32("inf")]

#: kind -> (accepted values, rejected values). Every caller (library, pipeline
#: and CLI) goes through these checks, so this table is what each kind means.
KIND_DOMAINS = {
    "POSITIVE_INT": (POSITIVE_INT, [1, 7, 10**400, *(t(3) for t in _NP_INTS)],
                     [0, -1, 2.0, np.float64(2), np.float32(2), *_NEVER_NUMBERS]),
    "THRESHOLD": (THRESHOLD, [0, 128, 255, *(t(5) for t in _NP_INTS), np.uint8(255)],
                  [-1, 256, 10**400, 128.0, np.float64(5), *_NEVER_NUMBERS]),
    "POSITIVE_FLOAT": (POSITIVE_FLOAT,
                       [2, 0.5, 5e-324, sys.float_info.max, 10**308, *(t(3) for t in _NP_INTS),
                        *(t(1.5) for t in _NP_FLOATS), np.uint64(2**64 - 1)],
                       [0, 0.0, -1.5, -0.0, 10**400, np.float64(0), np.int8(-1),
                        *_NEVER_NUMBERS]),
    "BENCH_SIZE": (BENCH_SIZE, [1, 8192, *(t(64) for t in _NP_INTS)],
                   [0, 8193, 64.0, *_NEVER_NUMBERS]),
    "BENCH_KSIZE": (BENCH_KSIZE, [1, 3, 255, *(t(5) for t in _NP_INTS)],
                    [0, 2, 257, 3.0, *_NEVER_NUMBERS]),
    "BENCH_ITERS": (BENCH_ITERS, [1, 1000, *(t(5) for t in _NP_INTS)],
                    [0, 1001, 10**400, 5.0, *_NEVER_NUMBERS]),
    "FLAG": (FLAG, [True, False], [0, 1, np.bool_(True), "true", None]),
    "BORDER": (BORDER, ["replicate", "zero"], ["edge", "Zero", b"zero", True, None]),
    "VARIANT": (VARIANT, ["four", "eight"], ["six", "", 4, True]),
    "DISPLAY": (DISPLAY, ["clamp", "rescale"], ["clip", 0, False]),
    "PATH": (PATH, ["a.pgm", "dir/a b.pgm", "."],
             ["", "a\0b", "\ud800.pgm", b"a.pgm", None, True, 3]),
}


def _kind_cases(accepted):
    return [pytest.param(kind, value, id=f"{name}-{type(value).__name__}-{value!r:.20}")
            for name, (kind, good, bad) in KIND_DOMAINS.items()
            for value in (good if accepted else bad)]


class TestKindDomains:
    @pytest.mark.parametrize("kind,value", _kind_cases(accepted=True))
    def test_accepts(self, kind, value):
        out = kind.check(value, "x")
        if kind is POSITIVE_FLOAT:
            assert type(out) is float and out == float(value)
        elif kind.parse is int:
            assert type(out) is int and out == int(value)
        else:
            assert out is value

    @pytest.mark.parametrize("kind,value", _kind_cases(accepted=False))
    def test_rejects(self, kind, value):
        with pytest.raises(ValueError, match="^x must be "):
            kind.check(value, "x")
