import concurrent.futures
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import grayfilt.convolution
from grayfilt import (
    LAPLACIAN_EIGHT,
    LAPLACIAN_FOUR,
    Image,
    Kernel,
    SignedImage,
    clamp_to_display,
    convolve,
    correlate,
    laplacian,
    rot180,
)

from support import (
    clamp_round_exact,
    correlate_brute,
    laplacian_interior_brute,
    rand_image,
    rand_kernel,
    round_half_away_exact,
)

small_images = hnp.arrays(
    np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=10))
odd_sides = st.sampled_from([1, 3, 5])
kernel_coeffs = odd_sides.flatmap(
    lambda kh: odd_sides.flatmap(
        lambda kw: hnp.arrays(
            np.float64, (kh, kw),
            elements=st.integers(min_value=-9, max_value=9).map(float),
        ).filter(lambda a: np.any(a != 0.0))))


def impulse(side, value=1):
    pixels = np.zeros((side, side), dtype=np.uint8)
    pixels[side // 2, side // 2] = value
    return Image(pixels)


class TestRot180:
    def test_point_symmetric_kernel_is_fixed(self):
        assert rot180(LAPLACIAN_FOUR) == LAPLACIAN_FOUR
        assert rot180(LAPLACIAN_EIGHT) == LAPLACIAN_EIGHT

    def test_index_reversal(self):
        k = Kernel([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert rot180(k).coeffs.tolist() == [[9, 8, 7], [6, 5, 4], [3, 2, 1]]

    @given(kernel_coeffs)
    def test_involution(self, coeffs):
        k = Kernel(coeffs)
        assert rot180(rot180(k)) == k


class TestCorrelate:
    def test_identity_kernel(self):
        rng = np.random.default_rng(11)
        img = rand_image(rng, max_side=8)
        out = correlate(img, Kernel([[1.0]]))
        assert np.array_equal(out.values, img.pixels.astype(float))

    def test_impulse_response_is_flipped_kernel(self):
        k = Kernel([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        out = correlate(impulse(5), k, border="zero")
        assert out.values[1:4, 1:4].tolist() == rot180(k).coeffs.tolist()

    def test_ones_kernel_replicate_matches_oracle(self):
        rng = np.random.default_rng(12)
        img = Image(rng.integers(0, 256, (4, 4), np.uint8))
        out = correlate(img, Kernel(np.ones((3, 3))), border="replicate")
        expected = correlate_brute(img.pixels.tolist(), np.ones((3, 3)).tolist())
        assert out.values.tolist() == expected

    @pytest.mark.parametrize("border", ["replicate", "zero"])
    def test_random_kernels_match_oracle(self, border):
        rng = np.random.default_rng(13)
        for _ in range(25):
            img = rand_image(rng, max_side=9)
            coeffs = rand_kernel(rng)
            out = correlate(img, Kernel(coeffs), border=border)
            expected = correlate_brute(img.pixels.tolist(), coeffs.tolist(), border)
            assert out.values.tolist() == expected

    @pytest.mark.parametrize("ksize", [1, 3, 5])
    def test_output_dimensions_match_input(self, ksize):
        img = Image(np.zeros((2, 7), dtype=np.uint8))
        out = correlate(img, Kernel(np.ones((ksize, ksize))))
        assert (out.width, out.height) == (img.width, img.height)

    def test_linearity_in_signed_domain(self):
        # Exact for integer kernels: every product and sum stays integral.
        rng = np.random.default_rng(14)
        for _ in range(20):
            shape = tuple(rng.integers(1, 10, 2))
            f = rng.integers(0, 86, shape, np.uint8)
            g = rng.integers(0, 86, shape, np.uint8)
            while True:
                coeffs = rng.integers(-9, 10, (3, 3)).astype(float)
                if np.any(coeffs != 0.0):
                    break
            k = Kernel(coeffs)
            combined = correlate(Image(2 * f + g), k).values
            parts = 2 * correlate(Image(f), k).values + correlate(Image(g), k).values
            assert np.array_equal(combined, parts)

    def test_worker_counts_are_bit_identical(self, monkeypatch):
        # Strips of at most 2 rows, so several threads share every image.
        monkeypatch.setattr(grayfilt.convolution, "_STRIP_PIXELS", 8)
        rng = np.random.default_rng(15)
        img = rand_image(rng, max_side=20, min_side=4)
        k = Kernel(rng.normal(size=(3, 5)))
        serial = correlate(img, k)
        for workers in (2, 3, 8):
            assert correlate(img, k, workers=workers) == serial

    @pytest.mark.parametrize("strip_pixels", [1, 5, 13])
    def test_row_strips_do_not_change_sums(self, monkeypatch, strip_pixels):
        # Strips of one row up to a few rows, with a short last strip.
        monkeypatch.setattr(grayfilt.convolution, "_STRIP_PIXELS", strip_pixels)
        rng = np.random.default_rng(19)
        for _ in range(10):
            img = rand_image(rng, max_side=9, min_side=2)
            for coeffs in (rand_kernel(rng), rng.integers(-3, 4, (3, 3)).astype(float)):
                if not np.any(coeffs):
                    continue
                expected = correlate_brute(img.pixels.tolist(), coeffs.tolist(), "zero")
                for workers in (1, 2):
                    out = correlate(img, Kernel(coeffs), "zero", workers)
                    assert out.values.tolist() == expected

    def test_threads_are_bounded_by_cpu_count(self, monkeypatch):
        # Row strips are the unit of work: the pool has min(workers, strips,
        # CPUs) threads, and one thread runs the strips inline with no pool.
        # A stand-in executor records its size and runs the strips inline.
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlineExecutor)
        rng = np.random.default_rng(16)
        img = Image(rng.integers(0, 256, (7, 5), np.uint8))
        k = Kernel(rng.normal(size=(3, 3)))
        serial = correlate(img, k)

        # Strips of 2 rows: 4 strips, the last one short.
        monkeypatch.setattr(grayfilt.convolution, "_STRIP_PIXELS", 10)
        for cpus, workers, pool_size in [(8, 3, 3), (8, 5000, 4), (2, 3, 2), (2, 5000, 2)]:
            monkeypatch.setattr(grayfilt.convolution.os, "cpu_count", lambda: cpus)
            sizes.clear()
            assert correlate(img, k, workers=workers) == serial
            assert sizes == [pool_size]

        # One thread (one worker, one CPU or an unknown count) or one strip: no pool.
        for cpus, workers, strip_pixels in [(8, 1, 10), (1, 4, 10), (None, 4, 10), (8, 4, 35)]:
            monkeypatch.setattr(grayfilt.convolution.os, "cpu_count", lambda: cpus)
            monkeypatch.setattr(grayfilt.convolution, "_STRIP_PIXELS", strip_pixels)
            sizes.clear()
            assert correlate(img, k, workers=workers) == serial
            assert sizes == []

    def test_threads_sharing_the_output_match_serial(self, monkeypatch):
        # Eight threads (more than most hosts have cores), switching often,
        # each adding its strips' taps into its own rows of the one output.
        monkeypatch.setattr(grayfilt.convolution, "_STRIP_PIXELS", 40)
        monkeypatch.setattr(grayfilt.convolution.os, "cpu_count", lambda: 8)
        rng = np.random.default_rng(17)
        img = Image(rng.integers(0, 256, (96, 40), np.uint8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k in (Kernel(rng.normal(size=(5, 3))), LAPLACIAN_EIGHT):
                serial = correlate(img, k)
                for _ in range(5):
                    assert correlate(img, k, workers=8) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_invalid_arguments(self):
        img = Image([[0]])
        with pytest.raises(ValueError):
            correlate(img, Kernel([[1.0]]), border="wrap")
        with pytest.raises(ValueError):
            correlate(img, Kernel([[1.0]]), workers=0)
        with pytest.raises(ValueError):
            correlate(img, Kernel([[1.0]]), workers=True)


def kernel_with_weight(total):
    """A 3x3 integer kernel of mixed signs whose sum of |c| is ``total``."""
    coeffs = np.array([[1.0, -2.0, 0.0], [3.0, 0.0, -1.0], [0.0, 5.0, 7.0]])
    coeffs[1, 1] = -(total - np.abs(coeffs).sum())
    return coeffs


class TestExactIntegerPath:
    """Integer kernels accumulate in int32 below sum(|c|) * 255 = 2**31, and
    in float64 tap order beyond that and for real coefficients; both paths
    equal the nested-loop oracle exactly, and float64 sums of an integer
    kernel are the exact integers below 2**53."""

    LIMIT31 = (2**31 - 1) // 255  # largest weight whose sums fit in int32
    LIMIT53 = (2**53 - 1) // 255

    @pytest.mark.parametrize("total,dtype", [
        (LIMIT31, np.int32), (LIMIT31 + 1, np.float64),
        (LIMIT53, np.float64), (LIMIT53 + 1, np.float64),
    ])
    @pytest.mark.parametrize("border", ["replicate", "zero"])
    def test_weights_at_the_bounds_match_oracle(self, total, dtype, border):
        coeffs = kernel_with_weight(total)
        rng = np.random.default_rng(17)
        images = [rng.integers(0, 256, (6, 7), np.uint8),
                  np.full((3, 4), 255, np.uint8),  # reaches the bound itself
                  (np.indices((5, 5)).sum(axis=0) % 2 * 255).astype(np.uint8)]
        for pixels in images:
            for sign in (1, -1):
                k = Kernel(sign * coeffs)
                out = correlate(Image(pixels), k, border)
                assert out.values.dtype == dtype
                assert out.values.tolist() == correlate_brute(
                    pixels.tolist(), k.coeffs.tolist(), border)
                assert correlate(Image(pixels), k, border, workers=2).values.tobytes() \
                    == out.values.tobytes()

    def test_extreme_sums_are_exact(self):
        # All taps positive on an all-255 image: every sum is 255 * weight.
        for total in (self.LIMIT31, self.LIMIT31 + 1, self.LIMIT53):
            coeffs = np.abs(kernel_with_weight(total))
            out = correlate(Image(np.full((2, 3), 255, np.uint8)), Kernel(coeffs))
            assert [int(v) for v in out.values.flat] == [255 * total] * 6

    def test_taps_beyond_uint8_do_not_wrap(self):
        # 255 * 5 and 255 * -300 need the accumulator's dtype, not the pixels'.
        for coeffs, value in (([[0, -1, 0], [-1, 5, -1], [0, -1, 0]], 255),
                              ([[-300, 2, 7]], 255 * -291)):
            out = correlate(Image(np.full((3, 3), 255, np.uint8)), Kernel(coeffs))
            assert np.all(out.values == value)

    def test_real_coefficients_take_the_float_path(self):
        out = correlate(Image([[1, 2], [3, 4]]), Kernel([[0.5, 1.0, 0.0]]))
        assert out.values.dtype == np.float64

    def test_builtin_kernels_take_the_int32_path(self):
        img = Image([[1, 2], [3, 4]])
        for k in (LAPLACIAN_FOUR, LAPLACIAN_EIGHT, Kernel(np.ones((9, 9)))):
            assert correlate(img, k).values.dtype == np.int32

    @settings(max_examples=60, deadline=None)
    @given(small_images, kernel_coeffs, st.sampled_from(["replicate", "zero"]),
           st.sampled_from([1.0, -1.0, 1000.0, 2.0**40]))
    def test_scaled_integer_kernels_match_oracle(self, pixels, coeffs, border, scale):
        k = Kernel(coeffs * scale)
        out = correlate(Image(pixels), k, border)
        assert out.values.tolist() == correlate_brute(pixels.tolist(), k.coeffs.tolist(), border)


class TestConvolve:
    def test_impulse_response_is_kernel(self):
        k = Kernel([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        out = convolve(impulse(5), k, border="zero")
        assert out.values[1:4, 1:4].tolist() == k.coeffs.tolist()

    def test_symmetric_kernel_equals_correlate(self):
        rng = np.random.default_rng(16)
        img = rand_image(rng, max_side=8)
        assert convolve(img, LAPLACIAN_EIGHT) == correlate(img, LAPLACIAN_EIGHT)

    def test_box_smoothing_matches_oracle(self):
        rng = np.random.default_rng(17)
        img = Image(rng.integers(0, 256, (8, 8), np.uint8))
        box = np.full((3, 3), 1.0 / 9.0)
        out = convolve(img, Kernel(box))
        assert out.values.tolist() == correlate_brute(img.pixels.tolist(), box.tolist())

    @settings(max_examples=50)
    @given(small_images, kernel_coeffs)
    def test_rotation_identity(self, pixels, coeffs):
        img, k = Image(pixels), Kernel(coeffs)
        assert convolve(img, k) == correlate(img, rot180(k))


class TestLaplacian:
    def test_stencil_coefficients_sum_to_zero(self):
        assert LAPLACIAN_FOUR.coeffs.sum() == 0.0
        assert LAPLACIAN_EIGHT.coeffs.sum() == 0.0

    @pytest.mark.parametrize("variant", ["four", "eight"])
    def test_zero_on_constants(self, variant):
        img = Image(np.full((6, 9), 42, dtype=np.uint8))
        assert np.all(laplacian(img, variant).values == 0.0)

    def test_impulse_response_four(self):
        out = laplacian(impulse(5, 100), "four")
        assert out.values[2, 2] == -400
        for y, x in ((1, 2), (3, 2), (2, 1), (2, 3)):
            assert out.values[y, x] == 100
        assert out.values[0, 0] == 0

    def test_impulse_response_eight(self):
        out = laplacian(impulse(5, 100), "eight")
        assert out.values[2, 2] == -800
        assert out.values[1, 1] == 100

    @pytest.mark.parametrize("variant", ["four", "eight"])
    def test_interior_matches_neighbor_sum_oracle(self, variant):
        rng = np.random.default_rng(18)
        img = Image(rng.integers(0, 256, (10, 10), np.uint8))
        out = laplacian(img, variant).values
        expected = laplacian_interior_brute(img.pixels.tolist(), variant)
        for y in range(1, 9):
            for x in range(1, 9):
                assert out[y, x] == expected[y][x]

    @pytest.mark.parametrize("variant", ["four", "eight"])
    def test_isotropy_commutes_with_quarter_rotation(self, variant):
        rng = np.random.default_rng(19)
        for _ in range(10):
            img = rand_image(rng, max_side=12)
            rotated = Image(np.rot90(img.pixels))
            lhs = laplacian(rotated, variant).values
            rhs = np.rot90(laplacian(img, variant).values)
            assert np.array_equal(lhs, rhs)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            laplacian(Image([[0]]), "sixteen")


class TestClampToDisplay:
    def test_clamp_is_identity_on_displayable_values(self):
        s = SignedImage([[0.0, 100.0, 255.0]])
        assert clamp_to_display(s, "clamp").pixels.tolist() == [[0, 100, 255]]

    def test_clamp_example(self):
        s = SignedImage([[-400.0, 0.0, 100.0]])
        assert clamp_to_display(s, "clamp").pixels.tolist() == [[0, 0, 100]]

    def test_rescale_example_matches_exact_affine_oracle(self):
        values = [-400, 0, 100]
        expected = [clamp_round_exact((v + 400) * 255 / 500) for v in values]
        assert expected == [0, 204, 255]
        out = clamp_to_display(SignedImage([list(map(float, values))]), "rescale")
        assert out.pixels.tolist() == [expected]

    def test_rescale_of_flat_input_is_all_zero(self):
        s = SignedImage(np.full((2, 3), 17.0))
        assert np.all(clamp_to_display(s, "rescale").pixels == 0)

    def test_rescale_ties_round_like_exact_rationals(self):
        # Range of 14 puts value 7 exactly on a half-level boundary.
        s = SignedImage([[0.0, 7.0, 14.0]])
        expected = [round_half_away_exact(v * 255 / 14) for v in (0, 7, 14)]
        assert clamp_to_display(s, "rescale").pixels.tolist() == [expected]

    @pytest.mark.parametrize("high", [1e307, 1e308, np.finfo(np.float64).max])
    def test_rescale_of_range_too_wide_for_the_exact_path(self, high):
        # (high - low) * 255, or the span itself, overflows a double; the
        # middle value sits exactly half-way and rounds up to 128.
        for low, middle in ((0.0, high / 2), (-high, 0.0)):
            s = SignedImage([[low, middle, high]])
            assert clamp_to_display(s, "rescale").pixels.tolist() == [[0, 128, 255]]

    @pytest.mark.parametrize("mode", ["clamp", "rescale"])
    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_integer_values_map_like_their_float64_copy(self, mode, dtype):
        rng = np.random.default_rng(18)
        big = np.iinfo(dtype).max
        for values in (rng.integers(-600, 600, (5, 6)), [[-big, 0, 7, big]], [[-1, 0, 1]]):
            ints = SignedImage(np.asarray(values, dtype))
            floats = SignedImage(np.asarray(values, dtype).astype(np.float64))
            assert ints.values.dtype == dtype
            assert clamp_to_display(ints, mode) == clamp_to_display(floats, mode)

    def test_rescale_of_integer_values_matches_exact_affine_oracle(self):
        # Integers far beyond int32, up to 2**52, and a value half-way.
        values = [-(2**52), 0, 2**40, 2**52]
        out = clamp_to_display(SignedImage([values]), "rescale")
        expected = [clamp_round_exact(Fraction((v + 2**52) * 255, 2**53)) for v in values]
        assert expected[1] == 128
        assert out.pixels.tolist() == [expected]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            clamp_to_display(SignedImage([[0.0]]), "wrap")
