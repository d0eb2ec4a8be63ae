import concurrent.futures
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import grayfilt._bytes
import grayfilt.convolution
from grayfilt import (
    LAPLACIAN_EIGHT,
    LAPLACIAN_FOUR,
    SHADOW_NE_KERNEL,
    DomainError,
    Image,
    Kernel,
    SignedImage,
    clamp_round,
    clamp_to_display,
    convolve,
    correlate,
    laplacian,
    laplacian_sharpen,
    rot180,
    shadow_ne,
)
from grayfilt._swar import correlate_clamp
from grayfilt.convolution import (
    _RESCALE_EXACT_SPAN,
    _RESCALE_INT_SPAN,
    _accumulator,
    _correlate_strips,
)
from grayfilt.edges import SHADOW_BIAS
from grayfilt.pipeline import OPS, _kernel_step

from support import (
    clamp_round_exact,
    correlate_brute,
    laplacian_interior_brute,
    rand_image,
    rand_kernel,
    round_half_away_exact,
    strips_of,
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
real_coeffs = odd_sides.flatmap(
    lambda kh: odd_sides.flatmap(
        lambda kw: hnp.arrays(
            np.float64, (kh, kw),
            elements=st.floats(min_value=-4, max_value=4).map(lambda c: round(c, 3)),
        ).filter(lambda a: np.any(a != 0.0))))
borders = st.sampled_from(["replicate", "zero"])
#: Strip sizes from one pixel (one-row strips) to a few rows of a small image.
strip_pixels = st.integers(min_value=1, max_value=40)


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
        monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", 8)
        rng = np.random.default_rng(15)
        img = rand_image(rng, max_side=20, min_side=4)
        k = Kernel(rng.normal(size=(3, 5)))
        serial = correlate(img, k)
        for workers in (2, 3, 8):
            assert correlate(img, k, workers=workers) == serial

    @pytest.mark.parametrize("strip_pixels", [1, 5, 13])
    def test_row_strips_do_not_change_sums(self, monkeypatch, strip_pixels):
        # Strips of one row up to a few rows, with a short last strip.
        monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", strip_pixels)
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

        # Strips of 2 padded rows of 5 + 3 - 1 pixels: 4 strips, the last one short.
        monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", 14)
        for cpus, workers, pool_size in [(8, 3, 3), (8, 5000, 4), (2, 3, 2), (2, 5000, 2)]:
            monkeypatch.setattr(grayfilt.convolution.os, "cpu_count", lambda: cpus)
            sizes.clear()
            assert correlate(img, k, workers=workers) == serial
            assert sizes == [pool_size]

        # One thread (one worker, one CPU or an unknown count) or one strip: no pool.
        for cpus, workers, strip_pixels in [(8, 1, 14), (1, 4, 14), (None, 4, 14), (8, 4, 49)]:
            monkeypatch.setattr(grayfilt.convolution.os, "cpu_count", lambda: cpus)
            monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", strip_pixels)
            sizes.clear()
            assert correlate(img, k, workers=workers) == serial
            assert sizes == []

    def test_threads_sharing_the_output_match_serial(self, monkeypatch):
        # Eight threads (more than most hosts have cores), switching often,
        # each adding its strips' taps into its own rows of the one output.
        monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", 40)
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

    @pytest.mark.parametrize("high", [np.finfo(np.float64).max / 255.0, 1e307, 1e308,
                                      np.finfo(np.float64).max])
    def test_rescale_of_range_too_wide_for_the_exact_path(self, high):
        # (high - low) * 255, or the span itself, overflows a double (at
        # max / 255 the product just rounds up to inf); the middle value
        # sits exactly half-way and rounds up to 128.
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

    @pytest.mark.parametrize("rule", ["clamp", "rescale", "halved rescale"])
    def test_float_rules_across_strip_seams(self, monkeypatch, rule):
        # 7 rows of 5 in strips of 2 rows: three seams inside the image, a
        # last strip of one row, and the minimum and the maximum in the
        # first and the last strip.
        monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", 10)
        rng = np.random.default_rng(43)
        if rule == "clamp":
            values = rng.integers(-300, 700, (7, 5)) / 2  # halves are ties
            expected = clamp_round(values)
        elif rule == "rescale":
            values = rng.integers(-300, 600, (7, 5)).astype(np.float64)
            values[0, 0], values[3, 2], values[-1, -1] = -301, 150, 601  # 150 is a tie
            expected = rescale_oracle(values.astype(np.int64).tolist())
            assert expected[3][2] == 128
        else:
            values = rng.uniform(-1.0, 1.0, (7, 5)) * 1e308
            lo, hi = -1.5e308, 1.5e308
            values[0, 0], values[-1, -1] = lo, hi
            assert hi - lo >= _RESCALE_EXACT_SPAN
            expected = clamp_round((values / 2 - lo / 2) / (hi / 2 - lo / 2) * 255.0)
        mode = rule.split()[-1]
        out = clamp_to_display(SignedImage(values), mode)
        assert out.pixels.tolist() == np.asarray(expected).tolist()


class TestFusedDisplay:
    """Every clamp display is ``_correlate_strips`` with a bias, which clamps
    each strip of rows as soon as it is correlated; a rescale display is
    ``clamp_to_display`` of the correlation. The clamp must equal the
    unfused chain at every worker count, and both the brute-force oracle, at
    every strip size."""

    @settings(max_examples=80, deadline=None)
    @given(small_images, st.one_of(kernel_coeffs, real_coeffs), borders,
           st.sampled_from([1, 2]), strip_pixels,
           st.sampled_from([("clamp", 0), ("clamp", SHADOW_BIAS), ("rescale", 0)]))
    def test_fused_clamp_matches_unfused_chain_and_oracle(self, pixels, coeffs, border,
                                                          workers, strip, display):
        mode, bias = display
        img, k = Image(pixels), Kernel(coeffs)
        sums = correlate_brute(pixels.tolist(), coeffs.tolist(), border)
        if mode == "clamp":
            # The bias is added in float64, as the engine adds it.
            expected = [[clamp_round_exact(Fraction(v + bias)) for v in row] for row in sums]
        elif np.array_equal(coeffs, np.round(coeffs)):
            expected = rescale_oracle([[int(v) for v in row] for row in sums])
        else:
            # A float rescale rounds its quotient to a double before it rounds
            # it to a level, so only an integer one is held to the exact oracle.
            expected = None
        with strips_of(strip):
            signed = correlate(img, k, border, workers)
            if mode == "clamp":
                out = _correlate_strips(img, coeffs, border, bias)
                assert clamp_round(bias + signed.values).tolist() == out.pixels.tolist()
            else:
                out = clamp_to_display(signed, mode)
        if expected is not None:
            assert out.pixels.tolist() == expected

    @settings(max_examples=40, deadline=None)
    @given(small_images, st.sampled_from(["four", "eight"]), borders, strip_pixels)
    def test_sharpen_and_shadow_match_unfused_chain(self, pixels, variant, border, strip):
        img = Image(pixels)
        with strips_of(strip):
            lap = laplacian(img, variant, border).values
            assert laplacian_sharpen(img, variant, border).pixels.tolist() == \
                clamp_round(img.pixels - lap).tolist()
            diff = correlate(img, SHADOW_NE_KERNEL).values
            assert shadow_ne(img).pixels.tolist() == clamp_round(SHADOW_BIAS + diff).tolist()

    @settings(max_examples=30, deadline=None)
    @given(small_images, st.sampled_from(["four", "eight"]), st.sampled_from(["clamp", "rescale"]),
           strip_pixels)
    def test_laplacian_op_matches_library_chain(self, pixels, variant, display, strip):
        img = Image(pixels)
        step = OPS["laplacian"].build({"variant": variant, "display": display})
        with strips_of(strip):
            assert step.image(img) == clamp_to_display(laplacian(img, variant), display)

    @pytest.mark.parametrize("border", ["replicate", "zero"])
    @pytest.mark.parametrize("display", ["clamp", "rescale"])
    def test_convolve_op_matches_library_chain(self, tmp_path, monkeypatch, border, display):
        monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", 7)
        rng = np.random.default_rng(31)
        path = tmp_path / "k.txt"
        for _ in range(10):
            img = rand_image(rng, max_side=12)
            for coeffs in (rand_kernel(rng), rng.integers(-3, 4, (3, 5)).astype(float)):
                if not np.any(coeffs):
                    continue
                path.write_text(f"{coeffs.shape[0]} {coeffs.shape[1]}\n"
                                + "\n".join(" ".join(map(repr, row)) for row in coeffs.tolist()))
                step = OPS["convolve"].build({"kernel": str(path), "border": border,
                                              "display": display})
                expected = clamp_to_display(convolve(img, Kernel(coeffs), border), display)
                assert step.image(img) == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflow_in_a_later_strip_is_the_finite_error(self, monkeypatch, workers):
        # One-row strips: the top rows sum to 0, the bottom ones overflow.
        monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", 4)
        pixels = np.zeros((8, 4), np.uint8)
        pixels[5:] = 200
        img, k = Image(pixels), Kernel([[1e308, 1e308, 1e308]])
        for run in (lambda: _correlate_strips(img, k.coeffs, bias=0),
                    lambda: correlate(img, k, workers=workers)):
            with pytest.raises(DomainError, match="^signed image values must be finite$"):
                run()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_padding_column_overflow_is_not_an_error(self, workers):
        # Both rows share one strip at row stride 5. The sum in each padding
        # column of the first row is 2e308, which overflows to inf, while
        # every stored sum is finite: only the (rows, W) view is checked.
        img, k = Image([[0, 0, 1], [1, 0, 0]]), Kernel([[1e308, 0, 1e308]])
        assert correlate(img, k, workers=workers).values.tolist() == \
            [[0, 1e308, 1e308], [1e308, 1e308, 0]]
        assert _correlate_strips(img, k.coeffs, bias=0).pixels.tolist() == [[0, 255, 255], [255, 255, 0]]

    def test_each_float_strip_is_checked_finite_once(self, monkeypatch):
        monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", 4)
        img = Image(np.arange(32, dtype=np.uint8).reshape(8, 4))
        checked = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: checked.append(a.shape) or isfinite(a))
        _correlate_strips(img, ((0.5, 0.25, 0.25),), bias=0)
        # The 1x3 kernel is checked as it is built, then each one-row strip once.
        assert checked == [(1, 3)] + [(1, 4)] * 8


class TestPaddedStrips:
    """Every strip loop builds each strip's padded rows, borders included,
    in one reused buffer at row stride W + kw − 1 and adds each tap as one
    contiguous slice of it. Kernels wider or taller than the image, one-row
    and one-column images and a short last strip must all give the
    oracle's sums, at either border and worker count."""

    CASES = [((1, 3), (1, 9)), ((3, 1), (9, 1)), ((2, 2), (7, 7)), ((1, 13), (3, 5)),
             ((13, 1), (5, 3)), ((1, 13), (1, 3)), ((13, 1), (3, 1)), ((7, 5), (3, 3))]

    @pytest.mark.parametrize("shape, kshape", CASES, ids=[f"{s}-{k}" for s, k in CASES])
    @pytest.mark.parametrize("border", ["replicate", "zero"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sums_and_clamp_match_oracle(self, monkeypatch, shape, kshape, border, workers):
        rng = np.random.default_rng(37)
        img = Image(rng.integers(0, 256, shape, np.uint8))
        stride = shape[1] + kshape[1] - 1
        kernels = [rng.integers(-4, 5, kshape).astype(float),
                   np.round(rng.normal(0.0, 1.0, kshape), 3)]
        # Strips of 2 or 3 padded rows leave a short last strip of a 13-, 7-
        # or 2-row image; then one-row strips, and the default one strip.
        for strip_pixels in (2 * stride, 3 * stride, 1, 2**16):
            monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", strip_pixels)
            for coeffs in kernels:
                coeffs[kshape[0] // 2, kshape[1] // 2] += 1.0  # never all zero
                sums = correlate_brute(img.pixels.tolist(), coeffs.tolist(), border)
                assert correlate(img, Kernel(coeffs), border, workers).values.tolist() == sums
                # The bias is added over the flat strip, padding columns included.
                for bias in (0, 4, 128, -127):
                    assert _correlate_strips(img, coeffs, border, bias).pixels.tolist() == \
                        [[clamp_round_exact(Fraction(v) + bias) for v in row] for row in sums]

    @settings(max_examples=60, deadline=None)
    @given(st.data(), small_images, odd_sides, borders, st.sampled_from([1, 2]), strip_pixels)
    def test_kernels_wider_than_the_image_match_oracle(self, data, pixels, kh, border,
                                                       workers, strip):
        # A padded row of W + kw − 1 pixels, up to 4·W − 1, sets the strip
        # height: one row where it is wider than the strip.
        width = pixels.shape[1]
        kw = data.draw(st.integers(width // 2 + 1, (3 * width - 1) // 2).map(lambda h: 2 * h + 1))
        elements = data.draw(st.sampled_from([
            st.integers(min_value=-9, max_value=9).map(float),
            st.floats(min_value=-4, max_value=4).map(lambda c: round(c, 3))]))
        coeffs = data.draw(hnp.arrays(np.float64, (kh, kw), elements=elements)
                           .filter(lambda a: np.any(a != 0.0)))
        with strips_of(strip):
            out = correlate(Image(pixels), Kernel(coeffs), border, workers)
        assert out.values.tolist() == correlate_brute(pixels.tolist(), coeffs.tolist(), border)


class TestInt16Bound:
    """The fused clamp accumulates in int16 where sum(|c|)·255 + |bias| is
    below 2**15. The 1x1 kernel 128 reaches 32640 on a white pixel: with
    bias 127 the largest sum is 32767, which int16 holds; with bias 128 it
    would wrap, so that sum takes int32. The bytes form's 16-bit fields hold
    guard bit 15, that of the kernel 128 with bias 127, under the replicate
    border; the kernel 128 with bias 128, and the kernel −128 with either
    (neg·255 + 256 = 32896), need bit 16, and have no bytes form."""

    @pytest.mark.parametrize("coeff, bias, dtype", [
        (128, 127, np.int16), (128, 128, np.int32),
        (-128, 127, np.int16), (-128, 128, np.int32),
    ])
    @pytest.mark.parametrize("border", ["replicate", "zero"])
    def test_both_sides_of_the_bound(self, coeff, bias, dtype, border):
        pixels = np.array([[0, 1, 127], [128, 254, 255]], np.uint8)
        stencil = ((coeff,),)
        assert _accumulator(np.array(stencil, float), bias) is dtype
        expected = [[min(max(coeff * p + bias, 0), 255) for p in row] for row in pixels.tolist()]
        out = _correlate_strips(Image(pixels), stencil, border, bias)
        assert out.pixels.tolist() == expected
        raster = _kernel_step(stencil, bias, border).raster(3, 2, pixels.tobytes())
        if (coeff, bias, border) == (128, 127, "replicate"):
            assert raster == correlate_clamp(3, 2, pixels.tobytes(), stencil, bias)
            assert raster == out.pixels.tobytes()
        else:
            assert raster is None

    def test_correlate_keeps_int32(self):
        # int16 is only for sums that never leave the fused clamp.
        assert correlate(Image([[255]]), Kernel([[128]])).values.dtype == np.int32
        assert _accumulator(np.array([[128.0]])) is np.int32


def rescale_oracle(values):
    """255·(v − min)/(max − min) rounded half away from zero, in exact rationals."""
    flat = [v for row in values for v in row]
    vmin, span = min(flat), max(flat) - min(flat)
    if span == 0:
        return [[0] * len(row) for row in values]
    return [[round_half_away_exact(Fraction(255 * (v - vmin), span)) for v in row]
            for row in values]


def int_arrays(dtype):
    info = np.iinfo(dtype)
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
                      elements=st.one_of(st.integers(-300, 300),
                                         st.integers(int(info.min), int(info.max))))


class TestIntegerRescale:
    """Integer values are rescaled as (510·(v − min) + span) // (2·span)
    in uint64."""

    @pytest.mark.parametrize("values, expected", [
        ([[5, 6]], [[0, 255]]),                  # span 1
        ([[-1, 0, 1]], [[0, 128, 255]]),         # 127.5 is a tie: up
        ([[0, 7, 14]], [[0, 128, 255]]),         # 127.5 again
        ([[0, 1, 2, 3]], [[0, 85, 170, 255]]),   # exact thirds
        ([[4, 4], [4, 4]], [[0, 0], [0, 0]]),    # flat
    ])
    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    def test_small_spans_and_ties(self, values, expected, dtype):
        out = clamp_to_display(SignedImage(np.asarray(values, dtype)), "rescale")
        assert out.pixels.tolist() == expected == rescale_oracle(values)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("span", [2**16 - 1, 2**16])
    def test_every_value_of_a_wide_span(self, dtype, span):
        # Every value of the span, so every level and every tie is hit.
        values = (np.arange(span + 1) - 40000).astype(dtype).reshape(1, -1)
        out = clamp_to_display(SignedImage(values), "rescale")
        assert out.pixels.tolist() == rescale_oracle(values.tolist())

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    @pytest.mark.parametrize("span", [5, 6])
    def test_one_row_strips(self, monkeypatch, dtype, span):
        monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", 1)
        values = np.arange(-3, span - 2).astype(dtype).reshape(-1, 1)
        out = clamp_to_display(SignedImage(values), "rescale")
        assert out.pixels.tolist() == rescale_oracle(values.tolist())

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([np.int16, np.int32, np.int64]).flatmap(int_arrays), strip_pixels)
    def test_matches_exact_oracle(self, values, strip):
        with strips_of(strip):
            out = clamp_to_display(SignedImage(values), "rescale")
            if values.dtype != np.int64:
                # int32 and narrower: the same levels as the float64 evaluation.
                floats = SignedImage(values.astype(np.float64))
                assert clamp_to_display(floats, "rescale") == out
        if int(values.max()) - int(values.min()) <= _RESCALE_INT_SPAN:
            assert out.pixels.tolist() == rescale_oracle(values.tolist())

    def test_widest_exact_span(self):
        # At the cutoff, 510·span + span still fits in uint64; beyond 2**53
        # the float64 evaluation could not hold these values.
        span = _RESCALE_INT_SPAN
        values = [[0, 1, span // 2, span // 2 + 1, span - 1, span]]
        out = clamp_to_display(SignedImage(np.asarray(values, np.int64)), "rescale")
        assert out.pixels.tolist() == rescale_oracle(values)

    def test_int64_just_below_a_half_level(self):
        # 255·v/span is 35.4999...: float64 cannot hold v or span, and rounds
        # the quotient up to 35.5, which would give level 36.
        span, v = 2**54 + 1, 2507886851320041
        values = [[0, v, span]]
        out = clamp_to_display(SignedImage(np.asarray(values, np.int64)), "rescale")
        assert out.pixels.tolist() == rescale_oracle(values) == [[0, 35, 255]]

    def test_huge_int64_span_falls_back_to_float(self):
        values = np.asarray([[-(2**62), 0, 2**62]], np.int64)
        assert 2**63 > _RESCALE_INT_SPAN
        out = clamp_to_display(SignedImage(values), "rescale")
        assert out.pixels.tolist() == [[0, 128, 255]] == rescale_oracle(values.tolist())
        assert out == clamp_to_display(SignedImage(values.astype(np.float64)), "rescale")

    def test_uint64_values_near_the_top(self):
        values = np.asarray([[2**64 - 1, 2**64 - 3, 2**64 - 2]], np.uint64)
        out = clamp_to_display(SignedImage(values), "rescale")
        assert out.pixels.tolist() == [[255, 0, 128]]
