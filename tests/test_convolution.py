import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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

    def test_worker_counts_are_bit_identical(self):
        rng = np.random.default_rng(15)
        img = rand_image(rng, max_side=20, min_side=4)
        k = Kernel(rng.normal(size=(3, 5)))
        serial = correlate(img, k)
        for workers in (2, 3, 8):
            assert correlate(img, k, workers=workers) == serial

    def test_invalid_arguments(self):
        img = Image([[0]])
        with pytest.raises(ValueError):
            correlate(img, Kernel([[1.0]]), border="wrap")
        with pytest.raises(ValueError):
            correlate(img, Kernel([[1.0]]), workers=0)
        with pytest.raises(ValueError):
            correlate(img, Kernel([[1.0]]), workers=True)


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

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            clamp_to_display(SignedImage([[0.0]]), "wrap")
