import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import grayfilt._bytes
from grayfilt import (
    DomainError,
    Image,
    Kernel,
    SignedImage,
    box_blur,
    clamp_to_display,
    correlate,
    laplacian,
    laplacian_sharpen,
    unsharp_mask,
)

from support import box_mean_brute, box_mean_by_counts, rand_image, strips_of

COMPOSITE_SHARPEN = Kernel([[0, -1, 0], [-1, 5, -1], [0, -1, 0]])

small_images = hnp.arrays(
    np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12))


class TestBoxBlur:
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_constant_is_fixed_point(self, radius):
        img = Image(np.full((7, 7), 77, dtype=np.uint8))
        assert box_blur(img, radius) == img

    def test_impulse_with_zero_border(self):
        pixels = np.zeros((3, 3), dtype=np.uint8)
        pixels[1, 1] = 9
        out = box_blur(Image(pixels), 1, border="zero")
        assert np.all(out.pixels == 1)

    def test_random_image_matches_mean_oracle(self):
        rng = np.random.default_rng(21)
        img = Image(rng.integers(0, 256, (8, 8), np.uint8))
        out = box_blur(img, 1, border="replicate")
        assert out.pixels.tolist() == box_mean_brute(img.pixels.tolist(), 1)

    def test_larger_radius_matches_oracle(self):
        rng = np.random.default_rng(22)
        img = Image(rng.integers(0, 256, (6, 5), np.uint8))
        out = box_blur(img, 2, border="zero")
        assert out.pixels.tolist() == box_mean_brute(img.pixels.tolist(), 2, "zero")

    @pytest.mark.parametrize("border", ["replicate", "zero"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 3)])
    def test_radius_beyond_the_image_matches_oracle(self, shape, border):
        rng = np.random.default_rng(23)
        pixels = rng.integers(0, 256, shape, np.uint8)
        for radius in (1, 4, 11):
            out = box_blur(Image(pixels), radius, border)
            assert out.pixels.tolist() == box_mean_brute(pixels.tolist(), radius, border)

    def test_counting_oracle_agrees_with_brute_force(self):
        rng = np.random.default_rng(24)
        pixels = rng.integers(0, 256, (4, 6), np.uint8).tolist()
        for border in ("replicate", "zero"):
            for radius in (1, 2, 7):
                assert box_mean_by_counts(pixels, radius, border) == \
                    box_mean_brute(pixels, radius, border)

    @pytest.mark.parametrize("radius", [1449, 1450])
    def test_widest_windows_are_exact(self, radius):
        # Radius 1449 is the largest that sums in int32, where the running
        # sums along the rows of a 60-wide bright image wrap around; at 1450
        # a bright window sum plus half the area no longer fits in int32.
        rng = np.random.default_rng(25)
        pixels = rng.integers(250, 256, (3, 60), np.uint8)
        for border in ("replicate", "zero"):
            out = box_blur(Image(pixels), radius, border)
            assert out.pixels.tolist() == box_mean_by_counts(pixels.tolist(), radius, border)
        white = Image(np.full((3, 60), 255, np.uint8))
        assert box_blur(white, radius) == white

    @pytest.mark.parametrize("border", ["replicate", "zero"])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 2)])
    def test_huge_radius_is_exact_in_small_memory(self, shape, border):
        # 94_999_083 is the widest radius whose window sums fit in int64.
        rng = np.random.default_rng(27)
        pixels = rng.integers(0, 256, shape, np.uint8)
        for radius in (10**6, 94_999_083):
            tracemalloc.start()
            try:
                out = box_blur(Image(pixels), radius, border)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.pixels.tolist() == box_mean_by_counts(pixels.tolist(), radius, border)
            assert peak < 64 * 1024

    @pytest.mark.parametrize("radius", [94_999_084, 10**30])
    def test_radius_beyond_64_bit_sums_is_a_domain_error(self, radius):
        with pytest.raises(DomainError, match="64 bits"):
            box_blur(Image([[1, 2]]), radius)

    @given(small_images, st.integers(min_value=1, max_value=4), st.sampled_from(["replicate", "zero"]))
    def test_matches_mean_oracle(self, pixels, radius, border):
        out = box_blur(Image(pixels), radius, border)
        assert out.pixels.tolist() == box_mean_brute(pixels.tolist(), radius, border)

    @settings(max_examples=60, deadline=None)
    @given(small_images, st.integers(min_value=1, max_value=14),
           st.sampled_from(["replicate", "zero"]), st.integers(min_value=1, max_value=60))
    def test_strips_match_mean_oracle(self, pixels, radius, border, strip_pixels):
        # The running column sums are carried from strip to strip; strips of
        # one row up to a few rows, radii up to beyond the image.
        with strips_of(strip_pixels):
            out = box_blur(Image(pixels), radius, border)
        assert out.pixels.tolist() == box_mean_brute(pixels.tolist(), radius, border)

    @pytest.mark.parametrize("border", ["replicate", "zero"])
    @pytest.mark.parametrize("shape", [(1, 40), (40, 1)])
    @pytest.mark.parametrize("strip_pixels", [1, 7, 2**16])
    def test_single_row_and_column_across_strips(self, monkeypatch, shape, border, strip_pixels):
        monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", strip_pixels)
        rng = np.random.default_rng(26)
        pixels = rng.integers(0, 256, shape, np.uint8)
        for radius in (1, 3, 50):
            out = box_blur(Image(pixels), radius, border)
            assert out.pixels.tolist() == box_mean_brute(pixels.tolist(), radius, border)

    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_invalid_radius_rejected(self, bad):
        with pytest.raises(ValueError):
            box_blur(Image([[0]]), bad)


class TestUnsharpMask:
    def test_constant_maps_to_zero_in_clamp_mode(self):
        img = Image(np.full((5, 8), 201, dtype=np.uint8))
        assert np.all(unsharp_mask(img).pixels == 0)

    def test_worked_example_1x3(self):
        out = unsharp_mask(Image([[0, 255, 0]]), radius=1)
        assert out.pixels.tolist() == [[0, 170, 0]]

    @given(small_images)
    def test_clamp_mode_zero_wherever_not_above_blur(self, pixels):
        img = Image(pixels)
        out = unsharp_mask(img, radius=1)
        blurred = box_blur(img, radius=1)
        not_above = img.pixels.astype(int) <= blurred.pixels
        assert np.all(out.pixels[not_above] == 0)

    @given(small_images, st.integers(min_value=1, max_value=3), st.sampled_from(["clamp", "rescale"]))
    def test_matches_signed_difference_chain(self, pixels, radius, display):
        img = Image(pixels)
        diff = img.pixels.astype(np.int16) - box_blur(img, radius).pixels
        expected = clamp_to_display(SignedImage(diff), display)
        assert unsharp_mask(img, radius, display) == expected

    def test_rescale_mode_spreads_signed_range(self):
        img = Image([[0, 255, 0]])
        out = unsharp_mask(img, radius=1, display="rescale")
        # Signed values (-85, 170, -85) map onto the full display range.
        assert out.pixels.tolist() == [[0, 255, 0]]


class TestLaplacianSharpen:
    @pytest.mark.parametrize("variant", ["four", "eight"])
    def test_constant_is_fixed_point(self, variant):
        img = Image(np.full((4, 6), 99, dtype=np.uint8))
        assert laplacian_sharpen(img, variant) == img

    def test_impulse_example(self):
        pixels = np.zeros((5, 5), dtype=np.uint8)
        pixels[2, 2] = 100
        out = laplacian_sharpen(Image(pixels), "four")
        assert out.pixels[2, 2] == 255           # clamp(100 - (-400))
        for y, x in ((1, 2), (3, 2), (2, 1), (2, 3)):
            assert out.pixels[y, x] == 0         # clamp(0 - 100)

    def test_linear_ramp_interior_unchanged(self):
        ramp = np.tile(np.arange(10, dtype=np.uint8), (4, 1))
        out = laplacian_sharpen(Image(ramp), "four")
        assert np.array_equal(out.pixels[:, 1:-1], ramp[:, 1:-1])

    @given(small_images)
    def test_composite_kernel_identity_preclamp(self, pixels):
        img = Image(pixels)
        direct = img.pixels.astype(np.float64) - laplacian(img, "four").values
        composite = correlate(img, COMPOSITE_SHARPEN).values
        assert np.array_equal(direct, composite)
