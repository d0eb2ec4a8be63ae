import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from grayfilt import (
    SHADOW_NE_KERNEL,
    BinaryImage,
    DomainError,
    Image,
    binarize,
    bits_to_image,
    edge_map,
    edge_points,
    image_add,
    negate,
    shadow_invert,
    shadow_ne,
)

from support import (
    clamp_round_exact,
    correlate_brute,
    edge_map_brute,
    edge_points_brute,
    strips_of,
)

bit_arrays = hnp.arrays(
    np.uint8,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16),
    elements=st.integers(min_value=0, max_value=1),
)
#: Bit images up to 40x40, 1xN and Nx1 among them: with convolution's strips
#: cut down to a few pixels, each spans many strips.
seam_bits = st.one_of(*(
    hnp.arrays(np.uint8, shape, elements=st.integers(min_value=0, max_value=1))
    for shape in (st.tuples(st.just(1), st.integers(1, 40)),
                  st.tuples(st.integers(1, 40), st.just(1)),
                  hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40))))
pixel_arrays = hnp.arrays(
    np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12))
#: Any level, but often one at or next to 0, mid-gray or 255, where a
#: saturating sum turns.
add_levels = st.one_of(st.sampled_from([0, 1, 127, 128, 254, 255]), st.integers(0, 255))
add_arrays = hnp.arrays(
    np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
    elements=add_levels)


def shadow_brute(pixels):
    diff = correlate_brute(pixels, SHADOW_NE_KERNEL.coeffs.tolist(), "replicate")
    return [[clamp_round_exact(128 + int(v)) for v in row] for row in diff]


class TestBinarize:
    def test_all_zero_stays_zero(self):
        out = binarize(Image(np.zeros((3, 3), dtype=np.uint8)), 128)
        assert np.all(out.bits == 0)

    def test_boundary_is_inclusive(self):
        assert binarize(Image([[128]]), 128).bits[0, 0] == 1
        assert binarize(Image([[127]]), 128).bits[0, 0] == 0

    def test_zero_threshold_is_all_ones(self):
        rng = np.random.default_rng(31)
        img = Image(rng.integers(0, 256, (4, 5), np.uint8))
        assert np.all(binarize(img, 0).bits == 1)

    @pytest.mark.parametrize("bad", [-1, 256, 12.5])
    def test_invalid_threshold_rejected(self, bad):
        with pytest.raises(ValueError):
            binarize(Image([[0]]), bad)

    def test_numpy_integer_threshold_accepted(self):
        assert binarize(Image([[200]]), np.int64(128)).bits[0, 0] == 1


class TestEdgeMap:
    def test_uniform_field_has_no_edges(self):
        assert np.all(edge_map(BinaryImage(np.zeros((4, 4), np.uint8))).bits == 0)
        assert np.all(edge_map(BinaryImage(np.ones((4, 4), np.uint8))).bits == 0)

    def test_half_split_marks_both_boundary_columns(self):
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits[:, 2:] = 1
        out = edge_map(BinaryImage(bits))
        assert out.bits.tolist() == edge_map_brute(bits.tolist())
        expected = np.zeros((4, 4), dtype=np.uint8)
        expected[:, 1:3] = 1
        assert np.array_equal(out.bits, expected)

    def test_single_one_marks_plus_shape(self):
        bits = np.zeros((5, 5), dtype=np.uint8)
        bits[2, 2] = 1
        out = edge_map(BinaryImage(bits))
        assert out.bits.tolist() == edge_map_brute(bits.tolist())
        assert out.bits[2, 2] == 1
        assert out.bits[1, 2] == out.bits[3, 2] == out.bits[2, 1] == out.bits[2, 3] == 1
        assert out.bits.sum() == 5

    @given(bit_arrays)
    def test_matches_brute_force_scan(self, bits):
        out = edge_map(BinaryImage(bits))
        assert out.bits.tolist() == edge_map_brute(bits.tolist())

    @given(bit_arrays)
    def test_complement_symmetry(self, bits):
        u = BinaryImage(bits)
        flipped = BinaryImage(1 - bits)
        assert edge_map(u) == edge_map(flipped)


class TestEdgePoints:
    def test_uniform_field_has_no_edge_points(self):
        assert np.all(edge_points(BinaryImage(np.zeros((3, 3), np.uint8))).bits == 0)

    def test_half_split_keeps_only_dark_side(self):
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits[:, 2:] = 1
        out = edge_points(BinaryImage(bits))
        assert out.bits.tolist() == edge_points_brute(bits.tolist())
        expected = np.zeros((4, 4), dtype=np.uint8)
        expected[:, 1] = 1
        assert np.array_equal(out.bits, expected)

    def test_single_white_pixel_marks_its_black_neighbors(self):
        bits = np.zeros((5, 5), dtype=np.uint8)
        bits[2, 2] = 1
        out = edge_points(BinaryImage(bits))
        assert out.bits.tolist() == edge_points_brute(bits.tolist())
        assert out.bits[2, 2] == 0
        assert out.bits[1, 2] == out.bits[3, 2] == out.bits[2, 1] == out.bits[2, 3] == 1
        assert out.bits.sum() == 4

    @given(bit_arrays)
    def test_matches_brute_force_scan(self, bits):
        out = edge_points(BinaryImage(bits))
        assert out.bits.tolist() == edge_points_brute(bits.tolist())

    @given(bit_arrays)
    def test_subset_of_dark_pixels(self, bits):
        u = BinaryImage(bits)
        out = edge_points(u)
        assert np.all(bits[out.bits == 1] == 0)


class TestStripSeams:
    """edge_map is a Laplacian-four clamp run in convolution's row strips, so
    the rule must hold where one strip's rows meet the next one's."""

    @given(seam_bits, st.integers(min_value=1, max_value=40))
    def test_edge_map_and_points_match_brute_force_across_strips(self, bits, strip_pixels):
        u = BinaryImage(bits)
        with strips_of(strip_pixels):
            got_map, got_points = edge_map(u), edge_points(u)
        assert got_map.bits.tolist() == edge_map_brute(bits.tolist())
        assert got_points.bits.tolist() == edge_points_brute(bits.tolist())


class TestBitsToImage:
    def test_zero_one_to_zero_255(self):
        img = bits_to_image(BinaryImage([[0, 1], [1, 0]]))
        assert img.pixels.tolist() == [[0, 255], [255, 0]]


class TestImageAdd:
    def test_zero_image_is_identity(self):
        rng = np.random.default_rng(32)
        a = Image(rng.integers(0, 256, (5, 5), np.uint8))
        zero = Image(np.zeros((5, 5), dtype=np.uint8))
        assert image_add(a, zero) == a

    def test_saturates_at_255(self):
        out = image_add(Image([[200]]), Image([[100]]))
        assert out.pixels[0, 0] == 255

    @given(add_arrays.flatmap(lambda a: st.tuples(
        st.just(a), hnp.arrays(np.uint8, a.shape, elements=add_levels))))
    def test_commutative_and_matches_min_oracle(self, pair):
        # Sums at and past 255, from levels at 0 and 255 in either argument,
        # are where a uint8 form could wrap.
        a, b = Image(pair[0]), Image(pair[1])
        out = image_add(a, b)
        assert out == image_add(b, a)
        assert out.pixels.tolist() == [[min(int(x) + int(y), 255) for x, y in zip(ra, rb)]
                                       for ra, rb in zip(pair[0].tolist(), pair[1].tolist())]

    def test_all_max_is_absorbing(self):
        rng = np.random.default_rng(33)
        a = Image(rng.integers(0, 256, (4, 4), np.uint8))
        white = Image(np.full((4, 4), 255, dtype=np.uint8))
        assert image_add(a, white) == white

    def test_edge_overlay_saturates_every_edge_location(self):
        rng = np.random.default_rng(34)
        img = Image(rng.integers(0, 256, (8, 8), np.uint8))
        overlay = bits_to_image(edge_points(binarize(img, 128)))
        out = image_add(img, overlay)
        assert np.all(out.pixels[overlay.pixels == 255] == 255)

    def test_dimension_mismatch_is_domain_error(self):
        with pytest.raises(DomainError):
            image_add(Image([[0]]), Image([[0, 0]]))


class TestShadow:
    def test_constant_maps_to_mid_gray(self):
        img = Image(np.full((4, 7), 211, dtype=np.uint8))
        assert np.all(shadow_ne(img).pixels == 128)

    def test_impulse_pattern_matches_oracle(self):
        pixels = np.zeros((3, 3), dtype=np.uint8)
        pixels[1, 1] = 100
        out = shadow_ne(Image(pixels))
        assert out.pixels.tolist() == shadow_brute(pixels.tolist())
        # Highlight on the southwest diagonal, shadow on the northeast one.
        assert out.pixels.tolist() == [[128, 128, 28],
                                       [128, 128, 128],
                                       [228, 128, 128]]

    def test_vertical_step_brightens_both_columns_at_the_step(self):
        # Rising step: NE-minus-SW is +255 on the two columns astride the
        # step and 0 elsewhere, so the rendering is 255 there and 128 away.
        pixels = np.zeros((4, 6), dtype=np.uint8)
        pixels[:, 3:] = 255
        out = shadow_ne(Image(pixels))
        assert out.pixels.tolist() == shadow_brute(pixels.tolist())
        assert out.pixels.tolist() == [[128, 128, 255, 255, 128, 128]] * 4

    @given(pixel_arrays)
    def test_invert_is_negate_of_shadow(self, pixels):
        img = Image(pixels)
        assert shadow_invert(img) == negate(shadow_ne(img))

    def test_invert_of_constant_is_127(self):
        img = Image(np.full((3, 3), 50, dtype=np.uint8))
        assert np.all(shadow_invert(img).pixels == 127)

    def test_step_highlights_swap_under_invert(self):
        pixels = np.zeros((4, 6), dtype=np.uint8)
        pixels[:, 3:] = 255
        out = shadow_invert(Image(pixels))
        assert out.pixels.tolist() == [[127, 127, 0, 0, 127, 127]] * 4
