from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis.extra import numpy as hnp

import grayfilt._bytes
from grayfilt import (
    Histogram,
    Image,
    compute_histogram,
    histogram_csv,
    negate,
    render_histogram,
)

from support import histogram_brute, round_half_away_exact

pixel_arrays = hnp.arrays(
    np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16))


class TestComputeHistogram:
    def test_direct_count(self):
        h = compute_histogram(Image([[0, 0], [255, 7]]))
        assert h.bins[0] == 2 and h.bins[7] == 1 and h.bins[255] == 1
        assert h.total == 4

    def test_constant_image(self):
        h = compute_histogram(Image(np.full((10, 10), 42, dtype=np.uint8)))
        assert h.bins[42] == 100
        assert h.bins.sum() == 100

    @given(pixel_arrays)
    def test_mass_conservation_and_brute_count(self, pixels):
        h = compute_histogram(Image(pixels))
        assert h.total == pixels.size
        assert h.bins.tolist() == histogram_brute(pixels.tolist())

    @given(pixel_arrays)
    def test_negation_reverses_bins(self, pixels):
        img = Image(pixels)
        assert np.array_equal(compute_histogram(negate(img)).bins,
                              compute_histogram(img).bins[::-1])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        pixels = rng.integers(0, 256, (6, 7), np.uint8)
        shuffled = pixels.ravel().copy()
        rng.shuffle(shuffled)
        h1 = compute_histogram(Image(pixels))
        h2 = compute_histogram(Image(shuffled.reshape(7, 6)))
        assert h1 == h2

    def test_strips_count_as_the_whole_image(self, monkeypatch):
        # Strips of 37 // 13 = 2 rows, so the last of the 11 rows is a strip alone.
        monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", 37)
        pixels = np.random.default_rng(44).integers(0, 256, (11, 13), np.uint8)
        expected = np.bincount(pixels.ravel(), minlength=256)
        assert compute_histogram(Image(pixels)).bins.tolist() == expected.tolist()


class TestHistogramCsv:
    def test_single_black_pixel(self):
        text = histogram_csv(compute_histogram(Image([[0]])))
        lines = text.splitlines()
        assert lines[0] == "level,count"
        assert lines[1] == "0,1"
        assert all(line == f"{i},0" for i, line in enumerate(lines[2:], start=1))

    @given(pixel_arrays)
    def test_shape_and_mass(self, pixels):
        text = histogram_csv(compute_histogram(Image(pixels)))
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == 257
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert sum(counts) == pixels.size


class TestRenderHistogram:
    def test_single_level_gives_one_full_bar(self):
        chart = render_histogram(compute_histogram(Image(np.full((5, 5), 9, np.uint8))))
        assert (chart.width, chart.height) == (256, 100)
        assert np.all(chart.pixels[:, 9] == 0)
        mask = np.ones(256, dtype=bool)
        mask[9] = False
        assert np.all(chart.pixels[:, mask] == 255)

    def test_two_levels_proportional_heights(self):
        pixels = np.concatenate([np.full(100, 10), np.full(50, 200)])
        chart = render_histogram(compute_histogram(Image(pixels.reshape(10, 15).astype(np.uint8))))
        assert (chart.pixels[:, 10] == 0).sum() == 100
        assert (chart.pixels[:, 200] == 0).sum() == 50

    def test_uniform_histogram_fills_every_column(self):
        pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)
        chart = render_histogram(compute_histogram(Image(pixels)))
        assert np.all(chart.pixels == 0)

    @given(pixel_arrays)
    def test_dimensions_and_levels(self, pixels):
        chart = render_histogram(compute_histogram(Image(pixels)))
        assert (chart.width, chart.height) == (256, 100)
        assert set(np.unique(chart.pixels)) <= {0, 255}

    def test_bar_heights_match_exact_proportional_rule(self):
        rng = np.random.default_rng(42)
        pixels = rng.integers(0, 8, (9, 13), np.uint8) * 31
        hist = compute_histogram(Image(pixels))
        chart = render_histogram(hist)
        max_bin = int(hist.bins.max())
        for level in range(256):
            count = int(hist.bins[level])
            expected = round_half_away_exact(Fraction(100 * count, max_bin)) if count else 0
            assert (chart.pixels[:, level] == 0).sum() == expected

    def test_bars_grow_from_the_bottom(self):
        hist = compute_histogram(Image(np.array([[0, 0, 0, 128]], dtype=np.uint8)))
        chart = render_histogram(hist)
        column = chart.pixels[:, 128]
        height = round_half_away_exact(Fraction(100 * 1, 3))
        assert np.all(column[100 - height:] == 0)
        assert np.all(column[:100 - height] == 255)

    def test_all_zero_histogram_is_all_white(self):
        chart = render_histogram(Histogram(np.zeros(256, np.int64)))
        assert (chart.width, chart.height) == (256, 100)
        assert np.all(chart.pixels == 255)

    def test_counts_near_int64_max_draw_exact_bars(self):
        # 100·count overflows int64 here; the bars are still 100, 50 and 0.
        chart = render_histogram(Histogram([2**62, 2**61, 3] + [0] * 253))
        assert ((chart.pixels == 0).sum(axis=0)[:4] == [100, 50, 0, 0]).all()
        assert np.all(chart.pixels[:, 2:] == 255)
        # 100·10**15 / (2·10**17 + 1) is just below a half: no bar, where a
        # float quotient rounds it up to 0.5 and draws one pixel.
        near_tie = render_histogram(Histogram([2 * 10**17 + 1, 10**15] + [0] * 254))
        assert np.all(near_tie.pixels[:, 1] == 255)
