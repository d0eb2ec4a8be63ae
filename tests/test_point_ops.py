import decimal
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import grayfilt._bytes
from grayfilt import (
    Image,
    PipelineSpec,
    apply_lut,
    binarize,
    bits_to_image,
    clamp_round,
    compute_histogram,
    gray_stretch,
    negate,
    run_pipeline,
)
from grayfilt._bytes import stretch_table
from grayfilt.pipeline import OPS, _compile

from support import round_half_away_exact

pixel_arrays = hnp.arrays(
    np.uint8,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16),
)


def negation_table():
    return 255 - np.arange(256)


class TestApplyLut:
    def test_identity_table(self):
        img = Image([[0, 77, 255]])
        assert apply_lut(img, np.arange(256)) == img

    def test_negation_table_equals_negate(self):
        img = Image([[0, 77, 255], [1, 254, 128]])
        assert apply_lut(img, negation_table()) == negate(img)

    def test_constant_table(self):
        out = apply_lut(Image([[3, 9], [200, 0]]), np.full(256, 7))
        assert out.pixels.tolist() == [[7, 7], [7, 7]]

    @pytest.mark.parametrize("bad", [
        np.arange(255),                 # wrong length
        np.arange(256) - 1,             # entry below 0
        np.arange(256) + 1,             # entry above 255
        np.arange(256).astype(float),   # non-integer entries
    ])
    def test_invalid_table_rejected(self, bad):
        with pytest.raises(ValueError):
            apply_lut(Image([[0]]), bad)

    @given(pixel_arrays)
    def test_lut_negation_matches_negate(self, pixels):
        img = Image(pixels)
        assert apply_lut(img, negation_table()) == negate(img)


class TestNegate:
    @pytest.mark.parametrize("r,s", [(0, 255), (255, 0), (100, 155)])
    def test_endpoints_and_midpoint(self, r, s):
        assert negate(Image([[r]])).pixels[0, 0] == s

    @given(pixel_arrays)
    def test_involution(self, pixels):
        img = Image(pixels)
        assert negate(negate(img)) == img

    @given(pixel_arrays)
    def test_histogram_reversal(self, pixels):
        img = Image(pixels)
        forward = compute_histogram(img).bins
        reverse = compute_histogram(negate(img)).bins
        assert np.array_equal(reverse, forward[::-1])

    def test_dimensions_preserved(self):
        img = Image(np.zeros((3, 7), dtype=np.uint8))
        out = negate(img)
        assert (out.width, out.height) == (img.width, img.height)


class TestGrayStretch:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 4.0])
    def test_fixed_points(self, gamma):
        assert gray_stretch(Image([[0]]), gamma).pixels[0, 0] == 0
        assert gray_stretch(Image([[255]]), gamma).pixels[0, 0] == 255

    def test_midpoint_gamma_two(self):
        # Exact rational oracle: round(255 * (128/255)**2) = round(16384/255).
        expected = round_half_away_exact(Fraction(128 * 128, 255))
        assert expected == 64
        assert gray_stretch(Image([[128]]), 2.0).pixels[0, 0] == expected

    @given(pixel_arrays)
    def test_gamma_one_is_identity(self, pixels):
        img = Image(pixels)
        assert gray_stretch(img, 1.0) == img

    @given(st.floats(min_value=0.05, max_value=20.0))
    def test_monotone_in_input_level(self, gamma):
        ramp = Image(np.arange(256, dtype=np.uint8).reshape(1, -1))
        out = gray_stretch(ramp, gamma).pixels[0]
        assert np.all(np.diff(out.astype(int)) >= 0)

    def test_gamma_above_one_compresses_low_end(self):
        out = gray_stretch(Image(np.arange(256, dtype=np.uint8).reshape(1, -1)), 2.0)
        levels = out.pixels[0].astype(int)
        assert levels[64] < 64       # low end pushed down
        assert levels[192] > 128     # high end keeps more separation than the low end

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_gamma_rejected(self, bad):
        with pytest.raises(ValueError):
            gray_stretch(Image([[1]]), bad)


def stretch_oracle(r: int, gamma: float) -> int:
    """round_half_away(255 * (r/255)**gamma) from 100-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        value = 255 * (decimal.Decimal(r) / 255) ** decimal.Decimal(gamma)
        return int(value + decimal.Decimal("0.5"))


def np_power_table(gamma: float) -> bytes:
    """The stretch table as numpy's power and the package's rounding rule give it."""
    return clamp_round(255.0 * np.power(np.arange(256) / 255.0, gamma)).tobytes()


class TestExactTables:
    # At each gamma, 255 * (1/255)**gamma in doubles (libm's pow) is exactly
    # k + 0.5, while the exact value lies just below the half (38.49999999999999449,
    # 13.49999999999999965) or just above it (2.50000000000000020, 16.50000000000000324).
    @pytest.mark.parametrize("gamma, level", [(0.3411866785359033, 38), (0.5303075437156505, 13),
                                              (0.8346422752848948, 3), (0.49409365606587724, 17)])
    def test_near_tie_stretch_entry_is_exact(self, gamma, level):
        table = stretch_table(gamma)
        assert table[1] == level
        assert list(table) == [stretch_oracle(r, gamma) for r in range(256)]
        assert gray_stretch(Image([[1]]), gamma).pixels[0, 0] == level

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.01, max_value=50.0))
    def test_stretch_table_matches_decimal_oracle(self, gamma):
        assert list(stretch_table(gamma)) == [stretch_oracle(r, gamma) for r in range(256)]

    @pytest.mark.parametrize("gamma", [1e-300, 5e-324, 1e6, 2.0**60, 1.7976931348623157e308])
    def test_extreme_gammas(self, gamma):
        # A tiny gamma sends every level above 0 to 255, a huge one every level below 255 to 0.
        expected = [0] + [255] * 255 if gamma < 1 else [0] * 255 + [255]
        assert list(stretch_table(gamma)) == expected

    def test_stretch_table_equals_numpy_power_at_every_recorded_gamma(self):
        # The benchmark's gammas, the fixed test and demo gammas, and every
        # gamma with 3 decimals that the acceptance tests draw from [0.2, 4.0]:
        # at each, the exact table is the one np.power gave, so no digest moves.
        gammas = [0.5, 0.7, 1.0, 1.5, 1.7, 2.0, 3.0, 4.0, 10.0]
        gammas += [k / 1000 for k in range(200, 4001)]
        assert [g for g in gammas if stretch_table(g) != np_power_table(g)] == []

    def test_binarize_table_equals_the_library_op(self):
        levels = Image(np.arange(256, dtype=np.uint8).reshape(16, 16))
        for t in range(256):
            expected = bits_to_image(binarize(levels, t)).pixels.tobytes()
            assert OPS["binarize"].build({"threshold": t}) == expected

    def test_negate_table(self):
        assert OPS["negate"].build({}) == bytes(255 - r for r in range(256))
        levels = Image(np.arange(256, dtype=np.uint8).reshape(1, -1))
        assert negate(levels).pixels.tobytes() == OPS["negate"].build({})

    @pytest.mark.parametrize("strip", [None, 1000])
    def test_table_ops_across_strips_equal_the_indexed_table(self, monkeypatch, strip):
        # 257 rows of 263 are more than one strip of either size (249 rows
        # of 65,536 pixels, or 3 rows of 1000), and the last strip is short.
        if strip:
            monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", strip)
        pixels = np.random.default_rng(5).integers(0, 256, (257, 263), dtype=np.uint8)
        table = np.random.default_rng(6).integers(0, 256, 256)
        img = Image(pixels.copy())
        stretch = np.frombuffer(stretch_table(2.0), np.uint8)
        for out, expected in [(negate(img), negation_table()[pixels]),
                              (gray_stretch(img, 2.0), stretch[pixels]),
                              (apply_lut(img, table), table[pixels])]:
            np.testing.assert_array_equal(out.pixels, expected)
        np.testing.assert_array_equal(img.pixels, pixels)

    @settings(max_examples=40, deadline=None)
    @given(pixel_arrays, st.lists(st.sampled_from(["negate", "stretch", "lut", "binarize"]),
                                  min_size=1, max_size=5),
           st.floats(0.1, 5.0), st.integers(0, 255), st.integers(0, 2**32 - 1))
    def test_composed_tables_equal_the_stages_one_by_one(self, pixels, ops, gamma, t, seed):
        table = np.random.default_rng(seed).integers(0, 256, 256)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.lut")
            with open(path, "w") as fh:
                fh.write(" ".join(map(str, table)))
            params = {"negate": {}, "stretch": {"gamma": gamma}, "lut": {"table": path},
                      "binarize": {"threshold": t}}
            spec = PipelineSpec([{"op": op, **params[op]} for op in ops])
            assert len(_compile(spec)) == 1  # one composed table
            piped = run_pipeline(spec, Image(pixels))
        library = {"negate": negate, "stretch": lambda i: gray_stretch(i, gamma),
                   "lut": lambda i: apply_lut(i, table),
                   "binarize": lambda i: bits_to_image(binarize(i, t))}
        img = Image(pixels)
        for op in ops:
            img = library[op](img)
        assert piped == img
