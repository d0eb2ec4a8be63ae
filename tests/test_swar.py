"""The numpy-free bytes forms of the small-image filters (grayfilt._swar)
against the brute-force oracles and the numpy engine, on both sides of the
16-bit field bound and of each step's cut."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import grayfilt._swar as swar
import grayfilt.pipeline as pipeline
from grayfilt import (
    DomainError,
    Image,
    PipelineSpec,
    binarize,
    bits_to_image,
    clamp_to_display,
    compute_histogram,
    convolve,
    edge_points,
    histogram_csv,
    image_add,
    load_pgm,
    parse_kernel,
    parse_pipeline,
    render_histogram,
    run_pipeline,
    save_pgm,
    unsharp_mask,
)
from grayfilt._bytes import NEGATE_TABLE
from grayfilt.convolution import _correlate_strips
from grayfilt.pipeline import OPS, _compile, _run_raster
from support import (
    clamp_round_exact,
    correlate_brute,
    edge_points_brute,
    histogram_brute,
    op_stages,
    round_half_away_exact,
    run_cli,
    stage_label,
    strips_of,
    swar_cost,
    swar_side_at_cut,
)

#: Images of 1 to 10 pixels a side: 1xN and Nx1 images included.
images = hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=10))
ROW = np.array([[0, 255, 9, 200, 128, 1, 77]], np.uint8)
COLUMN = ROW.T.copy()
odd_sides = st.sampled_from([1, 3, 5])
int_kernels = st.tuples(odd_sides, odd_sides).flatmap(
    lambda shape: hnp.arrays(np.int64, shape, elements=st.integers(-40, 40))
    .filter(lambda a: a.any()).map(lambda a: tuple(map(tuple, a.tolist()))))
biases = st.sampled_from([0, 128])
thresholds = st.integers(0, 255)
#: Images of 1 to 12 rows, and strips of 1 to 5 rows: heights that are and
#: are not multiples of the strip both come up.
tall_images = hnp.arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 6)))
strip_rows = st.integers(1, 5)
#: 1x1, 1x3, 3x1 and 3x3 stencils, whose guard bit stays at most 15 with either bias.
stencils = st.sampled_from([(1, 1), (1, 3), (3, 1), (3, 3)]).flatmap(
    lambda shape: hnp.arrays(np.int64, shape, elements=st.integers(-4, 4))
    .filter(lambda a: a.any()).map(lambda a: tuple(map(tuple, a.tolist()))))


def _raster(pixels):
    h, w = pixels.shape
    return w, h, pixels.tobytes()


def _guard_bit(kernel, bias):
    """The guard bit g of ``kernel`` and ``bias``: the least g with 2**g ≥
    neg·255 + 256 and 2**g > pos·255 + bias, for the sums pos and neg of its
    positive and negative coefficients. A 16-bit field holds g ≤ 15."""
    taps = [c for row in kernel for c in row]
    pos, neg = sum(c for c in taps if c > 0), -sum(c for c in taps if c < 0)
    return max(neg * 255 + 255, pos * 255 + bias).bit_length()


#: A 3x3 kernel whose sums need bit 16 with bias 128, and bit 15 with bias 0.
WIDE = ((0, 0, 0), (0, 128, 0), (0, 0, 0))


class TestCorrelateClamp:
    # Drawn kernels fall on both sides of the 16-bit bound: past it (a
    # guard bit past 15) there is no bytes form.
    @settings(max_examples=150, deadline=None)
    @given(images, int_kernels, biases)
    @example(ROW, ((1, -3, 40), (-40, 5, 1), (2, 0, -1)), 128)
    @example(COLUMN, ((1, -3, 40), (-40, 5, 1), (2, 0, -1)), 0)
    @example(ROW, WIDE, 0)
    @example(COLUMN, WIDE, 128)
    def test_matches_brute_force(self, pixels, kernel, bias):
        out = swar.correlate_clamp(*_raster(pixels), kernel, bias)
        if _guard_bit(kernel, bias) > 15:
            assert out is None
            return
        sums = correlate_brute(pixels.tolist(), kernel)
        expected = [clamp_round_exact(bias + int(v)) for row in sums for v in row]
        assert list(out) == expected

    @settings(max_examples=150, deadline=None)
    @given(images, int_kernels, biases)
    @example(ROW, WIDE, 0)
    @example(ROW, WIDE, 128)
    def test_matches_numpy_engine(self, pixels, kernel, bias):
        out = swar.correlate_clamp(*_raster(pixels), kernel, bias)
        if _guard_bit(kernel, bias) > 15:
            assert out is None
        else:
            assert out == _correlate_strips(Image(pixels), kernel, bias=bias).pixels.tobytes()

    # The 16-bit bound, and one step past it: 2**g ≥ neg·255 + 256 and
    # 2**g > pos·255 + bias, with g ≤ 15. ``width`` is the narrowest field of
    # 16 or 32 bits that holds the sums (None: neither); only the 16-bit
    # field has a bytes form, and only under the replicate border: the
    # kernel step of the zero border has none.
    @pytest.mark.parametrize("kernel, bias, width", [
        (((128,),), 0, 16), (((129,),), 0, 32), (((128,),), 128, 32),
        (((127,),), 128, 16), (((-127,),), 0, 16), (((-128,),), 0, 32),
        (((64, 0, 64),), 0, 16), (((64, 0, 65),), 0, 32),
        (((-63,), (-64,), (127,)), 128, 16), (((-64,), (-64,), (127,)), 128, 32),
        (((8421504,),), 0, 32), (((8421505,),), 0, None), (((8421504,),), 128, None),
        (((-8421503,),), 0, 32), (((-8421504,),), 0, None),
        (((-8421503, 0, 8421504),), 0, 32),
    ])
    @pytest.mark.parametrize("border", ["replicate", "zero"])
    def test_field_width_bounds(self, kernel, bias, width, border):
        assert (_guard_bit(kernel, bias) <= 15) == (width == 16)
        step = pipeline._kernel_step(kernel, bias, border)
        rng = np.random.default_rng(abs(kernel[0][0]))
        for pixels in (rng.integers(0, 256, (4, 5), np.uint8), np.full((3, 2), 255, np.uint8),
                       np.array([[0, 255, 1, 254]], np.uint8)):
            out = step.raster(*_raster(pixels))
            if width != 16 or border == "zero":
                assert out is None
            else:
                assert out == step.image(Image(pixels)).pixels.tobytes()
                assert out == _correlate_strips(Image(pixels), kernel, bias=bias).pixels.tobytes()

    def test_non_integer_stencil_is_left_to_numpy(self, tmp_path):
        # A kernel file with a 0.5 tap has no bytes form, at any border and
        # display: convolve's Step gives None and runs numpy.
        img = Image(np.arange(12, dtype=np.uint8).reshape(3, 4) * 20)
        path = tmp_path / "real.txt"
        path.write_text("3 3\n1 -2 0\n0 0.5 -1\n2 0 -3\n")
        kernel = parse_kernel(path.read_text())
        for border in ("replicate", "zero"):
            for display in ("clamp", "rescale"):
                step = OPS["convolve"].build({"kernel": str(path), "border": border,
                                              "display": display})
                assert step.raster(4, 3, img.pixels.tobytes()) is None
                assert step.image(img) == clamp_to_display(convolve(img, kernel, border), display)

    def test_every_built_in_stencil_has_a_bytes_form(self, pair):
        # Every kernel op's clamp of a built-in stencil, generated from OPS,
        # runs on bytes, within 16-bit fields by a margin: its guard bit is
        # at most 12.
        built = []
        kernel_step = pipeline._kernel_step

        def record(stencil, bias=0, border="replicate", display="clamp"):
            step = kernel_step(stencil, bias, border, display)
            built.append((op, stencil, bias, display, step))
            return step

        paths = {"table": (str(pair["table"]),), "kernel": (str(pair["kernel"]),),
                 "image": (str(pair["second"]),)}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "_kernel_step", record)
            for stage in op_stages(paths):
                op = stage.pop("op")
                OPS[op].build(stage)
        # A kernel file's stencil is the file's, not a built-in one.
        clamps = [(stencil, bias, step) for op, stencil, bias, display, step in built
                  if op != "convolve" and display == "clamp"]
        assert {stencil for stencil, _, _ in clamps} == {
            *swar.LAPLACIANS.values(), *swar.SHARPEN.values(), swar.SHADOW_NE, swar.SHADOW_SW}
        pixels = np.random.default_rng(9).integers(0, 256, (6, 7), np.uint8)
        for stencil, bias, step in clamps:
            assert _guard_bit(stencil, bias) <= 12
            assert step.raster(*_raster(pixels)) == step.image(Image(pixels)).pixels.tobytes()


#: Three spellings of an integer coefficient in a kernel file, each read as that integer.
SPELLINGS = [str, "{}.0".format, "{}e0".format]


class TestKernelFiles:
    # Drawn kernels fall on both sides of the 16-bit bound, spelled at random
    # tap by tap: a kernel file's taps, not their spelling or Python type,
    # decide whether its clamp under the replicate border runs on bytes.
    # ``half`` picks the tap made 0.5 in the file's real-valued copy.
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(images, int_kernels, st.lists(st.sampled_from(SPELLINGS), min_size=25, max_size=25),
           st.integers(0, 24))
    @example(ROW, WIDE, [str] * 25, 4)
    @example(COLUMN, ((0, 0, 0), (0, 129, 0), (0, 0, 0)), ["{}e0".format] * 25, 0)
    def test_an_integer_file_runs_on_bytes_where_its_clamp_fits(self, tmp_path, pixels, kernel,
                                                                spellings, half):
        kh, kw = len(kernel), len(kernel[0])
        rows = [[spellings[i * kw + j](c) for j, c in enumerate(row)]
                for i, row in enumerate(kernel)]
        real = [row[:] for row in rows]
        real[half % kh][half // kh % kw] = "0.5"
        wide = _guard_bit(kernel, 0) > 15
        for name, text, integer in (("int", rows, True), ("real", real, False)):
            path = tmp_path / f"{name}.txt"
            path.write_text(f"{kh} {kw}\n" + "".join(" ".join(row) + "\n" for row in text))
            for border in ("replicate", "zero"):
                for display in ("clamp", "rescale"):
                    step = OPS["convolve"].build({"kernel": str(path), "border": border,
                                                  "display": display})
                    out = step.raster(*_raster(pixels))
                    if not integer or wide or border == "zero" or display == "rescale":
                        assert out is None
                    else:
                        assert out == step.image(Image(pixels)).pixels.tobytes()


class TestStrips:
    # _STRIP_PIXELS is patched to ``rows`` padded rows, so a seam falls after
    # every ``rows`` rows, and each strip takes its halo rows from its neighbours.
    @settings(max_examples=150, deadline=None)
    @given(tall_images, stencils, biases, strip_rows)
    @example(np.arange(24, dtype=np.uint8).reshape(6, 4) * 10, ((1, -2, 1),) * 3, 128, 3)
    @example(np.arange(28, dtype=np.uint8).reshape(7, 4) * 9, ((1, -2, 1),) * 3, 0, 3)
    @example(np.arange(10, dtype=np.uint8).reshape(5, 2) * 25, ((-3,),), 128, 1)
    def test_correlate_clamp_across_strips(self, pixels, kernel, bias, rows):
        height, width = pixels.shape
        with strips_of(rows * (width + len(kernel[0]) - 1)):
            out = swar.correlate_clamp(width, height, pixels.tobytes(), kernel, bias)
        sums = correlate_brute(pixels.tolist(), kernel)
        assert list(out) == [clamp_round_exact(bias + int(v)) for row in sums for v in row]
        assert out == _correlate_strips(Image(pixels), kernel, bias=bias).pixels.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(tall_images, thresholds, strip_rows)
    @example(np.arange(24, dtype=np.uint8).reshape(6, 4) * 10, 100, 2)
    @example(np.arange(28, dtype=np.uint8).reshape(7, 4) * 9, 100, 2)
    def test_edge_points_across_strips(self, pixels, threshold, rows):
        height, width = pixels.shape
        with strips_of(rows * (width + 2)):
            out = swar.edge_points(width, height, pixels.tobytes(), threshold)
        bits = [[int(v >= threshold) for v in row] for row in pixels.tolist()]
        assert list(out) == [255 * v for row in edge_points_brute(bits) for v in row]
        img = Image(pixels)
        assert out == bits_to_image(edge_points(binarize(img, threshold))).pixels.tobytes()


class TestShadowSW:
    """The shadow's negative is one clamp of SW minus NE plus 127: field for
    field the negate table after the shadow's clamp, as 255 − clamp(v + 128)
    = clamp(127 − v), with the same 16-bit fields and guard bit, under the
    replicate border."""

    def test_fields_match_the_shadow(self):
        assert _guard_bit(swar.SHADOW_SW, swar.SHADOW_SW_BIAS) == 9
        assert _guard_bit(swar.SHADOW_NE, swar.SHADOW_BIAS) == 9

    @settings(max_examples=150, deadline=None)
    @given(images)
    @example(ROW)
    @example(COLUMN)
    @example(np.array([[0, 255], [255, 0]], np.uint8))
    def test_equals_the_negated_shadow_on_both_sides_of_the_cut(self, pixels):
        w, h, raster = _raster(pixels)
        cost = swar_cost(w, h, 2 + swar._FIXED_TAPS, 1)
        for cut, runs in ((cost, True), (cost - 1, False)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(swar, "_CUT", cut)
                out = swar.correlate_clamp(w, h, raster, swar.SHADOW_SW,
                                           bias=swar.SHADOW_SW_BIAS)
                shadow = swar.correlate_clamp(w, h, raster, swar.SHADOW_NE,
                                              bias=swar.SHADOW_BIAS)
            if runs:
                assert out == shadow.translate(NEGATE_TABLE)
            else:
                assert out is None and shadow is None


class TestCut:
    """Each step runs where fields × its cost a field (taps + _FIXED_TAPS, or
    _EDGE_TAPS for edges) + padded rows × _ROW_TAPS is at most _CUT and
    returns None above it; the cut is patched so that a small image lies on
    either side."""

    @pytest.mark.parametrize("kernel, taps", [
        (swar.SHARPEN["eight"], 9), (swar.SHARPEN["four"], 5), (swar.LAPLACIANS["four"], 5),
        (swar.SHADOW_NE, 2), (swar.LAPLACIANS["eight"], 9), (swar.SHADOW_SW, 2)])
    def test_correlation(self, monkeypatch, kernel, taps):
        pixels = np.arange(35, dtype=np.uint8).reshape(5, 7) * 7
        cost = swar_cost(7, 5, taps + swar._FIXED_TAPS, 1)
        monkeypatch.setattr(swar, "_CUT", cost)
        assert swar.correlate_clamp(*_raster(pixels), kernel) is not None
        monkeypatch.setattr(swar, "_CUT", cost - 1)
        assert swar.correlate_clamp(*_raster(pixels), kernel) is None

    def test_edges_add_and_histogram(self, monkeypatch):
        pixels = np.arange(35, dtype=np.uint8).reshape(5, 7) * 7
        w, h, raster = _raster(pixels)
        fixed = swar._FIXED_TAPS
        steps = [(swar_cost(w, h, swar._EDGE_TAPS, 1), lambda: swar.edge_points(w, h, raster, 100)),
                 (swar_cost(w, h, 1 + fixed, 0), lambda: swar.add(w, h, raster, (w, h, raster))),
                 (swar_cost(w, h, swar._COUNT_TAPS + fixed, 0), lambda: swar.histogram(raster))]
        for cost, step in steps:
            monkeypatch.setattr(swar, "_CUT", cost)
            assert step() is not None
            monkeypatch.setattr(swar, "_CUT", cost - 1)
            assert step() is None

    def test_a_thin_image_counts_its_rows(self):
        # One column of as many pixels as the largest square sharpen takes
        # is mostly padding and rows: it goes to numpy. The tallest column
        # below the cut runs on bytes, as exactly as any image.
        kernel = swar.SHARPEN["eight"]
        cost = 9 + swar._FIXED_TAPS
        pixels = swar_side_at_cut(cost, 1) ** 2
        assert swar.correlate_clamp(1, pixels, bytes(pixels), kernel) is None
        height = 1
        while swar_cost(1, height + 1, cost, 1) <= swar._CUT:
            height += 1
        column = np.random.default_rng(3).integers(0, 256, (height, 1), np.uint8)
        out = swar.correlate_clamp(*_raster(column), kernel)
        assert out == _correlate_strips(Image(column), kernel, bias=0).pixels.tobytes()

    def test_every_4mp_input_but_edges_is_above_its_cut(self):
        # add, of one tap and no padding, is the cheapest 16-bit step.
        assert swar_side_at_cut(1 + swar._FIXED_TAPS, 0) < 2048

    def test_every_1mp_input_is_below_every_cut(self):
        # Counting a histogram costs the most taps, then sharpen's nine.
        fixed = swar._FIXED_TAPS
        assert min(swar_side_at_cut(swar._COUNT_TAPS + fixed, 0),
                   swar_side_at_cut(9 + fixed, 1)) >= 1024

    def test_edges_runs_on_bytes_up_to_its_process_crossover(self):
        # As processes, edges' bytes form beats numpy at 2560x2560 and ties
        # it at 3072x3072 (CHANGES.md): the cut lies between.
        side = swar_side_at_cut(swar._EDGE_TAPS, 1)
        assert 2560 <= side < 3072
        pixels = np.random.default_rng(5).integers(0, 256, (2048, 2048), np.uint8)
        out = swar.edge_points(*_raster(pixels), 128)
        assert out == bits_to_image(edge_points(binarize(Image(pixels), 128))).pixels.tobytes()
        assert swar.edge_points(side + 1, side + 1, bytes((side + 1) ** 2), 128) is None


class TestEdgesAddHistogram:
    @settings(max_examples=150, deadline=None)
    @given(images, thresholds)
    @example(ROW, 100)
    @example(COLUMN, 100)
    def test_edges_match_brute_force_and_numpy(self, pixels, threshold):
        out = swar.edge_points(*_raster(pixels), threshold)
        bits = [[int(v >= threshold) for v in row] for row in pixels.tolist()]
        assert list(out) == [255 * v for row in edge_points_brute(bits) for v in row]
        img = Image(pixels)
        assert out == bits_to_image(edge_points(binarize(img, threshold))).pixels.tobytes()
        assert out == OPS["edges"].build({"threshold": threshold}).image(img).pixels.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(images, thresholds)
    @example(ROW, 100)
    @example(COLUMN, 100)
    @example(np.full((3, 5), 200, np.uint8), 200)
    @example(np.full((4, 1), 9, np.uint8), 0)
    def test_edges_after_unsharp_run_the_numpy_library_chain(self, pixels, threshold):
        # unsharp has no bytes form, so the edges stage after it runs on
        # numpy at any size: the library chain, and the brute-force rule.
        spec = PipelineSpec([{"op": "unsharp", "radius": 1},
                             {"op": "edges", "threshold": threshold}])
        out = bytes(_run_raster(_compile(spec), *_raster(pixels)))
        sharp = unsharp_mask(Image(pixels), 1)
        assert out == bits_to_image(edge_points(binarize(sharp, threshold))).pixels.tobytes()
        bits = [[int(v >= threshold) for v in row] for row in sharp.pixels.tolist()]
        assert list(out) == [255 * v for row in edge_points_brute(bits) for v in row]

    @settings(max_examples=100, deadline=None)
    @given(images.flatmap(lambda a: st.tuples(
        st.just(a), hnp.arrays(np.uint8, a.shape))))
    def test_add_matches_saturating_sum(self, pair):
        a, b = pair
        out = swar.add(*_raster(a), _raster(b))
        assert list(out) == [min(x + y, 255) for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]
        assert out == image_add(Image(a), Image(b)).pixels.tobytes()

    def test_add_of_different_sizes_is_the_numpy_domain_error(self):
        a, b = Image(np.zeros((2, 3), np.uint8)), Image(np.zeros((3, 2), np.uint8))
        with pytest.raises(DomainError) as numpy_error:
            image_add(a, b)
        with pytest.raises(DomainError) as bytes_error:
            swar.add(3, 2, bytes(6), (2, 3, bytes(6)))
        assert str(bytes_error.value) == str(numpy_error.value) == \
            "cannot add images of different sizes: 3x2 vs 2x3"

    @settings(max_examples=100, deadline=None)
    @given(images)
    def test_histogram_matches_brute_force_and_library(self, pixels):
        counts = swar.histogram(pixels.tobytes())
        assert counts == histogram_brute(pixels.tolist())
        hist = compute_histogram(Image(pixels))
        assert swar.histogram_csv(counts) == histogram_csv(hist)
        assert swar.histogram_chart(counts) == render_histogram(hist).pixels.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**40), min_size=256, max_size=256).filter(any))
    def test_chart_rounds_as_render_histogram(self, counts):
        assert swar.histogram_chart(counts) == _chart_exact(counts)

    @pytest.mark.parametrize("top, count", [(2, 1), (200, 1), (200, 3), (8, 1), (10**12, 5 * 10**9 + 1),
                                            (2 * 10**17 + 1, 10**15)])
    def test_chart_ties_round_away_from_zero(self, top, count):
        # 100·count/top lies on a half, or just past or below one; a float
        # quotient rounds the last, 0.4999999999999999975, up to 0.5.
        counts = [top, count] + [0] * 254
        assert swar.histogram_chart(counts) == _chart_exact(counts)


def _chart_exact(counts):
    """The chart's raster with each bar round_half_away(100·count/max) high
    in exact rationals, drawn pixel by pixel."""
    top = max(counts)
    heights = [round_half_away_exact(Fraction(100 * count, top)) for count in counts]
    return bytes(0 if h >= 100 - row else 255 for row in range(100) for h in heights)


@pytest.fixture
def pair(tmp_path):
    rng = np.random.default_rng(71)
    paths = {}
    for name in ("in", "second"):
        paths[name] = tmp_path / f"{name}.pgm"
        save_pgm(paths[name], Image(rng.integers(0, 256, (9, 13), np.uint8)))
    paths["kernel"] = tmp_path / "k.txt"
    paths["kernel"].write_text("3 3\n1 -2 0\n0 4 -1\n2 0 -3\n")
    paths["table"] = tmp_path / "lut.txt"
    paths["table"].write_text(" ".join(str(255 - v) for v in range(256)))
    return paths


#: (CLI command line after the paths, one-stage pipeline params) of each op
#: with a bytes form, then of the kernel ops that run numpy at any cut: the
#: zero border and the rescale display.
BYTES_OPS = [
    (["sharpen"], {"op": "sharpen"}),
    (["sharpen", "--variant", "eight"], {"op": "sharpen", "variant": "eight"}),
    (["laplacian", "--variant", "eight"], {"op": "laplacian", "variant": "eight"}),
    (["shadow"], {"op": "shadow"}),
    (["shadow", "--invert"], {"op": "shadow", "invert": True}),
    (["edges", "--threshold", "90"], {"op": "edges", "threshold": 90}),
    (["add", "-j", "{second}"], {"op": "add", "image": "{second}"}),
    (["convolve", "--kernel", "{kernel}"], {"op": "convolve", "kernel": "{kernel}"}),
]
NUMPY_KERNEL_OPS = [
    (["convolve", "--kernel", "{kernel}", "--border", "zero"],
     {"op": "convolve", "kernel": "{kernel}", "border": "zero"}),
    (["convolve", "--kernel", "{kernel}", "--border", "zero", "--display", "rescale"],
     {"op": "convolve", "kernel": "{kernel}", "border": "zero", "display": "rescale"}),
    (["laplacian", "--display", "rescale"], {"op": "laplacian", "display": "rescale"}),
]


class TestCliOnBothSidesOfTheCut:
    @pytest.mark.parametrize("cut", [0, 2**40])
    @pytest.mark.parametrize("argv, stage", BYTES_OPS + NUMPY_KERNEL_OPS)
    def test_filter_writes_the_library_bytes(self, monkeypatch, tmp_path, pair, cut, argv, stage):
        monkeypatch.setattr(swar, "_CUT", cut)
        paths = {"{second}": str(pair["second"]), "{kernel}": str(pair["kernel"])}
        argv = [paths.get(a, a) for a in argv]
        stage = {k: paths.get(v, v) for k, v in stage.items()}
        expected = run_pipeline(PipelineSpec([stage]), load_pgm(pair["in"]))
        out = tmp_path / "out.pgm"
        for fmt in ("p5", "p2"):
            assert run_cli([argv[0], "-i", str(pair["in"]), "-o", str(out), "--format", fmt,
                            *argv[1:]]) == 0
            assert load_pgm(out) == expected

    @pytest.mark.parametrize("stage, bytes_form",
                             [(stage, True) for _, stage in BYTES_OPS]
                             + [(stage, False) for _, stage in NUMPY_KERNEL_OPS],
                             ids=[stage_label(stage) for _, stage in BYTES_OPS + NUMPY_KERNEL_OPS])
    def test_a_small_input_takes_the_bytes_form_of_each_bytes_op(self, pair, stage, bytes_form):
        paths = {"{second}": str(pair["second"]), "{kernel}": str(pair["kernel"])}
        ((_, step),) = _compile(PipelineSpec([{k: paths.get(v, v) for k, v in stage.items()}]))
        img = load_pgm(pair["in"])
        assert (step.raster(img.width, img.height, img.pixels.tobytes()) is not None) == bytes_form

    @pytest.mark.parametrize("cut", [0, 2**40])
    def test_histogram_writes_the_library_files(self, monkeypatch, tmp_path, pair, cut):
        monkeypatch.setattr(swar, "_CUT", cut)
        csv, chart = tmp_path / "h.csv", tmp_path / "h.pgm"
        assert run_cli(["histogram", "-i", str(pair["in"]), "--csv", str(csv),
                        "--render", str(chart)]) == 0
        hist = compute_histogram(load_pgm(pair["in"]))
        assert csv.read_text() == histogram_csv(hist)
        assert load_pgm(chart) == render_histogram(hist)

    @pytest.mark.parametrize("cut", [0, 2**40])
    def test_mixed_pipeline_matches_run_pipeline(self, monkeypatch, tmp_path, pair, cut):
        # Above the cut the raster goes to numpy at the sharpen stage; below
        # it, at the unsharp stage, which has no bytes form. Either way the
        # rest of the chain runs on numpy.
        monkeypatch.setattr(swar, "_CUT", cut)
        text = json.dumps({"stages": [
            {"op": "negate"}, {"op": "sharpen", "variant": "eight"},
            {"op": "edges", "threshold": 100}, {"op": "unsharp"}, {"op": "shadow"},
            {"op": "negate"}]})
        spec, out = tmp_path / "spec.json", tmp_path / "out.pgm"
        spec.write_text(text)
        assert run_cli(["pipeline", "-i", str(pair["in"]), "-o", str(out), "--spec", str(spec)]) == 0
        assert load_pgm(out) == run_pipeline(parse_pipeline(text), load_pgm(pair["in"]))

    @pytest.mark.parametrize("cut", [0, 2**40])
    def test_add_of_different_sizes_is_one_labelled_domain_error(self, monkeypatch, tmp_path,
                                                                 pair, capsys, cut):
        monkeypatch.setattr(swar, "_CUT", cut)
        other = tmp_path / "other.pgm"
        save_pgm(other, Image([[1, 2]]))
        spec, out = tmp_path / "spec.json", tmp_path / "out.pgm"
        spec.write_text(json.dumps({"stages": [{"op": "negate"}, {"op": "add", "image": str(other)}]}))
        assert run_cli(["pipeline", "-i", str(pair["in"]), "-o", str(out), "--spec", str(spec)]) == 3
        assert capsys.readouterr().err == (
            "grayfilt: stage 2 (add): cannot add images of different sizes: 13x9 vs 2x1\n")
        assert not out.exists()
