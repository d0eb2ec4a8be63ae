import json
import sys

import numpy as np
import pytest

from grayfilt import (
    DomainError,
    FormatError,
    Image,
    PipelineSpec,
    binarize,
    bits_to_image,
    edge_points,
    gray_stretch,
    image_add,
    laplacian_sharpen,
    negate,
    parse_pipeline,
    run_pipeline,
    save_pgm,
    shadow_ne,
    unsharp_mask,
)

from support import rand_image


class TestSpecValidation:
    def test_unknown_op(self):
        with pytest.raises(FormatError, match="unknown op"):
            PipelineSpec([{"op": "sobel"}])

    def test_unknown_parameter(self):
        with pytest.raises(FormatError, match="does not take"):
            PipelineSpec([{"op": "negate", "gamma": 2.0}])

    def test_missing_required_parameter(self):
        with pytest.raises(FormatError, match="requires parameter"):
            PipelineSpec([{"op": "add"}])

    @pytest.mark.parametrize("stage", [
        {"op": "stretch", "gamma": -1.0},
        {"op": "stretch", "gamma": "big"},
        {"op": "unsharp", "radius": 0},
        {"op": "binarize", "threshold": 300},
        {"op": "shadow", "invert": "yes"},
        {"op": "laplacian", "variant": "sixteen"},
        {"op": "stretch", "gamma": 10**400},
        {"op": "lut", "table": ""},
        {"op": "lut", "table": "a\0b"},
        {"op": "convolve", "kernel": "k\ud800"},
    ])
    def test_bad_parameter_values(self, stage):
        with pytest.raises(FormatError):
            PipelineSpec([stage])

    @pytest.mark.parametrize("stage", [
        {"op": "stretch", "gamma": 10**400},
        {"op": "laplacian", "variant": "eight" * 1000},
    ])
    def test_huge_bad_values_give_a_short_message(self, stage):
        with pytest.raises(FormatError) as info:
            PipelineSpec([stage])
        assert len(str(info.value)) < 160

    def test_empty_pipeline_rejected(self):
        with pytest.raises(FormatError, match="at least one"):
            PipelineSpec([])

    def test_stage_must_be_object_with_op(self):
        with pytest.raises(FormatError, match="stage 1"):
            PipelineSpec(["negate"])
        with pytest.raises(FormatError, match="op"):
            PipelineSpec([{"threshold": 3}])

    def test_errors_name_the_stage(self):
        with pytest.raises(FormatError, match="stage 2"):
            PipelineSpec([{"op": "negate"}, {"op": "bogus"}])

    def test_defaults_filled_in(self):
        spec = PipelineSpec([{"op": "unsharp"}])
        assert spec.stages[0].params == {"radius": 1, "display": "clamp"}

    def test_length_and_reprs(self):
        spec = PipelineSpec([{"op": "negate"}, {"op": "binarize", "threshold": 9}])
        assert len(spec) == 2
        assert repr(spec) == "PipelineSpec(['negate', 'binarize'])"
        assert repr(spec.stages[1]) == "PipelineStage('binarize', {'threshold': 9})"


class TestParsePipeline:
    def test_json_example(self):
        spec = parse_pipeline('{"stages":[{"op":"negate"},{"op":"unsharp","radius":1}]}')
        assert [s.op for s in spec.stages] == ["negate", "unsharp"]

    def test_invalid_json(self):
        with pytest.raises(FormatError, match="JSON"):
            parse_pipeline("{stages: [")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="int() has no digit limit")
    def test_integer_with_too_many_digits_is_format_error(self):
        # json.loads raises a plain ValueError here, not a JSONDecodeError.
        with pytest.raises(FormatError, match="^pipeline spec .*too many digits") as info:
            parse_pipeline('{"stages":[{"op":"unsharp","radius":' + "9" * 5000 + "}]}")
        assert "set_int_max_str_digits" not in str(info.value)

    def test_deeply_nested_spec_is_format_error(self):
        # json.loads recurses once per level and runs out of stack first.
        for text in ("[" * 100000, '{"stages": ' + "[" * 100000):
            with pytest.raises(FormatError, match="nested too deeply"):
                parse_pipeline(text)

    def test_wrong_root_shape(self):
        with pytest.raises(FormatError, match="stages"):
            parse_pipeline('[{"op":"negate"}]')


class TestRunPipeline:
    def test_double_negate_is_identity(self):
        rng = np.random.default_rng(51)
        img = rand_image(rng)
        spec = PipelineSpec([{"op": "negate"}, {"op": "negate"}])
        assert run_pipeline(spec, img) == img

    def test_singleton_equals_direct_call(self):
        rng = np.random.default_rng(52)
        img = rand_image(rng)
        assert run_pipeline(PipelineSpec([{"op": "negate"}]), img) == negate(img)

    def test_edge_overlay_chain_equals_hand_composition(self, tmp_path):
        rng = np.random.default_rng(53)
        img = Image(rng.integers(0, 256, (12, 12), np.uint8))
        original = tmp_path / "original.pgm"
        save_pgm(original, img)

        spec = PipelineSpec([
            {"op": "edges", "threshold": 128},
            {"op": "add", "image": str(original)},
        ])
        piped = run_pipeline(spec, img)

        overlay = bits_to_image(edge_points(binarize(img, 128)))
        assert piped == image_add(overlay, img)

    def test_binarize_stage_renders_bits(self):
        rng = np.random.default_rng(54)
        img = rand_image(rng)
        out = run_pipeline(PipelineSpec([{"op": "binarize", "threshold": 100}]), img)
        assert out == bits_to_image(binarize(img, 100))

    def test_mixed_chain_equals_composition(self):
        rng = np.random.default_rng(55)
        img = Image(rng.integers(0, 256, (10, 14), np.uint8))
        spec = PipelineSpec([
            {"op": "stretch", "gamma": 0.7},
            {"op": "sharpen", "variant": "eight"},
            {"op": "unsharp", "radius": 2, "display": "rescale"},
            {"op": "shadow"},
        ])
        expected = shadow_ne(unsharp_mask(
            laplacian_sharpen(gray_stretch(img, 0.7), "eight"), 2, "rescale"))
        assert run_pipeline(spec, img) == expected

    def test_lut_and_convolve_stages_load_files(self, tmp_path):
        rng = np.random.default_rng(56)
        img = Image(rng.integers(0, 256, (9, 9), np.uint8))
        table = tmp_path / "invert.lut"
        table.write_text(" ".join(str(255 - i) for i in range(256)))
        kern = tmp_path / "lap.kern"
        kern.write_text("3 3\n0 1 0\n1 -4 1\n0 1 0\n")
        spec = PipelineSpec([
            {"op": "lut", "table": str(table)},
            {"op": "convolve", "kernel": str(kern), "display": "rescale"},
        ])
        out = run_pipeline(spec, img)
        assert (out.width, out.height) == (9, 9)

    def test_missing_stage_file_fails_before_processing(self, tmp_path):
        spec = PipelineSpec([
            {"op": "negate"},
            {"op": "add", "image": str(tmp_path / "nope.pgm")},
        ])
        with pytest.raises(OSError):
            run_pipeline(spec, Image([[0]]))

    def test_domain_error_reports_stage_index(self, tmp_path):
        rng = np.random.default_rng(57)
        other = rand_image(rng, max_side=3)
        path = tmp_path / "other.pgm"
        save_pgm(path, other)
        spec = PipelineSpec([
            {"op": "negate"},
            {"op": "add", "image": str(path)},
        ])
        wrong_size = Image(np.zeros((7, 9), dtype=np.uint8))
        with pytest.raises(DomainError, match="stage 2"):
            run_pipeline(spec, wrong_size)

    def test_overflowing_kernel_reports_stage(self, tmp_path):
        kern = tmp_path / "huge.kern"
        kern.write_text("1 3\n1e308 1e308 1e308\n")
        spec = PipelineSpec([{"op": "negate"}, {"op": "convolve", "kernel": str(kern)}])
        with pytest.raises(DomainError, match=r"stage 2 \(convolve\)"):
            run_pipeline(spec, Image(np.full((4, 4), 200, np.uint8)))
