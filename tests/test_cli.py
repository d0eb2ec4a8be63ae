import gc
import io
import json
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import grayfilt
import grayfilt._bytes
import grayfilt._swar
import grayfilt.bench
import grayfilt.cli
from grayfilt import (
    FormatError,
    Image,
    Kernel,
    apply_lut,
    bench_convolve,
    bench_image,
    binarize,
    bits_to_image,
    clamp_to_display,
    compute_histogram,
    convolve,
    correlate,
    edge_points,
    gray_stretch,
    histogram_csv,
    image_add,
    laplacian,
    laplacian_sharpen,
    load_pgm,
    negate,
    parse_kernel,
    parse_lut,
    read_pgm,
    render_histogram,
    save_pgm,
    shadow_invert,
    shadow_ne,
    unsharp_mask,
)
from grayfilt.imgio import write_pgm
from grayfilt.kinds import (
    MAX_BENCH_ITERS,
    MAX_BENCH_KSIZE,
    MAX_BENCH_SIZE,
    POSITIVE_FLOAT,
    POSITIVE_INT,
    THRESHOLD,
)
from grayfilt.pipeline import FLAG, OPS
from support import FRAME_ONE, LATER_FRAME_FAULTS, correlate_brute, rand_image, run_cli


@pytest.fixture
def sample(tmp_path):
    rng = np.random.default_rng(61)
    img = Image(rng.integers(0, 256, (12, 10), np.uint8))
    path = tmp_path / "in.pgm"
    save_pgm(path, img)
    return img, path


class TestSubcommands:
    def test_negate(self, sample, tmp_path):
        img, path = sample
        out = tmp_path / "out.pgm"
        assert run_cli(["negate", "-i", str(path), "-o", str(out)]) == 0
        assert load_pgm(out) == negate(img)

    @pytest.mark.parametrize("argv,expected", [
        (["stretch", "--gamma", "0.5"], lambda img: gray_stretch(img, 0.5)),
        (["binarize", "--threshold", "90"],
         lambda img: bits_to_image(binarize(img, 90))),
        (["edges", "--threshold", "90"],
         lambda img: bits_to_image(edge_points(binarize(img, 90)))),
        (["shadow"], shadow_ne),
        (["shadow", "--invert"], shadow_invert),
        (["sharpen", "--variant", "eight"],
         lambda img: laplacian_sharpen(img, "eight")),
        (["unsharp", "--radius", "2", "--display", "rescale"],
         lambda img: unsharp_mask(img, 2, "rescale")),
        (["laplacian", "--variant", "four", "--display", "rescale"],
         lambda img: clamp_to_display(laplacian(img, "four"), "rescale")),
    ])
    def test_filter_matches_library(self, sample, tmp_path, argv, expected):
        img, path = sample
        out = tmp_path / "out.pgm"
        assert run_cli(argv + ["-i", str(path), "-o", str(out)]) == 0
        assert load_pgm(out) == expected(img)

    def test_lut(self, sample, tmp_path):
        img, path = sample
        table = tmp_path / "neg.lut"
        table.write_text("\n".join(str(255 - i) for i in range(256)))
        out = tmp_path / "out.pgm"
        code = run_cli(["lut", "-i", str(path), "-o", str(out), "--table", str(table)])
        assert code == 0
        assert load_pgm(out) == apply_lut(img, 255 - np.arange(256))

    @pytest.mark.parametrize("border, display", [("zero", "rescale"), ("replicate", "clamp")])
    def test_convolve(self, sample, tmp_path, border, display):
        img, path = sample
        kern = tmp_path / "k.txt"
        kern.write_text("3 3\n1 2 1\n2 4 2\n1 2 1\n")
        out = tmp_path / "out.pgm"
        code = run_cli(["convolve", "-i", str(path), "-o", str(out),
                        "--kernel", str(kern), "--border", border,
                        "--display", display])
        assert code == 0
        k = parse_kernel(kern.read_text())
        assert load_pgm(out) == clamp_to_display(convolve(img, k, border), display)

    def test_negate_writes_every_frame(self, tmp_path):
        src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        src.write_bytes(b"P5\n2 1\n255\n\x01\x02" + b"P5\n2 1\n255\n\x03\x04")
        assert run_cli(["negate", "-i", str(src), "-o", str(out)]) == 0
        assert out.read_bytes() == b"P5\n2 1\n255\n\xfe\xfd" + b"P5\n2 1\n255\n\xfc\xfb"

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 16: a decimal coefficient is a double")
    def test_a_kernel_and_its_mirror_round_alike(self, tmp_path):
        # 3 * (0.141 + 0.197 + 0.162) is exactly 1.5, which rounds half away to 2.
        src, kern, out = tmp_path / "in.pgm", tmp_path / "k.txt", tmp_path / "out.pgm"
        src.write_bytes(b"P5\n1 1\n255\n\x03")
        for row in ("0.141 0.197 0.162", "0.162 0.197 0.141"):
            kern.write_text(f"1 3\n{row}\n")
            assert run_cli(["convolve", "-i", str(src), "-o", str(out), "--kernel", str(kern)]) == 0
            assert out.read_bytes() == b"P5\n1 1\n255\n\x02", row

    def test_add(self, sample, tmp_path):
        img, path = sample
        rng = np.random.default_rng(62)
        other = Image(rng.integers(0, 256, (12, 10), np.uint8))
        second = tmp_path / "second.pgm"
        save_pgm(second, other)
        out = tmp_path / "out.pgm"
        code = run_cli(["add", "-i", str(path), "-j", str(second), "-o", str(out)])
        assert code == 0
        assert load_pgm(out) == image_add(img, other)

    def test_format_p2(self, sample, tmp_path):
        img, path = sample
        out = tmp_path / "out.pgm"
        assert run_cli(["negate", "-i", str(path), "-o", str(out), "--format", "p2"]) == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P2\n")
        assert load_pgm(out) == negate(img)

    def test_histogram_csv_and_render(self, sample, tmp_path):
        img, path = sample
        csv = tmp_path / "h.csv"
        chart = tmp_path / "h.pgm"
        code = run_cli(["histogram", "-i", str(path),
                        "--csv", str(csv), "--render", str(chart)])
        assert code == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 257
        assert lines[0] == "level,count"
        assert sum(int(l.split(",")[1]) for l in lines[1:]) == img.width * img.height
        rendered = load_pgm(chart)
        assert (rendered.width, rendered.height) == (256, 100)

    def test_pipeline(self, sample, tmp_path):
        img, path = sample
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"stages": [{"op": "negate"}, {"op": "unsharp", "radius": 1}]}))
        out = tmp_path / "out.pgm"
        code = run_cli(["pipeline", "-i", str(path), "-o", str(out), "--spec", str(spec)])
        assert code == 0
        assert load_pgm(out) == unsharp_mask(negate(img), 1)

    def test_output_directory_stays_clean(self, sample, tmp_path):
        img, path = sample
        out = tmp_path / "out.pgm"
        assert run_cli(["negate", "-i", str(path), "-o", str(out)]) == 0
        assert sorted(os.listdir(tmp_path)) == ["in.pgm", "out.pgm"]


class TestBench:
    def _checksum(self, err_text):
        match = re.search(r"^checksum=(\d+)$", err_text, re.MULTILINE)
        assert match, err_text
        return int(match.group(1))

    def test_checksum_is_reproducible(self, capsys):
        argv = ["bench", "--size", "32", "--ksize", "3", "--iters", "2"]
        assert run_cli(argv) == 0
        first = self._checksum(capsys.readouterr().err)
        assert run_cli(argv) == 0
        second = self._checksum(capsys.readouterr().err)
        assert first == second

    def test_degenerate_checksum_is_the_single_pixel(self, capsys):
        assert run_cli(["bench", "--size", "1", "--ksize", "1", "--iters", "1"]) == 0
        checksum = self._checksum(capsys.readouterr().err)
        assert checksum == int(bench_image(1).pixels[0, 0])

    def test_checksum_matches_brute_force_oracle(self, capsys):
        assert run_cli(["bench", "--size", "16", "--ksize", "3", "--iters", "1"]) == 0
        checksum = self._checksum(capsys.readouterr().err)
        img = bench_image(16)
        expected = correlate_brute(img.pixels.tolist(), np.ones((3, 3)).tolist())
        assert checksum == int(sum(sum(row) for row in expected))

    def test_library_takes_numpy_integers(self):
        assert bench_convolve(8, np.int64(3), 1).endswith(
            f"checksum={self._checksum(bench_convolve(8, 3, 1))}\n")

    def test_size_is_capped_before_anything_is_allocated(self, monkeypatch, capsys):
        def no_image(size):
            raise AssertionError("the size check must come first")

        monkeypatch.setattr(grayfilt.bench, "bench_image", no_image)
        assert grayfilt.bench.BENCH_SIZE.check(MAX_BENCH_SIZE, "size") == MAX_BENCH_SIZE
        with pytest.raises(ValueError, match=r"size must be an integer in \[1, 8192\], got 8193"):
            bench_convolve(MAX_BENCH_SIZE + 1, 3, 1)
        for size in ("8193", "100000"):
            assert run_cli(["bench", "--size", size, "--iters", "1"]) == 1
            err = capsys.readouterr().err
            assert err.splitlines()[-1].endswith(f"value must be an integer in [1, 8192], got {size}")

    def test_ksize_is_capped(self, capsys):
        assert grayfilt.bench.BENCH_KSIZE.check(MAX_BENCH_KSIZE, "ksize") == MAX_BENCH_KSIZE
        with pytest.raises(ValueError, match=r"ksize must be an odd integer in \[1, 255\], got 257"):
            bench_convolve(8, MAX_BENCH_KSIZE + 2, 1)
        for ksize in ("4", "257", "9" * 40):
            assert run_cli(["bench", "--size", "8", "--ksize", ksize, "--iters", "1"]) == 1
            err = capsys.readouterr().err
            assert "value must be an odd integer in [1, 255], got" in err.splitlines()[-1]

    def test_iters_is_capped(self, capsys):
        assert grayfilt.bench.BENCH_ITERS.check(MAX_BENCH_ITERS, "iters") == MAX_BENCH_ITERS
        with pytest.raises(ValueError, match=r"iters must be an integer in \[1, 1000\], got 1001"):
            bench_convolve(8, 3, MAX_BENCH_ITERS + 1)
        for iters in ("0", "1001", "9" * 40):
            assert run_cli(["bench", "--size", "8", "--iters", iters]) == 1
            err = capsys.readouterr().err
            assert "argument --iters: value must be an integer in [1, 1000], got" in err

    @pytest.mark.parametrize("ksize,checksum", [(3, 1202278455), (9, 10820077984)])
    def test_recorded_checksums(self, ksize, checksum):
        # The engine's bit-identity record: the ones-kernel sums of the seeded
        # 1024x1024 bench image, at one worker and at two.
        for workers in (1, 2):
            assert self._checksum(bench_convolve(1024, ksize, 1, workers)) == checksum

    def test_workers_do_not_change_checksum(self, capsys):
        sums = []
        for workers in ("1", "2", "4"):
            assert run_cli(["bench", "--size", "32", "--ksize", "5",
                            "--iters", "1", "--workers", workers]) == 0
            sums.append(self._checksum(capsys.readouterr().err))
        assert len(set(sums)) == 1


class TestExitCodes:
    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code = run_cli(["negate", "-i", str(tmp_path / "nope.pgm"),
                        "-o", str(tmp_path / "out.pgm")])
        assert code == 2
        assert capsys.readouterr().err

    def test_malformed_pgm_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P9\nnot a pgm\n")
        code = run_cli(["negate", "-i", str(bad), "-o", str(tmp_path / "out.pgm")])
        assert code == 2

    def test_oversized_p2_header_is_io_error(self, tmp_path, capsys):
        # The header declares 10**10 pixels; the reader must not allocate them.
        bad = tmp_path / "huge.pgm"
        bad.write_bytes(b"P2\n100000 100000\n255\n1 2 3\n")
        code = run_cli(["negate", "-i", str(bad), "-o", str(tmp_path / "out.pgm")])
        assert code == 2
        assert "truncated raster" in capsys.readouterr().err

    def test_huge_lut_entry_is_io_error(self, tmp_path, capsys):
        img, table = tmp_path / "in.pgm", tmp_path / "huge.lut"
        save_pgm(img, Image([[0, 1]]))
        table.write_text(" ".join(["0"] * 255 + [str(10**20)]))
        code = run_cli(["lut", "-i", str(img), "-o", str(tmp_path / "out.pgm"),
                        "--table", str(table)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"grayfilt: LUT entries must lie in [0, 255], got {10**20}"]

    @pytest.mark.parametrize("command, flag", [("lut", "--table"), ("convolve", "--kernel"),
                                               ("pipeline", "--spec")])
    def test_text_input_over_the_bound_is_io_error(self, tmp_path, capsys, monkeypatch,
                                                   command, flag):
        img, text = tmp_path / "in.pgm", tmp_path / "input.txt"
        save_pgm(img, Image([[0, 1]]))
        text.write_text({"lut": " ".join(["7"] * 256), "convolve": "1 1\n2\n",
                         "pipeline": '{"stages": [{"op": "negate"}]}'}[command])
        argv = [command, "-i", str(img), "-o", str(tmp_path / "out.pgm"), flag, str(text)]
        monkeypatch.setattr(grayfilt._bytes, "TEXT_LIMIT", text.stat().st_size)
        assert run_cli(argv) == 0
        monkeypatch.setattr(grayfilt._bytes, "TEXT_LIMIT", text.stat().st_size - 1)
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"grayfilt: {text}: text input longer than {text.stat().st_size - 1} bytes"]

    def test_long_header_token_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "long.pgm"
        bad.write_bytes(b"P5 " + b"9" * 5000 + b" 1 255 x")
        code = run_cli(["negate", "-i", str(bad), "-o", str(tmp_path / "out.pgm")])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "width: too many digits in token" in line and len(line) < 120

    def test_dimension_mismatch_is_domain_error(self, tmp_path):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        save_pgm(a, Image([[0]]))
        save_pgm(b, Image([[0, 0]]))
        code = run_cli(["add", "-i", str(a), "-j", str(b), "-o", str(tmp_path / "out.pgm")])
        assert code == 3

    def test_overflowing_kernel_is_domain_error(self, tmp_path, capsys):
        img = tmp_path / "in.pgm"
        save_pgm(img, Image(np.full((4, 4), 200, np.uint8)))
        kern = tmp_path / "k.txt"
        kern.write_text("1 3\n1e308 1e308 1e308\n")
        code = run_cli(["convolve", "-i", str(img), "-o", str(tmp_path / "out.pgm"),
                        "--kernel", str(kern)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite" in err

    @pytest.mark.parametrize("text", ["", "\n1 1\n1\n"], ids=["empty", "blank-first-line"])
    def test_kernel_without_dimensions_is_format_error(self, tmp_path, capsys, text):
        img = tmp_path / "in.pgm"
        save_pgm(img, Image([[7, 9]]))
        kern = tmp_path / "k.txt"
        kern.write_text(text)
        out = tmp_path / "out.pgm"
        assert run_cli(["convolve", "-i", str(img), "-o", str(out), "--kernel", str(kern)]) == 2
        assert capsys.readouterr().err == "grayfilt: line 1: missing kernel dimensions\n"
        assert not out.exists()

    @pytest.mark.parametrize("spelled, code, message", [
        ("1e400", 2, "grayfilt: line 2: coefficient '1e400' is inf as a float: "
                     "kernel coefficients must be finite"),
        ("1e-400", 2, "grayfilt: line 2: coefficient '1e-400' is 0.0 as a float: "
                      "kernel must have at least one nonzero coefficient"),
        ("1e-400 1 0", 0, None),
    ])
    def test_a_kernel_token_a_float_misreads_is_named(self, tmp_path, capsys, spelled, code,
                                                      message):
        img = tmp_path / "in.pgm"
        save_pgm(img, Image([[7, 9], [200, 3]]))
        kern = tmp_path / "k.txt"
        kern.write_text(f"1 {len(spelled.split())}\n{spelled}\n")
        out = tmp_path / "out.pgm"
        assert run_cli(["convolve", "-i", str(img), "-o", str(out), "--kernel", str(kern)]) == code
        err = capsys.readouterr().err
        if message is None:
            # The underflowing tap reads as 0: the kernel is the identity.
            assert err == "" and load_pgm(out) == Image([[7, 9], [200, 3]])
        else:
            assert err == message + "\n" and not out.exists()

    def test_overflow_in_a_later_strip_is_one_domain_error(self, tmp_path, capsys, monkeypatch):
        # One-row strips; the first rows sum to 0, and each strip is clamped
        # to gray levels before the next one is correlated.
        monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", 4)
        pixels = np.zeros((6, 4), np.uint8)
        pixels[4:] = 200
        img = tmp_path / "in.pgm"
        save_pgm(img, Image(pixels))
        kern = tmp_path / "k.txt"
        kern.write_text("1 3\n1e308 1e308 1e308\n")
        out = tmp_path / "out.pgm"
        code = run_cli(["convolve", "-i", str(img), "-o", str(out), "--kernel", str(kern)])
        assert code == 3 and not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert line.endswith("signed image values must be finite")

    def test_huge_blur_radius_is_one_domain_error(self, sample, tmp_path, capsys):
        img, path = sample
        out = tmp_path / "out.pgm"
        code = run_cli(["unsharp", "-i", str(path), "-o", str(out), "--radius", "9" * 30])
        assert code == 3 and not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert line.endswith("window sums would not fit in 64 bits")

    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys):
        code = run_cli(["stretch", "--gamma", "-2",
                        "-i", "x.pgm", "-o", "y.pgm"])
        assert code == 1
        # --format checks itself, as every choice kind does.
        assert run_cli(["negate", "-i", "x.pgm", "-o", "y.pgm", "--format", "p7"]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.endswith("argument --format: value must be one of ('p2', 'p5'), got 'p7'")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="int() has no digit limit")
    @pytest.mark.parametrize("argv, flag", [
        (["unsharp", "-i", "x.pgm", "-o", "y.pgm", "--radius"], "--radius"),
        (["binarize", "-i", "x.pgm", "-o", "y.pgm", "--threshold"], "--threshold"),
        (["bench", "--size"], "--size"),
    ])
    def test_integer_flag_with_too_many_digits_is_one_short_usage_error(self, capsys, argv, flag):
        # int() refuses more than 4300 digits; the flag's text is echoed short.
        assert run_cli([*argv, "9" * 5000]) == 1
        err = capsys.readouterr().err
        last = err.splitlines()[-1]
        assert f"error: argument {flag}: too many digits in value '999" in last
        assert len(err) < 1000

    @pytest.mark.parametrize("path", ["a\0b.pgm", "\ud800.pgm", ""])
    @pytest.mark.parametrize("argv,flag", [
        (["negate", "-i", "{}", "-o", "y.pgm"], "-i/--input"),
        (["negate", "-i", "x.pgm", "-o", "{}"], "-o/--output"),
        (["histogram", "-i", "x.pgm", "--csv", "{}"], "--csv"),
        (["histogram", "-i", "x.pgm", "--csv", "h.csv", "--render", "{}"], "--render"),
        (["pipeline", "-i", "x.pgm", "-o", "y.pgm", "--spec", "{}"], "--spec"),
    ])
    def test_unopenable_path_is_usage_error(self, capsys, path, argv, flag):
        assert run_cli([path if arg == "{}" else arg for arg in argv]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.endswith(f"argument {flag}: value must be a file path, got {path!r}")

    @pytest.mark.parametrize("render", ["h.csv", "./sub/../h.csv", "link.csv"])
    def test_histogram_csv_and_render_on_one_file_is_usage_error(self, sample, tmp_path,
                                                                 monkeypatch, capsys, render):
        # The chart would silently replace the table; the input is never read.
        _, path = sample
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        os.symlink("h.csv", "link.csv")
        for source in (str(path), "missing.pgm"):
            assert run_cli(["histogram", "-i", source, "--csv", "h.csv", "--render", render]) == 1
            last = capsys.readouterr().err.splitlines()[-1]
            assert last.endswith("argument --render: names the same file as --csv")
            assert not (tmp_path / "h.csv").exists()

    @pytest.mark.skipif(os.name != "posix", reason="POSIX paths")
    def test_histogram_render_with_a_trailing_slash_is_another_path(self, sample, tmp_path,
                                                                   monkeypatch, capsys):
        # "h.csv/" names a directory, not the file h.csv, as -o does: the
        # table is written, and then the chart fails on its own path.
        img, path = sample
        monkeypatch.chdir(tmp_path)
        assert run_cli(["histogram", "-i", str(path), "--csv", "h.csv", "--render", "h.csv/"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "grayfilt: [Errno 20] Not a directory: 'h.csv/'"]
        assert (tmp_path / "h.csv").read_text() == histogram_csv(compute_histogram(img))

    def test_unknown_command_is_usage_error(self):
        assert run_cli(["rotate"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert run_cli(["negate"]) == 1

    def test_bad_pipeline_spec_is_format_error(self, sample, tmp_path):
        img, path = sample
        spec = tmp_path / "spec.json"
        spec.write_text('{"stages": [{"op": "warp"}]}')
        code = run_cli(["pipeline", "-i", str(path), "-o",
                        str(tmp_path / "out.pgm"), "--spec", str(spec)])
        assert code == 2

    def test_deeply_nested_spec_is_format_error(self, sample, tmp_path, capsys):
        img, path = sample
        spec = tmp_path / "spec.json"
        spec.write_text("[" * 100000)
        code = run_cli(["pipeline", "-i", str(path), "-o",
                        str(tmp_path / "out.pgm"), "--spec", str(spec)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "grayfilt: pipeline spec is nested too deeply to parse"]

    @pytest.mark.parametrize("data", [
        b"P5\n4 4\n255\n" + bytes(10),          # truncated P5 raster
        b"P2\n3 3\n255\n1 2 3 4 5 6 7 8   \n",  # one token short
        b"P2\n2 2\n255\n1 2 256 4\n",          # a token above 255
        b"P2\n2 2\n255\n1 2 x 4\n",            # a non-numeric token
        b"P2\n2 1\n255\n+7 0255\n",            # tokens only int() takes
        b"P2\n2 1\n255\n7 8\n# end\n",        # a trailing comment
        b"P2\n2 1\n255 7 8x",                  # junk joined to the last token
        b"P2\n2 1\n300\n7 8\n",                # an unsupported maxval
    ])
    def test_table_and_numpy_paths_read_inputs_alike(self, tmp_path, capsys, data):
        src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        src.write_bytes(data)
        try:
            img, error = read_pgm(data), None
        except FormatError as exc:
            img, error = None, f"grayfilt: {exc}\n"
        for command, library in (("negate", negate), ("sharpen", laplacian_sharpen)):
            code = run_cli([command, "-i", str(src), "-o", str(out)])
            if error is None:
                assert code == 0 and out.read_bytes() == write_pgm(library(img))
            else:
                assert (code, capsys.readouterr().err) == (2, error)
        outcomes = []
        for stages in ([{"op": "negate"}], [{"op": "negate"}, {"op": "sharpen"}]):
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"stages": stages}))
            code = run_cli(["pipeline", "-i", str(src), "-o", str(out), "--spec", str(spec)])
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1] == ((2, error) if error else (0, ""))

    @pytest.mark.parametrize("text", ["1 2 3", "x " * 256, "256 " * 256, "-1 " * 256])
    def test_bad_lut_file_gives_one_message_on_both_paths(self, sample, tmp_path, capsys, text):
        _, path = sample
        table = tmp_path / "bad.lut"
        table.write_text(text)
        with pytest.raises(FormatError) as info:
            parse_lut(text)
        out = str(tmp_path / "out.pgm")
        assert run_cli(["lut", "-i", str(path), "-o", out, "--table", str(table)]) == 2
        assert capsys.readouterr().err == f"grayfilt: {info.value}\n"
        for stages in ([{"op": "lut"}], [{"op": "lut"}, {"op": "sharpen"}]):
            stages[0]["table"] = str(table)
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"stages": stages}))
            assert run_cli(["pipeline", "-i", str(path), "-o", out, "--spec", str(spec)]) == 2
            assert capsys.readouterr().err == f"grayfilt: stage 1 (lut): {info.value}\n"

    @pytest.mark.parametrize("command", ["negate", "sharpen"])
    def test_output_in_a_missing_directory_names_the_output(self, sample, tmp_path,
                                                              capsys, command):
        _, path = sample
        out = str(tmp_path / "nodir" / "out.pgm")
        assert run_cli([command, "-i", str(path), "-o", out]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"grayfilt: [Errno 2] No such file or directory: {out!r}"]

    @pytest.mark.skipif(os.name != "posix", reason="POSIX paths")
    def test_output_with_a_trailing_slash_is_not_a_file(self, sample, tmp_path, capsys):
        # "out.pgm/" names a directory that does not exist, as in a shell
        # redirection; the file "out.pgm" is not written in its place.
        _, path = sample
        out = str(tmp_path / "out.pgm") + "/"
        assert run_cli(["negate", "-i", str(path), "-o", out]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"grayfilt: [Errno 2] No such file or directory: {out!r}"]
        assert os.listdir(tmp_path) == ["in.pgm"]

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    @pytest.mark.parametrize("command", ["negate", "sharpen"])
    def test_rewritten_output_keeps_its_mode(self, sample, tmp_path, command):
        _, path = sample
        out = tmp_path / "out.pgm"
        previous = os.umask(0o022)
        try:
            assert run_cli([command, "-i", str(path), "-o", str(out)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644  # new: 0o666 less the umask
        out.write_bytes(b"old")
        out.chmod(0o600)
        assert run_cli([command, "-i", str(path), "-o", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert out.read_bytes() != b"old"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("command", ["negate", "sharpen"])
    def test_fifo_output_is_written_in_place(self, sample, tmp_path, command):
        # Renaming a temp file over the FIFO would leave a regular file and
        # send the reader nothing.
        _, path = sample
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        expected = tmp_path / "expected.pgm"
        assert run_cli([command, "-i", str(path), "-o", str(expected)]) == 0
        # Held open for reading and writing (Linux), so neither end's open
        # blocks, and the reader sees end of file only once it is closed.
        held = os.open(fifo, os.O_RDWR)
        got = []
        with open(fifo, "rb") as fh:
            reader = threading.Thread(target=lambda: got.append(fh.read()))
            reader.start()
            try:
                assert run_cli([command, "-i", str(path), "-o", str(fifo)]) == 0
            finally:
                os.close(held)
                reader.join(timeout=60)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert got == [expected.read_bytes()]
        assert sorted(os.listdir(tmp_path)) == ["expected.pgm", "in.pgm", "out.fifo"]

    def test_pipeline_dimension_mismatch_is_domain_error(self, sample, tmp_path):
        img, path = sample
        other = tmp_path / "other.pgm"
        save_pgm(other, Image([[1]]))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"stages": [{"op": "add", "image": str(other)}]}))
        code = run_cli(["pipeline", "-i", str(path), "-o",
                        str(tmp_path / "out.pgm"), "--spec", str(spec)])
        assert code == 3


@pytest.mark.skipif(os.name != "posix", reason="POSIX symlinks and file modes")
class TestOutputLinks:
    """An output path that is a symlink is followed, as with ``cp``: its
    target is written in the target's own directory and the link stays."""

    #: A command line per output flag; "{out}" is the output under test.
    ARGV = {"-o": ["negate", "-i", "{in}", "-o", "{out}"],
            "--csv": ["histogram", "-i", "{in}", "--csv", "{out}"],
            "--render": ["histogram", "-i", "{in}", "--csv", "{csv}", "--render", "{out}"]}

    @pytest.fixture(params=list(ARGV))
    def write(self, request, sample, tmp_path):
        """(run, expected): ``run(out)`` runs the flag's command line with
        ``out`` as its output and returns the exit code; ``expected`` is
        the output's bytes written to a plain path."""
        _, path = sample
        (tmp_path / "sub").mkdir()

        def run(out):
            names = {"{in}": str(path), "{out}": str(out), "{csv}": str(tmp_path / "h.csv")}
            return run_cli([names.get(arg, arg) for arg in self.ARGV[request.param]])

        assert run(tmp_path / "expected.out") == 0
        return run, (tmp_path / "expected.out").read_bytes()

    def test_link_to_a_regular_file_keeps_the_link_and_the_mode(self, write, tmp_path):
        run, expected = write
        real = tmp_path / "sub" / "real.out"
        real.write_bytes(b"old")
        real.chmod(0o600)
        link = tmp_path / "link.out"
        link.symlink_to(os.path.join("sub", "real.out"))
        assert run(link) == 0
        assert os.readlink(link) == os.path.join("sub", "real.out")
        assert real.read_bytes() == expected
        assert stat.S_IMODE(real.stat().st_mode) == 0o600
        assert os.listdir(tmp_path / "sub") == ["real.out"]

    def test_dangling_link_creates_its_target(self, write, tmp_path):
        run, expected = write
        link = tmp_path / "link.out"
        link.symlink_to(os.path.join("sub", "new.out"))
        assert run(link) == 0
        assert os.readlink(link) == os.path.join("sub", "new.out")
        assert (tmp_path / "sub" / "new.out").read_bytes() == expected
        assert os.listdir(tmp_path / "sub") == ["new.out"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_link_to_a_fifo_is_written_through(self, write, tmp_path):
        run, expected = write
        fifo = tmp_path / "sub" / "out.fifo"
        os.mkfifo(fifo)
        link = tmp_path / "link.out"
        link.symlink_to(fifo)
        held = os.open(fifo, os.O_RDWR)  # as in the FIFO test above: no open blocks
        got = []
        with open(fifo, "rb") as fh:
            reader = threading.Thread(target=lambda: got.append(fh.read()))
            reader.start()
            try:
                assert run(link) == 0
            finally:
                os.close(held)
                reader.join(timeout=60)
        assert link.is_symlink() and stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert got == [expected]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_dev_fd_pipe_is_written_through(self, write):
        # /dev/fd/N is a magic link that reads as "pipe:[ino]", which
        # os.path.realpath cannot resolve; the pipe is opened as given.
        run, expected = write
        r, w = os.pipe()
        got = []
        with open(r, "rb") as fh:
            reader = threading.Thread(target=lambda: got.append(fh.read()))
            reader.start()
            try:
                assert run(f"/dev/fd/{w}") == 0
            finally:
                os.close(w)
                reader.join(timeout=60)
        assert got == [expected]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_in_place_names_the_output(self, write, capsys):
        run, _ = write
        capsys.readouterr()
        assert run("/dev/full") == 2
        assert capsys.readouterr().err.splitlines() == [
            "grayfilt: [Errno 28] No space left on device: '/dev/full'"]

    def test_link_loop_is_refused(self, write, tmp_path, capsys):
        run, _ = write
        loop = tmp_path / "loop.out"
        loop.symlink_to("loop.out")
        capsys.readouterr()
        assert run(loop) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"grayfilt: [Errno 40] Too many levels of symbolic links: {str(loop)!r}"]
        assert loop.is_symlink()


class TestInputBuffer:
    """A CLI process reads its input into one buffer, and a P5 raster is
    that buffer with the header and any bytes after the raster cut off in
    place, whichever engine then runs (the bytes engine, or numpy when its
    cut is 0). A FIFO has no size to read into, so its buffer grows."""

    COMMANDS = [(["negate"], negate), (["sharpen", "--variant", "eight"],
                                       lambda img: laplacian_sharpen(img, "eight")),
                (["shadow", "--invert"], shadow_invert),
                (["unsharp", "--radius", "2"], lambda img: unsharp_mask(img, 2)),
                (["edges", "--threshold", "90"],
                 lambda img: bits_to_image(edge_points(binarize(img, 90))))]

    @pytest.fixture(params=[None, 0], ids=["bytes-first", "numpy"])
    def cut(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(grayfilt._swar, "_CUT", request.param)

    @pytest.mark.parametrize("argv, library", COMMANDS, ids=[c[0][0] for c in COMMANDS])
    def test_p5_with_bytes_after_the_raster(self, sample, tmp_path, cut, argv, library):
        img, path = sample
        src, out = tmp_path / "trailing.pgm", tmp_path / "out.pgm"
        src.write_bytes(path.read_bytes() + b"\n# end\n\x00\xff" * 3)
        assert run_cli([argv[0], "-i", str(src), "-o", str(out), *argv[1:]]) == 0
        assert out.read_bytes() == write_pgm(library(img))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("argv, library", COMMANDS, ids=[c[0][0] for c in COMMANDS])
    @pytest.mark.parametrize("fmt", ["P5", "P2"])
    def test_fifo_input(self, tmp_path, cut, argv, library, fmt):
        # Larger than a pipe's 64 KiB buffer, so it arrives in several reads;
        # a P2 spans many of the decoder's 16 KiB pieces.
        rng = np.random.default_rng(62)
        img = Image(rng.integers(0, 256, (300, 301), np.uint8))
        fifo, out = tmp_path / "in.fifo", tmp_path / "out.pgm"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(write_pgm(img, fmt) + b"# end\n")

        # A daemon: if the command fails before it opens the FIFO, the
        # writer stays blocked in open() and must not hold up the exit.
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            assert run_cli([argv[0], "-i", str(fifo), "-o", str(out), *argv[1:]]) == 0
        finally:
            writer.join(timeout=60)
        assert out.read_bytes() == write_pgm(library(img))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_input_one_byte_a_write(self, tmp_path, cut):
        # The buffer grows at 1, 2, 4, 8 and 16 bytes, each time judging the
        # header so far: it ends inside the magic, the comment, and the 25 of
        # 255. None of these refuses the header, which is judged only up to
        # its last whitespace byte.
        img = Image(np.random.default_rng(64).integers(0, 256, (5, 7), np.uint8))
        data = b"P5\n# a cm\n7 5\n255\n" + img.pixels.tobytes()
        assert data[14:16] == b"25"
        fifo, out = tmp_path / "in.fifo", tmp_path / "out.pgm"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb", buffering=0) as fh:
                for k in range(len(data)):
                    fh.write(data[k:k + 1])
                    time.sleep(0.001)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            assert run_cli(["sharpen", "-i", str(fifo), "-o", str(out)]) == 0
        finally:
            writer.join(timeout=60)
        assert out.read_bytes() == write_pgm(laplacian_sharpen(img))


class TestFrames:
    """A command reads every frame of its input, whichever engine runs: a
    filter writes each frame's output in turn, histogram counts every frame,
    and a fault in any frame leaves no output."""

    @pytest.fixture(params=[None, 0], ids=["bytes-first", "numpy"])
    def cut(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(grayfilt._swar, "_CUT", request.param)

    @pytest.fixture
    def stream(self, tmp_path):
        rng = np.random.default_rng(66)
        images = [Image(rng.integers(0, 256, (12, 10), np.uint8)),
                  Image(rng.integers(0, 256, (7, 9), np.uint8))]
        src = tmp_path / "in.pgm"
        src.write_bytes(write_pgm(images[0], "P5") + write_pgm(images[1], "P2"))
        return images, src

    @pytest.mark.parametrize("argv, library, fmt", [
        (["negate"], negate, "P5"),
        (["sharpen", "--variant", "eight", "--format", "p2"],
         lambda img: laplacian_sharpen(img, "eight"), "P2"),
        (["pipeline", "--spec", "spec.json"],
         lambda img: laplacian_sharpen(negate(img), "eight"), "P5"),
    ], ids=["negate", "sharpen", "pipeline"])
    def test_a_filter_writes_every_frame(self, tmp_path, cut, stream, argv, library, fmt):
        images, src = stream
        (tmp_path / "spec.json").write_text(
            '{"stages": [{"op": "negate"}, {"op": "sharpen", "variant": "eight"}]}')
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        out = tmp_path / "out.pgm"
        assert run_cli([argv[0], "-i", str(src), "-o", str(out), *argv[1:]]) == 0
        assert out.read_bytes() == b"".join(write_pgm(library(img), fmt) for img in images)

    def test_histogram_counts_every_frame(self, tmp_path, cut, stream):
        images, src = stream
        csv, chart = tmp_path / "h.csv", tmp_path / "h.pgm"
        assert run_cli(["histogram", "-i", str(src), "--csv", str(csv),
                        "--render", str(chart)]) == 0
        pixels = np.concatenate([img.pixels.ravel() for img in images])
        both = compute_histogram(Image(pixels[None]))
        assert csv.read_text() == histogram_csv(both)
        assert load_pgm(chart) == render_histogram(both)

    @pytest.mark.parametrize("argv", [["negate", "-o"], ["histogram", "--csv"]],
                             ids=["negate", "histogram"])
    @pytest.mark.parametrize("second, message", LATER_FRAME_FAULTS)
    def test_a_fault_in_frame_two_leaves_no_output(self, tmp_path, cut, capsys, argv, second,
                                                   message):
        src, out = tmp_path / "in.pgm", tmp_path / "out"
        src.write_bytes(FRAME_ONE + second)
        out.write_bytes(b"old")
        capsys.readouterr()
        assert run_cli([argv[0], "-i", str(src), argv[1], str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"grayfilt: frame 2: {message}"]
        assert out.read_bytes() == b"old"
        assert sorted(os.listdir(tmp_path)) == ["in.pgm", "out"]

    @pytest.mark.parametrize("argv, stage", [
        (["add", "-j", "{j}"], ""),
        (["pipeline", "--spec", "{spec}"], "stage 2 (add): "),
    ], ids=["add", "pipeline"])
    @pytest.mark.parametrize("sizes, frame", [((2, 3), "frame 2: "), ((3, 2), "")],
                             ids=["frame-two", "frame-one"])
    def test_a_domain_error_names_its_frame_past_the_first(self, tmp_path, cut, capsys,
                                                           argv, stage, sizes, frame):
        src, j, out = tmp_path / "in.pgm", tmp_path / "j.pgm", tmp_path / "out.pgm"
        src.write_bytes(b"".join(write_pgm(Image([[7] * w]), "P5") for w in sizes))
        j.write_bytes(write_pgm(Image([[1, 2]]), "P5"))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"stages": [{"op": "negate"}, {"op": "add", "image": str(j)}]}))
        out.write_bytes(b"old")
        argv = [{"{j}": str(j), "{spec}": str(spec)}.get(a, a) for a in argv]
        capsys.readouterr()
        assert run_cli([argv[0], "-i", str(src), "-o", str(out), *argv[1:]]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"grayfilt: {frame}{stage}cannot add images of different sizes: 3x1 vs 2x1"]
        assert out.read_bytes() == b"old"
        assert sorted(os.listdir(tmp_path)) == ["in.pgm", "j.pgm", "out.pgm", "spec.json"]


class TestCollector:
    """An in-process ``main`` pauses the cyclic collector while the command
    runs and leaves it as it found it on every exit path."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        enabled, threshold = gc.isenabled(), gc.get_threshold()
        (gc.enable if request.param else gc.disable)()
        gc.set_threshold(650, 11, 9)
        yield request.param, (650, 11, 9)
        (gc.enable if enabled else gc.disable)()
        gc.set_threshold(*threshold)

    @pytest.mark.parametrize("argv, code", [
        (["negate", "-i", "{in}", "-o", "{out}"], 0),
        (["negate", "-i", "{in}", "-o", "{out}", "--format", "p7"], 1),
        (["negate", "-i", "{missing}", "-o", "{out}"], 2),
        (["add", "-i", "{in}", "-j", "{one}", "-o", "{out}"], 3),
        (["histogram", "-i", "{in}", "--csv", "{out}", "--render", "{out}"], 1),
        (["sharpen", "-i", "{in}", "-o", "{out}", "--variant", "eight"], 0),
    ])
    def test_main_leaves_the_collector_as_it_found_it(self, sample, tmp_path, capsys,
                                                      collector, argv, code):
        _, path = sample
        one = tmp_path / "one.pgm"
        save_pgm(one, Image([[1]]))
        names = {"{in}": str(path), "{out}": str(tmp_path / "out.pgm"), "{one}": str(one),
                 "{missing}": str(tmp_path / "missing.pgm")}
        enabled, threshold = collector
        paused = []
        real_handler = grayfilt.cli._cmd_filter

        def handler(args):
            paused.append(gc.isenabled())
            return real_handler(args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grayfilt.cli, "_cmd_filter", handler)
            assert run_cli([names.get(arg, arg) for arg in argv]) == code
        assert (gc.isenabled(), gc.get_threshold()) == (enabled, threshold)
        assert paused == ([] if code == 1 else [False])

    def test_an_in_process_call_changes_no_process_state(self, tmp_path):
        # A fresh child, so that no earlier call has registered or frozen
        # anything: two calls, one of them loading numpy, leave the exit
        # hooks, the frozen heap and the collector as the caller set them.
        path = tmp_path / "in.pgm"
        save_pgm(path, Image([[0, 20, 40, 60], [80, 100, 120, 140], [160, 180, 200, 220]]))
        argvs = [["negate", "-i", str(path), "-o", str(tmp_path / "negate.pgm")],
                 ["unsharp", "-i", str(path), "-o", str(tmp_path / "unsharp.pgm")]]
        code = """if True:
            import atexit, gc, json, sys
            from grayfilt.cli import main
            gc.set_threshold(650, 11, 9)
            state = lambda: [atexit._ncallbacks(), gc.get_freeze_count(), gc.isenabled(),
                             gc.get_threshold()]
            before = state()
            codes = [main(argv) for argv in json.loads(sys.argv[1])]
            print(json.dumps([codes, "numpy" in sys.modules, before == state()]))
            """
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, 0], True, True]


class TestProcessLevel:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "grayfilt.cli", *argv],
            capture_output=True, timeout=120)

    def test_success_keeps_stdout_empty(self, tmp_path):
        rng = np.random.default_rng(63)
        img = rand_image(rng)
        path = tmp_path / "in.pgm"
        save_pgm(path, img)
        out = tmp_path / "out.pgm"
        proc = self._run("negate", "-i", str(path), "-o", str(out))
        assert proc.returncode == 0
        assert proc.stdout == b""
        assert proc.stderr == b""
        assert load_pgm(out) == negate(img)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux /proc/self/fd")
    def test_descriptor_outputs_keep_the_shells_offset_and_append_mode(self, tmp_path):
        # /dev/stdout and /dev/fd/1 name the shell's descriptor: two commands
        # and an echo in one `>` group follow one another in one file, and
        # `>>` keeps what the file held. No temp or replaced file is left.
        a, b = Image([[7, 8, 9]]), Image([[200], [100]])
        save_pgm(tmp_path / "a.pgm", a)
        save_pgm(tmp_path / "b.pgm", b)
        (tmp_path / "log.txt").write_bytes(b"earlier\n")
        cli = f"{shlex.quote(sys.executable)} -m grayfilt.cli"
        script = (f"{{ {cli} negate -i a.pgm -o /dev/stdout && "
                  f"{cli} negate -i b.pgm -o /dev/fd/1 && echo end; }} > cine.pgm && "
                  f"{cli} histogram -i a.pgm --csv /dev/stdout >> log.txt")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(grayfilt.__file__))}
        proc = subprocess.run(["sh", "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert (tmp_path / "cine.pgm").read_bytes() == (
            write_pgm(negate(a)) + write_pgm(negate(b)) + b"end\n")
        assert (tmp_path / "log.txt").read_bytes() == (
            b"earlier\n" + histogram_csv(compute_histogram(a)).encode("ascii"))
        assert sorted(os.listdir(tmp_path)) == ["a.pgm", "b.pgm", "cine.pgm", "log.txt"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux /proc/self/fd")
    @pytest.mark.parametrize("csv, render", [("/dev/stdout", "/dev/stderr"),
                                             ("/dev/fd/1", "/dev/fd/2")], ids=["dev", "fd"])
    @pytest.mark.parametrize("sink", ["file", "pipe"])
    def test_histogram_to_two_descriptors_on_one_file(self, sample, tmp_path, csv, render,
                                                      sink):
        # Two descriptors are two outputs, even with stderr joined to stdout
        # (2>&1): each is written through at its offset, the table and then the chart.
        img, path = sample
        argv = [sys.executable, "-m", "grayfilt.cli", "histogram", "-i", str(path),
                "--csv", csv, "--render", render]
        with open(tmp_path / "both.out", "w+b") as fh:
            proc = subprocess.run(argv, stdout=fh if sink == "file" else subprocess.PIPE,
                                  stderr=subprocess.STDOUT, timeout=120)
            fh.seek(0)
            written = fh.read() if sink == "file" else proc.stdout
        counts = compute_histogram(img)
        assert proc.returncode == 0
        assert written == (histogram_csv(counts).encode("ascii")
                           + write_pgm(render_histogram(counts)))

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux /proc/self/fd")
    @pytest.mark.parametrize("sink", ["file", "pipe"])
    def test_histogram_to_one_descriptor_twice(self, sample, tmp_path, sink):
        # `--csv /dev/stdout --render /dev/stdout`: both outputs go through
        # the one descriptor at its offset, the table and then the chart, so
        # neither is lost, on a file as on a pipe.
        img, path = sample
        argv = [sys.executable, "-m", "grayfilt.cli", "histogram", "-i", str(path),
                "--csv", "/dev/stdout", "--render", "/dev/stdout"]
        with open(tmp_path / "both.out", "w+b") as fh:
            proc = subprocess.run(argv, stdout=fh if sink == "file" else subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=120)
            fh.seek(0)
            written = fh.read() if sink == "file" else proc.stdout
        counts = compute_histogram(img)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert written == (histogram_csv(counts).encode("ascii")
                           + write_pgm(render_histogram(counts)))

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_histogram_to_dev_null_twice(self, sample):
        # A device is written in place, never replaced: naming it twice loses nothing.
        _, path = sample
        proc = self._run("histogram", "-i", str(path), "--csv", "/dev/null",
                         "--render", "/dev/null")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_histogram_to_one_fifo_twice(self, sample, tmp_path):
        # A FIFO is written in place too: its reader gets the table and then the chart.
        img, path = sample
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        held = os.open(fifo, os.O_RDWR)  # as in the FIFO output tests: no open blocks
        got = []
        with open(fifo, "rb") as fh:
            reader = threading.Thread(target=lambda: got.append(fh.read()))
            reader.start()
            try:
                proc = self._run("histogram", "-i", str(path), "--csv", str(fifo),
                                 "--render", str(fifo))
            finally:
                os.close(held)
                reader.join(timeout=60)
        counts = compute_histogram(img)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert got == [histogram_csv(counts).encode("ascii") + write_pgm(render_histogram(counts))]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux /proc/self/fd")
    @pytest.mark.parametrize("csv, render", [("/dev/stdout", "out.pgm"),
                                             ("out.pgm", "/dev/stdout"),
                                             ("/dev/fd/1", "link.pgm")],
                             ids=["csv-descriptor", "render-descriptor", "fd-and-link"])
    def test_histogram_descriptor_and_path_on_one_file_is_usage_error(self, sample, tmp_path,
                                                                      csv, render):
        # `--csv /dev/stdout --render out.pgm > out.pgm`: the rename of out.pgm
        # would take the file from the descriptor, and one output with it.
        # Neither input is read: a missing one exits 1 too.
        _, path = sample
        os.symlink("out.pgm", tmp_path / "link.pgm")
        csv, render = (str(tmp_path / p) if p.endswith(".pgm") else p for p in (csv, render))
        for source in (str(path), str(tmp_path / "missing.pgm")):
            with open(tmp_path / "out.pgm", "wb") as fh:
                proc = subprocess.run([sys.executable, "-m", "grayfilt.cli", "histogram", "-i",
                                       source, "--csv", csv, "--render", render],
                                      stdout=fh, stderr=subprocess.PIPE, timeout=120)
            assert proc.returncode == 1
            assert proc.stderr.splitlines()[-1].endswith(
                b"argument --render: names the same file as --csv")
            assert (tmp_path / "out.pgm").read_bytes() == b""
            assert sorted(os.listdir(tmp_path)) == ["in.pgm", "link.pgm", "out.pgm"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux /proc/self/fd")
    def test_read_only_descriptor_output_is_refused_not_replaced(self, tmp_path):
        # /dev/stdin on a file names a read-only descriptor: the write fails,
        # and the file behind it is not replaced.
        path = tmp_path / "in.pgm"
        save_pgm(path, Image([[7, 8]]))
        before = path.read_bytes()
        with open(path, "rb") as fh:
            proc = subprocess.run([sys.executable, "-m", "grayfilt.cli", "negate", "-i",
                                   str(path), "-o", "/dev/stdin"], stdin=fh,
                                  capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode().splitlines() == [
            "grayfilt: [Errno 9] Bad file descriptor: '/dev/stdin'"]
        assert path.read_bytes() == before and os.listdir(tmp_path) == ["in.pgm"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux /proc/self/fd")
    @pytest.mark.parametrize("out", ["/dev/fd/01", "/proc/self/fd/01", "/dev/fd/\u0661",
                                     "/dev/fd/\u00b2", "/dev/fd/2147483648"])
    def test_descriptor_names_the_kernel_does_not_write_are_paths(self, tmp_path,
                                                                  monkeypatch, out):
        # Only N as the kernel writes it (ASCII digits, no leading zero, a C
        # int) names a descriptor. Any other name is an ordinary path, and
        # these do not exist: the write fails and nothing reaches stdout.
        monkeypatch.setenv("PYTHONUTF8", "1")
        path = tmp_path / "in.pgm"
        save_pgm(path, Image([[7, 8]]))
        proc = self._run("negate", "-i", str(path), "-o", out)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode().splitlines() == [
            f"grayfilt: [Errno 2] No such file or directory: {out!r}"]
        assert os.listdir(tmp_path) == ["in.pgm"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux RLIMIT_FSIZE")
    @pytest.mark.parametrize("flag, argv", [("-o", ["negate"]), ("-o", ["sharpen"]),
                                            ("--csv", ["histogram"])],
                             ids=["negate", "sharpen", "histogram-csv"])
    def test_failed_write_to_a_new_file_names_the_output(self, tmp_path, flag, argv):
        # CPython ignores SIGXFSZ, so a write past the child's file size
        # limit raises EFBIG. The 4 KiB raster and the 1679-byte table each
        # pass the 1 KiB limit part way through.
        path, out = tmp_path / "in.pgm", str(tmp_path / "new.out")
        save_pgm(path, Image(np.random.default_rng(65).integers(0, 256, (64, 64), np.uint8)))
        proc = self._run_limited([*argv, "-i", str(path), flag, out], limit="RLIMIT_FSIZE",
                                 size=1024)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode().splitlines() == [
            f"grayfilt: [Errno 27] File too large: {out!r}"]
        assert os.listdir(tmp_path) == ["in.pgm"]

    def test_usage_error_goes_to_stderr(self):
        proc = self._run("stretch", "--gamma", "zero")
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert b"error" in proc.stderr

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="int() has no digit limit")
    def test_spec_integer_with_too_many_digits_is_one_line_io_error(self, tmp_path):
        path, spec = tmp_path / "in.pgm", tmp_path / "spec.json"
        save_pgm(path, Image([[7]]))
        spec.write_text('{"stages":[{"op":"unsharp","radius":' + "9" * 5000 + "}]}")
        proc = self._run("pipeline", "-i", str(path), "-o", str(tmp_path / "out.pgm"),
                         "--spec", str(spec))
        assert proc.returncode == 2 and b"Traceback" not in proc.stderr
        (line,) = proc.stderr.decode().splitlines()
        assert line.startswith("grayfilt: pipeline spec") and "too many digits" in line

    @staticmethod
    def _run_limited(argv, stdin=None, limit="RLIMIT_AS", size=2**28):
        # The child caps its own resource ``limit`` before the command runs:
        # its address space by default, so an unbounded read fails there,
        # not on the host.
        pytest.importorskip("resource")
        code = ("import resource, sys; "
                f"resource.setrlimit(resource.{limit}, ({size}, {size})); "
                "from grayfilt.cli import main; sys.exit(main(sys.argv[1:]))")
        return subprocess.run([sys.executable, "-c", code, *argv], stdin=stdin,
                              capture_output=True, timeout=120)

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    @pytest.mark.parametrize("argv", [["lut", "--table", "/dev/zero"],
                                      ["pipeline", "--spec", "/dev/zero"],
                                      ["convolve", "--kernel", "/dev/zero"],
                                      ["negate", "-i", "/dev/zero"]], ids=lambda argv: argv[0])
    def test_endless_input_under_a_memory_limit_is_one_line_io_error(self, tmp_path, argv):
        # A text input stops at its 16 MiB bound, an image at its bad magic.
        save_pgm(tmp_path / "in.pgm", Image([[7, 8]]))
        if argv[0] == "negate":
            message = "grayfilt: bad magic b'\\x00\\x00' at byte 0: expected P2 or P5"
        else:
            message = f"grayfilt: /dev/zero: text input longer than {2**24} bytes"
            argv = [*argv, "-i", str(tmp_path / "in.pgm")]
        proc = self._run_limited([*argv, "-o", str(tmp_path / "out.pgm")])
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode().splitlines() == [message]
        assert os.listdir(tmp_path) == ["in.pgm"]

    def _feed_endless(self, tmp_path, head, body):
        """Run ``negate`` in a memory-capped child on ``head`` and then
        ``body`` repeated forever, piped to its /dev/stdin, to ``out.pgm``
        in ``tmp_path``; return the finished child."""
        if not os.path.exists("/dev/stdin"):
            pytest.skip("needs /dev/stdin")
        code = f"import os\nos.write(1, {head!r})\nwhile True: os.write(1, {body * 4096!r})"
        writer = subprocess.Popen([sys.executable, "-c", code],
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with writer:
            try:
                proc = self._run_limited(["negate", "-i", "/dev/stdin", "-o",
                                          str(tmp_path / "out.pgm")], writer.stdout)
            finally:
                writer.kill()
        return proc

    def _endless(self, tmp_path, head, body):
        """The stderr lines of :meth:`_feed_endless`'s child, once it has
        exited 2 with no stdout and no file."""
        proc = self._feed_endless(tmp_path, head, body)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert os.listdir(tmp_path) == []
        return proc.stderr.decode().splitlines()

    def test_endless_pgm_under_a_memory_limit_runs_out_of_memory(self, tmp_path):
        # An input whose header comment never ends is read until the child's
        # cap: one line and exit 2, no traceback and no file.
        assert self._endless(tmp_path, b"P2\n#", b"a") == ["grayfilt: out of memory"]

    def test_endless_input_stops_at_its_refused_header(self, tmp_path):
        # The width token P5 refuses the header a byte after the magic: the
        # read stops there, under the same cap, long before memory runs out.
        assert self._endless(tmp_path, b"", b"P5\n") == [
            "grayfilt: width: non-numeric token b'P5' at byte 3"]

    def test_endless_input_stops_at_the_last_pixel_of_a_p5(self, tmp_path):
        # Once a P5 header has passed, the read ends with the raster: the
        # zeros after it are never read, under the same cap, and the image
        # is written.
        pixels = bytes(range(8))
        proc = self._feed_endless(tmp_path, b"P5\n4 2\n255\n" + pixels, b"\0")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert os.listdir(tmp_path) == ["out.pgm"]
        img = Image(np.frombuffer(pixels, np.uint8).reshape(2, 4))
        assert (tmp_path / "out.pgm").read_bytes() == write_pgm(negate(img))

    def test_endless_input_stops_at_the_last_token_of_a_p2(self, tmp_path):
        # Once a P2 header has passed, the read ends at the first buffer fill
        # after the width*height-th token has a whitespace byte after it: the
        # tokens after it are never read, under the same cap.
        proc = self._feed_endless(tmp_path, b"P2\n2 1\n255\n1 2\n", b"0 ")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert os.listdir(tmp_path) == ["out.pgm"]
        assert (tmp_path / "out.pgm").read_bytes() == write_pgm(negate(Image([[1, 2]])))

    def test_the_heap_is_frozen_at_exit(self, tmp_path):
        # The process's own command registers no exit hook, and one
        # registered before it sees the heap frozen and the collector on.
        path = tmp_path / "in.pgm"
        save_pgm(path, Image([[7, 8]]))
        code = ("import atexit, gc, sys; from grayfilt.cli import main; "
                "atexit.register(lambda: print(gc.get_freeze_count() > 0, gc.isenabled())); "
                "before = atexit._ncallbacks(); code = main(); "
                "print(atexit._ncallbacks() - before); sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", code, "negate", "-i", str(path),
                               "-o", str(tmp_path / "out.pgm")], capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"0\nTrue True\n", b"")

    @pytest.mark.parametrize("argv, code", [
        (["unsharp", "-i", "{in}", "-o", "{out}"], 0),
        (["unsharp", "-i", "{in}", "-o", "{out}", "--radius", "0"], 1),
        (["unsharp", "-i", "{missing}", "-o", "{out}"], 2),
        (["add", "-i", "{in}", "-j", "{one}", "-o", "{out}"], 3),
    ])
    def test_the_command_freezes_the_heap_as_it_returns(self, tmp_path, argv, code):
        # The process's own command leaves the heap frozen and the collector
        # on at exit, on every exit path. Once a handler has returned, no
        # collection starts: after an op that loads numpy, a pass over the
        # ~21,500 objects its import left would. The probe reports on
        # stderr's last line, since stdout must stay empty.
        path, one = tmp_path / "in.pgm", tmp_path / "one.pgm"
        save_pgm(path, Image([[0, 20, 40, 60], [80, 100, 120, 140], [160, 180, 200, 220]]))
        save_pgm(one, Image([[1]]))
        names = {"{in}": str(path), "{out}": str(tmp_path / "out.pgm"), "{one}": str(one),
                 "{missing}": str(tmp_path / "missing.pgm")}
        probe = """if True:
            import atexit, gc, json, sys
            import grayfilt.cli as cli
            returned, starts = [], []
            gc.callbacks.append(
                lambda phase, info: returned and phase == "start" and starts.append(info))
            def handler(args, real=cli._cmd_filter):
                try:
                    return real(args)
                finally:
                    returned.append(True)
            cli._cmd_filter = handler
            atexit.register(lambda: print(json.dumps(
                [returned, starts, gc.get_freeze_count() > 0, gc.isenabled(),
                 "numpy" in sys.modules]), file=sys.stderr))
            sys.exit(cli.main())
            """
        proc = subprocess.run([sys.executable, "-c", probe, *(names.get(a, a) for a in argv)],
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (code, b"")
        assert json.loads(proc.stderr.splitlines()[-1]) == [
            [] if code == 1 else [True], [], True, True, code == 0]

    def test_startup_skips_unneeded_imports(self):
        # Threads, pipelines, the bench report and every handler import these
        # when they run.
        lazy = ("concurrent.futures", "json", "statistics", "numpy")
        code = ("import sys; lazy = %r; before = {m for m in lazy if m in sys.modules}; "
                "import grayfilt.cli; print(sorted(set(lazy) & set(sys.modules) - before))"
                % (lazy,))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"[]\n"

    def test_front_end_exits_without_numpy(self):
        # The command lines run in turn in one fresh interpreter; numpy must
        # still be absent after each, since only a subcommand handler loads it.
        helps = [["--version"], ["--help"]] + [
            [command, "--help"] for command in [*OPS, "histogram", "pipeline", "bench"]]
        usage_errors = [["sharpen", "-o", "y.pgm"],
                        ["sharpen", "-i", "x.pgm", "-o", "y.pgm", "--variant", "six"],
                        ["binarize", "-i", "x.pgm", "-o", "y.pgm", "--threshold", "300"]]
        code = """if True:
            import contextlib, io, json, sys
            from grayfilt.cli import main
            seen = []
            for argv in json.loads(sys.argv[1]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    try:
                        main(argv)
                        code = None
                    except SystemExit as exc:
                        code = exc.code
                seen.append([code, "numpy" in sys.modules])
            print(json.dumps(seen))
            """
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(helps + usage_errors)],
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, False]] * len(helps) + [[1, False]] * 3

    def test_well_formed_commands_load_no_argparse(self, sample, tmp_path):
        # A well-formed command line is read from the declarations: a filter,
        # histogram --render and pipeline, in turn in one fresh interpreter.
        _, path = sample
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"stages": [{"op": "negate"}]}))
        argvs = [["sharpen", "-i", str(path), "-o", str(tmp_path / "s.pgm"),
                  "--variant", "eight"],
                 ["histogram", "-i", str(path), "--csv", str(tmp_path / "h.csv"),
                  "--render", str(tmp_path / "h.pgm"), "--format", "p2"],
                 ["pipeline", "-i", str(path), "-o", str(tmp_path / "p.pgm"),
                  "--spec", str(spec)]]
        code = """if True:
            import json, sys
            from grayfilt.cli import main
            seen = []
            for argv in json.loads(sys.argv[1]):
                code = main(argv)
                seen.append([code, *(m in sys.modules for m in ("argparse", "gettext", "locale"))])
            print(json.dumps(seen))
            """
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, False, False, False]] * 3

    def test_small_commands_load_only_what_they_run(self, sample, tmp_path):
        # Under -S no site module loads these first: a small command, on a P5
        # and on a P2 input, loads none of them for itself.
        img, p5 = sample
        p2 = tmp_path / "in2.pgm"
        save_pgm(p2, img, "P2")
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"stages": [{"op": "negate"}, {"op": "binarize"},
                                               {"op": "sharpen", "variant": "four"}]}))
        argvs = []
        for k, path in enumerate(map(str, (p5, p2))):
            out = str(tmp_path / f"o{k}.pgm")
            argvs += [["negate", "-i", path, "-o", out],
                      ["sharpen", "-i", path, "-o", out, "--variant", "eight"],
                      ["edges", "-i", path, "-o", out],
                      ["shadow", "-i", path, "-o", out, "--invert"],
                      ["laplacian", "-i", path, "-o", out],
                      ["laplacian", "-i", path, "-o", out, "--variant", "eight"],
                      ["add", "-i", path, "-j", str(p5), "-o", out],
                      ["histogram", "-i", path, "--csv", str(tmp_path / "h.csv"),
                       "--render", out],
                      ["pipeline", "-i", path, "-o", out, "--spec", str(spec)]]
        code = """if True:
            import json, sys
            from grayfilt.cli import main
            codes = [main(argv) for argv in json.loads(sys.argv[1])]
            print(json.dumps([codes, sorted(
                {"typing", "contextlib", "numpy", "argparse"} & set(sys.modules))]))
            """
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(grayfilt.__file__))}
        proc = subprocess.run([sys.executable, "-S", "-c", code, json.dumps(argvs)],
                              capture_output=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0] * len(argvs), []]

    @staticmethod
    def _fresh(code):
        """Run ``code`` in a new interpreter, without the thread setting that
        importing the CLI into this test process may have put in the
        environment, and return its stdout."""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_library_import_loads_no_numpy_and_keeps_the_environment(self):
        code = ("import os, sys; before = dict(os.environ); import grayfilt; "
                "print('numpy' in sys.modules, dict(os.environ) == before)")
        assert self._fresh(code) == b"False True\n"

    def test_every_export_is_the_object_its_submodule_defines(self):
        code = """if True:
            import importlib, inspect, grayfilt
            from grayfilt import *
            star = dict(globals())
            bad = []
            for name in grayfilt.__all__:
                obj = getattr(grayfilt, name)
                owner = importlib.import_module("grayfilt." + grayfilt._OWNER[name])
                defined_in = getattr(obj, "__module__", owner.__name__)
                if not (star[name] is obj is getattr(owner, name)) or (
                        (inspect.isclass(obj) or inspect.isfunction(obj))
                        and defined_in != owner.__name__):
                    bad.append(name)
            missing = set(grayfilt.__all__) - set(dir(grayfilt))
            print(len(grayfilt.__all__), bad, sorted(missing))
            """
        assert self._fresh(code) == b"%d [] []\n" % len(grayfilt.__all__)

    def test_submodules_resolve_as_attributes(self):
        code = ("import grayfilt; print(grayfilt.imgio.read_pgm.__module__, "
                "grayfilt.core is __import__('grayfilt.core').core)")
        assert self._fresh(code) == b"grayfilt.imgio True\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts the threads listed in /proc/self/task")
    def test_cli_process_runs_one_thread(self):
        # OpenBLAS starts one thread per CPU as numpy loads; on a 1-CPU host
        # it starts none, so this passes there whatever the CLI sets. The CLI
        # loads numpy only when a handler runs, so the probe loads it after.
        code = ("import os, sys, grayfilt.cli, numpy; "
                "print('numpy' in sys.modules, len(os.listdir('/proc/self/task')))")
        assert self._fresh(code) == b"True 1\n"

    @staticmethod
    def _main_in_turn(argvs):
        """Run ``cli.main`` on each argv in turn in one fresh interpreter;
        return the exit codes and whether numpy was loaded."""
        code = ("import json, sys; from grayfilt.cli import main; "
                "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
                "print(json.dumps([codes, 'numpy' in sys.modules]))")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_table_commands_load_no_numpy(self, tmp_path):
        # Each table op on P5 and P2 input, to either format, and an
        # all-table pipeline, in turn in one fresh interpreter.
        rng = np.random.default_rng(64)
        img = rand_image(rng, min_side=2)
        table = rng.integers(0, 256, 256)
        files = {name: str(tmp_path / name)
                 for name in ("in-P5.pgm", "in-P2.pgm", "t.lut", "s.json")}
        for fmt in ("P5", "P2"):
            save_pgm(files[f"in-{fmt}.pgm"], img, fmt)
        (tmp_path / "t.lut").write_text(" ".join(map(str, table)))
        stages = [{"op": "stretch", "gamma": 0.7}, {"op": "negate"},
                  {"op": "lut", "table": files["t.lut"]}, {"op": "binarize", "threshold": 100}]
        (tmp_path / "s.json").write_text(json.dumps({"stages": stages}))
        library = {
            "negate": ([], negate),
            "stretch": (["--gamma", "0.7"], lambda i: gray_stretch(i, 0.7)),
            "lut": (["--table", files["t.lut"]], lambda i: apply_lut(i, table)),
            "binarize": (["--threshold", "100"], lambda i: bits_to_image(binarize(i, 100))),
            "pipeline": (["--spec", files["s.json"]], lambda i: bits_to_image(
                binarize(apply_lut(negate(gray_stretch(i, 0.7)), table), 100))),
        }
        argvs, expected = [], {}
        for command, (flags, call) in library.items():
            for src in ("P5", "P2"):
                for fmt in ("p5", "p2"):
                    out = str(tmp_path / f"{command}-{src}-{fmt}.pgm")
                    argvs.append([command, "-i", files[f"in-{src}.pgm"], "-o", out,
                                  "--format", fmt, *flags])
                    expected[out] = write_pgm(call(img), fmt.upper())
        assert self._main_in_turn(argvs) == [[0] * len(argvs), False]
        for out, data in expected.items():
            with open(out, "rb") as fh:
                assert fh.read() == data, out

    def test_small_filters_load_no_numpy(self, tmp_path):
        # Each op with a bytes form, on a small P5 and P2 input, to either
        # format, in turn in one fresh interpreter; then the same outputs
        # from the library, which runs numpy.
        rng = np.random.default_rng(65)
        img, second = (Image(rng.integers(0, 256, (7, 11), np.uint8)) for _ in range(2))
        files = {name: str(tmp_path / name) for name in ("in-P5.pgm", "in-P2.pgm", "j.pgm",
                                                         "s.json", "sobel.txt")}
        for fmt in ("P5", "P2"):
            save_pgm(files[f"in-{fmt}.pgm"], img, fmt)
        save_pgm(files["j.pgm"], second, "P2")
        sobel = "3 3\n-1 0 1\n-2 0 2\n-1 0 1\n"
        (tmp_path / "sobel.txt").write_text(sobel)
        stages = [{"op": "sharpen", "variant": "eight"}, {"op": "edges", "threshold": 90},
                  {"op": "negate"}]
        (tmp_path / "s.json").write_text(json.dumps({"stages": stages}))
        library = {
            "sharpen": (["--variant", "eight"], lambda i: laplacian_sharpen(i, "eight")),
            "laplacian": ([], lambda i: clamp_to_display(laplacian(i, "four"), "clamp")),
            "shadow": ([], shadow_ne),
            "shadow-invert": (["--invert"], shadow_invert),
            "edges": (["--threshold", "90"], lambda i: bits_to_image(edge_points(binarize(i, 90)))),
            "add": (["-j", files["j.pgm"]], lambda i: image_add(i, second)),
            "convolve": (["--kernel", files["sobel.txt"]],
                         lambda i: clamp_to_display(convolve(i, parse_kernel(sobel)), "clamp")),
            "pipeline": (["--spec", files["s.json"]], lambda i: negate(
                bits_to_image(edge_points(binarize(laplacian_sharpen(i, "eight"), 90))))),
        }
        argvs, expected = [], {}
        for name, (flags, call) in library.items():
            for src in ("P5", "P2"):
                for fmt in ("p5", "p2"):
                    out = str(tmp_path / f"{name}-{src}-{fmt}.pgm")
                    argvs.append([name.split("-")[0], "-i", files[f"in-{src}.pgm"], "-o", out,
                                  "--format", fmt, *flags])
                    expected[out] = write_pgm(call(img), fmt.upper())
        hist = compute_histogram(img)
        for src in ("P5", "P2"):
            csv, chart = str(tmp_path / f"h-{src}.csv"), str(tmp_path / f"h-{src}.pgm")
            argvs.append(["histogram", "-i", files[f"in-{src}.pgm"], "--csv", csv,
                          "--render", chart, "--format", src.lower()])
            expected[csv] = histogram_csv(hist).encode("ascii")
            expected[chart] = write_pgm(render_histogram(hist), src)
        assert self._main_in_turn(argvs) == [[0] * len(argvs), False]
        for out, data in expected.items():
            with open(out, "rb") as fh:
                assert fh.read() == data, out

    def test_a_4_mp_input_runs_numpy_as_the_library_does(self, tmp_path):
        # A 2048x2048 P5 that ends in a comment is above every cut of the
        # bytes engine: each op, in turn in one fresh interpreter, runs numpy
        # on the buffer the file was read into and writes the header and
        # numpy's pixels unjoined. A real-valued kernel takes the float64
        # clamp, rounded over each flat strip, where the library rounds in
        # clamp_to_display's own loop; after a numpy stage, edges runs numpy.
        # half.txt's output, the row below (the last row repeated) halved
        # and rounded half away, is known without the library.
        img = Image(np.random.default_rng(7).integers(0, 256, (2048, 2048), np.uint8))
        src = tmp_path / "in.pgm"
        src.write_bytes(write_pgm(img) + b"# end\n")
        texts = {"k.txt": "3 3\n1 -2 0\n0 4 -1\n2 0 -3\n",
                 "k5.txt": "5 5\n0.000 0.020 0.033 0.012 0.000\n0.017 0.085 0.132 0.085 0.010\n"
                           "0.032 0.126 0.174 0.122 0.046\n0.028 0.080 0.114 0.088 0.029\n"
                           "0.000 0.019 0.026 0.023 0.000\n",
                 "half.txt": "3 1\n0.5\n0\n0\n",
                 "s.json": json.dumps({"stages": [{"op": "sharpen"},
                                                  {"op": "edges", "threshold": 100}]})}
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        k, k5 = parse_kernel(texts["k.txt"]), parse_kernel(texts["k5.txt"])
        k_file, k5_file = str(tmp_path / "k.txt"), str(tmp_path / "k5.txt")
        below = np.vstack([img.pixels[1:], img.pixels[-1:]])
        cases = [
            (["sharpen", "--variant", "eight"], lambda i: laplacian_sharpen(i, "eight")),
            (["shadow", "--invert"], shadow_invert),
            (["convolve", "--kernel", k_file, "--border", "zero"],
             lambda i: clamp_to_display(convolve(i, k, "zero"), "clamp")),
            (["unsharp", "--radius", "5"], lambda i: unsharp_mask(i, 5)),
            (["laplacian", "--variant", "eight", "--display", "rescale"],
             lambda i: clamp_to_display(laplacian(i, "eight"), "rescale")),
            *((["convolve", "--kernel", k5_file, "--border", border],
               lambda i, border=border: clamp_to_display(convolve(i, k5, border), "clamp"))
              for border in ("replicate", "zero")),
            (["pipeline", "--spec", str(tmp_path / "s.json")],
             lambda i: bits_to_image(edge_points(binarize(laplacian_sharpen(i), 100)))),
            (["convolve", "--kernel", str(tmp_path / "half.txt")],
             lambda i: Image((below >> 1) + (below & 1))),
        ]
        outs = [str(tmp_path / f"out{n}.pgm") for n in range(len(cases))]
        argvs = [[argv[0], "-i", str(src), "-o", out, *argv[1:]]
                 for (argv, _), out in zip(cases, outs)]
        assert self._main_in_turn(argvs) == [[0] * len(argvs), True]
        for (argv, library), out in zip(cases, outs):
            with open(out, "rb") as fh:
                assert fh.read() == write_pgm(library(img)), argv
        # To a pipe, too, the header and the pixels are written one after the other.
        proc = self._run("sharpen", "-i", str(src), "-o", "/dev/stdout")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == write_pgm(laplacian_sharpen(img))

    def test_bench_reports_on_stderr_only(self):
        proc = self._run("bench", "--size", "16", "--ksize", "3", "--iters", "1")
        assert proc.returncode == 0
        assert proc.stdout == b""
        assert b"checksum=" in proc.stderr


# ---------------------------------------------------------------------------
# CLI-wide fuzz
# ---------------------------------------------------------------------------

#: Flag values that no parameter kind accepts, or that only some accept.
_JUNK = ["", "0", "-3", "2.5", "abc", "1e400", "nan", "inf", "256", "9" * 40, "--", "-i"]
#: Valid values of each numeric parameter kind.
_VALID = {
    POSITIVE_INT: st.integers(1, 4),
    POSITIVE_FLOAT: st.floats(0.1, 5.0),
    THRESHOLD: st.integers(0, 255),
}
#: Well-formed input files by kind; "other.pgm" has another size than
#: "good.pgm", and "overflow.kernel" overflows on it.
_GOOD = {
    "pgm": {"good.pgm": write_pgm(Image(np.arange(30, dtype=np.uint8).reshape(5, 6) * 8), "P2"),
            "other.pgm": write_pgm(Image([[7, 9]]))},
    "kernel": {"good.kernel": b"3 3\n0 1 0\n1 -4 1\n0 1 0\n",
               "overflow.kernel": b"1 3\n1e308 1e308 1e308\n"},
    "lut": {"good.lut": " ".join(str(255 - v) for v in range(256)).encode()},
    "spec": {"good.spec": json.dumps({"stages": [
        {"op": "negate"}, {"op": "stretch", "gamma": 1.5}, {"op": "lut", "table": "good.lut"},
        {"op": "convolve", "kernel": "good.kernel"}]}).encode()},
}
#: The kind of file a PATH parameter names.
_PATH_KIND = {"table": "lut", "kernel": "kernel", "image": "pgm"}
# Real argv holds no NUL, and os.fsdecode gives only U+DC80-U+DCFF surrogates.
_ARG_TEXT = st.text(st.characters(blacklist_characters="\0", blacklist_categories=("Cs",)),
                    max_size=8)
#: Paths that ``open`` cannot take. A JSON string or an in-process argv can
#: hold a NUL or a lone surrogate; real argv cannot.
_UNOPENABLE = ["good.lut\0", "\ud800.pgm"]
#: Any JSON value a spec could give a parameter.
_JSON_VALUES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
                | st.sampled_from([*_JUNK, *_UNOPENABLE]))


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """``data`` with a few bytes flipped, dropped or inserted, or cut short."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        how = draw(st.sampled_from(["flip", "drop", "insert", "cut"]))
        if how == "insert" or at == len(data):
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif how == "flip":
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif how == "drop":
            del data[at]
        else:
            del data[at:]
    return bytes(data)


def _good_value(param):
    """The strategy for valid values of an op parameter."""
    if param.name in _PATH_KIND:
        return st.sampled_from(sorted(_GOOD[_PATH_KIND[param.name]]))
    if param.kind is FLAG:
        return st.booleans()
    return _VALID[param.kind] if param.kind in _VALID else st.sampled_from(param.kind.choices)


@st.composite
def _spec(draw) -> bytes:
    """A pipeline spec of one to three stages over ``pipeline.OPS``. Each
    parameter is left out, given a valid value or, one time in four, any
    JSON value."""
    stages = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from([*OPS, "rotate"]))
        stage = {"op": op}
        for param in OPS[op].params if op in OPS else ():
            if draw(st.integers(0, 9)):
                good = _good_value(param)
                stage[param.name] = draw(_JSON_VALUES if not draw(st.integers(0, 3)) else good)
        stages.append(stage)
    return json.dumps({"stages": stages}).encode()


@st.composite
def _input_file(draw, kind: str) -> str:
    """A path to a well-formed, mutated, missing or unreadable ``kind``
    file, a path ``open`` cannot take, or, for a spec, a generated file."""
    how = draw(st.sampled_from(["good"] * 4 + ["mutated", "missing", "directory", "unopenable"]
                               + ["generated"] * 2 * (kind == "spec")))
    if how == "good":
        return draw(st.sampled_from(sorted(_GOOD[kind])))
    if how in ("mutated", "generated"):
        path = f"{how}-{draw(st.integers(0, 9))}.{kind}"
        data = _spec() if how == "generated" else _mutated(_GOOD[kind][f"good.{kind}"])
        with open(path, "wb") as fh:
            fh.write(draw(data))
        return path
    if how == "unopenable":
        return draw(st.sampled_from(_UNOPENABLE))
    return "missing.pgm" if how == "missing" else "."


@st.composite
def _argv(draw) -> list:
    """One grayfilt command line over the ops of ``pipeline.OPS`` and the
    other subcommands. Half are clean: every flag present with a valid
    value. The rest may leave flags out, give junk values, write where no
    file can go, or carry a stray token."""
    clean = draw(st.booleans())

    def value(good, junk=st.sampled_from(_JUNK) | _ARG_TEXT):
        return draw(good if clean or draw(st.integers(0, 3)) else junk)

    def output(name):
        return name if clean else draw(st.sampled_from([name, "no-such-dir/x", ".", *_UNOPENABLE]))

    command = draw(st.sampled_from([*OPS, "histogram", "pipeline", "bench", "rotate"]))
    argv = [command]
    if command != "bench":
        argv += ["-i", draw(_input_file("pgm"))]
    if command in OPS or command == "pipeline":
        argv += ["-o", output("out.pgm")]
    if command in OPS:
        for param in OPS[command].params:
            if not clean and not draw(st.integers(0, 9)):
                continue  # left out: the default, or a missing required flag
            flag = (param.flags or (f"--{param.name}",))[-1]
            if param.kind is FLAG:
                argv += [flag] * draw(st.booleans())
            elif param.name in _PATH_KIND:
                argv += [flag, draw(_input_file(_PATH_KIND[param.name]))]
            else:
                argv += [flag, value(_good_value(param).map(str))]
    elif command == "histogram":
        argv += ["--csv", output("out.csv")]
        if draw(st.booleans()):
            argv += ["--render", output("chart.pgm")]
    elif command == "pipeline":
        argv += ["--spec", draw(_input_file("spec"))]
    elif command == "bench":
        # Bad bench values are junk that is not a positive integer, or past a cap.
        not_positive = ["", "0", "-3", "2.5", "abc", "nan", "--"]
        for flag, good, too_big in (("--size", st.integers(1, 24), ["8193", "9" * 40]),
                                    ("--ksize", st.sampled_from([1, 3, 5]), ["4", "257", "9" * 40]),
                                    ("--iters", st.integers(1, 2), ["1001", "9" * 40]),
                                    ("--workers", st.integers(1, 2), ["9" * 40])):
            if draw(st.booleans()):
                argv += [flag, value(good.map(str), st.sampled_from(not_positive + too_big))]
    if command != "bench" and draw(st.booleans()):
        argv += ["--format", value(st.sampled_from(["p2", "p5"]))]
    if not clean and not draw(st.integers(0, 4)):
        argv.insert(draw(st.integers(0, len(argv))), draw(_ARG_TEXT))
    return argv


def _argparse_reads(argv):
    """``vars()`` of argparse's namespace for ``argv``, or the exit code of
    the usage error or help it gives instead."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return vars(grayfilt.cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


class TestFuzz:
    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for files in _GOOD.values():
            for name, data in files.items():
                (tmp_path / name).write_bytes(data)
        return tmp_path

    # The fixture's files are shared by every example; each example writes
    # only its own generated inputs and its outputs.
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_argv())
    def test_any_argv_exits_with_a_code_and_no_traceback(self, workdir, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(argv)  # any other exception fails the test
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert out.getvalue() == ""
        if code in (2, 3):
            (line,) = err.getvalue().splitlines()
            assert line.startswith("grayfilt: ")

    # A line that the direct reader takes reads as argparse reads it.
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_argv())
    def test_the_reader_agrees_with_argparse(self, workdir, argv):
        args = grayfilt.cli._parse(argv)
        assert args is None or vars(args) == _argparse_reads(argv)


class TestParse:
    def test_declared_commands_are_the_parser_subcommands(self):
        parser = grayfilt.cli.build_parser()
        (sub,) = (a for a in parser._actions if a.dest == "command")
        assert list(sub.choices) == list(grayfilt.cli._commands())

    @pytest.mark.parametrize("argv", [
        ["negate", "-i", "in.pgm", "-o", "out.pgm"],
        ["stretch", "--input", "in.pgm", "--output", "out.pgm", "--format", "p2",
         "--gamma", "0.5"],
        ["laplacian", "-i", "in.pgm", "-o", "out.pgm", "--display", "rescale",
         "--variant", "eight"],
        ["shadow", "--invert", "-i", "in.pgm", "-o", "out.pgm"],
        ["add", "-i", "in.pgm", "--second", "j.pgm", "-o", "out.pgm"],
        ["histogram", "-i", "in.pgm", "--csv", "h.csv"],
        ["histogram", "-i", "in.pgm", "--csv", "h.csv", "--render", "h.pgm", "--format", "p2"],
        ["pipeline", "-i", "in.pgm", "-o", "out.pgm", "--spec", "s.json"],
        ["bench"],
        ["bench", "--size", "16", "--ksize", "5", "--iters", "2", "--workers", "2"],
        ["binarize", "-i", "in.pgm", "-o", "out.pgm", "--threshold", " 1_0 "],
    ])
    def test_well_formed_lines_read_as_argparse_reads_them(self, argv):
        args = grayfilt.cli._parse(argv)
        assert args is not None
        assert vars(args) == _argparse_reads(argv)

    @pytest.mark.parametrize("argv", [
        [],
        ["-h"],
        ["--help"],
        ["--version"],
        ["negate", "-i", "in.pgm", "-o", "out.pgm", "-h"],
        ["negate", "-i", "in.pgm", "-o", "out.pgm", "--help"],
        ["negate", "-i", "in.pgm", "-o", "out.pgm", "--version"],
        ["sharpen", "-i", "in.pgm", "-o", "out.pgm", "--var", "eight"],
        ["sharpen", "-i", "in.pgm", "-o", "out.pgm", "--variant=eight"],
        ["negate", "-i", "in.pgm", "-i", "in.pgm", "-o", "out.pgm"],
        ["negate", "-i", "in.pgm", "--input", "in.pgm", "-o", "out.pgm"],
        ["shadow", "-i", "in.pgm", "-o", "out.pgm", "--invert", "--invert"],
        ["negate", "-i", "-in.pgm", "-o", "out.pgm"],
        ["binarize", "-i", "in.pgm", "-o", "out.pgm", "--threshold", "-3"],
        ["negate", "-i", "in.pgm", "-o", "out.pgm", "--"],
        ["negate", "--", "-i", "in.pgm", "-o", "out.pgm"],
        ["negate", "-iin.pgm", "-o", "out.pgm"],
        ["rotate", "-i", "in.pgm", "-o", "out.pgm"],
        ["negate", "-i", "in.pgm"],
        ["histogram", "-i", "in.pgm", "--render", "h.pgm"],
        ["negate", "-i", "in.pgm", "-o"],
        ["negate", "-i", "in.pgm", "-o", "out.pgm", "stray"],
        ["negate", "-i", "in.pgm", "-o", "out.pgm", "--format", "p7"],
        ["negate", "-i", "", "-o", "out.pgm"],
        ["binarize", "-i", "in.pgm", "-o", "out.pgm", "--threshold", "256"],
        ["binarize", "-i", "in.pgm", "-o", "out.pgm", "--threshold", "abc"],
        ["unsharp", "-i", "in.pgm", "-o", "out.pgm", "--radius", "9" * 5000],
        ["stretch", "-i", "in.pgm", "-o", "out.pgm", "--gamma", "nan"],
        ["bench", "--ksize", "4"],
    ])
    def test_anything_else_is_left_to_argparse(self, argv):
        assert grayfilt.cli._parse(argv) is None
