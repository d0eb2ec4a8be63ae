import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import grayfilt.bench
import grayfilt.convolution
from grayfilt import (
    Image,
    Kernel,
    apply_lut,
    bench_convolve,
    bench_image,
    binarize,
    bits_to_image,
    clamp_to_display,
    convolve,
    correlate,
    edge_points,
    gray_stretch,
    image_add,
    laplacian,
    laplacian_sharpen,
    load_pgm,
    negate,
    parse_kernel,
    save_pgm,
    shadow_invert,
    shadow_ne,
    unsharp_mask,
)
from grayfilt.bench import MAX_BENCH_SIZE
from support import correlate_brute, rand_image, run_cli


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

    def test_convolve(self, sample, tmp_path):
        img, path = sample
        kern = tmp_path / "k.txt"
        kern.write_text("3 3\n1 2 1\n2 4 2\n1 2 1\n")
        out = tmp_path / "out.pgm"
        code = run_cli(["convolve", "-i", str(path), "-o", str(out),
                        "--kernel", str(kern), "--border", "zero",
                        "--display", "rescale"])
        assert code == 0
        k = parse_kernel(kern.read_text())
        assert load_pgm(out) == clamp_to_display(convolve(img, k, "zero"), "rescale")

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

    def test_overflow_in_a_later_strip_is_one_domain_error(self, tmp_path, capsys, monkeypatch):
        # One-row strips; the first rows sum to 0, and each strip is clamped
        # to gray levels before the next one is correlated.
        monkeypatch.setattr(grayfilt.convolution, "_STRIP_PIXELS", 4)
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

    def test_bad_flag_value_is_usage_error(self, tmp_path):
        code = run_cli(["stretch", "--gamma", "-2",
                        "-i", "x.pgm", "-o", "y.pgm"])
        assert code == 1

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

    def test_pipeline_dimension_mismatch_is_domain_error(self, sample, tmp_path):
        img, path = sample
        other = tmp_path / "other.pgm"
        save_pgm(other, Image([[1]]))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"stages": [{"op": "add", "image": str(other)}]}))
        code = run_cli(["pipeline", "-i", str(path), "-o",
                        str(tmp_path / "out.pgm"), "--spec", str(spec)])
        assert code == 3


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

    def test_usage_error_goes_to_stderr(self):
        proc = self._run("stretch", "--gamma", "zero")
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert b"error" in proc.stderr

    def test_startup_skips_unneeded_imports(self):
        # Threads, pipelines and the bench report import these when they run.
        lazy = ("concurrent.futures", "json", "statistics")
        code = ("import sys; lazy = %r; before = {m for m in lazy if m in sys.modules}; "
                "import grayfilt.cli; print(sorted(set(lazy) & set(sys.modules) - before))"
                % (lazy,))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"[]\n"

    def test_bench_reports_on_stderr_only(self):
        proc = self._run("bench", "--size", "16", "--ksize", "3", "--iters", "1")
        assert proc.returncode == 0
        assert proc.stdout == b""
        assert b"checksum=" in proc.stderr
