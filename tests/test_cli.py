import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import grayfilt
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
from grayfilt.bench import MAX_BENCH_ITERS, MAX_BENCH_KSIZE, MAX_BENCH_SIZE
from grayfilt.core import POSITIVE_FLOAT, POSITIVE_INT, THRESHOLD
from grayfilt.imgio import write_pgm
from grayfilt.pipeline import FLAG, OPS
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

    def test_huge_blur_radius_is_one_domain_error(self, sample, tmp_path, capsys):
        img, path = sample
        out = tmp_path / "out.pgm"
        code = run_cli(["unsharp", "-i", str(path), "-o", str(out), "--radius", "9" * 30])
        assert code == 3 and not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert line.endswith("window sums would not fit in 64 bits")

    def test_bad_flag_value_is_usage_error(self, tmp_path):
        code = run_cli(["stretch", "--gamma", "-2",
                        "-i", "x.pgm", "-o", "y.pgm"])
        assert code == 1

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
        code = ("import grayfilt; print(grayfilt.imgio.load_text.__module__, "
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
