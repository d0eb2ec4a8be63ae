"""Peak memory of each CLI op's in-process path, in bytes per input pixel.

The path is what a CLI process runs between reading its input file and
writing its output file: decode the P5 bytes, apply the step built from the
op table, encode P5. tracemalloc sees numpy's array buffers, so the peak
counts every array alive at once, the decoded input included. At 1024x1024 a
full-size uint8 array is 1 B/px, an int32 array 4 and a float64 array 8, so
each bound says how many full-size arrays an op may hold: ops that end in
gray levels map each strip of rows as soon as it is computed and hold none
of the signed intermediates, except where a rescale needs the whole range.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import grayfilt._bytes
import grayfilt._swar
from grayfilt import (
    FormatError,
    Image,
    Kernel,
    compute_histogram,
    correlate,
    histogram_csv,
    read_pgm,
    save_pgm,
    write_pgm,
)
from grayfilt._bytes import _STRIP_PIXELS, _row_strips, decode_pgm, load_pgm, p2_scan, pgm_chunks
from grayfilt._swar import _EDGE_TAPS, _FIXED_TAPS
from grayfilt.cli import _cmd_histogram, _run
from grayfilt.pipeline import OPS, _apply, _run_raster
from support import swar_side_at_cut

SIDE = 1024

#: Bytes per pixel of one full-size array of each dtype.
U8, I16, I32, F64 = 1, 2, 4, 8
#: What the P5 path holds itself: two uint8 arrays, the decoded input and the
#: output while the op runs, then the output and the encoded bytes, and 64 KiB
#: of small objects.
IO = 2 * U8 + 64 * 1024 / SIDE**2
#: Temporaries that do not grow with the image: up to four float64 strips of
#: _STRIP_PIXELS (2 B/px at 1024x1024), whatever one strip's arithmetic needs.
STRIPS = 4 * F64 * _STRIP_PIXELS / SIDE**2
#: A table maps the output, a copy of the input, one uint8 strip at a time: the
#: strip and its translation, and one strip more of margin (a first call's
#: import of point_ops takes about 48 KiB of it). A bytes copy of the whole
#: input, 1 B/px, exceeds it.
TABLE = IO + 3 * U8 * _STRIP_PIXELS / SIDE**2

#: (op, params, bound in bytes per input pixel): the full-size arrays each op
#: may hold at once. Ops that end in gray levels hold no signed full-size
#: array, so a full-size int32 or float64 intermediate exceeds their bound.
CASES = [
    ("negate", {}, TABLE),
    ("stretch", {"gamma": 2.0}, TABLE),
    ("lut", {"table": "lut.txt"}, TABLE),
    ("laplacian", {"variant": "eight", "display": "clamp"}, IO + STRIPS),
    # The rescale needs the whole range: one int32 correlation, whose
    # display holds one uint64 strip.
    ("laplacian", {"variant": "eight", "display": "rescale"}, IO + I32 + STRIPS / 4),
    ("sharpen", {"variant": "four"}, IO + STRIPS),
    ("sharpen", {"variant": "eight"}, IO + STRIPS),
    ("unsharp", {"radius": 1, "display": "clamp"}, IO + STRIPS),
    ("unsharp", {"radius": 5, "display": "clamp"}, IO + STRIPS),
    # The rescale needs the whole range: one int16 difference, the blurred
    # copy dropped first; the display holds one uint64 strip.
    ("unsharp", {"radius": 1, "display": "rescale"}, IO + I16 + STRIPS / 4),
    ("convolve", {"kernel": "real5.txt", "border": "replicate", "display": "clamp"},
     IO + STRIPS),
    # The rescale needs the whole range: one float64 correlation.
    ("convolve", {"kernel": "real5.txt", "border": "zero", "display": "rescale"},
     IO + F64 + STRIPS),
    ("convolve", {"kernel": "ones9.txt", "border": "replicate", "display": "clamp"},
     IO + STRIPS),
    # A table op too: its 0/255 table is mapped as negate's is.
    ("binarize", {"threshold": 128}, TABLE),
    # The threshold bits and their Laplacian-four clamp, run in int16 strips;
    # then the edge points and their 0/255 image.
    ("edges", {"threshold": 128}, IO + 2 * U8),
    # The saturating sum is taken in the output, min(a, 255 - b) + b; the
    # second image is read when the step is built.
    ("add", {"image": "second.pgm"}, IO),
    ("shadow", {"invert": False}, IO + STRIPS),
    ("shadow", {"invert": True}, IO + STRIPS),
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("memory")
    rng = np.random.default_rng(41)
    (d / "lut.txt").write_text(" ".join(map(str, rng.integers(0, 256, 256))))
    real5 = np.round(rng.normal(0.0, 0.3, (5, 5)), 3)
    (d / "real5.txt").write_text("5 5\n" + "\n".join(" ".join(map(repr, r)) for r in real5.tolist()))
    (d / "ones9.txt").write_text("9 9\n" + "\n".join(["1 " * 9] * 9))
    save_pgm(d / "second.pgm", Image(rng.integers(0, 256, (SIDE, SIDE), np.uint8)))
    data = write_pgm(Image(rng.integers(0, 256, (SIDE, SIDE), np.uint8)), "P5")
    return d, data


@pytest.mark.parametrize("op, params, bound", CASES,
                         ids=[f"{op}-{'-'.join(map(str, p.values()))}" for op, p, _ in CASES])
def test_peak_bytes_per_pixel(files, op, params, bound):
    d, data = files
    params = {k: str(d / v) if k in ("table", "kernel", "image") else v for k, v in params.items()}
    stages = [("", OPS[op].build(params))]
    tracemalloc.start()
    try:
        write_pgm(_apply(stages, read_pgm(data)), "P5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / SIDE**2 <= bound


#: Ops whose CLI path runs numpy above the bytes engine's cut, with the
#: bound of their strip buffers: each strip loop builds its padded rows in
#: buffers of a few strips, not a padded copy of the image, and an int16
#: loop's buffers take a quarter of what a float64 loop's take.
CLI_CASES = [
    ("sharpen", {"variant": "eight"}, STRIPS / 4),
    ("shadow", {"invert": True}, STRIPS / 4),
    ("convolve", {"kernel": "real5.txt", "border": "replicate", "display": "clamp"}, STRIPS),
    ("unsharp", {"radius": 5, "display": "clamp"}, STRIPS / 4),
    # No strips: the output is its one uint8 array, and 64 KiB is for small objects.
    ("add", {"image": "second.pgm"}, 64 * 1024 / SIDE**2),
]


@pytest.mark.parametrize("op, params, strips", CLI_CASES,
                         ids=[f"{op}-{'-'.join(map(str, p.values()))}" for op, p, _ in CLI_CASES])
def test_cli_path_peak_bytes_per_pixel(files, tmp_path, monkeypatch, op, params, strips):
    # What a CLI process runs between its command line and its exit, with
    # numpy forced at any size: read the file, run the step, write P5. It
    # holds the buffer the file was read into and the output pixels, and
    # no padded copy, no copy of the output and no header joined to it.
    d, data = files
    src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
    src.write_bytes(data)
    monkeypatch.setattr(grayfilt._swar, "_CUT", 0)
    params = {k: str(d / v) if k in ("kernel", "image") else v for k, v in params.items()}
    step = OPS[op].build(params)
    args = SimpleNamespace(input=str(src), output=str(dst), format="p5")
    tracemalloc.start()
    try:
        _run(args, [("", step)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dst.read_bytes() == write_pgm(step.image(read_pgm(data)), "P5")
    assert peak / SIDE**2 <= 2 * U8 + strips


@pytest.mark.parametrize("border", ["replicate", "zero"])
def test_correlate_strips_count_the_padded_row(border):
    # A 1x20001 kernel pads each 64-pixel row to a stride of 20064, so a
    # strip of _STRIP_PIXELS counted by the image row would hold every row
    # at that stride (14.7 MiB of int32 buffers); counted by the padded row it
    # holds 3. The only nonzero tap is the center, so the output is the
    # input. The replicate border fills the padding columns from copies of
    # the edge columns: from a broadcast source in the same buffer, numpy
    # would copy the source whole, rows x 10000 values (about 120 KB here).
    img = Image(np.random.default_rng(53).integers(0, 256, (64, 64), np.uint8))
    coeffs = np.zeros((1, 20001))
    coeffs[0, 10000] = 1
    kernel, stride = Kernel(coeffs), 64 + 20001 - 1
    (_, rows), *_ = _row_strips(64, stride)
    tracemalloc.start()
    try:
        out = correlate(img, kernel, border)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.values.tolist() == img.pixels.tolist()
    # The int32 output and coefficients, the three int32 strip buffers of
    # one strip's padded rows (the padded source, the sums and one product),
    # and 64 KiB of small objects.
    assert peak <= I32 * (img.pixels.size + coeffs.size + 3 * rows * stride) + 64 * 1024


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: _correlate_strips' padded-source buffer holds the kh - 1 halo rows that "
    "_row_strips does not count (ROADMAP.md, open FOUND lines)"))
def test_a_tall_kernel_file_holds_no_more_than_its_strips(tmp_path):
    # A 20001x1 kernel file whose only nonzero tap is the center, so the
    # output is the input. Its bytes form is priced above the cut, (256 +
    # 20000)·256·17 fields' worth, so numpy runs it, in one strip of 256 rows
    # whose padded source holds 20000 halo rows more (about 10 MiB of int16).
    path = tmp_path / "tall.txt"
    path.write_text("20001 1\n" + "0\n" * 10000 + "1\n" + "0\n" * 10000)
    raster = np.random.default_rng(59).integers(0, 256, 256 * 256, np.uint8).tobytes()
    step = OPS["convolve"].build({"kernel": str(path), "border": "replicate", "display": "clamp"})
    tracemalloc.start()
    try:
        out = _run_raster([("", step)], 256, 256, raster)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bytes(out) == raster
    assert peak <= 4 * 2**20


def test_cli_histogram_peak_bytes_per_pixel(files, tmp_path, monkeypatch):
    # `histogram` with numpy forced at any size: the raster it read, and
    # np.bincount's intp copy of one strip at a time (0.5 B/px here), not of
    # the whole raster (8 B/px); 64 KiB is for small objects.
    _, data = files
    src, dst = tmp_path / "in.pgm", tmp_path / "h.csv"
    src.write_bytes(data)
    monkeypatch.setattr(grayfilt._swar, "_CUT", 0)
    args = SimpleNamespace(input=str(src), csv=str(dst), render=None)
    tracemalloc.start()
    try:
        _cmd_histogram(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dst.read_text() == histogram_csv(compute_histogram(read_pgm(data)))
    assert peak / SIDE**2 <= U8 + (8 * _STRIP_PIXELS + 64 * 1024) / SIDE**2


def test_load_pgm_peak_is_one_buffer(files, tmp_path):
    # The file is read into one buffer, and its P5 raster is that buffer
    # with the header and the bytes after the raster cut off in place.
    _, data = files
    src = tmp_path / "in.pgm"
    src.write_bytes(data + b"# trailing data\n" * 4)
    tracemalloc.start()
    try:
        width, height, raster = load_pgm(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (width, height, raster) == (SIDE, SIDE, data[-SIDE * SIDE:])
    assert peak <= SIDE**2 * U8 + 64 * 1024


def test_save_pgm_holds_no_copy_of_the_pixels(files, tmp_path):
    # save_pgm writes the header and the image's own pixels one after the
    # other, as a command does, never joined: once its imports are warm, a
    # call allocates a few KiB whatever the image's size, not 1 B/px.
    _, data = files
    img, dst = read_pgm(data), tmp_path / "out.pgm"
    save_pgm(dst, img)
    tracemalloc.start()
    try:
        save_pgm(dst, img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dst.read_bytes() == data
    assert peak < 64 * 1024


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview], ids=lambda kind: kind.__name__)
def test_read_pgm_copies_a_p5_once(files, kind):
    # decode_pgm cuts a P5 raster out of a private bytearray in place, so
    # read_pgm makes that one copy of its input, of whatever type, and no
    # other: a warm call peaks at the raster (1 B/px) and a few KiB, and
    # the input is left as it was. A second image after the first is not
    # copied either.
    _, one = files
    for original in (one, one + one):
        data = kind(original)
        read_pgm(data)
        tracemalloc.start()
        try:
            img = read_pgm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert img.pixels.tobytes() == one[-SIDE * SIDE:]
        assert bytes(data) == original
        assert peak < 1.1 * SIDE**2 * U8


#: The P2 text of a level is at most 4 B: up to three digits and a separator.
P2_TEXT = 4 * U8


@pytest.mark.parametrize("fmt, bound", [
    # The raster and its translation, which is the P5 output uncopied.
    ("P5", IO),
    # The raster, its translation and one more for a digit plane or the
    # decoder's slice ints; the P2 text laid out at 4 B/px, and the same
    # text with its leading zeros dropped.
    ("P2", 3 * U8 + 2 * P2_TEXT),
])
def test_table_path_peak_bytes_per_pixel(files, fmt, bound):
    # What a table command runs without numpy: decode to bytes, translate,
    # encode. A P2 raster is decoded a slice at a time, not all at once.
    _, data = files
    data = write_pgm(read_pgm(data), fmt)
    table = OPS["negate"].build({})
    tracemalloc.start()
    try:
        width, height, raster = decode_pgm(data)
        pgm_chunks(width, height, raster.translate(table), fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / SIDE**2 <= bound


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview], ids=lambda kind: kind.__name__)
def test_read_pgm_p2_peak_bytes_per_pixel(files, kind):
    # read_pgm decodes P2 with the table path's decoder, which holds the
    # raster (1 B/px) and one piece's ints at a time: a dozen or so of 16
    # KiB, and the masks of a few piece widths. It copies one piece of the
    # text at a time, never the whole text, whatever type holds it. A
    # second image adds only the tokens of the piece where the first ends,
    # split to find that end, not a copy of the text past it.
    _, data = files
    pixels = read_pgm(data).pixels
    text = write_pgm(Image(pixels), "P2")
    for data, bound in ((kind(text), 1.4 * U8), (kind(text + text), 1.6 * U8)):
        tracemalloc.start()
        try:
            img = read_pgm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(img.pixels, pixels)
        assert peak / SIDE**2 <= bound


def test_load_pgm_p2_peak_bytes_per_pixel(files, tmp_path):
    # A P2 file is decoded as it is read, a piece at a time, into a buffer of
    # about two pieces: a call peaks at the raster (1 B/px), that buffer and
    # one piece's ints, not at the whole text (3.6 B/px here) and the raster.
    _, data = files
    pixels = read_pgm(data).pixels
    src = tmp_path / "in.pgm"
    src.write_bytes(write_pgm(Image(pixels), "P2"))
    load_pgm(src)
    tracemalloc.start()
    try:
        width, height, raster = load_pgm(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (width, height, raster) == (SIDE, SIDE, pixels.tobytes())
    assert peak / SIDE**2 <= 1.4 * U8


def test_a_digit_run_longer_than_two_pieces_leaves_no_mask_that_wide():
    # The run's piece is as wide as the run: SWAR refuses it by its length,
    # before it builds a mask, and the scanner reports the token. The masks
    # of recent lengths are kept, but none is built over a piece's width
    # and a token's, so the call leaves nothing the run's size allocated.
    run = b"1" * (1 << 20)
    assert len(run) > 2 * grayfilt._bytes._SLICE
    data = b"P2\n2 1\n255\n7 " + run + b"\n"
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="^too many digits in pixel token b'111"):
            decode_pgm(data)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * grayfilt._bytes._SLICE


def test_scanner_peak_bytes_per_pixel():
    # The token scanner, which decode_pgm's _p2_piece hands each piece of
    # text the SWAR decode refuses, holds the levels it decodes (1 B/px) and
    # one token at a time: it does not copy the text it is given. Here it is
    # given the whole text after the header. A smaller side keeps the
    # token-by-token parse quick under tracemalloc.
    side = SIDE // 4
    rng = np.random.default_rng(43)
    data = write_pgm(Image(rng.integers(0, 256, (side, side), np.uint8)), "P2")
    pos = data.index(b"255\n") + 3
    tracemalloc.start()
    try:
        values = p2_scan(memoryview(data)[pos:], pos, side * side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == read_pgm(data).pixels.tobytes()
    assert peak / side**2 <= 2 * U8


#: What a padded bytes step holds of the whole image: the decoded raster, and
#: the output, the P5 file's raster, which grows a strip at a time in a
#: bytearray that may hold an eighth more than its bytes.
PADDED_STEP = U8 + 9 * U8 / 8
#: Each bytes step just below its cut (grayfilt._swar): op, params, its cost
#: a field, the pixels it pads each side, the whole-image bytes it holds per
#: pixel, the ints it holds at once counted in fields of the strip it widens,
#: and the bytes of a field. edges thresholds each padded strip in its step,
#: so it holds no thresholded raster; add holds the second raster from
#: before the input is read. Python ints are allocated whole, so tracemalloc
#: sees each one. At the peak a correlation holds the widened strip, ones, the
#: total, a shifted tap and the next total; edges holds the strip, the OR so
#: far, a shifted copy, the next OR and a fifth while it clears the centers;
#: add holds one widened strip and, while widening the other, its fields,
#: their copy for int.from_bytes and the int.
SWAR_CASES = [
    ("sharpen", {"variant": "eight"}, 9 + _FIXED_TAPS, 1, PADDED_STEP, 5, I16),
    ("laplacian", {"variant": "four", "display": "clamp"}, 5 + _FIXED_TAPS, 1, PADDED_STEP, 5,
     I16),
    ("shadow", {"invert": True}, 2 + _FIXED_TAPS, 1, PADDED_STEP, 5, I16),
    ("edges", {"threshold": 128}, _EDGE_TAPS, 1, PADDED_STEP, 5, U8),
    ("add", {"image": "second.pgm"}, 1 + _FIXED_TAPS, 0, PADDED_STEP, 4, I16),
]


@pytest.mark.parametrize("op, params, cost, pad, whole, ints, field", SWAR_CASES,
                         ids=[op for op, *_ in SWAR_CASES])
def test_bytes_step_peak_bytes_per_pixel_below_the_cut(tmp_path, op, params, cost, pad, whole,
                                                       ints, field):
    # The largest square image below the step's cut, decoded, run through
    # the step's bytes form and encoded, as a CLI process runs it, one strip
    # of _row_strips at a time, padded by ``pad`` pixels. Besides its
    # whole-image bytes, a step holds one strip's worth: its ints, at 32 bits
    # per 30 of a Python int's digits, and a byte a field for each of the
    # strip's padded bytes, its rows and the previous strip's output, with
    # 64 KiB for small objects.
    side = swar_side_at_cut(cost, pad)
    rng = np.random.default_rng(47)
    save_pgm(tmp_path / "second.pgm", Image(rng.integers(0, 256, (side, side), np.uint8)))
    data = write_pgm(Image(rng.integers(0, 256, (side, side), np.uint8)), "P5")
    params = {k: str(tmp_path / v) if k == "image" else v for k, v in params.items()}
    step = OPS[op].build(params)
    tracemalloc.start()
    try:
        width, height, raster = decode_pgm(data)
        out = step.raster(width, height, raster)
        pgm_chunks(width, height, out, "P5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == write_pgm(step.image(read_pgm(data)), "P5")[-side * side:]
    (s0, s1), *_ = _row_strips(side, side + 2 * pad)
    strip = (s1 - s0 + 2 * pad) * (side + 2 * pad)
    assert peak / side**2 <= whole + ((ints * field * 16 / 15 + 3 * U8) * strip
                                      + 64 * 1024) / side**2
