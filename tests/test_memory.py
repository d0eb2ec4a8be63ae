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

import grayfilt._swar
from grayfilt import Image, read_pgm, save_pgm, write_pgm
from grayfilt._bytes import decode_pgm, load_pgm, p2_scan, pgm_chunks
from grayfilt._swar import _EDGE_TAPS, _FIXED_TAPS
from grayfilt.cli import _run
from grayfilt.convolution import _STRIP_PIXELS
from grayfilt.pipeline import OPS, _apply
from support import swar_side_at_cut

SIDE = 1024

#: Bytes per pixel of one full-size array of each dtype.
U8, I16, I32, F64 = 1, 2, 4, 8
#: The P5 path's own uint8 arrays: the decoded input, the output, the encoded
#: bytes, and one more for a codec temporary or a padded copy of the input.
IO = 4 * U8
#: Temporaries that do not grow with the image: up to four float64 strips of
#: _STRIP_PIXELS (2 B/px at 1024x1024), whatever one strip's arithmetic needs.
STRIPS = 4 * F64 * _STRIP_PIXELS / SIDE**2

#: (op, params, bound in bytes per input pixel): the full-size arrays each op
#: may hold at once. Ops that end in gray levels hold no signed full-size
#: array, so a full-size int32 or float64 intermediate exceeds their bound.
CASES = [
    ("negate", {}, IO),
    ("stretch", {"gamma": 2.0}, IO),
    ("lut", {"table": "lut.txt"}, IO),
    ("laplacian", {"variant": "eight", "display": "clamp"}, IO + STRIPS),
    # The rescale needs the whole range: one int32 correlation.
    ("laplacian", {"variant": "eight", "display": "rescale"}, IO + I32 + STRIPS),
    ("sharpen", {"variant": "four"}, IO + STRIPS),
    ("sharpen", {"variant": "eight"}, IO + STRIPS),
    ("unsharp", {"radius": 1, "display": "clamp"}, IO + STRIPS),
    ("unsharp", {"radius": 5, "display": "clamp"}, IO + STRIPS),
    # The rescale needs the whole range: one int16 difference.
    ("unsharp", {"radius": 1, "display": "rescale"}, IO + I16 + STRIPS),
    ("convolve", {"kernel": "real5.txt", "border": "replicate", "display": "clamp"},
     IO + STRIPS),
    # The rescale needs the whole range: one float64 correlation.
    ("convolve", {"kernel": "real5.txt", "border": "zero", "display": "rescale"},
     IO + F64 + STRIPS),
    ("convolve", {"kernel": "ones9.txt", "border": "replicate", "display": "clamp"},
     IO + STRIPS),
    # One bool array of threshold bits.
    ("binarize", {"threshold": 128}, IO + U8),
    # The threshold bits and their 0/255 image, whose Laplacian-four clamp
    # then runs in int16 strips.
    ("edges", {"threshold": 128}, IO + 2 * U8),
    # The saturating sum is taken in uint16.
    ("add", {"image": "second.pgm"}, IO + 2 * I16),
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
    params = {k: str(d / v) if k == "kernel" else v for k, v in params.items()}
    step = OPS[op].build(params)
    args = SimpleNamespace(input=str(src), output=str(dst), format="p5")
    tracemalloc.start()
    try:
        _run(args, [("", step)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dst.read_bytes() == write_pgm(step(read_pgm(data)), "P5")
    assert peak / SIDE**2 <= 2 * U8 + strips


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
    # the input is left as it was.
    _, original = files
    data = kind(original)
    read_pgm(data)
    tracemalloc.start()
    try:
        img = read_pgm(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert img.pixels.tobytes() == original[-SIDE * SIDE:]
    assert bytes(data) == original
    assert peak < 1.1 * SIDE**2 * U8


#: The P2 text of a level is at most 4 B: up to three digits and a separator.
P2_TEXT = 4 * U8


@pytest.mark.parametrize("fmt, bound", [
    # The raster, its translation, and the P5 output: no more than IO.
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


def test_read_pgm_p2_peak_bytes_per_pixel(files):
    # read_pgm decodes P2 with the table path's decoder, which holds the
    # raster it preallocates (1 B/px) and one slice's ints at a time: a
    # dozen or so of 64 KiB, under 1 MiB whatever the image's size.
    _, data = files
    pixels = read_pgm(data).pixels
    data = write_pgm(Image(pixels), "P2")
    tracemalloc.start()
    try:
        img = read_pgm(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(img.pixels, pixels)
    assert peak / SIDE**2 <= 3 * U8


def test_scanner_peak_bytes_per_pixel():
    # The token scanner, which p2_tokens hands its raster to from the first
    # slice with a token the SWAR decode refuses, holds the decoded raster
    # (1 B/px) and one token at a time: it does not copy the text after the
    # header. A smaller side keeps the token-by-token parse quick under
    # tracemalloc.
    side = SIDE // 4
    rng = np.random.default_rng(43)
    data = write_pgm(Image(rng.integers(0, 256, (side, side), np.uint8)), "P2")
    pos = data.index(b"255\n") + 3
    tracemalloc.start()
    try:
        values = p2_scan(data, pos, side * side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == read_pgm(data).pixels.tobytes()
    assert peak / side**2 <= 2 * U8


#: Each bytes step just below its cut (grayfilt._swar): op, params, its cost
#: a field, the ints it holds at once counted in full-size fields, and the
#: bytes of a field.
#: Python ints are allocated whole, so tracemalloc sees each one. At the peak
#: a correlation holds the widened raster, ones, the total, a shifted tap and
#: the next total; edges holds the raster, the OR so far, a shifted copy,
#: the next OR and a fifth for the AND-NOT; add holds one widened raster and,
#: while widening the other, its fields, their copy for int.from_bytes and
#: the int.
SWAR_CASES = [
    ("sharpen", {"variant": "eight"}, 9 + _FIXED_TAPS, 5, I16),
    ("laplacian", {"variant": "four", "display": "clamp"}, 5 + _FIXED_TAPS, 5, I16),
    ("shadow", {"invert": True}, 2 + _FIXED_TAPS, 5, I16),
    ("edges", {"threshold": 128}, _EDGE_TAPS, 5, U8),
    ("add", {"image": "second.pgm"}, 1 + _FIXED_TAPS, 4, I16),
]


@pytest.mark.parametrize("op, params, cost, ints, field", SWAR_CASES,
                         ids=[op for op, *_ in SWAR_CASES])
def test_bytes_step_peak_bytes_per_pixel_below_the_cut(tmp_path, op, params, cost, ints, field):
    # The largest square image below the step's cut, decoded, run through
    # the step's bytes form and encoded, as a CLI process runs it. Besides
    # the ints: the decoded raster, and one more byte per pixel for the
    # padded raster, the output and the P5 file. Every step but add pads
    # the image by one pixel.
    side = swar_side_at_cut(cost, 0 if op == "add" else 1)
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
    assert out == write_pgm(step(read_pgm(data)), "P5")[-side * side:]
    assert peak / side**2 <= ints * field + 2 * U8
