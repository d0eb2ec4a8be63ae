import io
import os
import random
import stat
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from grayfilt import (
    FormatError,
    Image,
    Kernel,
    load_pgm,
    parse_kernel,
    parse_lut,
    read_pgm,
    save_pgm,
    write_pgm,
)
from grayfilt import _bytes
from grayfilt._bytes import decode_pgm, frames, p2_scan
from support import WHITESPACE, header_int_brute

pixel_arrays = hnp.arrays(
    np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16))


def mutated(base, pieces):
    """``base`` with one to four slices replaced by drawn pieces: an empty
    piece deletes, an empty slice inserts, a slice to the end truncates."""
    @st.composite
    def strategy(draw):
        data = draw(base)
        for _ in range(draw(st.integers(1, 4))):
            start = draw(st.integers(0, len(data)))
            end = draw(st.integers(start, len(data)))
            data = data[:start] + draw(pieces) + data[end:]
        return data
    return strategy()


_HUGE = "99999999999999999999"
byte_pieces = st.sampled_from(
    [b"", b" ", b"\n", b"#", b"-", b"0", b"255", b"P2", b"P5", _HUGE.encode()]
) | st.binary(max_size=3)
text_pieces = st.sampled_from(
    ["", " ", "\n", "-", "0", "0.5", "1e999", "nan", _HUGE, "-" + _HUGE]
) | st.text(max_size=3)
small_arrays = hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=4))
#: Canonical P2 and P5 files of small images, mutated.
mutated_pgms = mutated(st.tuples(small_arrays, st.sampled_from(["P2", "P5"])).map(
    lambda case: write_pgm(Image(case[0]), case[1])), byte_pieces)
fuzz = settings(max_examples=100, deadline=None)


@st.composite
def p2_rasters(draw):
    """A P2 file of up to 5x5 pixels, with separators drawn from every
    whitespace byte. Half the rasters hold only tokens that the SWAR decode
    takes, perhaps too few of them; the rest mix 1-4 digit numbers up to 300
    (leading zeros too) with up to two tokens that only int() or nothing
    accepts, and trailing garbage. Returns (data, raster offset, (height, width))."""
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    count = width * height
    clean = draw(st.booleans())
    top, widest = (255, 3) if clean else (draw(st.sampled_from([255, 300])), 4)
    number = st.builds(lambda v, k: str(v).zfill(k).encode(),
                       st.integers(0, top), st.integers(1, widest))
    tokens = draw(st.lists(number, min_size=max(0, count - 2), max_size=count + 3))
    odd = [b"+7", b"1_0", b"0255", b"1000", b"#", b"3#c", b"-3", b"x", b"\xd9\xa3"]
    for token in [] if clean else draw(st.lists(st.sampled_from(odd), max_size=2)):
        tokens.insert(draw(st.integers(0, len(tokens))), token)
    trailing = [b"", b"999", b"0255"] + ([] if clean else [b"junk", b"#", b"\x80"])
    tokens.append(draw(st.sampled_from(trailing)))
    gap = st.binary(min_size=1, max_size=3).map(
        lambda b: bytes(WHITESPACE[c % len(WHITESPACE)] for c in b))
    raster = b"".join(draw(gap) + token for token in tokens)
    header = f"P2\n{width} {height}\n255".encode()
    # Room for 2 bytes a pixel, so read_pgm's size check passes and every
    # outcome comes from decoding the raster.
    raster += b" " * max(0, 2 * count - len(raster))
    return header + raster, len(header), (height, width)


header_pieces = st.sampled_from(
    [bytes([c]) for c in WHITESPACE + b"\x1c\x1d\x1e\x1f\x85\xa0\x00\xff0123456789+-_"]
    + [b"#", b"# c\n", b"#c", b"# # c\n", b"#\n", b"7#c", b"1_0", b"9" * 4301, b"1_" * 4400]
) | st.integers(1, 5000).map(lambda n: b"9" * n)


@pytest.fixture(scope="module")
def many_slices():
    """A seeded 300x300 P2 file, several slices of text long, whose tokens
    have 0 to 2 leading zeros and whose separators are 1 to 3 bytes drawn
    from every whitespace byte. Returns (data, raster offset, pixels)."""
    rng = np.random.default_rng(47)
    pixels = rng.integers(0, 256, (300, 300), np.uint8)
    widths = rng.integers(1, 4, pixels.size).tolist()
    gaps = rng.integers(0, len(WHITESPACE), (pixels.size, 3)).tolist()
    lengths = rng.integers(1, 4, pixels.size).tolist()
    header = b"P2\n300 300\n255"
    raster = b"".join(bytes(WHITESPACE[c] for c in gap[:n]) + str(v).zfill(w).encode()
                      for v, w, gap, n in zip(pixels.ravel().tolist(), widths, gaps, lengths))
    return header + raster + b"\n", len(header), pixels


class Trickle(io.RawIOBase):
    """A binary file of ``data`` whose reads give 1 to 9 bytes at a time, as
    ``rng`` draws them, like a pipe that a slow writer feeds."""

    def __init__(self, data, rng):
        self.data, self.pos, self.rng = data, 0, rng

    def readable(self):
        return True

    def readinto(self, buffer):
        n = min(len(buffer), self.rng.randint(1, 9), len(self.data) - self.pos)
        buffer[:n] = self.data[self.pos:self.pos + n]
        self.pos += n
        return n


class Endless(io.RawIOBase):
    """A binary file of ``head`` and then ``body`` repeated forever, which
    counts the bytes it gives."""

    def __init__(self, head, body):
        self.data, self.body, self.given = head, body, 0

    def readable(self):
        return True

    def readinto(self, buffer):
        while len(self.data) < len(buffer):
            self.data += self.body * 4096
        buffer[:] = self.data[:len(buffer)]
        self.data = self.data[len(buffer):]
        self.given += len(buffer)
        return len(buffer)


def outcome(decode):
    """What ``decode()`` returns, or the message of the FormatError it raises."""
    try:
        return decode()
    except FormatError as exc:
        return str(exc)


def scan(data, pos, count):
    """``p2_scan`` of the whole text of ``data`` from byte ``pos`` on."""
    return p2_scan(memoryview(data)[pos:], pos, count)


def whole(data, pos, shape):
    """The image :func:`scan` gives of the raster of ``data``, or the message
    ``decode_pgm`` gives where it finds too few tokens in the text."""
    count = shape[0] * shape[1]
    levels = scan(data, pos, count)
    if len(levels) < count:
        raise FormatError(f"truncated raster: need {count} pixels, "
                          f"found {len(levels)} by byte {len(data)}")
    return Image(np.frombuffer(levels, np.uint8).reshape(shape))


def swar_only(data):
    """The raster of ``decode_pgm`` with the token scanner shut off: the one
    the SWAR decode gives alone."""
    with mock.patch.object(_bytes, "p2_scan", side_effect=AssertionError("p2_scan ran")):
        return decode_pgm(data)[2]


class TestReadPgm:
    def test_p5_example(self):
        data = b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255])
        img = read_pgm(data)
        assert img.pixels.tolist() == [[0, 64], [128, 255]]

    def test_p2_example(self):
        img = read_pgm(b"P2\n1 1\n255\n7\n")
        assert img.pixels.tolist() == [[7]]

    def test_p5_truncated(self):
        data = b"P5\n2 2\n255\n" + bytes([0, 64, 128])
        with pytest.raises(FormatError, match="truncated"):
            read_pgm(data)

    def test_p2_truncated(self):
        with pytest.raises(FormatError, match="truncated"):
            read_pgm(b"P2\n2 2\n255\n1 2 3\n")

    def test_p2_header_larger_than_the_file(self):
        # Rejected before a raster of 10**10 pixels is allocated.
        with pytest.raises(FormatError, match="truncated raster"):
            read_pgm(b"P2\n100000 100000\n255\n1 2 3\n")
        # The bound is 2 bytes per pixel, which the shortest valid raster meets.
        assert read_pgm(b"P2\n2 1\n255\n1 2").pixels.tolist() == [[1, 2]]

    def test_comments_between_header_tokens(self):
        data = b"P5\n# scanner output\n2 1 # inline\n255\n" + bytes([5, 6])
        assert read_pgm(data).pixels.tolist() == [[5, 6]]

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            read_pgm(b"P3\n1 1\n255\n0 0 0\n")

    def test_wrong_maxval_rejected(self):
        with pytest.raises(FormatError, match="maxval"):
            read_pgm(b"P2\n1 1\n127\n7\n")

    def test_zero_dimension_rejected(self):
        with pytest.raises(FormatError, match=">= 1"):
            read_pgm(b"P2\n0 2\n255\n")

    def test_p2_pixel_above_maxval(self):
        with pytest.raises(FormatError, match="out of"):
            read_pgm(b"P2\n1 1\n255\n256\n")
        # Four digits whose last three are in range.
        with pytest.raises(FormatError, match="pixel value 1000 out of"):
            read_pgm(b"P2\n2 1\n255\n7 1000\n")

    def test_p2_negative_pixel(self):
        with pytest.raises(FormatError, match="out of"):
            read_pgm(b"P2\n1 1\n255\n-3\n")

    def test_p2_non_numeric_pixel(self):
        with pytest.raises(FormatError, match="non-numeric"):
            read_pgm(b"P2\n1 1\n255\nseven\n")

    def test_errors_carry_byte_offsets(self):
        with pytest.raises(FormatError, match="byte"):
            read_pgm(b"P2\n1 x\n255\n0\n")

    def test_p2_tolerates_trailing_whitespace(self):
        assert read_pgm(b"P2\n1 1\n255\n7\n\n  \n").pixels.tolist() == [[7]]

    def test_p2_accepts_what_int_accepts(self):
        data = b"P2\n5 1\n255\n+7 1_0 0255 007\x0b\x0c200 #trailing"
        assert read_pgm(data).pixels.tolist() == [[7, 10, 255, 7, 200]]

    def test_long_tokens_are_echoed_short(self):
        # int() refuses over 4300 digits: the message says so, in one short line.
        long = b"9" * 5000
        cases = [
            (b"P5 " + long + b" 1 255 x", "width: too many digits in token b'999", "at byte 3"),
            (b"P2 2 1 255 " + long + b" 3", "too many digits in pixel token", "at byte 11"),
            (b"P2 2 1 255 +" + long + b" 3", "too many digits in pixel token", "at byte 11"),
            (b"P2 1 1 255 " + b"9" * 4000, "pixel value 999", "at byte 11"),
            (b"P2 1 1 " + b"9" * 4000 + b" 7", "unsupported maxval 999", "accepted"),
            (b"P5 0 " + b"9" * 4000 + b" 255 x", "dimensions must be >= 1, got 0x999", "999"),
            # The product of two 4000-digit dimensions has too many digits to print.
            (b"P5 " + b"9" * 4000 + b" " + b"9" * 4000 + b" 255 x",
             "truncated raster: a 999", "cannot fit in 8010 bytes"),
            (b"P2 " + b"9" * 4000 + b" " + b"9" * 4000 + b" 255 1",
             "truncated raster: a 999", "cannot fit in 8010 bytes"),
            (b"P2 " + b"9" * 4000 + b" " + b"9" * 4000 + b" 255",
             "truncated raster: a 999", "cannot fit in 8008 bytes"),
            # Underscores between digits are valid, and not counted as digits.
            (b"P2 1 1 255 " + b"1_" * 4400 + b"1", "too many digits in pixel token b'1_1",
             "at byte 11"),
            (b"P5 " + b"1_" * 4400 + b"1 1 255 x", "width: too many digits in token", "at byte 3"),
            (b"P5 1 -" + b"1_" * 4400 + b"1 255 x", "height: too many digits in token", "at byte 5"),
            (b"P2 1 1 " + b"2_" * 4400 + b"5 7", "maxval: too many digits in token", "at byte 7"),
            # A trailing or doubled underscore is not.
            (b"P2 1 1 255 " + b"1_" * 4400, "non-numeric pixel token b'1_1", "at byte 11"),
            (b"P2 1 1 255 1__" + b"1" * 5000, "non-numeric pixel token b'1__", "at byte 11"),
        ]
        for data, start, end in cases:
            with pytest.raises(FormatError) as info:
                read_pgm(data)
            message = str(info.value)
            assert message.startswith(start) and message.endswith(end), message
            assert len(message) < 150
            assert outcome(lambda: decode_pgm(b"", Trickle(data, random.Random(0)))) == message

    @fuzz
    @given(st.lists(header_pieces, max_size=12).map(b"".join), st.integers(0, 60),
           st.sampled_from(["width", "height", "maxval"]))
    def test_header_int_agrees_with_byte_loop(self, data, pos, what):
        pos = min(pos, len(data))
        assert (outcome(lambda: _bytes._header_int(data, pos, len(data), what))
                == outcome(lambda: header_int_brute(data, pos, what)))

    @fuzz
    @given(st.lists(header_pieces, max_size=12).map(b"".join), st.integers(0, 60),
           st.integers(0, 60), st.sampled_from(["width", "height", "maxval"]))
    def test_header_int_reads_only_up_to_its_end(self, data, pos, end, what):
        # What follows end is never read: a header judged in place is the
        # header of the bytes up to end.
        data += b"7 # 255\n"
        end = min(end, len(data))
        pos = min(pos, end)
        assert (outcome(lambda: _bytes._header_int(data, pos, end, what))
                == outcome(lambda: header_int_brute(data[:end], pos, what)))

    @pytest.mark.parametrize("data, end", [
        (b"P5 # a comment\n 7 ", 8),  # in a comment token
        (b"P5 # a comment\n 7 ", 15),  # on the newline that ends it
        (b"P5    7 ", 5),  # in the whitespace before the integer
    ], ids=["comment", "newline", "whitespace"])
    def test_header_int_ending_before_its_token_is_an_unexpected_end(self, data, end):
        message = f"unexpected end of header at byte {end}"
        assert outcome(lambda: _bytes._header_int(data, 2, end, "width")) == message
        assert outcome(lambda: header_int_brute(data[:end], 2, "width")) == message

    def test_header_int_ending_in_its_token_reads_the_digits_before_it(self):
        data = b"P5 1234 "
        assert _bytes._header_int(data, 2, 5, "width") == (12, 5)
        assert header_int_brute(data[:5], 2, "width") == (12, 5)

    @pytest.mark.parametrize("data", ["P5\n1 1\n255\n\x00", 12, None])
    def test_input_that_is_not_bytes_is_refused(self, data):
        with pytest.raises(FormatError) as info:
            read_pgm(data)
        assert str(info.value) == "PGM input must be a byte sequence"

    @pytest.mark.parametrize("run, expected", [
        (b" ", (1, 1, b"\x00")),
        (b"9", "width: too many digits in token b'99999999999...9999999999999' at byte 3"),
    ], ids=["spaces", "digits"])
    def test_huge_header_is_read_in_linear_time(self, tmp_path, run, expected):
        # 10**7 bytes of whitespace, or a width of 10**7 digits, in memory
        # and from a file, whose header is judged again as each read fills.
        data = b"P5 " + run * 10**7 + b" 1 1 255\n\x00"
        (tmp_path / "wide.pgm").write_bytes(data)
        for read in (lambda: decode_pgm(data), lambda: _bytes.load_pgm(tmp_path / "wide.pgm")):
            start = time.perf_counter()
            assert outcome(read) == expected
            assert time.perf_counter() - start < 2

    @fuzz
    @given(p2_rasters())
    def test_p2_fast_path_agrees_with_scanner(self, case):
        # read_pgm gives the scanner's pixels or its message for every raster.
        data, pos, shape = case
        assert outcome(lambda: read_pgm(data)) == outcome(lambda: whole(data, pos, shape))

    @fuzz
    @given(p2_rasters(), st.sampled_from([1, 2, 3, 7, _bytes._SLICE, 1 << 16]))
    def test_bytes_decoder_agrees_with_read_pgm(self, case, slice_bytes):
        # The decoder the numpy-free table path runs, and read_pgm unsliced
        # (the test above): the scanner's pixels, or its message, for every
        # raster, however the text is sliced.
        data, pos, (height, width) = case
        expected = outcome(lambda: whole(data, pos, (height, width)))
        if isinstance(expected, Image):
            expected = (width, height, expected.pixels.tobytes())
        with mock.patch.object(_bytes, "_SLICE", slice_bytes):
            assert outcome(lambda: decode_pgm(data)) == expected

    @given(pixel_arrays)
    def test_canonical_p2_takes_the_fast_path(self, pixels):
        data = write_pgm(Image(pixels), "P2")
        assert swar_only(data) == pixels.tobytes()

    @pytest.mark.parametrize("tail", [b"# end\n", b"x", b"P5\n2 1\n255\n\x00\xff",
                                      b"P2\n2 1\n255\n0 255\n"])
    def test_trailing_data_keeps_the_fast_path(self, many_slices, tail):
        pixels = np.arange(12, dtype=np.uint8).reshape(3, 4) * 21
        data = write_pgm(Image(pixels), "P2") + tail
        assert swar_only(data) == pixels.tobytes()
        assert read_pgm(data) == Image(pixels)
        # After a raster of many slices, the count-th token ends in a later
        # slice, at an offset in it that moves with the slice size.
        data, pos, pixels = many_slices
        data += tail
        for slice_bytes in [_bytes._SLICE, 1 << 16, 4099, 1000, 61]:
            with mock.patch.object(_bytes, "_SLICE", slice_bytes):
                fast = swar_only(data)
            assert fast == scan(data, pos, pixels.size) == pixels.tobytes()

    def test_junk_joined_to_the_last_token_goes_to_the_scanner(self):
        data = write_pgm(Image([[7, 8]]), "P2").rstrip() + b"x"
        pos = data.index(b"255") + 3
        assert outcome(lambda: decode_pgm(data)) == outcome(lambda: scan(data, pos, 2))
        with pytest.raises(FormatError, match="non-numeric pixel token b'8x'"):
            read_pgm(data)

    @pytest.mark.parametrize("slice_bytes", [_bytes._SLICE, 1 << 16, 4099, 1000, 61])
    @pytest.mark.parametrize("shift", range(4))
    def test_rasters_of_many_slices_agree_with_the_scanner(self, many_slices, slice_bytes, shift):
        # Whitespace after the header moves every slice cut: onto a token's
        # first, middle or last digit, or onto the whitespace between tokens.
        data, pos, pixels = many_slices
        data = data[:pos] + b" " * shift + data[pos:]
        with mock.patch.object(_bytes, "_SLICE", slice_bytes):
            fast = swar_only(data)
        assert fast == scan(data, pos, pixels.size) == pixels.tobytes()

    @pytest.mark.parametrize("slice_bytes", [_bytes._SLICE, 1 << 16, 4099])
    @pytest.mark.parametrize("token, error", [
        (b"1000", "pixel value 1000 out of [0, 255]"),
        (b"256", "pixel value 256 out of [0, 255]"),
        (b"0255", None),
        (b"1x7", "non-numeric pixel token b'1x7'"),
    ])
    def test_a_bad_token_in_a_later_slice_goes_to_the_scanner(
            self, many_slices, slice_bytes, token, error):
        data, pos, pixels = many_slices
        at = data.index(b" ", len(data) * 3 // 4) + 1
        data = data[:at] + token + b" " + data[at:]
        count = pixels.size
        scanned = outcome(lambda: whole(data, pos, pixels.shape))
        with mock.patch.object(_bytes, "_SLICE", slice_bytes):
            assert outcome(lambda: read_pgm(data)) == scanned
        if error is None:
            # The token is pixel k, and the raster's last token is now trailing data.
            k = len(data[pos:at].split())
            levels = np.insert(pixels.ravel(), k, 255)[:count]
            assert scanned == Image(levels.reshape(pixels.shape))
        else:
            assert scanned == f"{error} at byte {at}"

    @pytest.mark.parametrize("slice_bytes", [_bytes._SLICE, 1 << 16, 4099])
    def test_a_bad_token_in_the_last_slice_is_scanned_from_that_slice(
            self, many_slices, slice_bytes):
        # The slices before the one holding `0050` are decoded already: the
        # scanner starts inside the last slice, not at the start of the raster.
        data, pos, pixels = many_slices
        end = len(data.rstrip())
        at = end - len(data.split()[-1])
        data = data[:at] + b"0050" + data[end:]
        assert len(data) - pos > 3 * slice_bytes
        starts = []

        def recorded(text, offset, *rest):
            starts.append(offset)
            return p2_scan(text, offset, *rest)

        with mock.patch.object(_bytes, "_SLICE", slice_bytes), \
                mock.patch.object(_bytes, "p2_scan", recorded):
            raster = decode_pgm(data)[2]
        assert raster == scan(data, pos, pixels.size) == pixels.tobytes()[:-1] + b"\x32"
        [start] = starts
        assert 0 < at - start <= slice_bytes

    @fuzz
    @given(st.one_of(p2_rasters().map(lambda case: case[0]), mutated_pgms),
           st.sampled_from([_bytes._SLICE, 1 << 16, 7, 61]), st.integers(0, 30),
           st.randoms(use_true_random=False))
    def test_reading_in_chunks_equals_decoding_in_memory(self, data, slice_bytes, head, rng):
        # decode_pgm reading a file that gives 1 to 9 bytes a read, after
        # the first ``head`` bytes given in memory, decodes the same pixels,
        # or raises the same message and byte offset, as on all the bytes in
        # memory: however the header, the reads and the pieces are cut.
        with mock.patch.object(_bytes, "_SLICE", slice_bytes):
            expected = outcome(lambda: decode_pgm(data))
            assert outcome(lambda: decode_pgm(data[:head], Trickle(data[head:], rng))) == expected

    @pytest.mark.parametrize("end", [b"", b"x", b" "], ids=["cut", "x", "space"])
    @pytest.mark.parametrize("pgm", [
        b"P5\n# c\n3 2\n255\n\x00\n\x14 \xfe\xff# end\n",
        b"P2\n# c\n3 2\n255\n0 10 20\n30 254 255\n# end\n",
    ], ids=["P5", "P2"])
    def test_every_prefix_reads_alike_from_memory_a_file_and_a_pipe(self, tmp_path, pgm, end):
        # A file's read buffer may be longer than what was read into it: no
        # judgement of the bytes read may look past them. The P5 raster holds
        # whitespace and 0xFF bytes.
        src = tmp_path / "in.pgm"
        for cut in range(len(pgm) + 1):
            data = pgm[:cut] + end
            src.write_bytes(data)
            expected = outcome(lambda: decode_pgm(data))
            assert outcome(lambda: _bytes.load_pgm(src)) == expected, data
            trickle = Trickle(data, random.Random(cut))
            assert outcome(lambda: decode_pgm(b"", trickle)) == expected, data

    @pytest.mark.parametrize("slice_bytes", [_bytes._SLICE, 1 << 16, 7])
    def test_a_bad_token_in_text_too_short_for_the_raster_reads_on(self, slice_bytes):
        # Text too short to hold the raster, 2 bytes a pixel, is the first
        # fault: a bad token ahead of it is reported only once the text has
        # been read on to that length, or to its end.
        head = b"P2\n100 100\n255\nx "
        with mock.patch.object(_bytes, "_SLICE", slice_bytes):
            data = head + b"0 " * 5000
            message = "truncated raster: need 10000 pixels, file ends at byte 10017"
            assert outcome(lambda: decode_pgm(b"", Trickle(data, random.Random(1)))) == message
            # An endless input is read, its bytes dropped as they come, up to
            # 2 bytes a pixel; then the token is the fault.
            endless = Endless(head, b"0 ")
            with pytest.raises(FormatError, match=r"^non-numeric pixel token b'x' at byte 15$"):
                decode_pgm(b"", endless)
            # The raster's text starts at byte 14, the whitespace after 255. The
            # reads past it fill the buffer once: about two pieces.
            assert 14 + 2 * 10000 <= endless.given <= 14 + 2 * 10000 + 2 * _bytes._SLICE

    def test_a_non_plain_token_sends_only_its_piece_to_the_scanner(self):
        # The first token is written "+v", which the SWAR decode refuses: the
        # scanner decodes that token's piece alone, and SWAR every later one.
        pixels = np.random.default_rng(48).integers(0, 256, (300, 300), np.uint8)
        data = write_pgm(Image(pixels), "P2")
        pos = data.index(b"255\n") + 4
        data = data[:pos] + b"+" + data[pos:]
        assert len(data) - pos > 3 * _bytes._SLICE
        scanned = []

        def recorded(text, offset, count):
            scanned.append((offset, len(text)))
            return p2_scan(text, offset, count)

        with mock.patch.object(_bytes, "p2_scan", recorded):
            assert read_pgm(data) == Image(pixels)
        [(offset, length)] = scanned
        # A piece runs to the first whitespace byte _SLICE bytes on or later.
        assert offset == pos - 1 and length <= _bytes._SLICE + 3

    @pytest.mark.parametrize("slice_bytes", [_bytes._SLICE, 1 << 16, 4099, 61])
    def test_a_piece_whose_tokens_all_decode_is_decoded_once(self, many_slices, slice_bytes):
        # Valid tokens follow the raster, so the last piece holds more than it
        # needs: its levels are cut to the count, not decoded a second time.
        data, pos, pixels = many_slices
        data += b"7 8 9\n" * 4
        pieces, decodes = [], []

        def counted(real, calls):
            def call(*args):
                calls.append(args)
                return real(*args)
            return call

        with mock.patch.object(_bytes, "_SLICE", slice_bytes), \
                mock.patch.object(_bytes, "_p2_piece", counted(_bytes._p2_piece, pieces)), \
                mock.patch.object(_bytes, "_p2_levels", counted(_bytes._p2_levels, decodes)):
            assert decode_pgm(data)[2] == pixels.tobytes()
        assert len(pieces) > 1 and len(decodes) == len(pieces)
        assert pieces[-1][0].split()[-1] == b"9"


def read_frames(path):
    """The (width, height, raster) of every frame of the file at ``path``."""
    with open(path, "rb", buffering=0) as fh:
        return [(width, height, bytes(raster)) for width, height, raster in frames(fh)]


class TestFrames:
    """``frames`` reads a stream of PGM images, each as ``decode_pgm`` reads
    one, from what the one before left over."""

    @fuzz
    @given(st.lists(st.tuples(small_arrays, st.sampled_from(["P2", "P5"])), min_size=1,
                    max_size=4),
           st.sampled_from([b"", b"\n", b" \t\n"]),
           st.sampled_from([b"", b"# end\n", b"x", b"7 8"]),
           st.sampled_from([_bytes._SLICE, 7, 61]), st.randoms(use_true_random=False))
    def test_a_stream_reads_back_as_its_frames(self, images, sep, tail, slice_bytes, rng):
        # A piece of P2 text, or a P5 read, may run on into the next frame:
        # however the reads and the pieces are cut, each frame comes back.
        data = sep.join(write_pgm(Image(pixels), fmt) for pixels, fmt in images) + tail
        expected = [(pixels.shape[1], pixels.shape[0], pixels.tobytes()) for pixels, _ in images]
        with mock.patch.object(_bytes, "_SLICE", slice_bytes):
            got = [(w, h, bytes(raster)) for w, h, raster in frames(Trickle(data, rng))]
        assert got == expected

    @pytest.fixture
    def two_frames(self):
        rng = np.random.default_rng(66)
        images = [Image(rng.integers(0, 256, (150, 200), np.uint8)),
                  Image(rng.integers(0, 256, (90, 70), np.uint8))]
        data = write_pgm(images[0], "P5") + b"\n" + write_pgm(images[1], "P2") + b"# end\n"
        return data, [(img.width, img.height, img.pixels.tobytes()) for img in images]

    def test_two_frames_from_a_file(self, tmp_path, two_frames):
        data, expected = two_frames
        src = tmp_path / "in.pgm"
        src.write_bytes(data)
        assert read_frames(src) == expected
        assert load_pgm(src) == read_pgm(data) == Image(
            np.frombuffer(expected[0][2], np.uint8).reshape(150, 200))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_two_frames_from_a_fifo(self, tmp_path, two_frames):
        data, expected = two_frames
        fifo = tmp_path / "in.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(data)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            assert read_frames(fifo) == expected
        finally:
            writer.join(timeout=60)

    @pytest.mark.parametrize("second, message", [
        (b"P5\n2 x\n255\n\x03\x04", "frame 2: height: non-numeric token b'x' at byte 5"),
        (b"P5x", "frame 2: expected whitespace after magic at byte 2"),
        (b"P5\n2 1\n255\n\x03", "frame 2: truncated raster: need 2 bytes, file ends at byte 12"),
        (b"\nP2\n2 1\n255\n3", "frame 2: truncated raster: need 2 pixels, file ends at byte 12"),
    ], ids=["bad-header", "no-whitespace", "short-p5", "short-p2"])
    def test_a_fault_in_a_later_frame_names_it(self, tmp_path, second, message):
        # Offsets count from the frame's own magic.
        src = tmp_path / "in.pgm"
        src.write_bytes(b"P5\n2 1\n255\n\x01\x02" + second)
        with pytest.raises(FormatError) as caught:
            read_frames(src)
        assert str(caught.value) == message


class TestWritePgm:
    def test_canonical_p2_layout(self):
        img = Image([[0, 100, 255], [10, 128, 200]])
        assert write_pgm(img, "P2") == b"P2\n3 2\n255\n0 100 255\n10 128 200\n"

    def test_canonical_p5_layout(self):
        img = Image([[0, 64], [128, 255]])
        assert write_pgm(img, "P5") == b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255])

    @given(pixel_arrays)
    def test_p2_matches_per_pixel_formatting(self, pixels):
        body = "".join(" ".join(map(str, row)) + "\n" for row in pixels.tolist())
        header = f"P2\n{pixels.shape[1]} {pixels.shape[0]}\n255\n"
        assert write_pgm(Image(pixels), "P2") == (header + body).encode("ascii")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(Image([[0]]), "P7")
        with pytest.raises(ValueError):
            save_pgm(tmp_path / "a.pgm", Image([[0]]), "P7")
        assert os.listdir(tmp_path) == []

    @given(pixel_arrays)
    def test_round_trip_p5(self, pixels):
        img = Image(pixels)
        assert read_pgm(write_pgm(img, "P5")) == img

    @given(pixel_arrays)
    def test_round_trip_p2(self, pixels):
        img = Image(pixels)
        assert read_pgm(write_pgm(img, "P2")) == img

    @given(pixel_arrays)
    def test_rewrite_after_read_is_byte_identical(self, pixels):
        img = Image(pixels)
        for fmt in ("P2", "P5"):
            data = write_pgm(img, fmt)
            assert write_pgm(read_pgm(data), fmt) == data

    @given(pixel_arrays)
    def test_both_formats_read_back_equal(self, pixels):
        img = Image(pixels)
        assert read_pgm(write_pgm(img, "P2")) == read_pgm(write_pgm(img, "P5"))

    def test_write_is_deterministic(self):
        a = Image([[1, 2], [3, 4]])
        b = Image(np.array([[1, 2], [3, 4]], dtype=np.int64))
        assert write_pgm(a, "P5") == write_pgm(b, "P5")


class TestFileHelpers:
    def test_save_and_load(self, tmp_path):
        img = Image([[9, 0], [255, 17]])
        path = tmp_path / "out.pgm"
        save_pgm(path, img, "P5")
        assert load_pgm(path) == img

    def test_save_and_load_a_bytes_path(self, tmp_path):
        img = Image([[1, 2], [3, 4]])
        path = os.fsencode(tmp_path / "out.pgm")
        save_pgm(path, img, "P2")
        assert load_pgm(path) == img
        assert os.listdir(tmp_path) == ["out.pgm"]

    def test_load_text_rejects_binary(self, tmp_path):
        from grayfilt.imgio import load_text
        path = tmp_path / "junk.bin"
        path.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x81]))
        with pytest.raises(FormatError, match="not a text file"):
            load_text(path)

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        save_pgm(tmp_path / "a.pgm", Image([[1]]))
        assert sorted(os.listdir(tmp_path)) == ["a.pgm"]

    def test_atomic_save_skips_a_taken_temp_name(self, tmp_path, monkeypatch):
        taken = tmp_path / f".tmp-{bytes(4).hex()}"
        taken.write_bytes(b"keep")
        draws = iter([bytes(4), b"\x01" * 4])
        monkeypatch.setattr(os, "urandom", lambda n: next(draws))
        save_pgm(tmp_path / "a.pgm", Image([[1]]))
        assert taken.read_bytes() == b"keep"
        assert sorted(os.listdir(tmp_path)) == [taken.name, "a.pgm"]

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_new_output_mode_follows_the_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            save_pgm(tmp_path / "a.pgm", Image([[1]]))
        finally:
            os.umask(previous)
        assert stat.S_IMODE(os.stat(tmp_path / "a.pgm").st_mode) == mode

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    @pytest.mark.parametrize("mode, kept", [(0o600, 0o600), (0o640, 0o640), (0o444, 0o444),
                                            (0o4755, 0o755)])
    def test_rewrite_keeps_the_mode_of_the_file_it_replaces(self, tmp_path, mode, kept):
        # Only the permission bits: new content does not inherit a setuid bit.
        path = tmp_path / "a.pgm"
        save_pgm(path, Image([[1]]))
        path.chmod(mode)
        save_pgm(path, Image([[2]]))
        assert stat.S_IMODE(os.stat(path).st_mode) == kept
        assert load_pgm(path) == Image([[2]])

    def test_failed_write_names_the_path_not_the_temp_file(self, tmp_path):
        path = tmp_path / "no-such-dir" / "a.pgm"
        with pytest.raises(FileNotFoundError) as info:
            save_pgm(path, Image([[1]]))
        assert info.value.filename == str(path)
        (tmp_path / "d").mkdir()
        with pytest.raises(OSError) as info:
            save_pgm(tmp_path / "d", Image([[1]]))  # a directory cannot be replaced by a file
        assert info.value.filename == str(tmp_path / "d")
        assert os.listdir(tmp_path) == ["d"]

    def test_load_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_pgm(tmp_path / "missing.pgm")


class TestFuzz:
    """Mutated inputs give a value or a FormatError, never anything else."""

    @fuzz
    @given(mutated_pgms)
    def test_read_pgm(self, data):
        try:
            assert isinstance(read_pgm(data), Image)
        except FormatError:
            pass

    @fuzz
    @given(mutated(st.sampled_from(["3 3\n0 1 0\n1 -4 1\n0 1 0\n", "1 3\n0.25 -0.5 2e-1\n",
                                    "5 1\n1\n-2\n3\n-2\n1\n"]), text_pieces))
    def test_parse_kernel(self, text):
        try:
            assert isinstance(parse_kernel(text), Kernel)
        except FormatError:
            pass

    @fuzz
    @given(mutated(st.integers(0, 255).map(
        lambda c: " ".join(str(i * c % 256) for i in range(256))), text_pieces))
    def test_parse_lut(self, text):
        try:
            table = parse_lut(text)
        except FormatError:
            return
        assert table.dtype == np.uint8 and table.shape == (256,)


class TestParseKernel:
    def test_four_neighbor_laplacian(self):
        text = "3 3\n0 1 0\n1 -4 1\n0 1 0\n"
        assert parse_kernel(text) == Kernel([[0, 1, 0], [1, -4, 1], [0, 1, 0]])

    def test_identity_kernel(self):
        assert parse_kernel("1 1\n1\n") == Kernel([[1.0]])

    def test_real_coefficients(self):
        k = parse_kernel("1 3\n0.25 -0.5 2e-1\n")
        assert k.coeffs.tolist() == [[0.25, -0.5, 0.2]]

    def test_even_dimensions_rejected(self):
        with pytest.raises(FormatError, match="odd"):
            parse_kernel("2 2\n1 0\n0 1\n")

    def test_wrong_row_width_names_line(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_kernel("3 3\n0 1 0\n1 -4\n0 1 0\n")

    def test_non_numeric_names_line(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_kernel("1 1\nx\n")

    def test_missing_rows_rejected(self):
        with pytest.raises(FormatError, match="rows"):
            parse_kernel("3 3\n0 1 0\n")

    def test_dimensions_are_echoed_short(self):
        cases = [
            ("9" * 5000 + " 3\n1 1 1\n", "line 1: too many digits in dimension '999"),
            ("3 +" + "9" * 5000 + "\n", "line 1: too many digits in dimension '+999"),
            ("x" * 5000 + " 3\n1 1 1\n", "line 1: non-numeric dimension 'xxx"),
            ("3 " + "1_" * 4400 + "1\n", "line 1: too many digits in dimension '1_1"),
            # Dimensions int() accepts, but too long to echo whole.
            ("9" * 4000 + " 3\n1 1 1\n", "expected 999"),
            ("3 " + "9" * 4000 + "\n1 1 1\n", "line 2: expected 999"),
            ("-" + "9" * 4000 + " 3\n", "line 1: dimensions must be positive, got -999"),
        ]
        for text, start in cases:
            with pytest.raises(FormatError) as info:
                parse_kernel(text)
            message = str(info.value)
            assert message.startswith(start) and len(message) < 120, message

    @pytest.mark.parametrize("text", ["", "\n3 3\n0 1 0\n1 -4 1\n0 1 0\n", " \t\n1 1\n1\n"],
                             ids=["empty", "blank-first-line", "spaces-first-line"])
    def test_missing_dimensions_are_named(self, text):
        with pytest.raises(FormatError) as info:
            parse_kernel(text)
        assert str(info.value) == "line 1: missing kernel dimensions"

    def test_extra_rows_rejected(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_kernel("1 1\n1\n2\n")

    def test_all_zero_kernel_rejected(self):
        with pytest.raises(FormatError, match="^kernel must have at least one nonzero coefficient$"):
            parse_kernel("1 3\n0 0 0\n")

    @pytest.mark.parametrize("text, message", [
        ("1 1\n1e400\n", "line 2: coefficient '1e400' is inf as a float: "
                          "kernel coefficients must be finite"),
        ("1 3\n1e-400 2 -1E999\n", "line 2: coefficient '-1E999' is -inf as a float: "
                                   "kernel coefficients must be finite"),
        ("3 1\n0\n1\nnan\n", "line 4: coefficient 'nan' is nan as a float: "
                             "kernel coefficients must be finite"),
        ("1 1\n1e-400\n", "line 2: coefficient '1e-400' is 0.0 as a float: "
                           "kernel must have at least one nonzero coefficient"),
        ("3 1\n0.0e9\n\n-2_5e-999\n1e-400\n", "line 4: coefficient '-2_5e-999' is -0.0 as "
                                               "a float: kernel must have at least one nonzero "
                                               "coefficient"),
    ])
    def test_a_token_a_float_misreads_is_named(self, text, message):
        # A finite token past a float's range reads as inf, and a nonzero one
        # below it as 0: the message names the line and the token.
        with pytest.raises(FormatError) as info:
            parse_kernel(text)
        assert str(info.value) == message

    def test_an_underflowing_token_beside_a_nonzero_one_reads_as_zero(self):
        assert parse_kernel("1 3\n1e-400 1 0\n").coeffs.tolist() == [[0.0, 1.0, 0.0]]

    def test_blank_lines_tolerated(self):
        assert parse_kernel("1 1\n\n1\n\n") == Kernel([[1.0]])


class TestParseLut:
    def test_valid_table(self):
        table = parse_lut(" ".join(str(255 - i) for i in range(256)))
        assert table.tolist() == [255 - i for i in range(256)]

    def test_wrong_entry_count(self):
        with pytest.raises(FormatError, match="256"):
            parse_lut("1 2 3")

    def test_non_numeric_entry(self):
        with pytest.raises(FormatError, match="non-numeric"):
            parse_lut(" ".join(["1"] * 255 + ["x"]))

    def test_long_entry_is_echoed_short(self):
        for entry in ("9" * 5000, "+" + "9" * 5000, "1_" * 4400 + "1"):
            with pytest.raises(FormatError, match="too many digits in entry") as info:
                parse_lut(" ".join(["1"] * 255 + [entry]))
            assert len(str(info.value)) < 100

    def test_out_of_range_entry(self):
        with pytest.raises(FormatError, match="must lie"):
            parse_lut(" ".join(["256"] * 256))
        # Entries too wide for int64 are out of range too, not an overflow.
        for entry in (10**20, -10**20):
            with pytest.raises(FormatError, match="must lie"):
                parse_lut(" ".join(["0"] * 255 + [str(entry)]))
