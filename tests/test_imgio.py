import os
import stat
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
from grayfilt._bytes import decode_pgm, p2_scan, p2_tokens
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
fuzz = settings(max_examples=100, deadline=None)


@st.composite
def p2_rasters(draw):
    """A P2 file of up to 5x5 pixels, with separators drawn from every
    whitespace byte. Half the rasters hold only tokens that the SWAR decode
    of p2_tokens takes, perhaps too few of them; the rest mix 1-4 digit
    numbers up to 300 (leading zeros too) with up to two tokens that only
    int() or nothing accepts, and trailing garbage. Returns (data, raster offset, (height, width))."""
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


def outcome(decode):
    """What ``decode()`` returns, or the message of the FormatError it raises."""
    try:
        return decode()
    except FormatError as exc:
        return str(exc)


def swar_only(data, pos, count):
    """``p2_tokens`` with the token scanner shut off: the raster the SWAR
    decode gives alone."""
    with mock.patch.object(_bytes, "p2_scan", side_effect=AssertionError("p2_scan ran")):
        return p2_tokens(data, pos, count)


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

    @fuzz
    @given(st.lists(header_pieces, max_size=12).map(b"".join), st.integers(0, 60),
           st.sampled_from(["width", "height", "maxval"]))
    def test_header_int_agrees_with_byte_loop(self, data, pos, what):
        pos = min(pos, len(data))
        assert (outcome(lambda: _bytes._header_int(data, pos, what))
                == outcome(lambda: header_int_brute(data, pos, what)))

    @pytest.mark.parametrize("run, expected", [
        (b" ", (1, 1, b"\x00")),
        (b"9", "width: too many digits in token b'99999999999...9999999999999' at byte 3"),
    ], ids=["spaces", "digits"])
    def test_huge_header_is_read_in_linear_time(self, run, expected):
        # 10**7 bytes of whitespace, or a width of 10**7 digits.
        data = b"P5 " + run * 10**7 + b" 1 1 255\n\x00"
        start = time.perf_counter()
        assert outcome(lambda: decode_pgm(data)) == expected
        assert time.perf_counter() - start < 2

    @fuzz
    @given(p2_rasters())
    def test_p2_fast_path_agrees_with_scanner(self, case):
        # read_pgm, and p2_tokens alone, give the scanner's pixels or its
        # message for every raster.
        data, pos, shape = case
        count = shape[0] * shape[1]
        scanned = outcome(lambda: Image(np.frombuffer(p2_scan(data, pos, count), np.uint8)
                                       .reshape(shape)))
        assert outcome(lambda: read_pgm(data)) == scanned
        assert outcome(lambda: Image(np.frombuffer(p2_tokens(data, pos, count), np.uint8)
                                     .reshape(shape))) == scanned

    @fuzz
    @given(p2_rasters(), st.sampled_from([1, 2, 3, 7, _bytes._SLICE]))
    def test_bytes_decoder_agrees_with_read_pgm(self, case, slice_bytes):
        # The decoder the numpy-free table path runs: the same pixels, or
        # the same message, for every raster, however the text is sliced.
        data, pos, (height, width) = case
        expected = outcome(lambda: read_pgm(data))
        if isinstance(expected, Image):
            expected = (width, height, expected.pixels.tobytes())
        with mock.patch.object(_bytes, "_SLICE", slice_bytes):
            assert outcome(lambda: decode_pgm(data)) == expected
            fast = outcome(lambda: p2_tokens(data, pos, width * height))
        assert fast == outcome(lambda: p2_scan(data, pos, width * height))

    @given(pixel_arrays)
    def test_canonical_p2_takes_the_fast_path(self, pixels):
        data = write_pgm(Image(pixels), "P2")
        pos = data.index(b"255") + 3
        assert swar_only(data, pos, pixels.size) == pixels.tobytes()

    @pytest.mark.parametrize("tail", [b"# end\n", b"x", b"P5\n2 1\n255\n\x00\xff",
                                      b"P2\n2 1\n255\n0 255\n"])
    def test_trailing_data_keeps_the_fast_path(self, many_slices, tail):
        pixels = np.arange(12, dtype=np.uint8).reshape(3, 4) * 21
        data = write_pgm(Image(pixels), "P2") + tail
        pos = data.index(b"255") + 3
        assert swar_only(data, pos, pixels.size) == pixels.tobytes()
        assert read_pgm(data) == Image(pixels)
        # After a raster of many slices, the count-th token ends in a later
        # slice, at an offset in it that moves with the slice size.
        data, pos, pixels = many_slices
        data += tail
        for slice_bytes in [_bytes._SLICE, 4099, 1000, 61]:
            with mock.patch.object(_bytes, "_SLICE", slice_bytes):
                fast = swar_only(data, pos, pixels.size)
            assert fast == p2_scan(data, pos, pixels.size) == pixels.tobytes()

    def test_junk_joined_to_the_last_token_goes_to_the_scanner(self):
        data = write_pgm(Image([[7, 8]]), "P2").rstrip() + b"x"
        pos = data.index(b"255") + 3
        assert outcome(lambda: p2_tokens(data, pos, 2)) == outcome(lambda: p2_scan(data, pos, 2))
        with pytest.raises(FormatError, match="non-numeric pixel token b'8x'"):
            read_pgm(data)

    @pytest.mark.parametrize("slice_bytes", [_bytes._SLICE, 4099, 1000, 61])
    @pytest.mark.parametrize("shift", range(4))
    def test_rasters_of_many_slices_agree_with_the_scanner(self, many_slices, slice_bytes, shift):
        # Whitespace after the header moves every slice cut: onto a token's
        # first, middle or last digit, or onto the whitespace between tokens.
        data, pos, pixels = many_slices
        data = data[:pos] + b" " * shift + data[pos:]
        with mock.patch.object(_bytes, "_SLICE", slice_bytes):
            fast = swar_only(data, pos, pixels.size)
        assert fast == p2_scan(data, pos, pixels.size) == pixels.tobytes()

    @pytest.mark.parametrize("slice_bytes", [_bytes._SLICE, 4099])
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
        scanned = outcome(lambda: Image(np.frombuffer(p2_scan(data, pos, count), np.uint8)
                                        .reshape(pixels.shape)))
        with mock.patch.object(_bytes, "_SLICE", slice_bytes):
            assert outcome(lambda: Image(np.frombuffer(p2_tokens(data, pos, count), np.uint8)
                                         .reshape(pixels.shape))) == scanned
            assert outcome(lambda: read_pgm(data)) == scanned
        if error is None:
            # The token is pixel k, and the raster's last token is now trailing data.
            k = len(data[pos:at].split())
            levels = np.insert(pixels.ravel(), k, 255)[:count]
            assert scanned == Image(levels.reshape(pixels.shape))
        else:
            assert scanned == f"{error} at byte {at}"

    @pytest.mark.parametrize("slice_bytes", [_bytes._SLICE, 4099])
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

        def scan(data, pos, *rest):
            starts.append(pos)
            return p2_scan(data, pos, *rest)

        with mock.patch.object(_bytes, "_SLICE", slice_bytes), \
                mock.patch.object(_bytes, "p2_scan", scan):
            raster = p2_tokens(data, pos, pixels.size)
        assert raster == p2_scan(data, pos, pixels.size) == pixels.tobytes()[:-1] + b"\x32"
        [start] = starts
        assert 0 < at - start <= slice_bytes


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
    @given(mutated(st.tuples(small_arrays, st.sampled_from(["P2", "P5"])).map(
        lambda case: write_pgm(Image(case[0]), case[1])), byte_pieces))
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

    def test_extra_rows_rejected(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_kernel("1 1\n1\n2\n")

    def test_all_zero_kernel_rejected(self):
        with pytest.raises(FormatError, match="nonzero"):
            parse_kernel("1 3\n0 0 0\n")

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
