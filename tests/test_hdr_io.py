"""RGBE / PFM codec tests: hand-assembled files, round-trips, error paths."""

import math
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from wdrtone import hdr_io, parallel
from wdrtone.errors import HdrFormatError, ParameterError


# Headers that claim far more pixels than their bytes hold: 200000 scanlines
# with no payload; 60000 scanlines, under the pixel limit, with no payload; and
# one 4e9-pixel row of one pixel plus four chained legacy repeat markers.
DECOMPRESSION_BOMBS = [
    b"#?RADIANCE\n\n-Y 200000 +X 200000\n",
    b"#?RADIANCE\n\n-Y 60000 +X 1000\n",
    b"#?RADIANCE\n\n-Y 1 +X 4000000000\n" + bytes((128, 128, 128, 128)) + bytes((1, 1, 1, 255)) * 4,
]


# A 1x1 grayscale little-endian PFM whose one value is a signalling NaN; the
# float32 -> float64 cast flags it as an invalid operation.
SIGNALLING_NAN_PFM = b"Pf\n1 1\n-1.0\n" + bytes([0x00, 0x80, 0x95, 0xFF])


def radiance_bytes(width, height, rgbe_rows):
    """Hand-rolled flat Radiance file, independent of the library writer."""
    header = f"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y {height} +X {width}\n".encode()
    payload = bytearray()
    for row in rgbe_rows:
        for px in row:
            payload.extend(px)
    return header + bytes(payload)


def hdr_from_values(values):
    return hdr_io.HdrImage(np.asarray(values, dtype=np.float64))


RADIANCE_HEADER = "#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y {} +X {}\n"


def rle_scanline(width, components):
    """One adaptive-RLE scanline from four hand-written code streams."""
    return bytes((2, 2, width >> 8, width & 0xFF)) + b"".join(components)


def run(value, length):
    return bytes((128 + length, value))


def literal(values):
    return bytes((len(values),)) + bytes(values)


class TestRadianceDecode:
    def test_zero_exponent_is_black(self):
        data = radiance_bytes(1, 1, [[(0, 0, 0, 0)]])
        img = hdr_io.read_radiance_hdr(data)
        assert img.pixels.tolist() == [[[0.0, 0.0, 0.0]]]

    def test_zero_exponent_ignores_mantissas(self):
        data = radiance_bytes(1, 1, [[(50, 60, 70, 0)]])
        img = hdr_io.read_radiance_hdr(data)
        assert img.pixels.tolist() == [[[0.0, 0.0, 0.0]]]

    def test_unit_pixel(self):
        # independent check: (128/256) * 2**(129-128) == 1.0
        data = radiance_bytes(1, 1, [[(128, 128, 128, 129)]])
        img = hdr_io.read_radiance_hdr(data)
        assert img.pixels.tolist() == [[[1.0, 1.0, 1.0]]]

    def test_decode_rule_against_direct_formula(self):
        pixels = [(200, 17, 255, 140), (3, 128, 64, 120)]
        data = radiance_bytes(2, 1, [pixels])
        img = hdr_io.read_radiance_hdr(data)
        for x, (r, g, b, e) in enumerate(pixels):
            expected = [(m / 256.0) * 2.0 ** (e - 128) for m in (r, g, b)]
            assert img.pixels[0, x].tolist() == expected

    def test_rgbe_magic_accepted(self):
        data = b"#?RGBE\n\n-Y 1 +X 1\n" + bytes((128, 128, 128, 128))
        img = hdr_io.read_radiance_hdr(data)
        assert img.pixels[0, 0, 0] == 0.5

    def test_legacy_repeat_marker(self):
        # (1,1,1,count) repeats the previous pixel count times
        row = [(128, 0, 0, 129), (1, 1, 1, 3)]
        data = radiance_bytes(4, 1, [row])
        img = hdr_io.read_radiance_hdr(data)
        assert np.array_equal(img.pixels[0], np.tile([1.0, 0.0, 0.0], (4, 1)))

    def test_bad_magic_raises(self):
        with pytest.raises(HdrFormatError):
            hdr_io.read_radiance_hdr(b"NOTHDR\n\n-Y 1 +X 1\n\x00\x00\x00\x00")

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"#?RADIANCE", "Radiance header has no newline"),
            (b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 1", "missing resolution line"),
            (b"#?RADIANCE\n\n-Y 0 +X 4\n", "resolution must be positive"),
        ],
        ids=["no_newline", "no_resolution_line", "zero_rows"],
    )
    def test_malformed_header_raises(self, data, message):
        with pytest.raises(HdrFormatError, match=f"^{message}$"):
            hdr_io.read_radiance_hdr(data)

    def test_unsupported_orientation_raises(self):
        data = b"#?RADIANCE\n\n+Y 1 +X 1\n" + bytes(4)
        with pytest.raises(HdrFormatError, match="only '-Y H \\+X W' orientation"):
            hdr_io.read_radiance_hdr(data)

    def test_unsupported_format_raises(self):
        data = b"#?RADIANCE\nFORMAT=32-bit_rle_xyze\n\n-Y 1 +X 1\n" + bytes(4)
        with pytest.raises(HdrFormatError):
            hdr_io.read_radiance_hdr(data)

    def test_truncated_scanline_raises(self):
        data = radiance_bytes(2, 2, [[(128, 128, 128, 128)] * 2] * 2)
        with pytest.raises(HdrFormatError, match="flat scanline truncated"):
            hdr_io.read_radiance_hdr(data[:-3])

    def test_truncated_rle_raises(self):
        img = hdr_from_values(np.linspace(0.1, 9.0, 16 * 2 * 3).reshape(2, 16, 3))
        data = hdr_io.write_radiance_hdr(img)
        with pytest.raises(HdrFormatError, match="RLE scanline truncated"):
            hdr_io.read_radiance_hdr(data[:-2])

    @pytest.mark.parametrize("data", DECOMPRESSION_BOMBS, ids=["tall", "short_payload", "wide"])
    def test_decompression_bomb_rejected_before_allocation(self, data):
        tracemalloc.start()
        try:
            with pytest.raises(HdrFormatError):
                hdr_io.read_radiance_hdr(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestRleScanlines:
    def test_run_of_127(self):
        width = 127
        row = rle_scanline(width, [run(200, 127), run(10, 127), run(0, 127), run(130, 127)])
        img = hdr_io.read_radiance_hdr(RADIANCE_HEADER.format(1, width).encode() + row)
        expected = [math.ldexp(m, 130 - 136) for m in (200, 10, 0)]
        assert np.array_equal(img.pixels[0], np.tile(expected, (width, 1)))

    def test_literal_of_128(self):
        width = 128
        red = list(range(128, 256))
        row = rle_scanline(width, [literal(red), run(5, 127) + run(5, 1), literal([0] * 128), run(129, 127) + literal([129])])
        img = hdr_io.read_radiance_hdr(RADIANCE_HEADER.format(1, width).encode() + row)
        assert img.pixels[0, :, 0].tolist() == [math.ldexp(m, 129 - 136) for m in red]
        assert (img.pixels[0, :, 1] == math.ldexp(5, -7)).all()
        assert (img.pixels[0, :, 2] == 0.0).all()

    def test_run_ending_exactly_at_the_width(self):
        width = 10
        component = literal([131, 132, 133]) + run(140, 7)
        row = rle_scanline(width, [component] * 3 + [run(128, 10)])
        img = hdr_io.read_radiance_hdr(RADIANCE_HEADER.format(1, width).encode() + row)
        expected = np.array([131, 132, 133] + [140] * 7) / 256.0
        assert np.array_equal(img.pixels[0], np.repeat(expected[:, None], 3, axis=1))

    def test_literal_overrunning_by_one_raises(self):
        width = 10
        component = run(140, 7) + literal([1, 2, 3, 4])
        row = rle_scanline(width, [component] * 3 + [run(128, 10)])
        with pytest.raises(HdrFormatError, match="RLE literal overruns scanline"):
            hdr_io.read_radiance_hdr(RADIANCE_HEADER.format(1, width).encode() + row)

    def test_flat_and_rle_scanlines_mix_in_one_file(self):
        width = 8
        rle_row = rle_scanline(width, [run(160, 8), literal(range(200, 208)), run(0, 8), run(129, 8)])
        flat_row = bytes(np.arange(32, dtype=np.uint8) | 0x80)
        data = RADIANCE_HEADER.format(3, width).encode() + rle_row + flat_row + rle_row
        img = hdr_io.read_radiance_hdr(data)
        expected_rle = np.stack([np.full(8, 160), np.arange(200, 208), np.zeros(8)], axis=1) / 128.0
        flat = np.frombuffer(flat_row, np.uint8).reshape(8, 4).tolist()
        expected_flat = [[math.ldexp(m, e - 136) for m in (r, g, b)] for r, g, b, e in flat]
        assert np.array_equal(img.pixels[0], expected_rle)
        assert np.array_equal(img.pixels[1], expected_flat)
        assert np.array_equal(img.pixels[2], expected_rle)

    def test_bytes_bytearray_and_memoryview_decode_alike(self):
        img = hdr_from_values(np.exp(np.random.default_rng(4).normal(0, 2, (3, 20, 3))))
        data = hdr_io.write_radiance_hdr(img)
        decoded = [hdr_io.read_radiance_hdr(kind(data)).pixels for kind in (bytes, bytearray, memoryview)]
        assert np.array_equal(decoded[0], decoded[1])
        assert np.array_equal(decoded[0], decoded[2])


class TestRleErrors:
    """Each RLE fault raises its own message, after valid flat and RLE rows."""

    WIDTH = 8
    VALID_ROWS = (
        rle_scanline(8, [run(160, 8), literal(range(200, 208)), run(0, 8), run(129, 8)])
        + bytes(np.arange(32, dtype=np.uint8) | 0x80)  # a flat row
        + rle_scanline(8, [literal([140] * 3) + run(150, 5), run(7, 8), run(7, 8), run(130, 8)])
    )

    @pytest.mark.parametrize(
        "last_row, message",
        [
            (bytes((2, 2)), "scanline header truncated"),
            (rle_scanline(8, [run(160, 8), literal([130] * 3)]), "RLE scanline truncated"),
            (rle_scanline(8, [run(160, 8), bytes((128 + 8,))]), "RLE run truncated"),
            (rle_scanline(8, [bytes((8, 140, 141, 142))]), "RLE literal truncated"),
            (rle_scanline(8, [run(160, 4), bytes((0, 140)) * 4]), "zero-length RLE literal"),
            (rle_scanline(8, [run(160, 5) + run(161, 4)] + [run(0, 8)] * 3), "RLE run overruns scanline"),
            (
                rle_scanline(8, [run(160, 5) + literal([1, 2, 3, 4])] + [run(0, 8)] * 3),
                "RLE literal overruns scanline",
            ),
            (rle_scanline(9, [run(160, 9)] * 4), "RLE scanline width disagrees with header"),
        ],
        ids=[
            "header_truncated",
            "scanline_truncated",
            "run_truncated",
            "literal_truncated",
            "zero_length_literal",
            "run_overrun",
            "literal_overrun",
            "width_mismatch",
        ],
    )
    def test_fault_in_the_last_row_raises_its_message(self, last_row, message):
        valid = hdr_io.read_radiance_hdr(RADIANCE_HEADER.format(3, self.WIDTH).encode() + self.VALID_ROWS)
        assert valid.pixels.shape == (3, self.WIDTH, 3)
        data = RADIANCE_HEADER.format(4, self.WIDTH).encode() + self.VALID_ROWS + last_row
        with pytest.raises(HdrFormatError, match=f"^{message}$"):
            hdr_io.read_radiance_hdr(data)


class TestLegacyRepeatMarkers:
    # literals, a marker, a literal, then two consecutive markers: the second
    # repeats 1 << 8 times, because consecutive markers shift by 8
    PIXELS = [(200, 10, 10, 130), (150, 20, 30, 129), (140, 0, 0, 128), (1, 1, 1, 2),
              (130, 130, 130, 131), (1, 1, 1, 1), (1, 1, 1, 1), (255, 1, 2, 127)]
    WIDTH = 3 + 2 + 1 + 1 + 256 + 1

    def expected_rgbe(self):
        p = self.PIXELS
        return np.array([p[0], p[1], p[2], p[2], p[2], p[4]] + [p[4]] * 257 + [p[7]], np.uint8)

    def test_markers_expand_with_shift_for_consecutive_markers(self):
        data = radiance_bytes(self.WIDTH, 2, [self.PIXELS] * 2)
        img = hdr_io.read_radiance_hdr(data)
        expected = hdr_io.rgbe_to_radiance(self.expected_rgbe())
        assert np.array_equal(img.pixels, np.stack([expected, expected]))

    @pytest.mark.parametrize(
        "pixels, width, message",
        [
            ([(1, 1, 1, 3), (128, 128, 128, 128)], 4, "repeat marker with no preceding pixel"),
            ([(128, 128, 128, 128), (1, 1, 1, 3)], 3, "repeat marker overruns scanline"),
            ([(128, 128, 128, 128), (1, 1, 1, 1), (1, 1, 1, 1)], 300, "flat scanline truncated"),
        ],
        ids=["marker_at_pixel_0", "overrun", "truncated"],
    )
    def test_malformed_rows_raise(self, pixels, width, message):
        with pytest.raises(HdrFormatError, match=message):
            hdr_io.read_radiance_hdr(radiance_bytes(width, 1, [pixels]))


class TestExponentTable:
    def test_every_exponent_and_mantissa(self):
        e, m = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        rgbe = np.stack([m, m, m, e], axis=-1).astype(np.uint8)
        got = hdr_io.rgbe_to_radiance(rgbe)
        expected = np.array(
            [[0.0 if ei == 0 else math.ldexp(mi, ei - 136) for mi in range(256)] for ei in range(256)]
        )
        assert np.array_equal(got, np.repeat(expected[..., None], 3, axis=-1))
        assert not np.signbit(got).any()  # exponent 0 gives +0.0


class TestRadianceRoundTrip:
    def test_rle_and_flat_decode_identically_2x2(self):
        img = hdr_from_values([[[0.5, 1.0, 2.0], [0.0, 0.25, 8.0]],
                               [[3.5, 0.125, 1.5], [4.0, 4.0, 4.0]]])
        written = hdr_io.write_radiance_hdr(img)  # flat: width 2 is below RLE's minimum
        flat = radiance_bytes(2, 2, hdr_io.radiance_to_rgbe(img.pixels))
        a = hdr_io.read_radiance_hdr(written)
        b = hdr_io.read_radiance_hdr(flat)
        assert np.array_equal(a.pixels, b.pixels)

    def test_rle_and_flat_decode_identically_wide(self):
        # width 16 engages the adaptive RLE scanline layout
        rng = np.random.default_rng(3)
        values = np.exp(rng.normal(0, 3, (4, 16, 3)))
        values[1, 2:9] = 0.75  # force a run
        values[2] = 0.0
        img = hdr_from_values(values)
        rle = hdr_io.write_radiance_hdr(img)
        flat = radiance_bytes(16, 4, hdr_io.radiance_to_rgbe(values))
        assert rle != flat  # RLE actually kicked in
        a = hdr_io.read_radiance_hdr(rle)
        b = hdr_io.read_radiance_hdr(flat)
        assert np.array_equal(a.pixels, b.pixels)

    def test_huge_radiance_rejected(self):
        img = hdr_from_values([[[2.0**127, 0.0, 0.0]]])
        with pytest.raises(ParameterError, match="cannot be stored as RGBE"):
            hdr_io.write_radiance_hdr(img)

    @pytest.mark.parametrize("width, rle", [(7, False), (8, True), (32767, True), (32768, False)])
    def test_rle_exactly_at_widths_8_to_32767(self, width, rle):
        values = np.exp(np.random.default_rng(width).normal(0, 2, (1, width, 3)))
        data = hdr_io.write_radiance_hdr(hdr_from_values(values))
        header = RADIANCE_HEADER.format(1, width).encode()
        assert data.startswith(header)
        row = data[len(header) :]
        assert (row[:4] == bytes((2, 2, width >> 8, width & 0xFF))) == rle
        if not rle:
            assert row == hdr_io.radiance_to_rgbe(values).tobytes()
        expected = hdr_io.rgbe_to_radiance(hdr_io.radiance_to_rgbe(values))
        assert np.array_equal(hdr_io.read_radiance_hdr(data).pixels, expected)


class TestFlatRowCollisions:
    """A raw row's (1, 1, 1, x) pixel reads as a repeat marker and a leading
    (2, 2, b < 128, x) pixel as an RLE row header. The encoder emits either
    only at exponent 1, so the writer blacks out markers and no more."""

    def test_encoder_collides_only_at_exponent_1(self):
        grid = np.array([0, 1, 2, 3, 4, 7, 8, 63, 64, 127, 128, 129, 200, 255], np.uint8)
        r, g, b, e = np.meshgrid(grid, grid, grid, np.arange(256, dtype=np.uint8), indexing="ij")
        raw = np.stack([r, g, b, e], axis=-1).reshape(-1, 4)
        rng = np.random.default_rng(5)
        magnitudes = np.ldexp(rng.random((200000, 3)), rng.integers(-150, 127, (200000, 1)))
        for source in (hdr_io.rgbe_to_radiance(raw), magnitudes):
            rgbe = hdr_io.radiance_to_rgbe(source)
            marker = (rgbe[:, 0] == 1) & (rgbe[:, 1] == 1) & (rgbe[:, 2] == 1)
            row_header = (rgbe[:, 0] == 2) & (rgbe[:, 1] == 2) & (rgbe[:, 2] < 128)
            assert (marker | row_header).any()  # the colliding patterns are reached...
            assert (rgbe[marker | row_header, 3] == 1).all()  # ...only at exponent 1

    def test_deep_shadow_marker_pixel_is_written_black(self):
        pixels = np.full((1, 3, 3), 0.5)
        pixels[0, 1] = 2.0**-135  # encodes as (1, 1, 1, 1)
        assert hdr_io.radiance_to_rgbe(pixels[0, 1]).tolist() == [1, 1, 1, 1]
        data = hdr_io.write_radiance_hdr(hdr_from_values(pixels))
        assert data.endswith(bytes((128, 128, 128, 128, 0, 0, 0, 0, 128, 128, 128, 128)))
        expected = pixels.copy()
        expected[0, 1] = 0.0
        assert np.array_equal(hdr_io.read_radiance_hdr(data).pixels, expected)


class TestPfm:
    def test_writer_emits_little_endian(self):
        values = np.array([[[0.5, 1.0, 2.0], [3.0, 4.0, 5.0]], [[6.0, 7.0, 8.0], [9.0, 10.0, 11.0]]])
        values[0, 0, 0] = 1 / 3  # a value whose float32 bytes are not a palindrome
        data = hdr_io.write_pfm(hdr_from_values(values))
        header = b"PF\n2 2\n-1.0\n"
        assert data.startswith(header)
        assert data[len(header) :] == values[::-1].astype("<f4").tobytes()

    def test_color_little_endian_1x1(self):
        data = b"PF\n1 1\n-1.0\n" + struct.pack("<3f", 0.5, 0.25, 0.125)
        img = hdr_io.read_pfm(data)
        assert img.pixels.tolist() == [[[0.5, 0.25, 0.125]]]

    def test_color_big_endian_1x1(self):
        data = b"PF\n1 1\n1.0\n" + struct.pack(">3f", 0.5, 0.25, 0.125)
        img = hdr_io.read_pfm(data)
        assert img.pixels.tolist() == [[[0.5, 0.25, 0.125]]]

    def test_grayscale_replicates(self):
        data = b"Pf\n1 1\n-1.0\n" + struct.pack("<f", 2.0)
        img = hdr_io.read_pfm(data)
        assert img.pixels.tolist() == [[[2.0, 2.0, 2.0]]]

    def test_rows_stored_bottom_to_top(self):
        # 1 wide, 2 tall; first stored row must land at the output's bottom
        bottom = struct.pack("<3f", 1.0, 1.0, 1.0)
        top = struct.pack("<3f", 3.0, 3.0, 3.0)
        data = b"PF\n1 2\n-1.0\n" + bottom + top
        img = hdr_io.read_pfm(data)
        assert img.pixels[0, 0, 0] == 3.0  # top row of the image
        assert img.pixels[1, 0, 0] == 1.0

    def test_bad_magic(self):
        with pytest.raises(HdrFormatError):
            hdr_io.read_pfm(b"P5\n1 1\n255\n\x00")

    def test_zero_size_rejected(self):
        with pytest.raises(HdrFormatError, match="^PFM dimensions must be positive$"):
            hdr_io.read_pfm(b"PF\n0 4\n-1.0\n")

    def test_truncated_payload(self):
        data = b"PF\n2 2\n-1.0\n" + struct.pack("<3f", 1, 1, 1)
        with pytest.raises(HdrFormatError, match="PFM payload holds 12 bytes, needs 48"):
            hdr_io.read_pfm(data)

    def test_non_finite_rejected(self):
        data = b"PF\n1 1\n-1.0\n" + struct.pack("<3f", np.inf, 0, 0)
        with pytest.raises(HdrFormatError):
            hdr_io.read_pfm(data)

    def test_negative_rejected(self):
        data = b"PF\n1 1\n-1.0\n" + struct.pack("<3f", -1.0, 0, 0)
        with pytest.raises(HdrFormatError):
            hdr_io.read_pfm(data)

    @pytest.mark.parametrize(
        "data",
        [
            SIGNALLING_NAN_PFM,
            b"Pf\n1 1\n1.0\n" + bytes([0xFF, 0x95, 0x80, 0x00]),
            b"Pf\n1 1\n-inf\n" + bytes(4),
            b"Pf\n1 1\n-1e300\n" + struct.pack("<f", 1e30),
        ],
        ids=["snan_little", "snan_big", "infinite_scale", "scale_overflow"],
    )
    def test_non_finite_after_decode_raises_without_warning(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HdrFormatError):
                hdr_io.read_pfm(data)

    def test_decode_keeps_one_raster(self):
        height, width = 200, 300
        rng = np.random.default_rng(7)
        for magic, channels in ((b"PF", 3), (b"Pf", 1)):
            stored = np.abs(rng.normal(0, 10, (height, width, channels))).astype("<f4")
            data = magic + f"\n{width} {height}\n-1.0\n".encode() + stored.tobytes()
            expected = np.repeat(stored[::-1].astype(np.float64), 3 // channels, axis=2)
            tracemalloc.start()
            try:
                pixels = hdr_io.read_pfm(data).pixels
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * pixels.nbytes, (magic, peak / pixels.nbytes)
            assert pixels.flags.c_contiguous and not pixels.flags.writeable
            assert np.array_equal(pixels, expected)
            for alias in (bytearray(data), memoryview(data)):
                assert np.array_equal(hdr_io.read_pfm(alias).pixels, expected)


class TestLdrOutput:
    def test_endpoints(self):
        rgb = np.array([[[1.0, 0.0, 1.0]]])
        ldr = hdr_io.quantize_ldr(rgb, gamma=1.0)
        assert ldr.pixels.tolist() == [[[255, 0, 255]]]

    def test_zero_any_gamma(self):
        rgb = np.zeros((1, 1, 3))
        assert hdr_io.quantize_ldr(rgb, gamma=7.3).pixels.max() == 0

    def test_midpoint_gamma_22(self):
        # round(255 * 0.5**(1/2.2)) == 186 by direct evaluation
        rgb = np.full((1, 1, 3), 0.5)
        assert hdr_io.quantize_ldr(rgb, gamma=2.2).pixels[0, 0, 0] == 186

    def test_out_of_range_raises(self):
        with pytest.raises(ParameterError, match="display values must lie in"):
            hdr_io.quantize_ldr(np.full((1, 1, 3), 1.001), gamma=1.0)
        with pytest.raises(ParameterError, match="display values must lie in"):
            hdr_io.quantize_ldr(np.full((1, 1, 3), -0.001), gamma=1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ParameterError, match="display values must lie in"):
                hdr_io.quantize_ldr(np.full((1, 1, 3), bad), gamma=1.0)
            # the last value of a larger raster
            rgb = np.full((40, 1000, 3), 0.5)
            rgb[-1, -1, -1] = bad
            with pytest.raises(ParameterError, match="display values must lie in"):
                hdr_io.quantize_ldr(rgb, gamma=2.2)

    def test_out_of_range_in_a_later_strip_raises(self):
        # 200 rows span four row strips, and the bad value sits in the last one
        for bad in (-0.1, 1.1, np.nan, np.inf, -np.inf):
            rgb = np.full((200, 1000, 3), 0.5)
            rgb[-2, 500, 1] = bad
            with pytest.raises(ParameterError, match="display values must lie in"):
                hdr_io.quantize_ldr(rgb, gamma=2.2)

    def test_caller_raster_is_left_unchanged(self, monkeypatch):
        # three workers over six strips, each encoding its rows in a scratch buffer
        monkeypatch.setattr(parallel, "STRIP_ROWS", 7)
        rgb = np.random.default_rng(3).random((40, 30, 3))
        before = rgb.tobytes()
        with parallel.WorkerPool(3) as pool:
            monkeypatch.setattr(hdr_io, "SERIAL", pool)
            ldr = hdr_io.quantize_ldr(rgb, gamma=2.2)
        assert rgb.tobytes() == before
        assert np.array_equal(ldr.pixels, np.rint(255.0 * rgb ** (1 / 2.2)).astype(np.uint8))

    def test_empty_raster_encodes(self):
        assert hdr_io.quantize_ldr(np.zeros((0, 4, 3)), 2.2).pixels.shape == (0, 4, 3)

    def test_raster_without_channels_raises(self):
        with pytest.raises(ParameterError, match=r"^expected a \(H, W, 3\) raster, got shape \(4, 4\)$"):
            hdr_io.quantize_ldr(np.zeros((4, 4)), 2.2)

    def test_bad_gamma_raises(self):
        for gamma in (0.0, -2.2, np.inf, np.nan):
            with pytest.raises(ParameterError):
                hdr_io.quantize_ldr(np.zeros((1, 2, 3)), gamma)

    def test_ppm_container(self):
        rgb = np.full((2, 3, 3), 0.5)
        data = hdr_io.encode_ppm(hdr_io.quantize_ldr(rgb, 1.0))
        assert data.startswith(b"P6\n3 2\n255\n")
        assert len(data) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3

    def test_png_container_round_trips(self):
        PIL = pytest.importorskip("PIL.Image")
        import io as _io

        rng = np.random.default_rng(0)
        rgb = rng.random((4, 5, 3))
        data = hdr_io.encode_png(hdr_io.quantize_ldr(rgb, 2.2))
        decoded = np.asarray(PIL.open(_io.BytesIO(data)))
        assert np.array_equal(decoded, hdr_io.quantize_ldr(rgb, 2.2).pixels)

    def test_png_container_decodes_with_stdlib(self):
        rng = np.random.default_rng(1)
        rgb = rng.random((3, 7, 3))  # non-square: a width/height swap shows
        data = hdr_io.encode_png(hdr_io.quantize_ldr(rgb, 2.2))
        assert data[:8] == b"\x89PNG\r\n\x1a\n"
        chunks, pos = [], 8
        while pos < len(data):
            (length,) = struct.unpack(">I", data[pos : pos + 4])
            tag, body = data[pos + 4 : pos + 8], data[pos + 8 : pos + 8 + length]
            (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
            assert crc == zlib.crc32(tag + body), tag
            chunks.append((tag, body))
            pos += 12 + length
        assert pos == len(data)
        assert [tag for tag, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
        # width, height, bit depth 8, colour type 2 (RGB), compression, filter, interlace
        assert struct.unpack(">IIBBBBB", chunks[0][1]) == (7, 3, 8, 2, 0, 0, 0)
        rows = np.frombuffer(zlib.decompress(chunks[1][1]), dtype=np.uint8)
        rows = rows.reshape(3, 1 + 7 * 3)
        assert (rows[:, 0] == 0).all()  # filter type None on every row
        expected = hdr_io.quantize_ldr(rgb, 2.2).pixels
        assert np.array_equal(rows[:, 1:].reshape(3, 7, 3), expected)
        assert chunks[2][1] == b""

    def test_png_rejects_empty_image(self):
        with pytest.raises(ParameterError):
            hdr_io.encode_png(hdr_io.LdrImage(np.zeros((0, 4, 3), dtype=np.uint8)))

    def test_save_ldr_extension_dispatch(self, tmp_path):
        ldr = hdr_io.quantize_ldr(np.full((1, 1, 3), 0.25), gamma=1.0)
        ppm = tmp_path / "out.ppm"
        png = tmp_path / "out.png"
        hdr_io.save_ldr(ppm, ldr)
        hdr_io.save_ldr(png, ldr)
        assert ppm.read_bytes().startswith(b"P6")
        assert png.read_bytes().startswith(b"\x89PNG")


class TestImageTypes:
    def test_hdr_image_rejects_nan(self):
        bad = np.full((1, 1, 3), np.nan)
        with pytest.raises(ParameterError):
            hdr_io.HdrImage(bad)

    def test_hdr_image_rejects_negative(self):
        with pytest.raises(ParameterError):
            hdr_io.HdrImage(np.full((1, 1, 3), -0.5))

    def test_hdr_image_rejects_bad_shape(self):
        with pytest.raises(ParameterError):
            hdr_io.HdrImage(np.zeros((4, 4)))

    def test_pixels_are_read_only(self):
        img = hdr_from_values(np.ones((2, 2, 3)))
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 2.0

    @pytest.mark.parametrize("bad", [np.zeros((2, 2, 3)), np.zeros((2, 2), np.uint8)])
    def test_ldr_image_rejects_bad_dtype_or_shape(self, bad):
        with pytest.raises(ParameterError):
            hdr_io.LdrImage(bad)

    @pytest.mark.parametrize("cls, dtype", [(hdr_io.HdrImage, np.float64), (hdr_io.LdrImage, np.uint8)])
    def test_writeable_input_is_copied_and_frozen(self, cls, dtype):
        source = np.ones((2, 3, 3), dtype)
        image = cls(source)
        assert not np.shares_memory(image.pixels, source)
        assert source.flags.writeable and not image.pixels.flags.writeable
        assert (image.width, image.height) == (3, 2)

    @pytest.mark.parametrize(
        "cls, dtype, poke", [(hdr_io.HdrImage, np.float64, -1.0), (hdr_io.LdrImage, np.uint8, 0)]
    )
    def test_read_only_view_of_writeable_memory_is_copied(self, cls, dtype, poke):
        source = np.ones((8, 8, 3), dtype)
        view = source.view()
        view.flags.writeable = False
        image = cls(view)
        source[0, 0, 0] = poke  # past the checks, had the view been adopted
        assert image.pixels.min() == 1
        # a read-only array that owns its memory is adopted as it is
        owned = np.ones((8, 8, 3), dtype)
        owned.flags.writeable = False
        assert cls(owned).pixels is owned

    def test_load_hdr_file_sniffs_content(self, tmp_path):
        img = hdr_from_values(np.full((2, 2, 3), 0.5))
        as_hdr = tmp_path / "scene.weird"
        as_hdr.write_bytes(hdr_io.write_radiance_hdr(img))
        loaded = hdr_io.load_hdr_file(as_hdr)
        assert loaded.width == 2
        as_pfm = tmp_path / "scene2.weird"
        as_pfm.write_bytes(hdr_io.write_pfm(img))
        assert hdr_io.load_hdr_file(as_pfm).height == 2
        junk = tmp_path / "junk.hdr"
        junk.write_bytes(b"hello world")
        with pytest.raises(HdrFormatError):
            hdr_io.load_hdr_file(junk)


def _valid_files():
    """One valid file per decoder path: RLE, flat and narrow .hdr; PF both ways; Pf;
    and RLE with full-length codes (runs of 127, literals of 128)."""
    rng = np.random.default_rng(31)
    pixels = np.exp(rng.normal(0, 3, (3, 12, 3)))
    pixels[1, 2:10] = 0.75  # a run the RLE encoder compresses
    img = hdr_io.HdrImage(pixels)
    narrow = hdr_io.HdrImage(pixels[:, :5])
    gray = np.exp(rng.normal(0, 3, 8)).astype("<f4").tobytes()
    long_codes = np.full((2, 300, 3), 0.75)
    long_codes[:, :130] = np.linspace(1.0, 1.99, 130)[:, None] * [1.0, 0.6, 0.3]  # every byte changes
    return [
        hdr_io.write_radiance_hdr(img),
        radiance_bytes(12, 3, hdr_io.radiance_to_rgbe(pixels)),
        hdr_io.write_radiance_hdr(narrow),
        hdr_io.write_pfm(img),
        b"PF\n12 3\n1.0\n" + pixels[::-1].astype(">f4").tobytes(),
        b"Pf\n4 2\n-1.0\n" + gray,
        hdr_io.write_radiance_hdr(hdr_io.HdrImage(long_codes)),
    ]


VALID_FILES = _valid_files()


class TestDecoderMutations:
    def test_long_code_file_holds_full_runs_and_literals(self):
        data = VALID_FILES[-1]
        width = 300
        payload = data[data.index(b"+X 300\n") + 7 :]
        first_red = payload[4 : payload.index(bytes((2, 2, width >> 8, width & 0xFF)), 4)]
        codes, pos, x = [], 0, 0
        while x < width:
            code = first_red[pos]
            codes.append(code)
            length = code - 128 if code > 128 else code
            pos += 2 if code > 128 else 1 + code
            x += length
        assert 128 in codes and 255 in codes

    def test_valid_files_decode(self):
        assert VALID_FILES[0] != VALID_FILES[1]  # RLE actually kicked in
        for data in VALID_FILES:
            decode = hdr_io.read_radiance_hdr if data.startswith(b"#?") else hdr_io.read_pfm
            assert decode(data).pixels.size > 0
