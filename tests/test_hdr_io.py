"""RGBE / PFM codec tests: hand-assembled files, round-trips, error paths."""

import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wdrtone import hdr_io
from wdrtone.errors import (
    HdrFormatError,
    ParameterError,
    RangeError,
    TruncationError,
    UnsupportedOrientationError,
)
from wdrtone.parallel import WorkerPool


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

    def test_unsupported_orientation_raises(self):
        data = b"#?RADIANCE\n\n+Y 1 +X 1\n" + bytes(4)
        with pytest.raises(UnsupportedOrientationError):
            hdr_io.read_radiance_hdr(data)

    def test_unsupported_format_raises(self):
        data = b"#?RADIANCE\nFORMAT=32-bit_rle_xyze\n\n-Y 1 +X 1\n" + bytes(4)
        with pytest.raises(HdrFormatError):
            hdr_io.read_radiance_hdr(data)

    def test_truncated_scanline_raises(self):
        data = radiance_bytes(2, 2, [[(128, 128, 128, 128)] * 2] * 2)
        with pytest.raises(TruncationError):
            hdr_io.read_radiance_hdr(data[:-3])

    def test_truncated_rle_raises(self):
        img = hdr_from_values(np.linspace(0.1, 9.0, 16 * 2 * 3).reshape(2, 16, 3))
        data = hdr_io.write_radiance_hdr(img, run_length=True)
        with pytest.raises(TruncationError):
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


class TestRadianceRoundTrip:
    def test_rle_and_flat_decode_identically_2x2(self):
        img = hdr_from_values([[[0.5, 1.0, 2.0], [0.0, 0.25, 8.0]],
                               [[3.5, 0.125, 1.5], [4.0, 4.0, 4.0]]])
        rle = hdr_io.write_radiance_hdr(img, run_length=True)
        flat = hdr_io.write_radiance_hdr(img, run_length=False)
        a = hdr_io.read_radiance_hdr(rle)
        b = hdr_io.read_radiance_hdr(flat)
        assert np.array_equal(a.pixels, b.pixels)

    def test_rle_and_flat_decode_identically_wide(self):
        # width 16 engages the adaptive RLE scanline layout
        rng = np.random.default_rng(3)
        values = np.exp(rng.normal(0, 3, (4, 16, 3)))
        values[1, 2:9] = 0.75  # force a run
        values[2] = 0.0
        img = hdr_from_values(values)
        rle = hdr_io.write_radiance_hdr(img, run_length=True)
        flat = hdr_io.write_radiance_hdr(img, run_length=False)
        assert rle != flat  # RLE actually kicked in
        a = hdr_io.read_radiance_hdr(rle)
        b = hdr_io.read_radiance_hdr(flat)
        assert np.array_equal(a.pixels, b.pixels)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_decode_encode_decode_idempotent(self, width, height, seed, rle):
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 256, (height, width, 4), dtype=np.uint8)
        first = hdr_io.rgbe_to_radiance(raw)
        second = hdr_io.read_radiance_hdr(
            hdr_io.write_radiance_hdr(hdr_io.HdrImage(first), run_length=rle)
        ).pixels
        assert np.array_equal(first, second)

    def test_huge_radiance_rejected(self):
        img = hdr_from_values([[[2.0**127, 0.0, 0.0]]])
        with pytest.raises(RangeError):
            hdr_io.write_radiance_hdr(img)


class TestPfm:
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

    def test_truncated_payload(self):
        data = b"PF\n2 2\n-1.0\n" + struct.pack("<3f", 1, 1, 1)
        with pytest.raises(TruncationError):
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

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_round_trip_bit_exact(self, width, height, seed, little):
        rng = np.random.default_rng(seed)
        values = np.abs(rng.normal(0, 100, (height, width, 3))).astype(np.float32)
        img = hdr_io.HdrImage(values.astype(np.float64))
        back = hdr_io.read_pfm(hdr_io.write_pfm(img, little_endian=little))
        assert np.array_equal(back.pixels, img.pixels)


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
        with pytest.raises(RangeError):
            hdr_io.quantize_ldr(np.full((1, 1, 3), 1.001), gamma=1.0)
        with pytest.raises(RangeError):
            hdr_io.quantize_ldr(np.full((1, 1, 3), -0.001), gamma=1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(RangeError):
                hdr_io.quantize_ldr(np.full((1, 1, 3), bad), gamma=1.0)
            # the last value of a raster spanning several encode blocks and row strips
            rgb = np.full((40, 1000, 3), 0.5)
            rgb[-1, -1, -1] = bad
            with WorkerPool(3) as pool, pytest.raises(RangeError):
                hdr_io.quantize_ldr(rgb, gamma=2.2, pool=pool)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.05, 8.0),
    )
    def test_monotone_in_value(self, v1, v2, gamma):
        lo, hi = sorted((v1, v2))
        rgb = np.array([[[lo, hi, hi]]])
        out = hdr_io.quantize_ldr(rgb, gamma).pixels
        assert out[0, 0, 0] <= out[0, 0, 1]

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
    """One valid file per decoder path: RLE, flat and narrow .hdr; PF both ways; Pf."""
    rng = np.random.default_rng(31)
    pixels = np.exp(rng.normal(0, 3, (3, 12, 3)))
    pixels[1, 2:10] = 0.75  # a run the RLE encoder compresses
    img = hdr_io.HdrImage(pixels)
    narrow = hdr_io.HdrImage(pixels[:, :5])
    gray = np.exp(rng.normal(0, 3, 8)).astype("<f4").tobytes()
    return [
        hdr_io.write_radiance_hdr(img),
        hdr_io.write_radiance_hdr(img, run_length=False),
        hdr_io.write_radiance_hdr(narrow),
        hdr_io.write_pfm(img, little_endian=True),
        hdr_io.write_pfm(img, little_endian=False),
        b"Pf\n4 2\n-1.0\n" + gray,
    ]


VALID_FILES = _valid_files()
BYTE_EDITS = st.lists(
    st.tuples(st.sampled_from(["overwrite", "delete", "insert"]), st.integers(0, 1 << 16), st.integers(0, 255)),
    min_size=1,
    max_size=3,
)


def apply_edits(data, edits):
    buf = bytearray(data)
    for kind, at, value in edits:
        if kind == "insert":
            buf.insert(at % (len(buf) + 1), value)
        elif kind == "delete":
            del buf[at % len(buf)]
        else:
            buf[at % len(buf)] = value
    return bytes(buf)


class TestDecoderMutations:
    def test_valid_files_decode(self):
        assert VALID_FILES[0] != VALID_FILES[1]  # RLE actually kicked in
        for data in VALID_FILES:
            decode = hdr_io.read_radiance_hdr if data.startswith(b"#?") else hdr_io.read_pfm
            assert decode(data).pixels.size > 0

    @settings(max_examples=300, deadline=None)
    @example(SIGNALLING_NAN_PFM, [])
    @given(st.sampled_from(VALID_FILES), BYTE_EDITS)
    def test_mutated_input_decodes_or_raises_format_error(self, data, edits):
        mutated = apply_edits(data, edits)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for decode in (hdr_io.read_radiance_hdr, hdr_io.read_pfm):
                try:
                    image = decode(mutated)
                except HdrFormatError:
                    continue
                assert image.pixels.shape[2] == 3
