"""Hypothesis properties of the codecs and the summed-area tables.

The whole module is skipped when hypothesis is not installed, so the rest of
the suite runs with numpy and pytest alone.
"""

import warnings

import numpy as np
import pytest

from test_hdr_io import SIGNALLING_NAN_PFM, VALID_FILES
from test_integral import random_raster, random_region
from wdrtone import cli, hdr_io, integral
from wdrtone.errors import HdrFormatError
from wdrtone.integral import Region
from wdrtone.params import TmoParams
from wdrtone.pipeline import tone_map_image, tone_map_to_array

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


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


class TestRadianceRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_decode_encode_decode_idempotent(self, width, height, seed):
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 256, (height, width, 4), dtype=np.uint8)
        first = hdr_io.rgbe_to_radiance(raw)
        second = hdr_io.read_radiance_hdr(
            hdr_io.write_radiance_hdr(hdr_io.HdrImage(first))
        ).pixels
        assert np.array_equal(first, second)


class TestPfm:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_round_trip_bit_exact(self, width, height, seed):
        rng = np.random.default_rng(seed)
        values = np.abs(rng.normal(0, 100, (height, width, 3))).astype(np.float32)
        img = hdr_io.HdrImage(values.astype(np.float64))
        back = hdr_io.read_pfm(hdr_io.write_pfm(img))
        assert np.array_equal(back.pixels, img.pixels)


class TestLdrOutput:
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


class TestEightBitPaths:
    # the pipeline's log-domain encode against quantize_ldr of the float output:
    # the same value in another op order, so at most a rounding tie apart
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(0.01, 4.0),
        st.floats(-0.5, 0.2),
        st.floats(0.25, 4.0),
        st.sampled_from([1.0, 1e-200, 1e290]),
    )
    def test_encode_within_one_code_of_quantize_ldr(
        self, seed, saturation, gamma, display_min, display_max, radiance_scale
    ):
        image = hdr_io.HdrImage(cli.synthetic_wdr(11, 17, seed).pixels * radiance_scale)
        params = TmoParams(
            bins=5, scales=2, saturation=saturation, gamma=gamma,
            display_min=display_min, display_max=display_max,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            encoded = tone_map_image(image, params, threads=1)[0].pixels
            quantized = hdr_io.quantize_ldr(tone_map_to_array(image, params, threads=1)[0], gamma).pixels
        assert np.abs(encoded.astype(np.int16) - quantized).max() <= 1


class TestDecoderMutations:
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


class TestIntegralImage:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_monotone_for_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        values = np.abs(random_raster(rng))
        table = integral.build_integral_image(values).table
        assert (np.diff(table, axis=0) >= 0).all()
        assert (np.diff(table, axis=1) >= 0).all()


class TestRegionSum:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_additive_over_tilings(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(0, 4, (9, 11))
        ii = integral.build_integral_image(values)
        region = random_region(rng, 11, 9)
        whole = integral.region_sum(ii, region)
        if region.x1 - region.x0 > 1:
            xm = int(rng.integers(region.x0 + 1, region.x1))
            left = integral.region_sum(ii, Region(region.x0, region.y0, xm, region.y1))
            right = integral.region_sum(ii, Region(xm, region.y0, region.x1, region.y1))
            assert left + right == pytest.approx(whole, rel=1e-9, abs=1e-9)
        if region.y1 - region.y0 > 1:
            ym = int(rng.integers(region.y0 + 1, region.y1))
            top = integral.region_sum(ii, Region(region.x0, region.y0, region.x1, ym))
            bottom = integral.region_sum(ii, Region(region.x0, ym, region.x1, region.y1))
            assert top + bottom == pytest.approx(whole, rel=1e-9, abs=1e-9)
