"""Pipeline orchestration: determinism, single-build property, degeneracy,
thread independence, timing capture, stage composition."""

import numpy as np
import pytest

from wdrtone import integral, oracle, tmo
from wdrtone.errors import ParameterError
from wdrtone.hdr_io import HdrImage, quantize_ldr
from wdrtone.params import TmoParams
from wdrtone.pipeline import StageTimings, tone_map_image, tone_map_to_array


def random_wdr(seed, height, width):
    rng = np.random.default_rng(seed)
    return HdrImage(np.exp(rng.normal(0, 2, (height, width, 3))))


class TestToneMapImage:
    def test_constant_image_constant_midgray(self):
        img = HdrImage(np.full((12, 10, 3), 4.2))
        params = TmoParams(display_min=0.0, display_max=1.0, gamma=1.0)
        ldr, _ = tone_map_image(img, params)
        assert (ldr.pixels == ldr.pixels[0, 0]).all()
        # mid-gray: 0.5 display, gamma 1 -> 128
        assert ldr.pixels[0, 0, 0] == 128

    def test_constant_colored_image_is_constant(self):
        img = HdrImage(np.tile(np.array([0.2, 0.4, 0.6]), (8, 8, 1)))
        ldr, _ = tone_map_image(img, TmoParams())
        assert (ldr.pixels.reshape(-1, 3) == ldr.pixels[0, 0]).all()

    def test_nearly_constant_image_is_midgray(self):
        # a log range a few ulps wide: the bin edges round onto each other
        px = np.full((6, 6, 3), 1e300)
        px[2, 3] *= 1 + 334e-16
        img = HdrImage(px)
        arr, _ = tone_map_to_array(img)
        assert arr == pytest.approx(np.full((6, 6, 3), 0.5))
        expected = oracle.naive_tone_map(img).pixels
        for threads in (1, 2):
            ldr, _ = tone_map_image(img, threads=threads)
            assert np.array_equal(ldr.pixels, expected)

    def test_output_range_and_dtype(self):
        img = random_wdr(1, 20, 24)
        arr, _ = tone_map_to_array(img, TmoParams(scales=3))
        assert arr.min() >= 0.0 and arr.max() <= 1.0
        ldr, _ = tone_map_image(img, TmoParams(scales=3))
        assert ldr.pixels.dtype == np.uint8

    def test_deterministic_across_runs(self):
        img = random_wdr(2, 16, 16)
        params = TmoParams(bins=4, scales=2)
        a, _ = tone_map_image(img, params)
        b, _ = tone_map_image(img, params)
        assert np.array_equal(a.pixels, b.pixels)

    def test_thread_count_does_not_change_bits(self):
        img = random_wdr(3, 33, 47)  # odd sizes exercise strip boundaries
        params = TmoParams(bins=5, scales=3)
        arr1, _ = tone_map_to_array(img, params, threads=1)
        arr2, _ = tone_map_to_array(img, params, threads=2)
        arr4, _ = tone_map_to_array(img, params, threads=4)
        assert np.array_equal(arr1, arr2)
        assert np.array_equal(arr1, arr4)

    def test_too_small_image_rejected(self):
        with pytest.raises(ParameterError):
            tone_map_image(HdrImage(np.ones((1, 5, 3))), TmoParams())

    def test_scale_overflow_propagates(self):
        img = random_wdr(4, 8, 8)
        with pytest.raises(ParameterError):
            tone_map_image(img, TmoParams(scales=6))

    def test_single_scale_monotone_on_luminance(self):
        # achromatic input: the output channel IS the display luminance,
        # so the global (full-field) tone curve must be non-decreasing
        rng = np.random.default_rng(5)
        gray = np.exp(rng.normal(0, 2, (16, 16)))
        img = HdrImage(np.repeat(gray[..., None], 3, axis=2))
        params = TmoParams(scales=1, gamma=1.0)
        arr, _ = tone_map_to_array(img, params)
        order = np.argsort(gray.ravel(), kind="stable")
        diffs = np.diff(arr[..., 0].ravel()[order])
        assert (diffs >= -1e-12).all()


class TestSingleBuildProperty:
    @pytest.mark.parametrize("scales", [1, 3, 5])
    def test_integral_structures_built_once(self, monkeypatch, scales):
        calls = {"hist": 0, "image": 0}
        real_hist = integral.build_integral_histogram
        real_image = integral.build_integral_image

        def hist_counter(*args, **kwargs):
            calls["hist"] += 1
            return real_hist(*args, **kwargs)

        def image_counter(*args, **kwargs):
            calls["image"] += 1
            return real_image(*args, **kwargs)

        monkeypatch.setattr(integral, "build_integral_histogram", hist_counter)
        monkeypatch.setattr(integral, "build_integral_image", image_counter)
        img = random_wdr(6, 32, 32)
        tone_map_image(img, TmoParams(scales=scales))
        assert calls["hist"] == 1
        assert calls["image"] == 2  # luminance table and its square


class TestStageFunctionsComposeToPipeline:
    @pytest.mark.parametrize("threads", [1, 3])
    def test_rebuilt_pipeline_is_bit_identical(self, threads):
        img = random_wdr(9, 37, 53)
        params = TmoParams(bins=5, scales=3)
        luminance = tmo.rgb_to_luminance(img)
        floor = tmo.resolve_log_floor(luminance, params.log_floor)
        log_lum = tmo.log_transform(luminance, floor)
        edges, degenerate = tmo.compute_bin_edges(log_lum, params.bins)
        assert not degenerate
        schedule = tmo.make_scale_schedule(img.width, img.height, params.scales)
        hist = integral.build_integral_histogram(log_lum.values, edges)
        sums = integral.build_integral_image(log_lum.values)
        squares = integral.build_integral_image(log_lum.values * log_lum.values)
        values = [tmo.tone_map_at_scale(log_lum, hist, extent, params) for extent in schedule]
        weights = [
            tmo.weight_map_at_scale(sums, squares, extent, params.epsilon) for extent in schedule
        ]
        weights_before = [w.copy() for w in weights]
        fused = tmo.fuse_scales(values, weights)
        for after, before in zip(weights, weights_before):
            assert np.array_equal(after, before)
        floored = np.maximum(luminance, floor)
        display = tmo.restore_color(img, floored, fused, params.saturation)
        display = np.clip(display, 0.0, params.display_max) / params.display_max
        ldr = quantize_ldr(display, params.gamma)

        arr, _ = tone_map_to_array(img, params, threads=threads)
        assert np.array_equal(arr, display)
        image, _ = tone_map_image(img, params, threads=threads)
        assert np.array_equal(image.pixels, ldr.pixels)


class TestExposureInvariance:
    def test_power_of_two_exposure_shift(self):
        img = random_wdr(7, 24, 24)
        brighter = HdrImage(img.pixels * 4.0)
        params = TmoParams(bins=5, scales=2)
        a, _ = tone_map_image(img, params)
        b, _ = tone_map_image(brighter, params)
        assert np.array_equal(a.pixels, b.pixels)


class TestStageTimings:
    def test_total_covers_stages(self):
        img = random_wdr(8, 48, 48)
        _, timings = tone_map_image(img, TmoParams(scales=3))
        assert timings.total_ms >= 0.9 * timings.stage_sum_ms()
        for name in timings.stage_names():
            assert getattr(timings, name) >= 0.0

    def test_degenerate_path_skips_integral_stages(self):
        img = HdrImage(np.full((16, 16, 3), 1.0))
        _, timings = tone_map_image(img, TmoParams())
        assert timings.integral_histogram_ms == 0.0
        assert timings.tone_map_ms == 0.0

    def test_text_block_round_trips(self):
        timings = StageTimings(luminance_ms=1.5, total_ms=10.0)
        text = timings.to_text()
        lines = dict(line.split(": ") for line in text.splitlines())
        assert lines["luminance_ms"] == "1.500"
        assert lines["total_ms"] == "10.000"
        assert set(lines) == set(timings.as_dict())
