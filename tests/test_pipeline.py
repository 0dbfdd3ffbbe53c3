"""Pipeline orchestration: determinism, single-build property, degeneracy,
thread independence, timing capture, stage composition."""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from wdrtone import cli, integral, oracle, parallel, pipeline, tmo
from wdrtone.errors import ParameterError
from wdrtone.hdr_io import HdrImage, quantize_ldr
from wdrtone.params import FUSION_WEIGHT_FLOOR, TmoParams
from wdrtone.pipeline import StageTimings, tone_map_image, tone_map_to_array


def random_wdr(seed, height, width):
    rng = np.random.default_rng(seed)
    return HdrImage(np.exp(rng.normal(0, 2, (height, width, 3))))


class TestToneMapImage:
    def test_constant_image_constant_midgray(self):
        img = HdrImage(np.full((38, 32, 3), 4.2))
        params = TmoParams(display_min=0.0, display_max=1.0, gamma=1.0)
        ldr, _ = tone_map_image(img, params)
        assert (ldr.pixels == ldr.pixels[0, 0]).all()
        # mid-gray: 0.5 display, gamma 1 -> 128
        assert ldr.pixels[0, 0, 0] == 128

    def test_constant_image_midgray_at_default_scales(self):
        # 48x64 admits all five default scales, so none of them is skipped
        img = HdrImage(np.full((48, 64, 3), 0.37))
        arr, _ = tone_map_to_array(img)
        assert arr == pytest.approx(np.full((48, 64, 3), 0.5))
        ldr, _ = tone_map_image(img, TmoParams(gamma=1.0))
        assert (ldr.pixels == 128).all()

    def test_constant_colored_image_is_constant(self):
        img = HdrImage(np.tile(np.array([0.2, 0.4, 0.6]), (32, 32, 1)))
        ldr, _ = tone_map_image(img, TmoParams())
        assert (ldr.pixels.reshape(-1, 3) == ldr.pixels[0, 0]).all()

    def test_nearly_constant_image_is_midgray(self):
        # a log range a few ulps wide: the bin edges round onto each other
        px = np.full((32, 32, 3), 1e300)
        px[2, 3] *= 1 + 334e-16
        img = HdrImage(px)
        arr, _ = tone_map_to_array(img)
        assert arr == pytest.approx(np.full((32, 32, 3), 0.5))
        expected = oracle.naive_tone_map(img).pixels
        for threads in (1, 2):
            ldr, _ = tone_map_image(img, threads=threads)
            assert np.array_equal(ldr.pixels, expected)

    @pytest.mark.parametrize("strip_rows", [1, 3, 64])
    def test_plain_mean_fallback_matches_the_oracle(self, monkeypatch, strip_rows):
        # usable bin edges, but window variances near 1e-19: the scale-0
        # weight (1.4e-18) and every pixel's weight sum stay under the floor
        px = np.ones((40, 48, 3))
        px[::3, ::2] *= 1 + 1e-9
        img = HdrImage(px)
        params = TmoParams(scales=4)
        monkeypatch.setattr(parallel, "STRIP_ROWS", strip_rows)
        fell_back = []
        finalize = tmo.finalize_fusion

        def recording(numerator, weight_sum, value_sum, scale_count):
            fell_back.append((weight_sum < FUSION_WEIGHT_FLOOR).all())
            return finalize(numerator, weight_sum, value_sum, scale_count)

        monkeypatch.setattr(tmo, "finalize_fusion", recording)
        expected = oracle.naive_tone_map(img, params).pixels
        expected_array = oracle.naive_tone_map_array(img, params)
        for threads in (1, 3):
            assert np.array_equal(tone_map_image(img, params, threads=threads)[0].pixels, expected)
            assert np.array_equal(tone_map_to_array(img, params, threads=threads)[0], expected_array)
        assert fell_back and all(fell_back)

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

    @pytest.mark.parametrize("height, width", [(37, 53), (130, 70)])
    def test_strip_height_does_not_change_bits(self, monkeypatch, height, width):
        img = random_wdr(10, height, width)
        params = TmoParams(bins=5, scales=3)
        reference = None
        for strip_rows in (1, 3, 64, 4096):
            monkeypatch.setattr(parallel, "STRIP_ROWS", strip_rows)
            for threads in (1, 3):
                ldr, _ = tone_map_image(img, params, threads=threads)
                arr, _ = tone_map_to_array(img, params, threads=threads)
                if reference is None:
                    reference = ldr.pixels, arr
                assert np.array_equal(ldr.pixels, reference[0]), (strip_rows, threads)
                assert arr.tobytes() == reference[1].tobytes(), (strip_rows, threads)

    def test_one_worker_count_rule_for_every_stage(self, monkeypatch):
        # auto sizes the pool from the frame's pixel count, an explicit count
        # holds at any size, and every stage is handed that one pool
        img = random_wdr(11, 130, 70)
        params = TmoParams(bins=5, scales=3)
        reference = tone_map_to_array(img, params, threads=1)[0].tobytes()
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        # every stage that runs on the call's pool, with the pool among its arguments
        stages = [
            (tmo, "rgb_to_luminance"),
            (tmo, "log_transform"),
            (integral, "build_integral_histogram"),
            (integral, "build_moment_tables"),
            (parallel.WorkerPool, "run_rows"),
        ]
        received = {}  # stage name -> every pool passed to it

        def spy(owner, name):
            stage = getattr(owner, name)

            def spied(*args):
                received[name] += [arg for arg in args if isinstance(arg, parallel.WorkerPool)]
                return stage(*args)

            monkeypatch.setattr(owner, name, spied)

        for owner, name in stages:
            spy(owner, name)
        for threads, pooled_pixels, workers in ((0, 130 * 70 + 1, 1), (0, 130 * 70, 4), (3, 130 * 70 + 1, 3)):
            monkeypatch.setattr(parallel, "POOLED_PIXELS", pooled_pixels)
            for strip_rows in (3, 64):
                monkeypatch.setattr(parallel, "STRIP_ROWS", strip_rows)
                received.update((name, []) for _, name in stages)
                assert tone_map_to_array(img, params, threads=threads)[0].tobytes() == reference
                case = (threads, pooled_pixels, strip_rows)
                assert all(received.values()), case  # each stage ran on a pool
                pools = {id(pool): pool for given in received.values() for pool in given}
                assert [pool.workers for pool in pools.values()] == [workers], case

    def test_peak_traced_memory(self):
        # the full-frame fusion and display rasters stay out of the strip pass
        img = cli.synthetic_wdr(541, 769)
        params = TmoParams(bins=8, scales=5)
        for run, limit_mib in ((tone_map_image, 40), (tone_map_to_array, 48)):
            tracemalloc.start()
            try:
                run(img, params, threads=1)
                peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            assert peak_mib <= limit_mib, f"{run.__name__}: {peak_mib:.2f} MiB"

    @pytest.mark.parametrize("bins", [2, 5, 16])
    def test_peak_memory_matches_the_estimate(self, bins):
        # the pipeline module docstring's estimate, with the strip term once per worker
        height, width = 541, 769
        img = cli.synthetic_wdr(height, width)
        for threads in (1, 2, 3):
            estimate = (
                (4 * (bins - 1) + 16) * (height + 1) * (width + 1)
                + 4 * height * width
                + 64 * min(parallel.STRIP_ROWS, height) * width * threads
            )
            assert estimate == pipeline._peak_bytes(height, width, bins, threads, encode=True)
            tracemalloc.start()
            try:
                tone_map_image(img, TmoParams(bins=bins), threads=threads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 0.9 * estimate <= peak <= estimate, (threads, peak / estimate)

    def test_over_budget_call_raises_before_pixel_work(self, monkeypatch):
        monkeypatch.setattr(pipeline, "MAX_PEAK_BYTES", 1 << 20)
        img = cli.synthetic_wdr(541, 769)
        for run in (tone_map_image, tone_map_to_array):
            tracemalloc.start()
            try:
                with pytest.raises(ParameterError, match="over the 0.000976562 GiB budget"):
                    run(img, threads=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, peak

    def test_more_than_256_bins_keep_their_bits(self):
        # a uint16 bin map; the sha256s are those of the int32 map with plane 0 stored
        img = cli.synthetic_wdr(40, 56, 3)
        params = TmoParams(bins=300, scales=3)
        luminance = tmo.rgb_to_luminance(img)
        log_lum = tmo.log_transform(luminance, tmo.resolve_log_floor(luminance))
        bmap = integral.bin_index_map(log_lum.values, tmo.compute_bin_edges(log_lum, 300)[0])
        assert bmap.dtype == np.uint16 and bmap.max() > 255
        ldr, _ = tone_map_image(img, params)
        arr, _ = tone_map_to_array(img, params)
        assert hashlib.sha256(ldr.pixels.tobytes()).hexdigest() == (
            "73abad5b771545f3a8bda2348a243ea3b963d0efcf788d86b6b96b7103a46096"
        )
        assert hashlib.sha256(arr.tobytes()).hexdigest() == (
            "2a15b5a724eb0b6d134025a52b15a23ee77e94ac5c2723fbac98fe73376f56d4"
        )

    def test_too_small_image_rejected(self):
        with pytest.raises(ParameterError, match="collapse below a 2x2 field on a 5x1 image"):
            tone_map_image(HdrImage(np.ones((1, 5, 3))), TmoParams())

    @pytest.mark.parametrize(
        "pixels",
        [
            np.full((8, 8, 3), 0.5),  # no luminance range
            np.exp(np.random.default_rng(6).normal(0, 2, (8, 8, 3))),
            np.ones((1, 5, 3)),
        ],
        ids=["constant_8x8", "textured_8x8", "5x1"],
    )
    def test_scale_rule_fails_before_pixel_work(self, monkeypatch, pixels):
        # the rule depends on the size alone, so content never changes the outcome
        calls = []
        luminance = tmo.rgb_to_luminance
        monkeypatch.setattr(tmo, "rgb_to_luminance", lambda img: calls.append(img) or luminance(img))
        img = HdrImage(pixels)
        for run in (tone_map_image, tone_map_to_array, oracle.naive_tone_map):
            with pytest.raises(ParameterError, match="5 scales collapse below"):
                run(img, TmoParams(scales=5))
        assert calls == []

    def test_thread_count_fails_before_pixel_work(self, monkeypatch):
        monkeypatch.setattr(tmo, "rgb_to_luminance", None)  # any call would raise TypeError
        for run in (tone_map_image, tone_map_to_array):
            with pytest.raises(ParameterError, match="threads must be >= 0"):
                run(HdrImage(np.ones((32, 32, 3))), threads=-1)

    def test_scale_overflow_propagates(self):
        img = random_wdr(4, 8, 8)
        with pytest.raises(ParameterError, match="6 scales collapse"):
            tone_map_image(img, TmoParams(scales=6))

    @pytest.mark.parametrize("scales", [1, 5])
    def test_largest_display_ranges_stay_finite(self, scales):
        def accepted(display_max):
            try:
                TmoParams(scales=scales, display_max=display_max)
            except ParameterError:
                return False
            return True

        # bisect the float bit patterns for the largest accepted display_max
        low, high = (int(np.float64(v).view(np.int64)) for v in (1.0, np.finfo(np.float64).max))
        while low < high:
            mid = (low + high + 1) // 2
            if accepted(float(np.int64(mid).view(np.float64))):
                low = mid
            else:
                high = mid - 1
        largest = float(np.int64(low).view(np.float64))
        assert not accepted(float(np.nextafter(largest, np.inf)))
        pixels = cli.synthetic_wdr(40, 48, 1).pixels.copy()
        pixels[::2, :, 0] = 0.0  # zero channels multiply the largest fused values
        image = HdrImage(pixels)
        # pytest turns any overflow or invalid-value warning into a failure
        for low_end, high_end in ((0.0, largest), (-largest, largest), (-largest, 1.0)):
            params = TmoParams(scales=scales, display_min=low_end, display_max=high_end)
            assert not np.isnan(tone_map_to_array(image, params)[0]).any()
            tone_map_image(image, params)

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


def record_integrations(monkeypatch) -> list:
    """Patch integral._integrate to keep a copy of every table it returns."""
    tables = []
    real = integral._integrate

    def recorder(table):
        result = real(table)
        tables.append((id(table), result.table.copy()))
        return result

    monkeypatch.setattr(integral, "_integrate", recorder)
    return tables


class TestSingleBuildProperty:
    @pytest.mark.parametrize("scales", [1, 3, 5])
    def test_integral_structures_built_once(self, monkeypatch, scales):
        calls = []
        real_hist = integral.build_integral_histogram

        def hist_counter(*args, **kwargs):
            calls.append(args)
            return real_hist(*args, **kwargs)

        monkeypatch.setattr(integral, "build_integral_histogram", hist_counter)
        tables = record_integrations(monkeypatch)
        img = random_wdr(6, 32, 32)
        tone_map_image(img, TmoParams(scales=scales))
        assert len(calls) == 1
        # the luminance table and its square, each integrated exactly once
        assert len(tables) == 2
        assert len({table_id for table_id, _ in tables}) == 2

    @pytest.mark.parametrize("threads", [1, 3])
    def test_in_place_tables_equal_build_integral_image(self, monkeypatch, threads):
        img = random_wdr(12, 130, 70)
        luminance = tmo.rgb_to_luminance(img)
        floor = tmo.resolve_log_floor(luminance)
        log = tmo.log_transform(luminance, floor).values
        expected = [integral.build_integral_image(v).table for v in (log, log * log)]
        with parallel.WorkerPool(threads) as pool:
            built = integral.build_moment_tables(tmo.log_transform(luminance, floor).values, pool)
        assert [t.table.tobytes() for t in built] == [t.tobytes() for t in expected]
        tables = record_integrations(monkeypatch)
        tone_map_image(img, TmoParams(bins=5, scales=3), threads=threads)
        # the two integrations may finish in either order on several threads
        assert sorted(t.tobytes() for _, t in tables) == sorted(t.tobytes() for t in expected)


class TestStageFunctionsComposeToPipeline:
    @staticmethod
    def assert_rebuild_matches(img, params, threads):
        """The stage functions composed by hand give the pipeline's bits.

        The stage functions run scale 0 as a field like any other, where the
        strip pass looks it up from one global curve and weight.
        """
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
        assert arr.tobytes() == display.tobytes()
        image, _ = tone_map_image(img, params, threads=threads)
        assert np.array_equal(image.pixels, ldr.pixels)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_rebuilt_pipeline_is_bit_identical(self, threads):
        self.assert_rebuild_matches(random_wdr(9, 37, 53), TmoParams(bins=5, scales=3), threads)

    @pytest.mark.parametrize(
        "params",
        [
            TmoParams(bins=4, scales=1),
            TmoParams(bins=6, scales=1, display_min=-0.3, display_max=1.4),
            TmoParams(bins=3, scales=5, display_min=0.2, display_max=0.8, epsilon=0.01),
        ],
    )
    def test_rebuilt_pipeline_matches_across_scales_and_display_ranges(self, params):
        self.assert_rebuild_matches(random_wdr(11, 40, 48), params, threads=2)


def render_inputs(img, params):
    """The log floor and the tables the pipeline hands ``tmo.render_rows``."""
    luminance = tmo.rgb_to_luminance(img)
    floor = tmo.resolve_log_floor(luminance, params.log_floor)
    log_lum = tmo.log_transform(luminance, floor)
    edges, degenerate = tmo.compute_bin_edges(log_lum, params.bins)
    assert not degenerate
    hist = integral.build_integral_histogram(log_lum.values, edges)
    return floor, (hist, *integral.build_moment_tables(log_lum.values))


class TestRenderRows:
    @pytest.mark.parametrize("strip_rows", [1, 64])
    @pytest.mark.parametrize("run", [tone_map_to_array, tone_map_image])
    def test_each_strip_matches_the_whole_call(self, monkeypatch, run, strip_rows):
        monkeypatch.setattr(parallel, "STRIP_ROWS", strip_rows)
        img = random_wdr(9, 37, 53)
        params = TmoParams(bins=5, scales=3)
        whole = run(img, params, threads=2)[0]
        whole = getattr(whole, "pixels", whole)
        floor, tables = render_inputs(img, params)
        for a in range(0, img.height, strip_rows):
            b = min(a + strip_rows, img.height)
            out = np.zeros_like(whole)
            spent = tmo.render_rows(img, params, floor, tables, a, b, out)
            assert out[a:b].tobytes() == whole[a:b].tobytes(), a
            assert not out[:a].any() and not out[b:].any(), a
            assert set(spent) == {"tone_map_ms", "weights_ms", "fusion_ms", "color_restore_ms", "encode"}
            assert (spent["encode"] > 0) == (out.dtype == np.uint8)

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_a_strip_without_tables_is_mid_gray(self, dtype):
        # a textured gray scene: without tables its texture never reaches the output
        gray = np.exp(np.random.default_rng(3).normal(0, 2, (6, 10)))
        img = HdrImage(np.repeat(gray[..., None], 3, axis=2))
        params = TmoParams(display_min=0.2, display_max=0.8, gamma=1.0)
        out = np.zeros((6, 10, 3), dtype)
        tmo.render_rows(img, params, 1e-12, None, 2, 5, out)
        # mid-gray 0.5 over display_max 0.8, encoded as round(255 * 0.625) = 159
        assert out[2:5] == pytest.approx(np.full((3, 10, 3), 0.625 if dtype is np.float64 else 159))
        assert not out[:2].any() and not out[5:].any()


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

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_strip_pass_split_stays_within_total(self, threads):
        img = random_wdr(11, 130, 70)
        _, timings = tone_map_image(img, TmoParams(bins=5, scales=3), threads=threads)
        assert timings.stage_sum_ms() <= timings.total_ms
        for name in ("tone_map_ms", "weights_ms", "fusion_ms", "color_restore_ms"):
            assert getattr(timings, name) > 0.0, name

    def test_degenerate_path_skips_integral_stages(self):
        img = HdrImage(np.full((32, 32, 3), 1.0))
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
