"""Core math tests: luminance, binning, scale schedule, per-field mapping,
variance weights, fusion, color restoration."""

import numpy as np
import pytest

from wdrtone import integral, oracle, parallel, tmo
from wdrtone.errors import ParameterError
from wdrtone.hdr_io import HdrImage
from wdrtone.parallel import WorkerPool
from wdrtone.params import TmoParams
from wdrtone.tmo import FieldExtent


def log_lum_from(values):
    values = np.asarray(values, dtype=np.float64)
    return tmo.LogLuminance(values, float(values.min()), float(values.max()), offset=0.0, floor=1e-12)


def hist_for(values, bins):
    log_lum = log_lum_from(values)
    edges, degenerate = tmo.compute_bin_edges(log_lum, bins)
    assert not degenerate
    return log_lum, integral.build_integral_histogram(log_lum.values, edges)


class TestLuminance:
    def test_white_is_one(self):
        img = HdrImage(np.ones((1, 1, 3)))
        assert tmo.rgb_to_luminance(img)[0, 0] == 1.0

    def test_red_coefficient(self):
        img = HdrImage(np.array([[[1.0, 0.0, 0.0]]]))
        assert tmo.rgb_to_luminance(img)[0, 0] == 0.2126

    def test_mixed_pixel(self):
        img = HdrImage(np.array([[[0.5, 0.25, 0.125]]]))
        # 0.2126*0.5 + 0.7152*0.25 + 0.0722*0.125 evaluated directly
        assert tmo.rgb_to_luminance(img)[0, 0] == pytest.approx(0.294125, abs=1e-15)


class TestLogTransform:
    def test_unit_maps_to_zero(self):
        ll = tmo.log_transform(np.array([[1.0, 1.0]]), 1e-6)
        assert ll.values[0, 0] == 0.0

    def test_floor_removes_zero(self):
        ll = tmo.log_transform(np.array([[0.0, 1.0]]), 1e-6)
        # the values are centred on the midpoint of the log range [ln 1e-6, 0]
        assert ll.offset == pytest.approx(np.log(1e-6) / 2)
        assert ll.values[0, 0] + ll.offset == pytest.approx(np.log(1e-6))
        assert ll.log_min + ll.offset == pytest.approx(-13.8155, abs=1e-4)
        assert ll.log_min == -ll.log_max

    def test_elementwise_matches_ln(self):
        rng = np.random.default_rng(2)
        lum = np.abs(rng.normal(1, 3, (8, 9)))
        ll = tmo.log_transform(lum, 1e-9)
        log = np.log(np.maximum(lum, 1e-9))
        assert ll.offset == (log.min() + log.max()) / 2
        assert np.array_equal(ll.values, log - ll.offset)
        assert ll.log_min == ll.values.min()
        assert ll.log_max == ll.values.max()

    def test_scene_relative_floor(self):
        lum = np.array([[0.0, 2.0e6]])
        assert tmo.resolve_log_floor(lum) == pytest.approx(2.0)
        assert tmo.resolve_log_floor(lum, log_floor=0.5) == 0.5
        assert tmo.resolve_log_floor(np.zeros((2, 2))) == 1e-12

    def test_bad_floor_raises(self):
        for floor in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ParameterError):
                tmo.log_transform(np.ones((2, 2)), floor)
            with pytest.raises(ParameterError, match="^log_floor must be a positive finite real"):
                tmo.resolve_log_floor(np.ones((2, 2)), floor)

    # 70 rows, so 64-row strips leave a partial last strip
    RASTERS = {
        "zeros": lambda rng: np.zeros((70, 23)),
        "one-bright-pixel": lambda rng: np.where(np.arange(70 * 23).reshape(70, 23) == 1500, 1e8, 1.0),
        "constant": lambda rng: np.full((70, 23), 3.5),
        "radiance-x2^120": lambda rng: np.exp(rng.normal(0, 2, (70, 23))) * 2.0**120,
        "near-1e-300": lambda rng: 1e-300 * (1.0 + rng.random((70, 23))),
    }

    @staticmethod
    def floor_for(kind, luminance):
        ordered = np.sort(luminance, axis=None)
        smallest = np.nextafter(0.0, 1.0)  # where a pixel is 0 no positive floor lies below it
        return {
            "default": None,
            "below-every-pixel": max(ordered[0] / 2, smallest),
            "above-a-fifth": max(ordered[luminance.size // 5], smallest),
        }[kind]

    @pytest.mark.parametrize("strip_rows", [1, 64])
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("floor_kind", ["default", "below-every-pixel", "above-a-fifth"])
    @pytest.mark.parametrize("raster", list(RASTERS))
    def test_range_and_floor_come_from_the_extrema(self, monkeypatch, raster, floor_kind, threads, strip_rows):
        monkeypatch.setattr(parallel, "STRIP_ROWS", strip_rows)
        luminance = self.RASTERS[raster](np.random.default_rng(4))
        log_floor = self.floor_for(floor_kind, luminance)
        with WorkerPool(threads) as pool:
            ll = tmo.log_transform(luminance, log_floor, pool)
            resolved = tmo.log_transform(luminance, tmo.resolve_log_floor(luminance, log_floor), pool)
        assert ll.floor == tmo.resolve_log_floor(luminance, log_floor)
        log = np.log(np.maximum(luminance, ll.floor))
        assert ll.offset == (log.min() + log.max()) / 2
        assert ll.values.tobytes() == (log - ll.offset).tobytes()
        assert ll.log_min == ll.values.min()
        assert ll.log_max == ll.values.max()
        # the default floor, passed as None or resolved first, gives the same bits
        assert ll.values.tobytes() == resolved.values.tobytes()
        assert (ll.log_min, ll.log_max, ll.offset, ll.floor) == (
            resolved.log_min, resolved.log_max, resolved.offset, resolved.floor
        )


class TestBinEdges:
    def test_unit_range_five_bins(self):
        ll = log_lum_from([[0.0, 1.0]])
        edges, degenerate = tmo.compute_bin_edges(ll, 5)
        assert not degenerate
        assert edges == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])

    def test_negative_range_three_bins(self):
        ll = log_lum_from([[-2.0, 1.0]])
        edges, degenerate = tmo.compute_bin_edges(ll, 3)
        assert not degenerate
        assert edges == pytest.approx([-2.0, -1.0, 0.0, 1.0])

    def test_constant_image_is_degenerate(self):
        ll = log_lum_from(np.full((3, 3), 0.7))
        edges, degenerate = tmo.compute_bin_edges(ll, 4)
        assert degenerate

    def test_edges_one_ulp_apart_are_degenerate(self):
        # the edges round onto each other, so bin_index_map would reject them
        log_min = 690.7755278982137
        log_max = np.nextafter(log_min, np.inf)
        ll = tmo.LogLuminance(np.zeros((2, 2)), log_min, log_max, offset=0.0, floor=1e-12)
        edges, degenerate = tmo.compute_bin_edges(ll, 5)
        assert degenerate
        assert not (np.diff(edges) > 0).all()

    def test_too_few_bins(self):
        with pytest.raises(ParameterError):
            tmo.compute_bin_edges(log_lum_from([[0.0, 1.0]]), 1)


class TestScaleSchedule:
    def test_square_2048_five_scales(self):
        schedule = tmo.make_scale_schedule(2048, 2048, 5)
        assert [e.half_width for e in schedule] == [2048, 1024, 512, 256, 128]
        assert [e.half_height for e in schedule] == [2048, 1024, 512, 256, 128]

    def test_single_scale_spans_image(self):
        schedule = tmo.make_scale_schedule(33, 57, 1)
        assert schedule == (FieldExtent(33, 57),)

    def test_rectangular_halving(self):
        schedule = tmo.make_scale_schedule(640, 480, 3)
        assert list(schedule) == [(640, 480), (320, 240), (160, 120)]

    @pytest.mark.parametrize(
        "width,height,admissible",
        [(16, 16, 4), (2048, 2048, 11), (2, 2, 1), (640, 480, 8), (8, 8, 3)],
    )
    def test_collapse_reports_max_admissible(self, width, height, admissible):
        with pytest.raises(ParameterError, match=f"at most {admissible} are admissible"):
            tmo.make_scale_schedule(width, height, admissible + 1)
        # the boundary count builds, with no warning on the way
        assert len(tmo.make_scale_schedule(width, height, admissible)) == admissible

    def test_tiny_image_rejected(self):
        with pytest.raises(ParameterError):
            tmo.make_scale_schedule(1, 8, 1)


class TestBoxWindowSums:
    # every half and strip bound covers pinned-low, pinned-high, both-pinned and
    # sliding runs, 1-row strips, half = 0 and half >= size; the oblong rasters
    # catch a swapped axis
    SHAPES = [(n, n) for n in range(1, 12)] + [(1, 6), (6, 1), (3, 8), (8, 3)]

    @pytest.mark.parametrize("height,width", SHAPES)
    def test_strip_sums_match_naive_clamped_windows(self, height, width):
        rng = np.random.default_rng(height * 16 + width)
        # integer values keep every window sum exact whatever the order of operations
        values = rng.integers(-50, 50, (height, width)).astype(np.float64)
        table = integral.build_integral_image(values).table
        expected = np.empty((height, width))
        for half_h in range(height + 3):
            for half_w in range(width + 3):
                for y in range(height):
                    y0, y1 = max(y - half_h, 0), min(y + half_h + 1, height)
                    for x in range(width):
                        x0, x1 = max(x - half_w, 0), min(x + half_w + 1, width)
                        expected[y, x] = oracle.naive_region_sum(values, (x0, y0, x1, y1))
                for a in range(height):
                    for b in range(a + 1, height + 1):
                        out = np.full((b - a, width), np.nan)
                        window = tmo._window(a, b, width, height, FieldExtent(half_w, half_h))
                        tmo._box_window_sums(table, window, out)
                        # strip-relative: row 0 of out is row a of the raster
                        assert np.array_equal(out, expected[a:b])

    @pytest.mark.parametrize("height,width", SHAPES)
    def test_float_sums_keep_the_four_corner_op_order(self, height, width):
        rng = np.random.default_rng(height * 16 + width)
        # offset floats round at every table entry, so a regrouped sum shows in the last bits
        table = integral.build_integral_image(40.0 + rng.normal(0, 1, (height, width))).table

        def clamped(start, stop, half, size):
            at = np.arange(start, stop)
            return np.maximum(at - half, 0), np.minimum(at + half + 1, size)

        for half_h in range(height + 3):
            for half_w in range(width + 3):
                xl, xh = clamped(0, width, half_w, width)
                for a in range(height):
                    for b in range(a + 1, height + 1):
                        yl, yh = clamped(a, b, half_h, height)
                        window = tmo._window(a, b, width, height, FieldExtent(half_w, half_h))
                        for axis, lo, hi, size in ((window.x, xl, xh, width), (window.y, yl, yh, height)):
                            assert axis.lo.tolist() == lo.tolist() and axis.hi.tolist() == hi.tolist()
                            assert axis.padded == (lo == 0).sum()
                            assert axis.pinned == (hi < size).sum()
                        yl, yh = yl[:, None], yh[:, None]
                        # each y-run's row difference first, then its x-run's column difference
                        expected = (table[yh, xh] - table[yl, xh]) - (table[yh, xl] - table[yl, xl])
                        out = np.full((b - a, width), np.nan)
                        tmo._box_window_sums(table, window, out)
                        assert out.tobytes() == expected.tobytes(), (half_h, half_w, a, b)


class TestToneMapAtScale:
    def test_uniform_window_maps_to_display_min(self):
        # every pixel shares every other pixel's bin, the strict below-count is 0
        values = np.zeros((4, 4))
        values[0, 0] = 1.0  # one bright outlier gives a usable range
        log_lum, hist = hist_for(values, 4)
        params = TmoParams(bins=4, scales=1, display_min=0.25, display_max=0.75)
        mapped = tmo.tone_map_at_scale(log_lum, hist, FieldExtent(4, 4), params)
        dark = mapped[values == 0.0]
        assert (dark == 0.25).all()

    def test_twenty_percent_per_bin(self):
        rng = np.random.default_rng(7)
        levels = np.repeat([0.1, 0.3, 0.5, 0.7, 0.9], 20)
        rng.shuffle(levels)
        values = levels.reshape(10, 10)
        log_lum, hist = hist_for(values, 5)
        params = TmoParams(bins=5, scales=1)
        mapped = tmo.tone_map_at_scale(log_lum, hist, FieldExtent(10, 10), params)
        top = values == 0.9
        assert mapped[top] == pytest.approx(0.8)
        # cross-check the strict cumulative against the window histogram oracle
        counts = oracle.naive_region_histogram(values, tmo.compute_bin_edges(log_lum, 5)[0], (0, 0, 10, 10))
        assert counts.tolist() == [20] * 5
        assert mapped[values == 0.1] == pytest.approx(0.0)

    def test_full_field_is_monotone(self):
        rng = np.random.default_rng(13)
        values = rng.normal(0, 2, (12, 12))
        log_lum, hist = hist_for(values, 6)
        params = TmoParams(bins=6, scales=1)
        mapped = tmo.tone_map_at_scale(log_lum, hist, FieldExtent(12, 12), params)
        order = np.argsort(values.ravel(), kind="stable")
        assert (np.diff(mapped.ravel()[order]) >= 0).all()

    def test_containment_half_open(self):
        rng = np.random.default_rng(19)
        values = rng.normal(0, 2, (16, 16))
        log_lum, hist = hist_for(values, 5)
        params = TmoParams(bins=5, scales=1, display_min=-0.5, display_max=2.0)
        for extent in tmo.make_scale_schedule(16, 16, 3):
            mapped = tmo.tone_map_at_scale(log_lum, hist, extent, params)
            assert (mapped >= -0.5).all()
            assert (mapped < 2.0).all()

    def test_dimension_mismatch_raises(self):
        values = np.linspace(0, 1, 16).reshape(4, 4)
        log_lum, hist = hist_for(values, 3)
        other = log_lum_from(np.zeros((5, 5)))
        with pytest.raises(ParameterError, match="histogram is 4x4, raster is 5x5"):
            tmo.tone_map_at_scale(other, hist, FieldExtent(2, 2), TmoParams(bins=3))

    def test_matches_naive_per_window(self):
        rng = np.random.default_rng(29)
        values = rng.normal(0, 1, (9, 9))
        log_lum, hist = hist_for(values, 4)
        params = TmoParams(bins=4, scales=1)
        bmap = hist.bin_map
        for extent in ((9, 9), (4, 4), (2, 2)):
            mapped = tmo.tone_map_at_scale(log_lum, hist, FieldExtent(*extent), params)
            for y in range(9):
                y0, y1 = max(y - extent[1], 0), min(y + extent[1] + 1, 9)
                for x in range(9):
                    x0, x1 = max(x - extent[0], 0), min(x + extent[0] + 1, 9)
                    window = bmap[y0:y1, x0:x1]
                    expected = np.count_nonzero(window < bmap[y, x]) / window.size
                    assert mapped[y, x] == pytest.approx(expected, abs=1e-12)


class TestStripKernel:
    """The strip pass's gathers and its scale-0 shortcuts against plain formulas."""

    @staticmethod
    def four_corner_display(hist, extent, params):
        """Every pixel's value from all four corners of its clamped window."""
        height, width = hist.height, hist.width
        y, x = np.mgrid[0:height, 0:width]
        x0, x1 = np.maximum(x - extent.half_width, 0), np.minimum(x + extent.half_width + 1, width)
        y0, y1 = np.maximum(y - extent.half_height, 0), np.minimum(y + extent.half_height + 1, height)
        # the stored planes start at bin 1; bin 0's below-table is all zero
        c = np.concatenate([np.zeros_like(hist.cum_below[:1]), hist.cum_below])
        b = hist.bin_map
        below = c[b, y1, x1] - c[b, y0, x1] - c[b, y1, x0] + c[b, y0, x0]
        span = params.display_max - params.display_min
        return params.display_min + span * (below / ((y1 - y0) * (x1 - x0)))

    # 2x2 to 9x13: every strip [a, b), so strips touching the top and the
    # bottom edge, at every extent of the deepest admissible schedule
    @pytest.mark.parametrize("height,width", [(2, 2), (2, 5), (5, 2), (4, 7), (8, 8), (9, 13), (13, 9)])
    def test_pruned_gathers_equal_four_corner_formula(self, height, width):
        values = np.random.default_rng(height * 16 + width).normal(0, 1, (height, width))
        scales = min(height, width).bit_length() - 1
        # bins=2: every pixel reads plane 0 or is masked as bin 0; a -0.0
        # minimum: bin 0 must still get the formula's +0.0
        for params in (
            TmoParams(bins=4, display_min=-0.25, display_max=1.5),
            TmoParams(bins=4, display_min=-0.0),
            TmoParams(bins=2, display_min=-0.25, display_max=1.5),
            TmoParams(bins=2, display_min=-0.0),
        ):
            log_lum, hist = hist_for(values, params.bins)
            for extent in tmo.make_scale_schedule(width, height, scales):
                expected = self.four_corner_display(hist, extent, params)
                for a in range(height):
                    for b in range(a + 1, height + 1):
                        index = tmo._strip_index(hist, a, b)
                        window = tmo._window(a, b, width, height, extent)
                        out = np.full((b - a, width), np.nan)
                        tmo._tone_map_rows(hist, window, params, index, out)
                        assert out.tobytes() == expected[a:b].tobytes(), (params, extent, a, b)

    @pytest.mark.parametrize(
        "params",
        [
            TmoParams(bins=5),
            TmoParams(bins=3, scales=1, display_min=-0.4, display_max=0.9),
            TmoParams(bins=8, scales=2, display_min=0.3, display_max=2.0, epsilon=0.02),
        ],
    )
    def test_scale_zero_lookup_and_weight_equal_the_wrappers(self, params):
        rng = np.random.default_rng(params.bins)
        # several sizes and log offsets, so a reordered expression shows in the last bits
        for height, width, offset in ((40, 53, 0.0), (41, 67, 3.3), (64, 37, -7.9), (77, 91, 50.0)):
            values = offset + rng.normal(0, 2, (height, width))
            log_lum, hist = hist_for(values, params.bins)
            sums = integral.build_integral_image(values)
            squares = integral.build_integral_image(values * values)
            extent = tmo.make_scale_schedule(width, height, params.scales)[0]
            mapped = tmo.tone_map_at_scale(log_lum, hist, extent, params)
            curve = tmo._global_tone_curve(hist, params)
            assert curve[hist.bin_map].tobytes() == mapped.tobytes()
            weights = tmo.weight_map_at_scale(sums, squares, extent, params.epsilon)
            weight = tmo._global_weight(sums, squares, params.epsilon)
            assert weights.tobytes() == np.full(weights.shape, weight).tobytes()


class TestWeightMap:
    def build_pair(self, values):
        return (
            integral.build_integral_image(values),
            integral.build_integral_image(values * values),
        )

    def test_constant_image_all_zero(self):
        # dyadic constant: prefix sums are exact, weights are exactly zero
        sums, squares = self.build_pair(np.full((6, 6), 2.0))
        weights = tmo.weight_map_at_scale(sums, squares, FieldExtent(3, 3), 0.1)
        assert not weights.any()
        # arbitrary constant: table rounding leaves at most ~1e-14 residue
        sums, squares = self.build_pair(np.full((6, 6), 1.3))
        weights = tmo.weight_map_at_scale(sums, squares, FieldExtent(3, 3), 0.1)
        assert weights.max() < 1e-12

    def test_variance_equal_epsilon_is_half(self):
        values = np.array([[0.0, 0.0], [1.0, 1.0]])
        sums, squares = self.build_pair(values)
        # full-coverage window has variance 0.25; epsilon 0.25 balances it
        weights = tmo.weight_map_at_scale(sums, squares, FieldExtent(2, 2), 0.25)
        assert weights == pytest.approx(np.full((2, 2), 0.5))

    def test_matches_naive_windowed_variance(self):
        rng = np.random.default_rng(37)
        values = rng.normal(0, 2, (16, 16))
        sums, squares = self.build_pair(values)
        eps = 0.1
        for extent in ((16, 16), (8, 8), (4, 4)):
            weights = tmo.weight_map_at_scale(sums, squares, FieldExtent(*extent), eps)
            for y in range(16):
                y0, y1 = max(y - extent[1], 0), min(y + extent[1] + 1, 16)
                for x in range(16):
                    x0, x1 = max(x - extent[0], 0), min(x + extent[0] + 1, 16)
                    var = oracle.naive_region_variance(values, (x0, y0, x1, y1))
                    expected = var / (var + eps)
                    assert weights[y, x] == pytest.approx(expected, abs=1e-6)

    def test_range_and_epsilon_monotonicity(self):
        rng = np.random.default_rng(41)
        values = rng.normal(0, 2, (12, 12))
        sums, squares = self.build_pair(values)
        tight = tmo.weight_map_at_scale(sums, squares, FieldExtent(3, 3), 0.01)
        loose = tmo.weight_map_at_scale(sums, squares, FieldExtent(3, 3), 1.0)
        for w in (tight, loose):
            assert (w >= 0).all() and (w < 1).all()
        assert (tight >= loose).all()  # shrinking epsilon never lowers a weight

    def test_weight_monotone_in_variance(self):
        rng = np.random.default_rng(43)
        base = rng.normal(0, 1, (10, 10))
        quiet_pair = self.build_pair(base)
        loud_pair = self.build_pair(base * 3.0)  # variance scales by 9
        quiet = tmo.weight_map_at_scale(*quiet_pair, FieldExtent(2, 2), 0.1)
        loud = tmo.weight_map_at_scale(*loud_pair, FieldExtent(2, 2), 0.1)
        assert (loud >= quiet).all()

    @pytest.mark.parametrize("offset", [0.0, 50.0, -50.0, 88.0, -88.0])
    def test_weights_stay_exact_at_any_log_offset(self, offset):
        # sigma 0.01 log noise under a 7x5 window; 88 is about RGBE's ln 2^127.
        # The tables of the raw log lose the variance to cancellation (the
        # weights were off by 9.1e-4 of the largest at 50 and 2.9e-3 at 88);
        # the midpoint shift keeps them within 1e-9 of a two-pass variance.
        height, width, eps = 96, 128, 0.1
        rng = np.random.default_rng(17)
        luminance = np.exp(offset + rng.normal(0, 0.01, (height, width)))
        floor = 1e-300
        log_lum = tmo.log_transform(luminance, floor)
        sums, squares = integral.build_moment_tables(log_lum.values)
        weights = tmo.weight_map_at_scale(sums, squares, FieldExtent(3, 2), eps)
        # two passes over each clamped window of the same logs: mean, then squared deviations
        log = np.pad(np.log(np.maximum(luminance, floor)), ((2, 2), (3, 3)), constant_values=np.nan)
        windows = np.lib.stride_tricks.sliding_window_view(log, (5, 7))
        mean = np.nanmean(windows, axis=(2, 3), keepdims=True)
        variance = np.nanmean((windows - mean) ** 2, axis=(2, 3))
        expected = variance / (variance + eps)
        assert np.abs(weights - expected).max() <= 1e-9 * expected.max()

    def test_bad_epsilon_raises(self):
        sums, squares = self.build_pair(np.ones((4, 4)))
        for epsilon in (0.0, -0.1, np.inf, np.nan):
            with pytest.raises(ParameterError, match="epsilon must be a positive finite real"):
                tmo.weight_map_at_scale(sums, squares, FieldExtent(2, 2), epsilon)

    @pytest.mark.parametrize("sums_shape, squares_shape", [((4, 5), (5, 4)), ((5, 4), (4, 5))])
    def test_tables_of_different_sizes_raise(self, sums_shape, squares_shape):
        sums = integral.build_integral_image(np.ones(sums_shape))
        squares = integral.build_integral_image(np.ones(squares_shape))
        with pytest.raises(ParameterError, match="^luminance and squared-luminance tables disagree in size$"):
            tmo.weight_map_at_scale(sums, squares, FieldExtent(2, 2), 0.1)


class TestFusion:
    def test_equal_values_any_weights(self):
        value = np.full((3, 3), 0.42)
        weights = [np.full((3, 3), 0.9), np.full((3, 3), 0.1)]
        fused = tmo.fuse_scales([value, value], weights)
        assert fused == pytest.approx(value)

    def test_single_active_scale(self):
        a = np.full((2, 2), 0.2)
        b = np.full((2, 2), 0.7)
        fused = tmo.fuse_scales([a, b], [np.zeros((2, 2)), np.ones((2, 2))])
        assert fused == pytest.approx(b)

    def test_all_zero_weights_fall_back_to_mean(self):
        a = np.full((2, 2), 0.2)
        b = np.full((2, 2), 0.6)
        fused = tmo.fuse_scales([a, b], [np.zeros((2, 2)), np.zeros((2, 2))])
        assert fused == pytest.approx(np.full((2, 2), 0.4))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ParameterError, match="fusion inputs must share one shape"):
            tmo.fuse_scales([np.zeros((2, 2))], [np.zeros((3, 2))])
        with pytest.raises(ParameterError, match="need matching non-empty stacks"):
            tmo.fuse_scales([], [])


class TestRestoreColor:
    def test_achromatic_passthrough(self):
        img = HdrImage(np.full((2, 2, 3), 0.8))
        lum = np.full((2, 2), 0.8)
        out_lum = np.full((2, 2), 0.33)
        for sat in (0.2, 0.6, 1.0):
            restored = tmo.restore_color(img, lum, out_lum, sat)
            assert restored == pytest.approx(np.full((2, 2, 3), 0.33))

    def test_linear_saturation(self):
        img = HdrImage(np.array([[[0.5, 1.0, 2.0]]]))
        lum = np.array([[1.0]])
        out_lum = np.array([[0.4]])
        restored = tmo.restore_color(img, lum, out_lum, 1.0)
        assert restored[0, 0] == pytest.approx([0.2, 0.4, 0.8])

    def test_black_stays_black(self):
        # the pipeline passes the luminance floored at the log floor
        img = HdrImage(np.zeros((1, 1, 3)))
        restored = tmo.restore_color(img, np.full((1, 1), 1e-12), np.full((1, 1), 0.5), 0.6)
        assert (restored == 0.0).all() and not np.signbit(restored).any()

    def test_dark_pixels_among_lit_ones_raise(self):
        rng = np.random.default_rng(12)
        pixels = rng.random((5, 4, 3)) + 0.1
        for dark in (0.0, -1.0, np.nan):
            lum = pixels.mean(axis=2)
            lum[3, 1] = dark
            with pytest.raises(ParameterError, match="luminance_in must be positive"):
                tmo.restore_color(HdrImage(pixels), lum, rng.random((5, 4)), 0.6)

    def test_zero_luminance_in_raises_before_any_arithmetic(self):
        img = HdrImage(np.ones((1, 3, 3)))
        out_lum = np.array([[-2.0, np.inf, 0.5]])
        with np.errstate(all="raise"), pytest.raises(ParameterError, match="floor it first"):
            tmo.restore_color(img, np.zeros((1, 3)), out_lum, 0.6)

    def test_shape_mismatch_raises(self):
        img = HdrImage(np.ones((2, 2, 3)))
        with pytest.raises(ParameterError, match="luminance rasters must match the image size"):
            tmo.restore_color(img, np.ones((3, 2)), np.ones((2, 2)), 0.6)


# the stage function that checks each TmoParams rule too, called with a bad value
STAGE_SITES = {
    "bins": lambda bins: tmo.compute_bin_edges(log_lum_from([[0.0, 1.0]]), bins),
    "scales": lambda scales: tmo.make_scale_schedule(64, 64, scales),
    "saturation": lambda sat: tmo.restore_color(
        HdrImage(np.ones((1, 1, 3))), np.ones((1, 1)), np.ones((1, 1)), sat
    ),
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("bins", 1),
        ("bins", 2.5),
        ("scales", 0),
        ("scales", 2.5),
        ("saturation", 0),
        ("saturation", 1.5),
        ("saturation", np.nan),
    ],
)
def test_stage_rejects_as_params_do(field, value):
    with pytest.raises(ParameterError) as from_params:
        TmoParams(**{field: value})
    with pytest.raises(ParameterError) as from_stage:
        STAGE_SITES[field](value)
    assert str(from_stage.value) == str(from_params.value)


@pytest.mark.parametrize("display_max", [0.0, -1.0, np.inf, np.nan])
def test_display_max_must_be_positive_finite(display_max):
    with pytest.raises(ParameterError, match="display_max must be a positive finite real"):
        TmoParams(display_min=-2.0, display_max=display_max)


@pytest.mark.parametrize("display_min", [-np.inf, np.nan, 1.0, 2.0])
def test_display_min_must_be_finite_and_below_display_max(display_min):
    with pytest.raises(ParameterError, match="display_min must be finite and < display_max"):
        TmoParams(display_min=display_min)


@pytest.mark.parametrize(
    "params",
    [
        dict(display_min=-1e308, display_max=1e308),  # the span overflows
        dict(display_max=1e308),  # the fusion sums overflow
        dict(scales=1, display_max=1.79e308),  # the colour restore overflows
    ],
)
def test_display_range_that_overflows_raises(params):
    with pytest.raises(ParameterError, match="overflows"):
        TmoParams(**params)
