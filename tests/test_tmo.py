"""Core math tests: luminance, binning, scale schedule, per-field mapping,
variance weights, fusion, color restoration."""

import numpy as np
import pytest

from wdrtone import integral, oracle, tmo
from wdrtone.errors import ContractViolationError, ParameterError
from wdrtone.hdr_io import HdrImage
from wdrtone.params import TmoParams
from wdrtone.tmo import FieldExtent


def log_lum_from(values):
    values = np.asarray(values, dtype=np.float64)
    return tmo.LogLuminance(values, np.exp(values), float(values.min()), float(values.max()))


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
        assert ll.values[0, 0] == pytest.approx(np.log(1e-6))
        assert ll.log_min == pytest.approx(-13.8155, abs=1e-4)

    def test_elementwise_matches_ln(self):
        rng = np.random.default_rng(2)
        lum = np.abs(rng.normal(1, 3, (8, 9)))
        ll = tmo.log_transform(lum, 1e-9)
        assert np.array_equal(ll.values, np.log(np.maximum(lum, 1e-9)))
        assert ll.log_min == ll.values.min()
        assert ll.log_max == ll.values.max()

    def test_scene_relative_floor(self):
        lum = np.array([[0.0, 2.0e6]])
        assert tmo.resolve_log_floor(lum) == pytest.approx(2.0)
        assert tmo.resolve_log_floor(lum, log_floor=0.5) == 0.5
        assert tmo.resolve_log_floor(np.zeros((2, 2))) == 1e-12

    def test_bad_floor_raises(self):
        with pytest.raises(ParameterError):
            tmo.log_transform(np.ones((2, 2)), 0.0)


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

    def test_collapse_reports_max_admissible(self):
        with pytest.raises(ParameterError) as err:
            tmo.make_scale_schedule(16, 16, 5)
        assert "at most 4" in str(err.value)
        tmo.make_scale_schedule(16, 16, 4)  # boundary case is fine

    def test_max_scale_count(self):
        assert tmo.max_scale_count(16, 16) == 4
        assert tmo.max_scale_count(2048, 2048) == 11
        assert tmo.max_scale_count(2, 2) == 1
        assert tmo.max_scale_count(640, 480) == 8

    def test_small_image_warns(self):
        with pytest.warns(UserWarning):
            with pytest.raises(ParameterError):
                tmo.make_scale_schedule(8, 8, 5)

    def test_tiny_image_rejected(self):
        with pytest.raises(ParameterError):
            tmo.make_scale_schedule(1, 8, 1)


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
        counts = oracle.naive_region_histogram(values, hist.edges, (0, 0, 10, 10))
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
        with pytest.raises(ContractViolationError):
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

    def test_bad_epsilon_raises(self):
        sums, squares = self.build_pair(np.ones((4, 4)))
        with pytest.raises(ParameterError):
            tmo.weight_map_at_scale(sums, squares, FieldExtent(2, 2), 0.0)


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
        with pytest.raises(ContractViolationError):
            tmo.fuse_scales([np.zeros((2, 2))], [np.zeros((3, 2))])
        with pytest.raises(ContractViolationError):
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
        img = HdrImage(np.zeros((1, 1, 3)))
        restored = tmo.restore_color(img, np.zeros((1, 1)), np.full((1, 1), 0.5), 0.6)
        assert restored[0, 0] == pytest.approx([0.0, 0.0, 0.0])

    def test_shape_mismatch_raises(self):
        img = HdrImage(np.ones((2, 2, 3)))
        with pytest.raises(ContractViolationError):
            tmo.restore_color(img, np.ones((3, 2)), np.ones((2, 2)), 0.6)
