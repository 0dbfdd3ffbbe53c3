"""Self-checks for the naive reference path and its independence from the
accelerated machinery."""

import ast
import inspect

import numpy as np
import pytest

from wdrtone import integral, oracle
from wdrtone.errors import ParameterError
from wdrtone.hdr_io import HdrImage
from wdrtone.integral import Region
from wdrtone.params import TmoParams


def random_wdr(rng, height, width):
    return HdrImage(np.exp(rng.normal(0, 2, (height, width, 3))))


class TestNaiveRegionOps:
    def test_all_ones_full_region(self):
        assert oracle.naive_region_sum(np.ones((3, 3)), Region(0, 0, 3, 3)) == 9

    def test_single_pixel(self):
        values = np.arange(12.0).reshape(3, 4)
        assert oracle.naive_region_sum(values, Region(2, 1, 3, 2)) == 6.0

    def test_tiling_self_consistency(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, (6, 6))
        whole = oracle.naive_region_sum(values, Region(0, 0, 6, 6))
        parts = (
            oracle.naive_region_sum(values, Region(0, 0, 3, 6))
            + oracle.naive_region_sum(values, Region(3, 0, 6, 6))
        )
        assert parts == pytest.approx(whole, rel=1e-12)

    def test_out_of_bounds_raises(self):
        with pytest.raises(ParameterError, match="invalid for a 3x3 raster"):
            oracle.naive_region_sum(np.ones((3, 3)), Region(0, 0, 4, 3))

    def test_accepts_plain_tuples(self):
        values = np.ones((2, 2))
        assert oracle.naive_region_sum(values, (0, 0, 2, 1)) == 2.0

    def test_histogram_constant_region(self):
        values = np.full((4, 4), 5.0)
        counts = oracle.naive_region_histogram(values, [0.0, 4.0, 8.0], Region(0, 0, 4, 4))
        assert counts.tolist() == [0, 16]

    @pytest.mark.parametrize("edges", [[0.0, 4.0, 4.0], [0.0, 8.0, 4.0], [1.0, 1.0]])
    def test_bin_map_rejects_edges_that_do_not_increase(self, edges):
        with pytest.raises(ParameterError, match="^bin edges must be strictly increasing$"):
            oracle.naive_bin_map(np.full((4, 4), 5.0), edges)

    def test_histogram_counts_sum_to_area(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0, 1, (8, 8))
        edges = np.linspace(values.min(), values.max(), 5)
        counts = oracle.naive_region_histogram(values, edges, Region(1, 2, 6, 7))
        assert counts.sum() == 25

    def test_agrees_with_integral_path_both_directions(self):
        rng = np.random.default_rng(7)
        values = rng.normal(0, 1, (12, 12))
        edges = np.linspace(values.min(), values.max(), 6)
        hist = integral.build_integral_histogram(values, edges)
        for _ in range(100):
            x0 = int(rng.integers(0, 12))
            x1 = int(rng.integers(x0 + 1, 13))
            y0 = int(rng.integers(0, 12))
            y1 = int(rng.integers(y0 + 1, 13))
            region = Region(x0, y0, x1, y1)
            slow = oracle.naive_region_histogram(values, edges, region)
            fast = integral.region_histogram(hist, region)
            assert slow.tolist() == fast.tolist()
            assert fast.tolist() == slow.tolist()


class TestNaiveToneMap:
    def test_constant_image_constant_output(self):
        img = HdrImage(np.full((8, 8, 3), 0.3))
        out = oracle.naive_tone_map(img, TmoParams(scales=2))
        assert (out.pixels == out.pixels[0, 0]).all()

    def test_matches_pipeline_16x16(self):
        from wdrtone.pipeline import tone_map_image, tone_map_to_array

        rng = np.random.default_rng(11)
        img = random_wdr(rng, 16, 16)
        params = TmoParams(bins=4, scales=2)
        fast_arr, _ = tone_map_to_array(img, params)
        slow_arr = oracle.naive_tone_map_array(img, params)
        assert np.abs(fast_arr - slow_arr).max() < 1e-6
        fast, _ = tone_map_image(img, params)
        slow = oracle.naive_tone_map(img, params)
        assert np.array_equal(fast.pixels, slow.pixels)

    def test_matches_pipeline_32x32(self):
        from wdrtone.pipeline import tone_map_image, tone_map_to_array

        rng = np.random.default_rng(13)
        img = random_wdr(rng, 32, 32)
        params = TmoParams(bins=5, scales=3)
        fast_arr, _ = tone_map_to_array(img, params)
        slow_arr = oracle.naive_tone_map_array(img, params)
        assert np.abs(fast_arr - slow_arr).max() < 1e-6
        fast, _ = tone_map_image(img, params)
        slow = oracle.naive_tone_map(img, params)
        assert np.array_equal(fast.pixels, slow.pixels)

    @pytest.mark.parametrize("bins, scales", [(b, s) for b in (3, 5, 8) for s in (1, 2, 3)])
    @pytest.mark.parametrize("floor", ["below-every-pixel", "above-a-fifth", "default"])
    def test_matches_pipeline_at_any_log_floor(self, floor, bins, scales):
        from wdrtone.pipeline import tone_map_image, tone_map_to_array

        rng = np.random.default_rng(100 + 10 * bins + scales)
        img = random_wdr(rng, 20, 24)
        px = img.pixels
        ordered = np.sort(px[..., 0] * 0.2126 + px[..., 1] * 0.7152 + px[..., 2] * 0.0722, axis=None)
        log_floor = {"below-every-pixel": ordered[0] / 2, "above-a-fifth": ordered[len(ordered) // 5]}.get(floor)
        # display_min > 0, so the pixels clamped at the floor keep a non-zero output
        params = TmoParams(bins=bins, scales=scales, log_floor=log_floor, display_min=0.05)
        fast_arr, _ = tone_map_to_array(img, params)
        slow_arr = oracle.naive_tone_map_array(img, params)
        assert np.abs(fast_arr - slow_arr).max() < 1e-6
        fast, _ = tone_map_image(img, params)
        slow = oracle.naive_tone_map(img, params)
        assert np.array_equal(fast.pixels, slow.pixels)

    def test_size_guard(self):
        img = HdrImage(np.ones((65, 4, 3)))
        with pytest.raises(ParameterError, match="naive path is capped at"):
            oracle.naive_tone_map(img, TmoParams(scales=1))


def test_oracle_never_imports_integral_machinery():
    """The reference path must not lean on the code it is meant to check."""
    tree = ast.parse(inspect.getsource(oracle))
    banned = {"integral", "tmo", "pipeline", "parallel"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            assert module not in banned, f"oracle imports {module}"
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.rsplit(".", 1)[-1] not in banned
