"""Summed-area table and integral histogram tests against naive oracles."""

import numpy as np
import pytest

from wdrtone import integral, oracle
from wdrtone.errors import ParameterError
from wdrtone.integral import Region


def random_raster(rng, max_side=16):
    h = int(rng.integers(1, max_side + 1))
    w = int(rng.integers(1, max_side + 1))
    return rng.normal(0, 5, (h, w))


def random_region(rng, width, height):
    x0 = int(rng.integers(0, width))
    x1 = int(rng.integers(x0 + 1, width + 1))
    y0 = int(rng.integers(0, height))
    y1 = int(rng.integers(y0 + 1, height + 1))
    return Region(x0, y0, x1, y1)


class TestRegion:
    def test_degenerate_raises(self):
        with pytest.raises(ParameterError, match="degenerate region"):
            Region(2, 0, 2, 4)
        with pytest.raises(ParameterError, match="degenerate region"):
            Region(0, 3, 4, 3)

    def test_pixel_count(self):
        assert Region(1, 2, 4, 7).pixel_count == 15

    def test_clamp(self):
        r = Region(-3, -2, 10, 9).clamp(5, 4)
        assert (r.x0, r.y0, r.x1, r.y1) == (0, 0, 5, 4)

    def test_clamp_entirely_outside_raises(self):
        with pytest.raises(ParameterError, match="degenerate region"):
            Region(7, 0, 9, 2).clamp(5, 4)


class TestIntegralImage:
    def test_single_element(self):
        ii = integral.build_integral_image(np.array([[3.5]]))
        assert ii.table.tolist() == [[0.0, 0.0], [0.0, 3.5]]

    def test_all_zero(self):
        ii = integral.build_integral_image(np.zeros((3, 4)))
        assert not ii.table.any()

    def test_2x2_prefix_values(self):
        ii = integral.build_integral_image(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert ii.table[2][2] == 10
        assert ii.table[1][1] == 1
        assert ii.table[1][2] == 3
        assert ii.table[2][1] == 4

    def test_zero_padding(self):
        ii = integral.build_integral_image(np.ones((5, 7)))
        assert not ii.table[0].any()
        assert not ii.table[:, 0].any()
        assert ii.table[5, 7] == 35

    def test_empty_raster_raises(self):
        with pytest.raises(ParameterError, match="expected a non-empty 2-D raster"):
            integral.build_integral_image(np.zeros((0, 3)))
        with pytest.raises(ParameterError, match="expected a non-empty 2-D raster"):
            integral.build_integral_image(np.zeros(4))

    def test_matches_naive_prefix(self):
        rng = np.random.default_rng(11)
        values = rng.normal(0, 2, (6, 5))
        ii = integral.build_integral_image(values)
        for y in range(7):
            for x in range(6):
                expected = sum(values[yy][xx] for yy in range(y) for xx in range(x))
                assert ii.table[y][x] == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestRegionSum:
    def test_all_ones_full_region(self):
        ii = integral.build_integral_image(np.ones((4, 4)))
        assert integral.region_sum(ii, Region(0, 0, 4, 4)) == 16

    def test_single_pixel(self):
        rng = np.random.default_rng(5)
        values = rng.normal(0, 1, (4, 6))
        ii = integral.build_integral_image(values)
        for y in range(4):
            for x in range(6):
                got = integral.region_sum(ii, Region(x, y, x + 1, y + 1))
                assert got == pytest.approx(values[y][x], rel=1e-12, abs=1e-12)

    def test_matches_naive_on_random_regions(self):
        rng = np.random.default_rng(17)
        values = rng.normal(0, 3, (8, 8))
        ii = integral.build_integral_image(values)
        for _ in range(200):
            region = random_region(rng, 8, 8)
            fast = integral.region_sum(ii, region)
            slow = oracle.naive_region_sum(values, region)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)

    def test_out_of_bounds_raises(self):
        ii = integral.build_integral_image(np.ones((4, 4)))
        with pytest.raises(ParameterError, match="outside 4x4 image; clamp it first"):
            integral.region_sum(ii, Region(0, 0, 5, 4))
        with pytest.raises(ParameterError, match="outside 4x4 image; clamp it first"):
            integral.region_sum(ii, Region(-1, 0, 4, 4))

    def test_translation_consistency(self):
        rng = np.random.default_rng(23)
        values = rng.normal(0, 2, (6, 6))
        shifted = np.zeros((9, 8))
        dy, dx = 3, 2
        shifted[dy : dy + 6, dx : dx + 6] = values
        ii0 = integral.build_integral_image(values)
        ii1 = integral.build_integral_image(shifted)
        for _ in range(50):
            region = random_region(rng, 6, 6)
            moved = Region(region.x0 + dx, region.y0 + dy, region.x1 + dx, region.y1 + dy)
            a = integral.region_sum(ii0, region)
            b = integral.region_sum(ii1, moved)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


class TestMomentTables:
    def test_a_table_body_gives_both_integral_images(self):
        values = np.random.default_rng(31).normal(0, 2, (5, 6))
        body = integral.table_body(5, 6)
        body[...] = values
        sums, squares = integral.build_moment_tables(body)
        assert sums.table.tobytes() == integral.build_integral_image(values).table.tobytes()
        assert squares.table.tobytes() == integral.build_integral_image(values * values).table.tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.random.default_rng(32).random((3, 4)),
            lambda: np.random.default_rng(33).random((5, 6))[:, :3],
            lambda: np.random.default_rng(34).random((5, 6))[1:, 1:],  # border not zero
            lambda: np.zeros((4, 5), np.float32)[1:, 1:],
        ],
        ids=["plain", "column_slice", "nonzero_border", "float32_table"],
    )
    def test_anything_but_a_table_body_raises_and_stays_unwritten(self, make):
        body = make()
        owner = body if body.base is None else body.base
        before = owner.copy()
        with pytest.raises(ParameterError, match="zero-bordered float64 table"):
            integral.build_moment_tables(body)
        assert owner.tobytes() == before.tobytes()


class TestBinning:
    def test_interior_edge_goes_to_upper_bin(self):
        edges = np.array([0.0, 1.0, 2.0, 3.0])
        values = np.array([[0.0, 1.0, 1.5], [2.0, 2.999, 3.0]])
        bins = integral.bin_index_map(values, edges)
        assert bins.tolist() == [[0, 1, 1], [2, 2, 2]]  # top edge closes the last bin

    def test_non_monotone_edges_raise(self):
        with pytest.raises(ParameterError):
            integral.bin_index_map(np.zeros((2, 2)), np.array([0.0, 1.0, 1.0, 2.0]))

    @pytest.mark.parametrize(
        "edges", [[0.0, 1.0], [[0.0, 1.0, 2.0]]], ids=["one_bin", "two_dimensional"]
    )
    def test_fewer_than_two_bins_or_nested_edges_raise(self, edges):
        with pytest.raises(ParameterError, match="need at least 3 boundaries"):
            integral.bin_index_map(np.zeros((2, 2)), np.array(edges))

    @pytest.mark.parametrize("bins", range(2, 12))
    def test_matches_searchsorted_on_and_beside_every_edge(self, bins):
        lo, hi = -3.7, 5.2
        edges = lo + (hi - lo) * np.arange(bins + 1) / bins
        values = np.concatenate([
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [lo - 1.0, hi + 1.0, -np.inf, np.inf, np.nan],
        ])
        reference = np.clip(np.searchsorted(edges, values, "right") - 1, 0, bins - 1)
        fast = integral.bin_index_map(values, edges)
        assert fast.dtype == np.uint8
        assert fast.tolist() == reference.tolist()

    @pytest.mark.parametrize("bins, dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_map_has_the_smallest_type_for_the_top_bin(self, bins, dtype):
        edges = np.arange(bins + 1, dtype=np.float64)
        values = np.array([[-1.0, 0.5, bins - 0.5, bins + 1.0]])
        bmap = integral.bin_index_map(values, edges)
        assert bmap.dtype == dtype
        assert bmap.tolist() == [[0, 0, bins - 1, bins - 1]]

    def test_matches_oracle_rule(self):
        rng = np.random.default_rng(31)
        values = rng.normal(0, 1, (12, 12))
        edges = np.linspace(values.min(), values.max(), 6)
        fast = integral.bin_index_map(values, edges)
        slow = oracle.naive_bin_map(values, edges)
        assert np.array_equal(fast, slow)


class TestIntegralHistogram:
    def build(self, values, bins):
        edges = np.linspace(values.min(), values.max(), bins + 1)
        return integral.build_integral_histogram(values, edges), edges

    def test_constant_raster_single_bin(self):
        values = np.full((4, 5), 2.5)
        edges = np.array([2.0, 3.0, 4.0])
        hist = integral.build_integral_histogram(values, edges)
        counts = integral.region_histogram(hist, Region(0, 0, 5, 4))
        assert counts.tolist() == [20, 0]

    def test_full_image_counts_match_naive(self):
        rng = np.random.default_rng(41)
        values = rng.normal(0, 1, (9, 7))
        hist, edges = self.build(values, 5)
        counts = integral.region_histogram(hist, Region(0, 0, 7, 9))
        naive = oracle.naive_region_histogram(values, edges, Region(0, 0, 7, 9))
        assert counts.tolist() == naive.tolist()
        assert counts.sum() == 63

    def test_partition_property(self):
        rng = np.random.default_rng(43)
        values = rng.normal(0, 1, (16, 16))
        hist, _ = self.build(values, 6)
        counts = integral.region_histogram(hist, Region(0, 0, 16, 16))
        assert len(counts) == 6
        assert counts.sum() == 16 * 16

    def test_region_counts_exact_on_random_regions(self):
        rng = np.random.default_rng(47)
        values = rng.normal(0, 1, (16, 16))
        hist, edges = self.build(values, 5)
        for _ in range(300):
            region = random_region(rng, 16, 16)
            fast = integral.region_histogram(hist, region)
            slow = oracle.naive_region_histogram(values, edges, region)
            assert fast.tolist() == slow.tolist()
            assert fast.sum() == region.pixel_count

    def test_region_inside_single_bin(self):
        values = np.zeros((6, 6))
        values[2:5, 1:4] = 7.0
        edges = np.array([-1.0, 3.0, 10.0])
        hist = integral.build_integral_histogram(values, edges)
        counts = integral.region_histogram(hist, Region(1, 2, 4, 5))
        assert counts.tolist() == [0, 9]

    def test_cum_below_planes_are_indicator_tables(self):
        rng = np.random.default_rng(53)
        values = rng.normal(0, 1, (5, 8))
        hist, edges = self.build(values, 4)
        bmap = integral.bin_index_map(values, edges)
        assert np.array_equal(hist.bin_map, bmap)
        assert hist.cum_below.shape == (3, 6, 9)  # no plane for k = 0, which is all zero
        for k in range(1, 4):
            expected = integral.build_integral_image((bmap < k).astype(float))
            assert np.array_equal(hist.cum_below[k - 1], expected.table)

    @pytest.mark.parametrize("x, y", [(0, 0), (4, 0), (0, 2), (4, 2)])
    def test_two_bins_single_pixel_at_each_corner(self, x, y):
        values = np.array([[0.0, 1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0, 1.0]])
        hist = integral.build_integral_histogram(values, np.array([0.0, 0.5, 1.0]))
        counts = integral.region_histogram(hist, Region(x, y, x + 1, y + 1))
        assert counts.tolist() == ([0, 1] if values[y, x] else [1, 0])

    def test_non_monotone_edges_raise(self):
        with pytest.raises(ParameterError):
            integral.build_integral_histogram(np.zeros((2, 2)), np.array([1.0, 0.5, 2.0]))


class TestRegionVariance:
    def build_pair(self, values):
        return (
            integral.build_integral_image(values),
            integral.build_integral_image(values * values),
        )

    def test_constant_region_zero(self):
        sums, squares = self.build_pair(np.full((4, 4), 3.7))
        assert integral.region_variance(sums, squares, Region(0, 0, 4, 4)) == 0.0

    def test_half_and_half(self):
        values = np.array([[0.0, 0.0], [1.0, 1.0]])
        sums, squares = self.build_pair(values)
        # population variance of {0, 0, 1, 1} is 0.25
        assert integral.region_variance(sums, squares, Region(0, 0, 2, 2)) == pytest.approx(0.25)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(59)
        values = rng.normal(0, 3, (32, 32))
        sums, squares = self.build_pair(values)
        for _ in range(300):
            region = random_region(rng, 32, 32)
            fast = integral.region_variance(sums, squares, region)
            slow = oracle.naive_region_variance(values, region)
            assert fast == pytest.approx(slow, abs=1e-7)

    def test_never_negative(self):
        values = np.full((8, 8), 1e8)
        values[0, 0] = 1e8 + 1e-4  # cancellation fodder
        sums, squares = self.build_pair(values)
        rng = np.random.default_rng(61)
        for _ in range(50):
            region = random_region(rng, 8, 8)
            assert integral.region_variance(sums, squares, region) >= 0.0

    def test_positive_for_any_unequal_region(self):
        values = np.zeros((6, 6))
        values[3, 4] = 5.0
        sums, squares = self.build_pair(values)
        for region in (Region(0, 0, 6, 6), Region(4, 3, 5, 4).clamp(6, 6), Region(2, 2, 6, 6)):
            expected = oracle.naive_region_variance(values, region)
            got = integral.region_variance(sums, squares, region)
            assert got == pytest.approx(expected, abs=1e-9)
            if region.pixel_count > 1 and expected > 0:
                assert got > 0.0

    def test_mismatched_tables_raise(self):
        sums = integral.build_integral_image(np.ones((4, 4)))
        squares = integral.build_integral_image(np.ones((4, 5)))
        with pytest.raises(ParameterError, match="table dimensions differ: 4x4 vs 5x4"):
            integral.region_variance(sums, squares, Region(0, 0, 2, 2))
