"""Summed-area tables and integral histograms with O(1) rectangle queries.

Tables are zero-padded to (height+1, width+1) so the four-corner combination
needs no boundary branches: ``table[y][x]`` holds the sum of all source values
strictly above and left of (x, y), and the sum over a half-open region
[x0, x1) x [y0, y1) is ``T[y1,x1] - T[y0,x1] - T[y1,x0] + T[y0,x0]``.

The integral histogram keeps, for each bin k above the lowest, the table of
"pixels in bins below k". That stack answers the strict below-the-center-bin
count for any window with four lookups, independent of the bin count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ParameterError
from .parallel import SERIAL, WorkerPool


@dataclass(frozen=True)
class Region:
    """Half-open pixel rectangle [x0, x1) x [y0, y1); must be non-degenerate."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ParameterError(f"degenerate region {self!r}")

    @property
    def pixel_count(self) -> int:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def clamp(self, width: int, height: int) -> "Region":
        """Intersect with the image rectangle; degenerate results raise."""
        return Region(
            max(self.x0, 0), max(self.y0, 0), min(self.x1, width), min(self.y1, height)
        )


def _check_bounds(region: Region, width: int, height: int) -> None:
    if region.x0 < 0 or region.y0 < 0 or region.x1 > width or region.y1 > height:
        raise ParameterError(
            f"region {region!r} outside {width}x{height} image; clamp it first"
        )


@dataclass(frozen=True)
class IntegralImage:
    """Zero-padded summed-area table over a scalar raster."""

    width: int
    height: int
    table: np.ndarray  # (height+1, width+1), row 0 and column 0 all zero


def _as_raster(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.ndim != 2 or values.size == 0:
        raise ParameterError(f"expected a non-empty 2-D raster, got shape {values.shape}")
    return values


def _sum_down_columns(plane: np.ndarray) -> None:
    """Running sums down each column, in place: row y-1 is added into row y.

    The same additions in the same order as ``cumsum(axis=0)``, but each one
    is a contiguous row, which runs about twice as fast.
    """
    for y in range(1, plane.shape[0]):
        np.add(plane[y - 1], plane[y], out=plane[y])


def table_body(height: int, width: int) -> np.ndarray:
    """The uninitialised body ``[1:, 1:]`` of a fresh zero-bordered (height+1, width+1) float64 table.

    A raster written into it is what ``build_moment_tables`` takes.
    """
    table = np.empty((height + 1, width + 1))
    table[0] = 0.0
    table[:, 0] = 0.0
    return table[1:, 1:]


def _integrate(body: np.ndarray) -> IntegralImage:
    """Prefix-sum a ``table_body`` in place into its table.

    Sums run down the columns first, then along the rows; the tables depend
    on that order.
    """
    _sum_down_columns(body)
    np.cumsum(body, axis=1, out=body)
    return IntegralImage(body.shape[1], body.shape[0], body.base)


def build_integral_image(values: np.ndarray) -> IntegralImage:
    """Two-pass prefix sum with a zero top row and left column.

    Accumulates in float64 regardless of the raster's own precision;
    single-precision accumulation degrades badly at megapixel scale.
    """
    values = _as_raster(values)
    body = table_body(*values.shape)
    body[...] = values
    return _integrate(body)


def build_moment_tables(
    body: np.ndarray, pool: WorkerPool | None = None
) -> tuple[IntegralImage, IntegralImage]:
    """``build_integral_image`` of a raster and of its square, the first built in place.

    ``body`` is a ``table_body``, as ``tmo.log_transform`` writes the log; anything
    else raises ParameterError. The square's strips and the two integrations run
    on ``pool``.
    """
    table = getattr(body, "base", None)
    # the same memory, dtype, shape and strides as the body of its own base
    if not (
        isinstance(table, np.ndarray)
        and table.ndim == 2
        and table.dtype == np.float64
        and body.__array_interface__ == table[1:, 1:].__array_interface__
        and not (table[0].any() or table[:, 0].any())
    ):
        raise ParameterError("expected the body [1:, 1:] of a zero-bordered float64 table")
    squared = table_body(*body.shape)
    pool = pool or SERIAL
    pool.run_rows(lambda a, b: np.multiply(body[a:b], body[a:b], out=squared[a:b]), len(body))
    return tuple(pool.run_tasks(partial(_integrate, t) for t in (body, squared)))


def region_sum(image: IntegralImage, region: Region):
    """Four-corner rectangle sum."""
    _check_bounds(region, image.width, image.height)
    t = image.table
    raw = (
        t[region.y1, region.x1]
        - t[region.y0, region.x1]
        - t[region.y1, region.x0]
        + t[region.y0, region.x0]
    )
    return raw.item()


def bin_index_map(
    values: np.ndarray, edges: np.ndarray, pool: WorkerPool | None = None
) -> np.ndarray:
    """Assign each value to a half-open bin [edge_k, edge_k+1), in row strips on ``pool``.

    Values exactly on an interior edge go to the upper bin; the top bin is
    closed above so the edges partition the full range. Out-of-range values
    clip into the end bins. The map has the smallest unsigned type that holds
    the top bin: uint8 up to 256 bins. Integer counts are exact, so the
    strips and the worker count never change the map.
    """
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or len(edges) < 3:
        raise ParameterError("need at least 3 boundaries (2 bins)")
    if not (np.diff(edges) > 0).all():
        raise ParameterError("bin edges must be strictly increasing")
    # count the interior edges at or below each value, one row strip at a time
    # so each strip stays in cache; NaN compares false, so it counts every edge
    # and lands in the top bin
    idx = np.zeros(np.shape(values), np.min_scalar_type(len(edges) - 2))

    def kernel(a: int, b: int) -> None:
        for edge in edges[1:-1]:
            idx[a:b] += ~(values[a:b] < edge)

    (pool or SERIAL).run_rows(kernel, len(idx))
    return idx


@dataclass(frozen=True)
class IntegralHistogram:
    """Cumulative per-bin summed-area tables over a scalar raster.

    ``cum_below[k - 1]`` is the integral image of the indicator "pixel's bin
    < k" for k in [1, bins). Neither end plane is stored: k = 0 would be all
    zero, and k = bins is just the pixel-count table (every pixel is in some
    bin).
    """

    width: int
    height: int
    bin_map: np.ndarray  # (height, width) bin index per pixel, see bin_index_map
    cum_below: np.ndarray  # (bins - 1, height + 1, width + 1) integer tables


def build_integral_histogram(
    values: np.ndarray, edges: np.ndarray, pool: WorkerPool | None = None
) -> IntegralHistogram:
    """Bin a raster and build the cumulative "bins below k" table for each bin k.

    Counts accumulate in integers (int32, widened when a raster could
    overflow it) so region histograms are exact, not approximate.
    """
    values = _as_raster(values)
    height, width = values.shape
    bmap = bin_index_map(values, edges, pool)
    bins = len(edges) - 1
    dtype = np.int32 if values.size < 2**30 else np.int64
    cum = np.zeros((bins - 1, height + 1, width + 1), dtype)

    def row_prefix(k: int) -> None:
        np.cumsum(bmap < k, axis=1, dtype=dtype, out=cum[k - 1, 1:, 1:])

    # integer sums are exact in any order: along the rows first, plane by
    # plane, then down the columns of every plane at once, one add per row
    (pool or SERIAL).run_tasks(partial(row_prefix, k) for k in range(1, bins))
    _sum_down_columns(cum[:, 1:, 1:].swapaxes(0, 1))
    return IntegralHistogram(width, height, bmap, cum)


def region_histogram(hist: IntegralHistogram, region: Region) -> np.ndarray:
    """Exact per-bin pixel counts inside a region; sums to region.pixel_count."""
    _check_bounds(region, hist.width, hist.height)
    c = hist.cum_below
    cumulative = (
        c[:, region.y1, region.x1]
        - c[:, region.y0, region.x1]
        - c[:, region.y1, region.x0]
        + c[:, region.y0, region.x0]
    ).astype(np.int64)
    # nothing lies below bin 0, and every pixel falls in some bin, so the top
    # bin holds the remainder
    return np.diff(cumulative, prepend=0, append=region.pixel_count)


def region_variance(sums: IntegralImage, squares: IntegralImage, region: Region) -> float:
    """Population variance of a region from tables of the raster and its square.

    Clamped at zero: near-constant regions can cancel to a tiny negative.
    """
    if (sums.width, sums.height) != (squares.width, squares.height):
        raise ParameterError(
            f"table dimensions differ: {sums.width}x{sums.height} vs "
            f"{squares.width}x{squares.height}"
        )
    n = region.pixel_count  # bounds checked by region_sum below
    s1 = region_sum(sums, region)
    s2 = region_sum(squares, region)
    mean = s1 / n
    return max(s2 / n - mean * mean, 0.0)
