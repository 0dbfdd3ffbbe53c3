"""Summed-area tables and integral histograms with O(1) rectangle queries.

Tables are zero-padded to (height+1, width+1) so the four-corner combination
needs no boundary branches: ``table[y][x]`` holds the sum of all source values
strictly above and left of (x, y), and the sum over a half-open region
[x0, x1) x [y0, y1) is ``T[y1,x1] - T[y0,x1] - T[y1,x0] + T[y0,x0]``.

The integral histogram additionally keeps, for each bin boundary k, the table
of "pixels in bins below k". That stack answers the strict below-the-center-bin
count for any window with four lookups, independent of the bin count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import ContractViolationError, DimensionError, ParameterError
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
            raise ContractViolationError(f"degenerate region {self!r}")

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
        raise ContractViolationError(
            f"region {region!r} outside {width}x{height} image; clamp it first"
        )


@dataclass(frozen=True)
class IntegralImage:
    """Zero-padded summed-area table over a scalar raster."""

    width: int
    height: int
    table: np.ndarray  # (height+1, width+1), row 0 and column 0 all zero

    def __post_init__(self) -> None:
        if self.table.shape != (self.height + 1, self.width + 1):
            raise ContractViolationError("integral table shape mismatch")

    @property
    def total(self):
        """Sum of the entire source raster."""
        return self.table[self.height, self.width]


def _as_raster(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.ndim != 2 or values.size == 0:
        raise DimensionError(f"expected a non-empty 2-D raster, got shape {values.shape}")
    return values


def build_integral_image(values: np.ndarray, dtype=np.float64) -> IntegralImage:
    """Two-pass prefix sum with a zero top row and left column.

    Accumulates in ``dtype`` (float64 by default) regardless of the raster's
    own precision; single-precision accumulation degrades badly at megapixel
    scale.
    """
    values = _as_raster(values)
    height, width = values.shape
    table = np.zeros((height + 1, width + 1), dtype)
    np.cumsum(values, axis=0, dtype=dtype, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    return IntegralImage(width, height, table)


def region_sum(image: IntegralImage, region: Region):
    """Four-corner rectangle sum; float for float tables, exact int for int tables."""
    _check_bounds(region, image.width, image.height)
    t = image.table
    raw = (
        t[region.y1, region.x1]
        - t[region.y0, region.x1]
        - t[region.y1, region.x0]
        + t[region.y0, region.x0]
    )
    return raw.item()


def bin_index_map(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Assign each value to a half-open bin [edge_k, edge_k+1).

    Values exactly on an interior edge go to the upper bin; the top bin is
    closed above so the edges partition the full range. Out-of-range values
    clip into the end bins.
    """
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or len(edges) < 3:
        raise ParameterError("need at least 3 boundaries (2 bins)")
    if not (np.diff(edges) > 0).all():
        raise ParameterError("bin edges must be strictly increasing")
    idx = np.searchsorted(edges, values, side="right") - 1
    return np.clip(idx, 0, len(edges) - 2).astype(np.int32)


@dataclass(frozen=True)
class IntegralHistogram:
    """Per-bin summed-area tables over a scalar raster.

    ``cum_below[k]`` is the integral image of the indicator "pixel's bin < k"
    for k in [0, bins); the would-be top slice is just the pixel-count table
    (every pixel is in some bin) and is never stored. Per-bin channel tables
    are differences of adjacent slices.
    """

    width: int
    height: int
    bins: int
    edges: np.ndarray  # (bins + 1,) boundaries
    bin_map: np.ndarray  # (height, width) int32 bin index per pixel
    cum_below: np.ndarray  # (bins, height + 1, width + 1) integer tables

    def _area_table(self) -> np.ndarray:
        dtype = self.cum_below.dtype
        return np.outer(
            np.arange(self.height + 1, dtype=dtype), np.arange(self.width + 1, dtype=dtype)
        )

    @cached_property
    def flat_bin_offsets(self) -> np.ndarray:
        """Per-pixel offset of each pixel's below-table inside the flat stack."""
        table_cells = (self.height + 1) * (self.width + 1)
        return self.bin_map.astype(np.intp) * table_cells

    def channel(self, k: int) -> IntegralImage:
        """Integral image of bin k's indicator map."""
        if not 0 <= k < self.bins:
            raise ParameterError(f"bin index {k} outside [0, {self.bins})")
        upper = self._area_table() if k + 1 == self.bins else self.cum_below[k + 1]
        return IntegralImage(self.width, self.height, upper - self.cum_below[k])


def build_integral_histogram(
    values: np.ndarray, edges: np.ndarray, pool: WorkerPool | None = None
) -> IntegralHistogram:
    """Bin a raster and build one summed-area table per cumulative bin boundary.

    Counts accumulate in integers (int32, widened when a raster could
    overflow it) so region histograms are exact, not approximate.
    """
    values = _as_raster(values)
    height, width = values.shape
    bmap = bin_index_map(values, edges)
    bins = len(edges) - 1
    dtype = np.int32 if values.size < 2**30 else np.int64
    cum = np.zeros((bins, height + 1, width + 1), dtype)

    def build_boundary(k: int) -> None:
        below = bmap < k
        np.cumsum(below, axis=0, dtype=dtype, out=cum[k, 1:, 1:])
        np.cumsum(cum[k, 1:, 1:], axis=1, out=cum[k, 1:, 1:])

    (pool or SERIAL).run_tasks(partial(build_boundary, k) for k in range(1, bins))
    return IntegralHistogram(
        width, height, bins, np.asarray(edges, np.float64).copy(), bmap, cum
    )


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
    counts = np.empty(hist.bins, np.int64)
    counts[:-1] = np.diff(cumulative)
    # every pixel falls in some bin, so the top bin holds the remainder
    counts[-1] = region.pixel_count - cumulative[-1]
    return counts


def region_variance(sums: IntegralImage, squares: IntegralImage, region: Region) -> float:
    """Population variance of a region from tables of the raster and its square.

    Clamped at zero: near-constant regions can cancel to a tiny negative.
    """
    if (sums.width, sums.height) != (squares.width, squares.height):
        raise ContractViolationError(
            f"table dimensions differ: {sums.width}x{sums.height} vs "
            f"{squares.width}x{squares.height}"
        )
    n = region.pixel_count  # bounds checked by region_sum below
    s1 = region_sum(sums, region)
    s2 = region_sum(squares, region)
    mean = s1 / n
    return max(s2 / n - mean * mean, 0.0)
