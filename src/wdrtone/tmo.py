"""Core tone mapping math.

A pixel is tone mapped once per receptive field: its window histogram gives
the fraction of window pixels falling in bins strictly darker than the pixel's
own bin, and that fraction places the pixel inside the display range. The
per-field results are fused with local-variance weights so busy neighborhoods
keep their detailed (small-field) rendition while flat neighborhoods keep the
artifact-free global one.

Windows are centered on the pixel and clamped to the image rectangle; all
window statistics use the clamped pixel count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractViolationError, ParameterError
from .hdr_io import HdrImage
from .integral import IntegralHistogram, IntegralImage
from .parallel import SERIAL, WorkerPool
from .params import (
    ABSOLUTE_LOG_FLOOR,
    FUSION_WEIGHT_FLOOR,
    RELATIVE_LOG_FLOOR,
    TmoParams,
)

LUMA_RED = 0.2126
LUMA_GREEN = 0.7152
LUMA_BLUE = 0.0722


@dataclass(frozen=True)
class LogLuminance:
    """Log-domain luminance raster with cached extrema."""

    values: np.ndarray  # (H, W) float64, ln(floored)
    floored: np.ndarray  # (H, W) linear luminance clamped at the log floor
    log_min: float
    log_max: float


class FieldExtent(NamedTuple):
    """Half-extent of a receptive field; the window spans 2*half+1 pixels."""

    half_width: int
    half_height: int


def rgb_to_luminance(image: HdrImage) -> np.ndarray:
    """BT.709 luma: 0.2126 R + 0.7152 G + 0.0722 B."""
    px = image.pixels
    luma = px[..., 0] * LUMA_RED
    scratch = px[..., 1] * LUMA_GREEN
    luma += scratch
    np.multiply(px[..., 2], LUMA_BLUE, out=scratch)
    luma += scratch
    return luma


def resolve_log_floor(luminance: np.ndarray, log_floor: float | None = None) -> float:
    """Explicit floor if given, else the scene-relative default."""
    if log_floor is not None:
        return float(log_floor)
    return max(ABSOLUTE_LOG_FLOOR, RELATIVE_LOG_FLOOR * float(luminance.max()))


def log_transform(luminance: np.ndarray, log_floor: float) -> LogLuminance:
    """ln(max(luminance, floor)) with cached extrema; keeps the floored raster."""
    if not log_floor > 0:
        raise ParameterError(f"log_floor must be positive, got {log_floor!r}")
    floored = np.maximum(luminance, log_floor)
    values = np.log(floored)
    return LogLuminance(values, floored, float(values.min()), float(values.max()))


def compute_bin_edges(log_lum: LogLuminance, bins: int) -> tuple[np.ndarray, bool]:
    """Equal-width boundaries over the log range.

    Returns (edges, degenerate). The range is unusable when the edges are not
    strictly increasing: a constant image, or a log range only a few ulps wide
    whose edges round onto each other. The degenerate flag routes the pipeline
    to a constant output instead.
    """
    if bins < 2:
        raise ParameterError(f"bins must be >= 2, got {bins}")
    lo, hi = log_lum.log_min, log_lum.log_max
    edges = lo + (hi - lo) * np.arange(bins + 1) / bins
    degenerate = not (np.diff(edges) > 0).all()
    return edges, degenerate


def make_scale_schedule(width: int, height: int, scales: int) -> tuple[FieldExtent, ...]:
    """Halving pyramid of field extents, largest first, each half the previous.

    The first extent equals the full image dimensions, so every clamped window
    at that scale covers the whole image and the mapping degenerates to a
    single global tone curve. A schedule whose smallest field would fall below
    2x2 raises ParameterError naming the largest admissible scale count.
    """
    if width < 2 or height < 2:
        raise ParameterError(f"image must be at least 2x2, got {width}x{height}")
    if scales < 1:
        raise ParameterError(f"scales must be >= 1, got {scales}")
    extents = []
    half_w, half_h = width, height
    for _ in range(scales):
        if half_w < 2 or half_h < 2:
            raise ParameterError(
                f"{scales} scales collapse below a 2x2 field on a {width}x{height} "
                f"image; at most {len(extents)} are admissible"
            )
        extents.append(FieldExtent(half_w, half_h))
        half_w //= 2
        half_h //= 2
    return tuple(extents)


def _clamped_window_bounds(size: int, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate window bounds [lo, hi) after clamping to [0, size)."""
    idx = np.arange(size, dtype=np.intp)
    return np.maximum(idx - half, 0), np.minimum(idx + half + 1, size)


def _window_runs(start: int, stop: int, half: int, size: int):
    """Split [start, stop) into runs where the clamped window ends keep one form.

    Yields (run, hi, lo) slices: run indexes the run's positions counted from
    start; hi and lo index a zero-padded table axis of length size + 1 at each
    window's high and low end. hi is one pinned row or column once the high
    end reaches size; lo is None while the low end is pinned at the zero pad,
    whose table terms vanish.
    """
    # the low end leaves the zero pad at index half, the high end reaches size at size - half - 1
    cuts = sorted({start, stop} | {min(max(cut, start), stop) for cut in (half, size - half - 1)})
    for a, b in zip(cuts, cuts[1:]):
        hi = slice(size, size + 1) if a + half + 1 >= size else slice(a + half + 1, b + half + 1)
        lo = None if a < half else slice(a - half, b - half)
        yield slice(a - start, b - start), hi, lo


def _box_window_sums(
    table: np.ndarray, half_w: int, half_h: int, row_start: int, row_stop: int, out: np.ndarray
) -> None:
    """Clamped centered-window sums for rows [row_start, row_stop) into a strip.

    ``out`` holds the strip only: its row 0 is ``row_start``. Pure slice
    arithmetic: every pixel's four-corner combination reduces, run by run, to
    shifted views of the zero-padded table, so no gather indexing is needed.
    Corners pinned to the padded edge contribute exactly zero and are dropped.
    """
    height = table.shape[0] - 1
    width = table.shape[1] - 1
    x_runs = list(_window_runs(0, width, half_w, width))
    for y_run, y_hi, y_lo in _window_runs(row_start, row_stop, half_h, height):
        hi = table[y_hi]
        lo = None if y_lo is None else table[y_lo]
        for x_run, x_hi, x_lo in x_runs:
            block = out[y_run, x_run]
            if x_lo is None:
                block[...] = hi[:, x_hi]
            else:
                np.subtract(hi[:, x_hi], hi[:, x_lo], out=block)
            if lo is not None:
                np.subtract(block, lo[:, x_hi], out=block)
                if x_lo is not None:
                    np.add(block, lo[:, x_lo], out=block)


def tone_map_at_scale(
    log_lum: LogLuminance,
    hist: IntegralHistogram,
    extent: FieldExtent,
    params: TmoParams,
    pool: WorkerPool | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-pixel display value for one receptive field size.

    For each pixel, the fraction of its clamped window lying in bins strictly
    below the pixel's own bin positions it inside [display_min, display_max).
    Pixels sharing the darkest occupied bin of their window map exactly to
    display_min.
    """
    height, width = log_lum.values.shape
    if (hist.width, hist.height) != (width, height):
        raise ContractViolationError(
            f"histogram is {hist.width}x{hist.height}, raster is {width}x{height}"
        )
    x_lo, x_hi = _clamped_window_bounds(width, extent.half_width)
    y_lo, y_hi = _clamped_window_bounds(height, extent.half_height)
    counts_x = x_hi - x_lo
    counts_y = y_hi - y_lo

    flat = hist.cum_below.reshape(-1)
    offsets = hist.flat_bin_offsets
    row_stride = width + 1
    low = params.display_min
    span = params.display_max - params.display_min
    result = np.empty((height, width)) if out is None else out

    def kernel(row_start: int, row_stop: int) -> None:
        base = offsets[row_start:row_stop]
        top = base + (y_hi[row_start:row_stop] * row_stride)[:, None]
        bottom = base + (y_lo[row_start:row_stop] * row_stride)[:, None]
        below = flat[top + x_hi] - flat[bottom + x_hi] - flat[top + x_lo] + flat[bottom + x_lo]
        window = counts_y[row_start:row_stop, None] * counts_x[None, :]
        result[row_start:row_stop] = low + span * (below / window)

    (pool or SERIAL).run_rows(kernel, height)
    return result


def weight_map_at_scale(
    sums: IntegralImage,
    squares: IntegralImage,
    extent: FieldExtent,
    epsilon: float,
    pool: WorkerPool | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Window-variance weight var / (var + epsilon), one value per pixel in [0, 1)."""
    if (sums.width, sums.height) != (squares.width, squares.height):
        raise ContractViolationError("luminance and squared-luminance tables disagree in size")
    if not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon!r}")
    width, height = sums.width, sums.height
    half_w, half_h = extent
    x_lo, x_hi = _clamped_window_bounds(width, half_w)
    y_lo, y_hi = _clamped_window_bounds(height, half_h)
    counts_x = x_hi - x_lo
    counts_y = y_hi - y_lo

    result = np.empty((height, width)) if out is None else out

    def kernel(row_start: int, row_stop: int) -> None:
        rows = slice(row_start, row_stop)
        # first moments land in the output strip, second moments in a strip-local buffer
        mean = result[rows]
        moment = np.empty_like(mean)
        _box_window_sums(sums.table, half_w, half_h, row_start, row_stop, mean)
        _box_window_sums(squares.table, half_w, half_h, row_start, row_stop, moment)
        window = (counts_y[rows][:, None] * counts_x[None, :]).astype(np.float64)
        mean /= window
        moment /= window
        np.multiply(mean, mean, out=mean)
        np.subtract(moment, mean, out=mean)  # population variance
        np.maximum(mean, 0.0, out=mean)  # cancellation on near-constant windows
        np.add(mean, epsilon, out=moment)
        np.divide(mean, moment, out=mean)

    (pool or SERIAL).run_rows(kernel, height)
    return result


def finalize_fusion(
    numerator: np.ndarray,
    weight_sum: np.ndarray,
    value_sum: np.ndarray,
    scale_count: int,
) -> np.ndarray:
    """Weighted mean, falling back to the plain mean where all weights vanish."""
    degenerate = weight_sum < FUSION_WEIGHT_FLOOR
    safe = np.where(degenerate, 1.0, weight_sum)
    return np.where(degenerate, value_sum / scale_count, numerator / safe)


def accumulate_scale(
    numerator: np.ndarray,
    weight_sum: np.ndarray,
    value_sum: np.ndarray,
    values: np.ndarray,
    weights: np.ndarray,
    pool: WorkerPool | None = None,
) -> None:
    """Add one scale's values and weights into the running fusion sums.

    ``weights`` is overwritten with ``weights * values``: the product needs no
    buffer of its own. Callers that still need the weights pass a copy.
    """

    def kernel(row_start: int, row_stop: int) -> None:
        rows = slice(row_start, row_stop)
        weight_sum[rows] += weights[rows]
        value_sum[rows] += values[rows]
        weights[rows] *= values[rows]
        numerator[rows] += weights[rows]

    (pool or SERIAL).run_rows(kernel, values.shape[0])


def fuse_scales(
    values: Sequence[np.ndarray], weights: Sequence[np.ndarray]
) -> np.ndarray:
    """Per-pixel weighted average of the per-field display values."""
    if len(values) == 0 or len(values) != len(weights):
        raise ContractViolationError(
            f"need matching non-empty stacks, got {len(values)} values / {len(weights)} weights"
        )
    shape = values[0].shape
    for arr in (*values, *weights):
        if arr.shape != shape:
            raise ContractViolationError("fusion inputs must share one shape")
    numerator = np.zeros(shape)
    weight_sum = np.zeros(shape)
    value_sum = np.zeros(shape)
    for value, weight in zip(values, weights):
        accumulate_scale(numerator, weight_sum, value_sum, value, np.array(weight, np.float64))
    return finalize_fusion(numerator, weight_sum, value_sum, len(values))


def restore_color(
    image: HdrImage,
    luminance_in: np.ndarray,
    luminance_out: np.ndarray,
    saturation: float,
    pool: WorkerPool | None = None,
) -> np.ndarray:
    """Rebuild RGB around the tone mapped luminance: (C/L_in)**sat * L_out."""
    if not 0 < saturation <= 1:
        raise ParameterError(f"saturation must lie in (0, 1], got {saturation!r}")
    px = image.pixels
    if luminance_in.shape != px.shape[:2] or luminance_out.shape != px.shape[:2]:
        raise ContractViolationError("luminance rasters must match the image size")
    result = np.zeros_like(px)

    def kernel(row_start: int, row_stop: int) -> None:
        chunk = px[row_start:row_stop]
        block = result[row_start:row_stop]
        lum = luminance_in[row_start:row_stop, :, None]
        np.divide(chunk, lum, out=block, where=lum > 0)
        np.power(block, saturation, out=block)
        np.multiply(block, luminance_out[row_start:row_stop, :, None], out=block)

    (pool or SERIAL).run_rows(kernel, px.shape[0])
    return result
