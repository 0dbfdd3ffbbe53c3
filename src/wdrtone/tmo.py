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

import warnings
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

    Returns (edges, degenerate); a constant image has no usable range, and the
    degenerate flag routes the pipeline to a constant output instead.
    """
    if bins < 2:
        raise ParameterError(f"bins must be >= 2, got {bins}")
    lo, hi = log_lum.log_min, log_lum.log_max
    degenerate = not hi > lo
    edges = lo + (hi - lo) * np.arange(bins + 1) / bins
    return edges, degenerate


def max_scale_count(width: int, height: int) -> int:
    """Largest scale count whose smallest field still spans at least 2x2."""
    count = 1
    smaller = min(width, height)
    while smaller >= 4:
        smaller //= 2
        count += 1
    return count


def make_scale_schedule(width: int, height: int, scales: int) -> tuple[FieldExtent, ...]:
    """Halving pyramid of field extents, largest first, each half the previous.

    The first extent equals the full image dimensions, so every clamped window
    at that scale covers the whole image and the mapping degenerates to a
    single global tone curve.
    """
    if width < 2 or height < 2:
        raise ParameterError(f"image must be at least 2x2, got {width}x{height}")
    if scales < 1:
        raise ParameterError(f"scales must be >= 1, got {scales}")
    if min(width, height) < 2 ** (scales - 1):
        warnings.warn(
            f"{scales} scales is aggressive for a {width}x{height} image",
            stacklevel=2,
        )
    extents = []
    half_w, half_h = width, height
    for _ in range(scales):
        if half_w < 2 or half_h < 2:
            raise ParameterError(
                f"{scales} scales collapse below a 2x2 field on a {width}x{height} "
                f"image; at most {max_scale_count(width, height)} are admissible"
            )
        extents.append(FieldExtent(half_w, half_h))
        half_w //= 2
        half_h //= 2
    return tuple(extents)


def _clamped_window_bounds(size: int, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate window bounds [lo, hi) after clamping to [0, size)."""
    idx = np.arange(size, dtype=np.intp)
    return np.maximum(idx - half, 0), np.minimum(idx + half + 1, size)


def _axis_pieces(start: int, stop: int, half: int, limit: int):
    """Split [start, stop) where the clamped window ends change form.

    Within each piece the low end is either pinned to the zero-padded edge
    (its table terms vanish) or slides as i - half, and the high end is either
    pinned at `limit` or slides as i + half + 1.
    """
    cuts = {start, stop}
    cuts.add(min(max(half, start), stop))
    cuts.add(min(max(limit - half - 1, start), stop))
    ordered = sorted(cuts)
    pieces = []
    for a, b in zip(ordered[:-1], ordered[1:]):
        if a < b:
            pieces.append((a, b, a < half, a >= limit - half - 1))
    return pieces


def _box_window_sums(
    table: np.ndarray,
    half_w: int,
    half_h: int,
    row_start: int,
    row_stop: int,
    out: np.ndarray,
) -> None:
    """Clamped centered-window sums for rows [row_start, row_stop).

    Pure slice arithmetic: every pixel's four-corner combination reduces, zone
    by zone, to shifted views of the zero-padded table, so no gather indexing
    is needed. Corners pinned to the padded edge contribute exactly zero and
    are dropped.
    """
    height = table.shape[0] - 1
    width = table.shape[1] - 1
    x_pieces = _axis_pieces(0, width, half_w, width)
    for ya, yb, y_lo_pinned, y_hi_pinned in _axis_pieces(row_start, row_stop, half_h, height):
        hi = table[height : height + 1] if y_hi_pinned else table[ya + half_h + 1 : yb + half_h + 1]
        lo = None if y_lo_pinned else table[ya - half_h : yb - half_h]
        for xa, xb, x_lo_pinned, x_hi_pinned in x_pieces:
            block = out[ya:yb, xa:xb]
            hi_x1 = hi[:, width : width + 1] if x_hi_pinned else hi[:, xa + half_w + 1 : xb + half_w + 1]
            if x_lo_pinned:
                block[...] = hi_x1
            else:
                np.subtract(hi_x1, hi[:, xa - half_w : xb - half_w], out=block)
            if lo is not None:
                lo_x1 = lo[:, width : width + 1] if x_hi_pinned else lo[:, xa + half_w + 1 : xb + half_w + 1]
                np.subtract(block, lo_x1, out=block)
                if not x_lo_pinned:
                    np.add(block, lo[:, xa - half_w : xb - half_w], out=block)


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
    x_lo, x_hi = _clamped_window_bounds(width, extent.half_width)
    y_lo, y_hi = _clamped_window_bounds(height, extent.half_height)
    counts_x = x_hi - x_lo
    counts_y = y_hi - y_lo

    result = np.empty((height, width)) if out is None else out
    scratch = np.empty((height, width))

    def kernel(row_start: int, row_stop: int) -> None:
        rows = slice(row_start, row_stop)
        # first moments land in the output buffer, second moments in scratch
        _box_window_sums(sums.table, extent.half_width, extent.half_height, row_start, row_stop, result)
        _box_window_sums(squares.table, extent.half_width, extent.half_height, row_start, row_stop, scratch)
        mean = result[rows]
        moment = scratch[rows]
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
