"""Core tone mapping math.

A pixel is tone mapped once per receptive field: its window histogram gives
the fraction of window pixels falling in bins strictly darker than the pixel's
own bin, and that fraction places the pixel inside the display range. The
per-field results are fused with local-variance weights so busy neighborhoods
keep their detailed (small-field) rendition while flat neighborhoods keep the
artifact-free global one.

Windows are centered on the pixel and clamped to the image rectangle; all
window statistics use the clamped pixel count. The log luminance is centred
on the midpoint of its range before its summed-area tables are built, so the
window variances stay exact at any exposure. The 8-bit output restores colour
and applies the display gamma in one log-domain pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterError
from .hdr_io import HdrImage, quantize_rows
from .integral import IntegralHistogram, IntegralImage, Region, region_variance, table_body
from .parallel import SERIAL, WorkerPool
from .params import (
    ABSOLUTE_LOG_FLOOR,
    FUSION_WEIGHT_FLOOR,
    LUMA_BLUE,
    LUMA_GREEN,
    LUMA_RED,
    RELATIVE_LOG_FLOOR,
    TmoParams,
    require_bins,
    require_positive_finite,
    require_saturation,
    require_scales,
)


@dataclass(frozen=True)
class LogLuminance:
    """Log-domain luminance raster, shifted to centre its range, with cached extrema and floor."""

    values: np.ndarray  # (H, W) float64 ln(max(L, floor)) - offset, the body [1:, 1:] of zero-bordered values.base
    log_min: float  # the extrema of values, so bin edges span the shifted range
    log_max: float
    offset: float  # the midpoint of the log range, subtracted from every log
    floor: float  # the clamp the log was taken at, which the colour restore reuses


class FieldExtent(NamedTuple):
    """Half-extent of a receptive field; the window spans 2*half+1 pixels."""

    half_width: int
    half_height: int


def _luminance_rows(pixels: np.ndarray, out: np.ndarray) -> None:
    """BT.709 luma of a (rows, W, 3) strip into ``out``; the one op order every caller shares."""
    np.multiply(pixels[:, :, 0], LUMA_RED, out=out)
    scratch = pixels[:, :, 1] * LUMA_GREEN
    out += scratch
    np.multiply(pixels[:, :, 2], LUMA_BLUE, out=scratch)
    out += scratch


def rgb_to_luminance(image: HdrImage, pool: WorkerPool | None = None) -> np.ndarray:
    """BT.709 luma: 0.2126 R + 0.7152 G + 0.0722 B, in row strips on ``pool``.

    Each pixel's sum runs in one fixed order, so the strips and the worker
    count never change a bit.
    """
    px = image.pixels
    luma = np.empty(px.shape[:2])
    (pool or SERIAL).run_rows(lambda a, b: _luminance_rows(px[a:b], luma[a:b]), len(px))
    return luma


def resolve_log_floor(luminance: np.ndarray, log_floor: float | None = None) -> float:
    """Explicit floor if given, else the scene-relative default."""
    if log_floor is not None:
        require_positive_finite("log_floor", log_floor)
        return float(log_floor)
    return max(ABSOLUTE_LOG_FLOOR, RELATIVE_LOG_FLOOR * float(luminance.max()))


def log_transform(
    luminance: np.ndarray, log_floor: float | None, pool: WorkerPool | None = None
) -> LogLuminance:
    """ln(max(luminance, floor)) - offset in row strips on ``pool``, with cached extrema.

    One pair of luminance extrema gives the floor (``resolve_log_floor`` of
    ``log_floor``), the log range and the offset, its midpoint, as the log is
    monotone. Centred values keep the summed-area tables small, so window
    sums and variances lose no precision to a large log offset such as
    RGBE's ln 2^127. The strips only clamp, log and shift, in place in the
    body of a zero-bordered (H+1, W+1) buffer, which
    ``integral.build_moment_tables`` prefix-sums in place.
    """
    values = table_body(*np.shape(luminance))
    extrema = np.array((np.min(luminance), np.max(luminance)))
    floor = resolve_log_floor(extrema, log_floor)
    low, high = np.log(np.maximum(extrema, floor))
    offset = (low + high) / 2.0

    def kernel(a: int, b: int) -> None:
        body = values[a:b]
        np.log(np.maximum(luminance[a:b], floor, out=body), out=body)
        body -= offset

    (pool or SERIAL).run_rows(kernel, len(values))
    return LogLuminance(values, float(low - offset), float(high - offset), float(offset), floor)


def compute_bin_edges(log_lum: LogLuminance, bins: int) -> tuple[np.ndarray, bool]:
    """Equal-width boundaries over the log range.

    Returns (edges, degenerate), the edges over the shifted values. The range
    is unusable when the edges, shifted back by the offset, are not strictly
    increasing: a constant image, or a log range only a few ulps of the log
    wide, which is the log's own rounding. The degenerate flag routes the
    pipeline to a constant output instead.
    """
    require_bins(bins)
    lo, hi = log_lum.log_min, log_lum.log_max
    edges = lo + (hi - lo) * np.arange(bins + 1) / bins
    degenerate = not (np.diff(edges + log_lum.offset) > 0).all()
    return edges, degenerate


def make_scale_schedule(width: int, height: int, scales: int) -> tuple[FieldExtent, ...]:
    """Halving pyramid of field extents, largest first, each half the previous.

    The first extent equals the full image dimensions, so every clamped window
    at that scale covers the whole image and the mapping degenerates to a
    single global tone curve. Any field below 2x2, the first included, raises
    ParameterError naming the largest admissible scale count.
    """
    require_scales(scales)
    extents = []
    for k in range(scales):
        if min(width, height) >> k < 2:
            raise ParameterError(
                f"{scales} scales collapse below a 2x2 field on a {width}x{height} "
                f"image; at most {k} are admissible"
            )
        extents.append(FieldExtent(width >> k, height >> k))
    return tuple(extents)


class _Axis(NamedTuple):
    """Clamped window ends [lo, hi) of consecutive positions along one axis."""

    lo: np.ndarray
    hi: np.ndarray
    padded: int  # leading positions whose low end is the zero pad (lo == 0)
    pinned: int  # the first position whose high end is pinned at the size


class _Window(NamedTuple):
    """The clamped windows of a row strip at one field size."""

    x: _Axis
    y: _Axis
    count: np.ndarray  # pixels per window, as floats


def _window(row_start: int, row_stop: int, width: int, height: int, extent: FieldExtent) -> _Window:
    """Windows of rows [row_start, row_stop), centered on each pixel and clamped to the image."""

    def axis(start: int, stop: int, half: int, size: int) -> _Axis:
        idx, n = np.arange(start, stop, dtype=np.intp), stop - start
        return _Axis(
            np.maximum(idx - half, 0),
            np.minimum(idx + half + 1, size),
            min(max(half + 1 - start, 0), n),
            min(max(size - half - 1 - start, 0), n),
        )

    x = axis(0, width, extent.half_width, width)
    y = axis(row_start, row_stop, extent.half_height, height)
    # float64 holds every pixel count exactly, so the float product is the integer one
    count = np.multiply.outer((y.hi - y.lo).astype(np.float64), (x.hi - x.lo).astype(np.float64))
    return _Window(x, y, count)


def _runs(axis: _Axis):
    """(run, hi, lo) slices for each run of positions between the axis's cut points.

    hi and lo index a zero-padded table axis at each window's high and low
    end: hi is one pinned entry from ``pinned`` on, and lo is None over the
    ``padded`` positions, whose table terms vanish.
    """
    cuts = sorted({0, len(axis.lo), axis.padded, axis.pinned})
    for a, b in zip(cuts, cuts[1:]):
        hi, lo = int(axis.hi[a]), int(axis.lo[a])
        high = slice(hi, hi + 1 if a >= axis.pinned else hi + b - a)
        yield slice(a, b), high, None if a < axis.padded else slice(lo, lo + b - a)


def _box_window_sums(table: np.ndarray, window: _Window, out: np.ndarray) -> None:
    """Clamped window sums of a strip into ``out``, from its zero-padded summed-area table.

    Pure slice arithmetic, one y-run at a time: ``D = T[y_hi] - T[y_lo]``, one
    contiguous difference of whole table rows, sums every table column over
    the run's window rows; each x-run of windows is then ``D[:, x_hi] -
    D[:, x_lo]``, shifted views of D, so no gather indexing is needed. Ends on
    the zero pad contribute exactly zero and are dropped.
    """
    x_runs = list(_runs(window.x))
    for y_run, y_hi, y_lo in _runs(window.y):
        rows = table[y_hi] if y_lo is None else table[y_hi] - table[y_lo]
        for x_run, x_hi, x_lo in x_runs:
            if x_lo is None:
                out[y_run, x_run] = rows[:, x_hi]
            else:
                np.subtract(rows[:, x_hi], rows[:, x_lo], out=out[y_run, x_run])


class _StripIndex(NamedTuple):
    """Where a row strip's pixels sit in the flat ``cum_below`` stack; no field size enters."""

    own: np.ndarray  # intp: each pixel's own (strip row, column) in its below-plane
    above: np.ndarray  # bool: False on bin 0, which reads plane 0 and has nothing below


def _strip_index(hist: IntegralHistogram, row_start: int, row_stop: int) -> _StripIndex:
    """The strip's ``_StripIndex``; a caller running several scales computes it once."""
    bins = hist.bin_map[row_start:row_stop]
    above = bins != 0
    own = (bins - above).astype(np.intp)
    own *= (hist.height + 1) * (hist.width + 1)
    own += (np.arange(row_stop - row_start) * (hist.width + 1))[:, None]
    own += np.arange(hist.width)
    return _StripIndex(own, above)


def _corner_runs(axis: _Axis, low: bool):
    """(run, shift, pinned) for each run of one window end along an axis.

    The end at a run's first position a lies ``shift`` past a. On a sliding
    run that holds at every position; on a ``pinned`` run the end stays put,
    one position less past each next one. Runs on the zero pad are left out.
    """
    ends = axis.lo if low else axis.hi
    cuts = (axis.padded, len(ends)) if low else (0, axis.pinned, len(ends))
    for a, b in zip(cuts, cuts[1:]):
        if a < b:
            yield slice(a, b), int(ends[a]) - a, not low and a >= axis.pinned


def _gather_corner(
    flat: np.ndarray, index: _StripIndex, window: _Window, low_y: bool, low_x: bool, out: np.ndarray
) -> list[tuple[slice, slice]]:
    """Gather one window corner's table entries of a strip into ``out``; return the blocks filled.

    ``flat`` is the flattened stack of (H+1, W+1) tables. Each run is one
    ``np.take`` of the pixels' own indices from a view of ``flat`` shifted to
    the corner. A sliding run over half the row or more takes whole rows,
    whose index is contiguous: its clipped reads outside the run are
    overwritten by the pinned run or left out of the blocks returned. A
    shorter one copies its index rather than gather twice its entries. Only
    pinned runs and negative shifts build an index, over their run alone.
    """
    width = index.own.shape[1]
    row_stride = width + 1
    x_runs = list(_corner_runs(window.x, low_x))
    blocks = []
    for rows, dy, pinned_y in _corner_runs(window.y, low_y) if x_runs else ():
        for cols, dx, pinned_x in x_runs:
            if not pinned_x and 2 * (cols.stop - cols.start) >= width:
                cols = slice(None)
            idx, shift = index.own[rows, cols], dy * row_stride + dx
            if pinned_y or pinned_x or shift < 0:
                # a fresh index for this run alone: a negative shift and each
                # position's distance to a pinned end are added to it
                row_terms = np.full(rows.stop - rows.start, min(shift, 0))
                if pinned_y:
                    row_terms -= np.arange(len(row_terms)) * row_stride
                idx = idx + row_terms[:, None]
                if pinned_x:
                    idx -= np.arange(cols.stop - cols.start)
                shift = max(shift, 0)
            np.take(flat[shift:], idx, out=out[rows, cols], mode="clip")
        blocks.append((rows, slice(x_runs[0][0].start, None)))
    return blocks


def _tone_map_rows(
    hist: IntegralHistogram,
    window: _Window,
    params: TmoParams,
    index: _StripIndex,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Display values of a strip at one field size into ``out``, which is returned.

    Without ``out``, the raster is allocated once the corner gathers are
    done, so their peak does not hold it. ``index`` is the strip's
    ``_strip_index``. The integer corners on the zero pad add exactly
    nothing, so the leading ``padded`` rows and columns never gather them.
    """
    flat = hist.cum_below.reshape(-1)
    below = np.empty(index.own.shape, hist.cum_below.dtype)
    _gather_corner(flat, index, window, False, False, below)
    corner = np.empty_like(below)
    for low_y, low_x, combine in ((False, True, np.subtract), (True, False, np.subtract), (True, True, np.add)):
        for rows, cols in _gather_corner(flat, index, window, low_y, low_x, corner):
            block = below[rows, cols]
            combine(block, corner[rows, cols], out=block)
    del corner
    below *= index.above  # bin 0 gathered another plane; nothing lies below it
    if out is None:
        out = np.empty(below.shape)
    np.divide(below, window.count, out=out)
    out *= params.display_max - params.display_min
    out += params.display_min
    return out


def _global_tone_curve(hist: IntegralHistogram, params: TmoParams) -> np.ndarray:
    """The value ``_tone_map_rows`` gives each bin when every window is the image (scale 0)."""
    below = np.concatenate(([0], hist.cum_below[:, hist.height, hist.width]))
    span = params.display_max - params.display_min
    return params.display_min + span * (below / float(hist.height * hist.width))


def tone_map_at_scale(
    log_lum: LogLuminance,
    hist: IntegralHistogram,
    extent: FieldExtent,
    params: TmoParams,
    pool: WorkerPool | None = None,
) -> np.ndarray:
    """Per-pixel display value for one receptive field size.

    For each pixel, the fraction of its clamped window lying in bins strictly
    below the pixel's own bin positions it inside [display_min, display_max).
    Pixels sharing the darkest occupied bin of their window map exactly to
    display_min.
    """
    height, width = log_lum.values.shape
    if (hist.width, hist.height) != (width, height):
        raise ParameterError(
            f"histogram is {hist.width}x{hist.height}, raster is {width}x{height}"
        )
    result = np.empty((height, width))

    def kernel(a: int, b: int) -> None:
        window = _window(a, b, width, height, extent)
        _tone_map_rows(hist, window, params, _strip_index(hist, a, b), result[a:b])

    (pool or SERIAL).run_rows(kernel, height)
    return result


def _weight_rows(
    sums: IntegralImage, squares: IntegralImage, window: _Window, epsilon: float, out: np.ndarray
) -> None:
    """Variance weights of a strip at one field size into ``out``."""
    # first moments land in the output strip, second moments in a strip-local buffer
    mean = out
    moment = np.empty_like(mean)
    _box_window_sums(sums.table, window, mean)
    _box_window_sums(squares.table, window, moment)
    mean /= window.count
    moment /= window.count
    np.multiply(mean, mean, out=mean)
    np.subtract(moment, mean, out=mean)  # population variance
    np.maximum(mean, 0.0, out=mean)  # cancellation on near-constant windows
    np.add(mean, epsilon, out=moment)
    np.divide(mean, moment, out=mean)


def _global_weight(sums: IntegralImage, squares: IntegralImage, epsilon: float) -> float:
    """The weight ``_weight_rows`` gives every pixel when every window is the image (scale 0)."""
    variance = region_variance(sums, squares, Region(0, 0, sums.width, sums.height))
    return variance / (variance + epsilon)


def weight_map_at_scale(
    sums: IntegralImage,
    squares: IntegralImage,
    extent: FieldExtent,
    epsilon: float,
    pool: WorkerPool | None = None,
) -> np.ndarray:
    """Window-variance weight var / (var + epsilon), one value per pixel in [0, 1)."""
    if (sums.width, sums.height) != (squares.width, squares.height):
        raise ParameterError("luminance and squared-luminance tables disagree in size")
    require_positive_finite("epsilon", epsilon)
    result = np.empty((sums.height, sums.width))

    def kernel(a: int, b: int) -> None:
        window = _window(a, b, sums.width, sums.height, extent)
        _weight_rows(sums, squares, window, epsilon, result[a:b])

    (pool or SERIAL).run_rows(kernel, sums.height)
    return result


def _accumulate_rows(
    numerator: np.ndarray,
    weight_sum: np.ndarray,
    value_sum: np.ndarray | None,
    values: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Add one scale's values and weights into the running fusion sums of a strip.

    ``value_sum`` is None where ``finalize_fusion`` cannot fall back.
    ``weights`` is overwritten with ``weights * values``: the product needs
    no buffer of its own. Callers that still need the weights pass a copy.
    """
    weight_sum += weights
    if value_sum is not None:
        value_sum += values
    weights *= values
    numerator += weights


def finalize_fusion(
    numerator: np.ndarray,
    weight_sum: np.ndarray,
    value_sum: np.ndarray | None,
    scale_count: int,
) -> np.ndarray:
    """Weighted mean, falling back to the plain mean where all weights vanish.

    Written in place into ``numerator``, which is returned. A ``value_sum`` of
    None states that no weight sum lies below ``FUSION_WEIGHT_FLOOR``.
    """
    if value_sum is None:
        return np.divide(numerator, weight_sum, out=numerator)
    degenerate = weight_sum < FUSION_WEIGHT_FLOOR
    np.divide(numerator, weight_sum, out=numerator, where=~degenerate)
    np.divide(value_sum, scale_count, out=numerator, where=degenerate)
    return numerator


def fuse_scales(
    values: Sequence[np.ndarray], weights: Sequence[np.ndarray]
) -> np.ndarray:
    """Per-pixel weighted average of the per-field display values."""
    if len(values) == 0 or len(values) != len(weights):
        raise ParameterError(
            f"need matching non-empty stacks, got {len(values)} values / {len(weights)} weights"
        )
    shape = values[0].shape
    for arr in (*values, *weights):
        if arr.shape != shape:
            raise ParameterError("fusion inputs must share one shape")
    result = np.empty(shape)

    def kernel(row_start: int, row_stop: int) -> None:
        rows = slice(row_start, row_stop)
        numerator, weight_sum, value_sum = np.zeros((3, row_stop - row_start, *shape[1:]))
        for value, weight in zip(values, weights):
            _accumulate_rows(
                numerator, weight_sum, value_sum, value[rows], np.array(weight[rows], np.float64)
            )
        result[rows] = finalize_fusion(numerator, weight_sum, value_sum, len(values))

    SERIAL.run_rows(kernel, shape[0])
    return result


def _restore_rows(
    pixels: np.ndarray,
    luminance_in: np.ndarray,
    luminance_out: np.ndarray,
    saturation: float,
    out: np.ndarray,
) -> None:
    """(C/L_in)**sat * L_out over a strip into ``out``; every L_in must be positive."""
    np.divide(pixels, luminance_in[:, :, None], out=out)
    np.power(out, saturation, out=out)
    np.multiply(out, luminance_out[:, :, None], out=out)


def restore_color(
    image: HdrImage,
    luminance_in: np.ndarray,
    luminance_out: np.ndarray,
    saturation: float,
    pool: WorkerPool | None = None,
) -> np.ndarray:
    """Rebuild RGB around the tone mapped luminance: (C/L_in)**sat * L_out, for L_in > 0."""
    require_saturation(saturation)
    px = image.pixels
    if luminance_in.shape != px.shape[:2] or luminance_out.shape != px.shape[:2]:
        raise ParameterError("luminance rasters must match the image size")
    if not (luminance_in > 0).all():  # NaN fails too
        raise ParameterError("luminance_in must be positive; floor it first")
    result = np.empty_like(px)
    (pool or SERIAL).run_rows(
        lambda a, b: _restore_rows(
            px[a:b], luminance_in[a:b], luminance_out[a:b], saturation, result[a:b]
        ),
        px.shape[0],
    )
    return result


def _gamma_encode_rows(
    pixels: np.ndarray,
    luminance_in: np.ndarray,
    fused: np.ndarray,
    params: TmoParams,
    out: np.ndarray,
) -> None:
    """Gamma-encoded [0, 1] display values of a strip into ``out``, in the log domain.

    ``tone_map_to_array``'s value is (C/L_in)**s * fused clipped to
    [0, display_max], over display_max; its encode raises that to 1/gamma.
    The clip commutes with the monotone powers, so the encode is
    ``exp(min(s ln C + ln(max(fused, 0) / display_max) - s ln L_in, 0) / gamma)``:
    one log and one exp per channel instead of two powers. Every term is
    finite or -inf, and the clip comes before the division by gamma, so the
    exponent is never NaN or +inf at any finite radiance and positive gamma.
    ``luminance_in`` and ``fused`` are overwritten.
    """
    saturation = params.saturation
    # ln 0 = -inf encodes as 0, as does an exponent past the float range
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        np.maximum(fused, 0.0, out=fused)
        fused /= params.display_max
        np.log(fused, out=fused)
        np.log(luminance_in, out=luminance_in)
        luminance_in *= saturation
        fused -= luminance_in
        np.log(pixels, out=out)
        out *= saturation
        out += fused[:, :, None]
        np.minimum(out, 0.0, out=out)
        out /= params.gamma
        np.exp(out, out=out)


def render_rows(
    image: HdrImage,
    params: TmoParams,
    floor: float,
    tables: tuple[IntegralHistogram, IntegralImage, IntegralImage] | None,
    row_start: int,
    row_stop: int,
    out: np.ndarray,
) -> dict[str, float]:
    """Every stage after the integral builds, over rows [row_start, row_stop) of ``out``.

    ``tables`` is (integral histogram, sums, squares) of the log taken at
    ``floor``, or None for a mid-gray strip when the log range is unusable. A
    float64 ``out`` receives the [0, 1] display values, a uint8 one their gamma
    encode, taken in the log domain by ``_gamma_encode_rows``: at most one code
    from ``hdr_io.quantize_ldr`` of the float values, at a rounding tie.
    Returns the seconds spent, keyed by ``StageTimings`` field, plus ``encode``.
    """
    rows = slice(row_start, row_stop)
    shape = (row_stop - row_start, image.width)
    spent = dict.fromkeys(("tone_map_ms", "weights_ms", "fusion_ms", "color_restore_ms", "encode"), 0.0)
    marks = [time.perf_counter()]

    def lap(stage: str) -> None:
        marks.append(time.perf_counter())
        spent[stage] += marks[-1] - marks[-2]

    if tables is None:
        fused = np.full(shape, (params.display_min + params.display_max) / 2.0)
    else:
        hist, sums, squares = tables
        schedule = make_scale_schedule(image.width, image.height, params.scales)
        global_weight = _global_weight(sums, squares, params.epsilon)
        # scale 0 spans the image: one curve and one weight seed the fusion sums
        numerator = np.take(_global_tone_curve(hist, params), hist.bin_map[rows])
        # every later scale only adds non-negative weights to this seed, so only
        # a seed below the floor can leave a pixel for the plain-mean fallback
        value_sum = numerator.copy() if global_weight < FUSION_WEIGHT_FLOOR else None
        numerator *= global_weight
        weight_sum = np.full(shape, global_weight)
        lap("tone_map_ms")
        index = _strip_index(hist, row_start, row_stop)
        for extent in schedule[1:]:
            window = _window(row_start, row_stop, image.width, image.height, extent)
            lap("tone_map_ms")
            # the weights come first, so their peak holds no tone mapped values,
            # and the tone map allocates its values only after its gathers
            weights = np.empty(shape)
            _weight_rows(sums, squares, window, params.epsilon, weights)
            lap("weights_ms")
            values = _tone_map_rows(hist, window, params, index)
            del window
            lap("tone_map_ms")
            # the accumulator may clobber the weights: they die with this scale
            _accumulate_rows(numerator, weight_sum, value_sum, values, weights)
            del weights, values
            lap("fusion_ms")
        del index
        fused = finalize_fusion(numerator, weight_sum, value_sum, len(schedule))
        del weight_sum, value_sum
    lap("fusion_ms")

    # the floored luminance, recomputed per strip so no full-frame copy is kept
    pixels = image.pixels[rows]
    luminance_in = np.empty(shape)
    _luminance_rows(pixels, luminance_in)
    np.maximum(luminance_in, floor, out=luminance_in)
    if out.dtype == np.uint8:
        encoded = np.empty((*shape, 3))
        _gamma_encode_rows(pixels, luminance_in, fused, params, encoded)
        lap("color_restore_ms")
        quantize_rows(encoded, out[rows])
        lap("encode")
    else:
        display = out[rows]
        _restore_rows(pixels, luminance_in, fused, params.saturation, display)
        # display_max is positive and finite, so this lands in [0, 1]
        np.clip(display, 0.0, params.display_max, out=display)
        display /= params.display_max
        lap("color_restore_ms")
    return spent
