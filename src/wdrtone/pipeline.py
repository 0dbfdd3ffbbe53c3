"""Full image path: luminance -> log -> integral structures -> scale loop ->
fusion -> color restoration -> gamma encode, with wall-clock capture per stage.

The integral histogram and both summed-area tables are built exactly once per
call; only the per-scale window queries repeat. Everything after those builds
runs as one kernel per row strip on a worker pool, so no full-frame fusion or
display raster is kept; neither strip height nor worker count changes the
output bits. On frames of ``_POOLED_FRONT_PIXELS`` and more, luminance, log
and the integral histogram run their strips and planes on the same pool.

The log raster is written into the body of the sums table and prefix-summed
there in place, as is its square in the squares table. The colour restore
recomputes each strip's floored luminance from the pixels, and the gamma
encode works in the strip's display buffer, so no full-frame luminance or
float display raster is kept. With ``tone_map_image`` on ``workers``
threads, the peak traced memory is then close to and at most

    (4 * (bins - 1) + 16) * (H + 1) * (W + 1) + 4 * H * W
    + 96 * min(STRIP_ROWS, H) * W * min(workers, strips)  bytes:

the int32 histogram planes and the two float64 tables; the bin map (one
byte per pixel up to 256 bins) and the uint8 result; and, for each strip
in flight, 96 bytes per strip pixel (measured: 92-94). That covers the
three fusion sums, one scale's values and weights, the bin offsets and
mask and the window counts, plus either the tone map's gather temporaries
or the colour restore's luminance and display strips. ``tone_map_to_array``
returns a float64 raster, 21 bytes per pixel more. Every call checks this
estimate against ``MAX_PEAK_BYTES`` before any pixel work.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Iterator

import numpy as np

from . import integral, parallel, tmo
from .errors import ParameterError
from .hdr_io import HdrImage, LdrImage, _encode_rows
from .parallel import WorkerPool
from .params import TmoParams

# Largest peak-memory estimate a call may start with: a MAX_RADIANCE_PIXELS
# frame (8192x8192) at the default params estimates 2.30 GiB for
# tone_map_image and 3.61 GiB for tone_map_to_array on one worker, so both fit.
MAX_PEAK_BYTES = 4 << 30
_STRIP_PIXEL_BYTES = 96  # the module docstring's per-strip term
# Smaller frames run the front half (luminance, log, integral histogram) on
# the calling thread. Timed in-process at auto on 2 vCPUs, the pool's
# hand-offs there cost more than splitting the stages saves: 120x160 and
# 240x320 calls were slower pooled, 360x480 level, 480x640 level to faster.
_POOLED_FRONT_PIXELS = 1 << 18


@dataclass
class StageTimings:
    """Milliseconds spent per pipeline stage; loop stages accumulate over scales.

    Tone map, weights, fusion and colour restore run in one pass over
    fixed-height row strips, together with the gamma encode. Each strip times
    its own stages, and the pass's wall time is split across those four fields
    in proportion to their per-strip times summed over all strips. The encode's
    share stays in ``total_ms`` alone. The split is exact at one thread, and
    the stages never sum to more than ``total_ms`` at any thread count.
    """

    luminance_ms: float = 0.0
    log_edges_ms: float = 0.0
    integral_histogram_ms: float = 0.0
    integral_images_ms: float = 0.0
    tone_map_ms: float = 0.0
    weights_ms: float = 0.0
    fusion_ms: float = 0.0
    color_restore_ms: float = 0.0
    total_ms: float = 0.0

    def stage_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self) if f.name != "total_ms")

    def stage_sum_ms(self) -> float:
        return sum(getattr(self, name) for name in self.stage_names())

    def as_dict(self) -> dict[str, float]:
        return asdict(self)

    def to_text(self) -> str:
        """Key-value block, one stage per line, total_ms (the last field) last."""
        return "\n".join(f"{name}: {ms:.3f}" for name, ms in self.as_dict().items())


# the strip pass's staged fields; its encode lap is timed but stays unstaged
_STRIP_STAGES = ("tone_map_ms", "weights_ms", "fusion_ms", "color_restore_ms")


@contextmanager
def _timed(timings: StageTimings, field: str) -> Iterator[None]:
    """Add the wall time of the block, in ms, to one field."""
    mark = time.perf_counter()
    yield
    setattr(timings, field, getattr(timings, field) + (time.perf_counter() - mark) * 1e3)


def _peak_bytes(height: int, width: int, bins: int, workers: int, encode: bool) -> int:
    """The module docstring's peak memory estimate of one call, in bytes."""
    strip_rows = parallel.STRIP_ROWS
    tables = (4 * (bins - 1) + 16) * (height + 1) * (width + 1)
    rasters = (np.min_scalar_type(bins - 1).itemsize + (3 if encode else 24)) * height * width
    strips = min(workers, -(-height // strip_rows))
    return tables + rasters + _STRIP_PIXEL_BYTES * min(strip_rows, height) * width * strips


def _tone_map(
    image: HdrImage, params: TmoParams | None, threads: int, encode: bool
) -> tuple[np.ndarray | LdrImage, StageTimings]:
    params = params or TmoParams()
    height, width = image.height, image.width
    # the scale rule depends on the size alone, so it fails before any pixel work
    schedule = tmo.make_scale_schedule(width, height, params.scales)
    timings = StageTimings()
    with _timed(timings, "total_ms"), WorkerPool(threads) as pool:
        peak = _peak_bytes(height, width, params.bins, pool.workers, encode)
        if peak > MAX_PEAK_BYTES:
            raise ParameterError(
                f"a {width}x{height} image at {params.bins} bins on {pool.workers} workers "
                f"needs an estimated {peak / 2**30:.2f} GiB, over the "
                f"{MAX_PEAK_BYTES / 2**30:g} GiB budget"
            )
        front = pool if height * width >= _POOLED_FRONT_PIXELS else None
        with _timed(timings, "luminance_ms"):
            luminance = tmo.rgb_to_luminance(image, front)

        with _timed(timings, "log_edges_ms"):
            floor = tmo.resolve_log_floor(luminance, params.log_floor)
            log_lum = tmo.log_transform(luminance, floor, front)
            del luminance
            edges, degenerate = tmo.compute_bin_edges(log_lum, params.bins)

        if not degenerate:
            with _timed(timings, "integral_histogram_ms"):
                hist = integral.build_integral_histogram(log_lum.values, edges, front)

            with _timed(timings, "integral_images_ms"):
                # the log raster is the sums table's body: square it into the
                # squares table's body, then prefix-sum both in place
                log_values = log_lum.values
                squared = integral._zero_bordered(height, width)

                def square(a: int, b: int) -> None:
                    np.multiply(log_values[a:b], log_values[a:b], out=squared[1 + a : 1 + b, 1:])

                pool.run_rows(square, height)
                sums, squares = pool.run_tasks(
                    partial(integral._integrate, table) for table in (log_values.base, squared)
                )
            curve = tmo._global_tone_curve(hist, params)
            global_weight = tmo._global_weight(sums, squares, params.epsilon)
        del log_lum  # the strips read the tables, never the log raster

        # tone_map_to_array returns the display raster; tone_map_image keeps
        # only a strip of it at a time
        result = np.empty((height, width, 3), np.uint8 if encode else np.float64)

        def strip(row_start: int, row_stop: int) -> dict[str, float]:
            """Every stage after the integral builds over one strip; seconds per stage."""
            rows = slice(row_start, row_stop)
            shape = (row_stop - row_start, width)
            spent = dict.fromkeys((*_STRIP_STAGES, "encode"), 0.0)
            mark = time.perf_counter()

            def lap(stage: str) -> None:
                nonlocal mark
                now = time.perf_counter()
                spent[stage] += now - mark
                mark = now

            if degenerate:
                # no usable range: emit constant mid-gray
                fused = np.full(shape, (params.display_min + params.display_max) / 2.0)
            else:
                numerator, weight_sum, value_sum = np.empty((3, *shape))
                # scale 0 spans the image: one curve and one weight seed the fusion sums
                np.take(curve, hist.bin_map[rows], out=value_sum)
                weight_sum.fill(global_weight)
                np.multiply(value_sum, global_weight, out=numerator)
                lap("tone_map_ms")
                offsets = tmo._strip_bin_offsets(hist, row_start, row_stop)
                values, weights = np.empty((2, *shape))
                for extent in schedule[1:]:
                    window = tmo._window(row_start, row_stop, width, height, extent)
                    tmo._tone_map_rows(hist, window, params, offsets, values)
                    lap("tone_map_ms")
                    tmo._weight_rows(sums, squares, window, params.epsilon, weights)
                    lap("weights_ms")
                    # weights are rewritten next scale, so the accumulator may clobber them
                    tmo._accumulate_rows(numerator, weight_sum, value_sum, values, weights)
                    lap("fusion_ms")
                fused = tmo.finalize_fusion(numerator, weight_sum, value_sum, len(schedule))
            lap("fusion_ms")

            # the floored luminance, recomputed per strip so no full-frame copy is kept
            pixels = image.pixels[rows]
            luminance_in = np.empty(shape)
            tmo._luminance_rows(pixels, luminance_in)
            np.maximum(luminance_in, floor, out=luminance_in)
            display = np.empty((*shape, 3)) if encode else result[rows]
            tmo._restore_rows(pixels, luminance_in, fused, params.saturation, display)
            # display_max is positive and finite, so this lands in [0, 1] as _encode_rows needs
            np.clip(display, 0.0, params.display_max, out=display)
            display /= params.display_max
            lap("color_restore_ms")
            if encode:
                _encode_rows(display, params.gamma, result[rows])
                lap("encode")
            return spent

        mark = time.perf_counter()
        laps = pool.run_rows(strip, height)
        wall_ms = (time.perf_counter() - mark) * 1e3
        strip_seconds = sum(sum(spent.values()) for spent in laps)
        for field in _STRIP_STAGES:
            setattr(timings, field, wall_ms * sum(spent[field] for spent in laps) / strip_seconds)
        if encode:
            result.flags.writeable = False  # fresh array, skip the defensive copy
            result = LdrImage(result)
    return result, timings


def tone_map_to_array(
    image: HdrImage, params: TmoParams | None = None, threads: int = 0
) -> tuple[np.ndarray, StageTimings]:
    """Tone map to a [0, 1] float RGB raster (pre-quantization) plus timings."""
    return _tone_map(image, params, threads, encode=False)


def tone_map_image(
    image: HdrImage, params: TmoParams | None = None, threads: int = 0
) -> tuple[LdrImage, StageTimings]:
    """Tone map to an 8-bit image; gamma from the params governs quantization."""
    return _tone_map(image, params, threads, encode=True)
