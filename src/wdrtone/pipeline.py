"""Full image path: luminance -> log -> integral structures -> scale loop ->
fusion -> color restoration, with wall-clock capture per stage.

The integral histogram and both summed-area tables are built exactly once per
call; only the per-scale window queries repeat. Per-pixel stages farm out over
a worker pool whose size never changes the output bits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from . import integral, tmo
from .errors import ParameterError
from .hdr_io import HdrImage, LdrImage, quantize_ldr
from .parallel import WorkerPool
from .params import TmoParams


@dataclass
class StageTimings:
    """Milliseconds spent per pipeline stage; loop stages accumulate over scales."""

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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_text(self) -> str:
        """Key-value block, one stage per line."""
        lines = [f"{name}: {getattr(self, name):.3f}" for name in self.stage_names()]
        lines.append(f"total_ms: {self.total_ms:.3f}")
        return "\n".join(lines)


def _tone_map_display(
    image: HdrImage, params: TmoParams, pool: WorkerPool
) -> tuple[np.ndarray, StageTimings]:
    """Shared pipeline body; returns the [0, 1] display raster (caller-owned)."""
    height, width = image.height, image.width
    timings = StageTimings()

    mark = time.perf_counter()
    luminance = tmo.rgb_to_luminance(image)
    timings.luminance_ms = (time.perf_counter() - mark) * 1e3

    mark = time.perf_counter()
    floor = tmo.resolve_log_floor(luminance, params.log_floor)
    log_lum = tmo.log_transform(luminance, floor)
    del luminance
    edges, degenerate = tmo.compute_bin_edges(log_lum, params.bins)
    schedule = (
        None if degenerate else tmo.make_scale_schedule(width, height, params.scales)
    )
    timings.log_edges_ms = (time.perf_counter() - mark) * 1e3

    if degenerate:
        # constant input: no usable range, emit constant mid-gray
        fused = np.full((height, width), (params.display_min + params.display_max) / 2.0)
    else:
        mark = time.perf_counter()
        hist = integral.build_integral_histogram(log_lum.values, edges, pool)
        timings.integral_histogram_ms = (time.perf_counter() - mark) * 1e3

        mark = time.perf_counter()
        values = log_lum.values  # squared inside its task, so freed before the scale loop
        build = integral.build_integral_image
        sums, squares = pool.run_tasks((lambda: build(values), lambda: build(values * values)))
        timings.integral_images_ms = (time.perf_counter() - mark) * 1e3

        numerator = np.zeros((height, width))
        weight_sum = np.zeros((height, width))
        value_sum = np.zeros((height, width))
        scale_values = np.empty((height, width))
        scale_weights = np.empty((height, width))
        for extent in schedule:
            mark = time.perf_counter()
            tmo.tone_map_at_scale(
                log_lum, hist, extent, params, pool=pool, out=scale_values
            )
            timings.tone_map_ms += (time.perf_counter() - mark) * 1e3

            mark = time.perf_counter()
            tmo.weight_map_at_scale(
                sums,
                squares,
                extent,
                params.epsilon,
                pool=pool,
                out=scale_weights,
            )
            timings.weights_ms += (time.perf_counter() - mark) * 1e3

            mark = time.perf_counter()
            # scale_weights is rewritten next scale, so the accumulator may clobber it
            tmo.accumulate_scale(
                numerator, weight_sum, value_sum, scale_values, scale_weights, pool=pool
            )
            timings.fusion_ms += (time.perf_counter() - mark) * 1e3

        mark = time.perf_counter()
        fused = tmo.finalize_fusion(numerator, weight_sum, value_sum, len(schedule))
        timings.fusion_ms += (time.perf_counter() - mark) * 1e3

    mark = time.perf_counter()
    display = tmo.restore_color(image, log_lum.floored, fused, params.saturation, pool=pool)
    np.clip(display, 0.0, params.display_max, out=display)
    display /= params.display_max
    timings.color_restore_ms = (time.perf_counter() - mark) * 1e3
    return display, timings


def _tone_map(
    image: HdrImage, params: TmoParams | None, threads: int, encode: bool
) -> tuple[np.ndarray | LdrImage, StageTimings]:
    params = params or TmoParams()
    if image.width < 2 or image.height < 2:
        raise ParameterError(f"image must be at least 2x2, got {image.width}x{image.height}")
    started = time.perf_counter()
    with WorkerPool(threads) as pool:
        result, timings = _tone_map_display(image, params, pool)
        if encode:
            result = quantize_ldr(result, params.gamma, pool=pool)
    timings.total_ms = (time.perf_counter() - started) * 1e3
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
