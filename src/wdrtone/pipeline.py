"""Full image path: luminance -> log -> integral structures -> scale loop ->
fusion -> color restoration, with wall-clock capture per stage.

The integral histogram and both summed-area tables are built exactly once per
call; only the per-scale window queries repeat. Per-pixel stages farm out over
a worker pool whose size never changes the output bits.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import Iterator

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
        return asdict(self)

    def to_text(self) -> str:
        """Key-value block, one stage per line, total_ms (the last field) last."""
        return "\n".join(f"{name}: {ms:.3f}" for name, ms in self.as_dict().items())


@contextmanager
def _timed(timings: StageTimings, field: str) -> Iterator[None]:
    """Add the wall time of the block, in ms, to one field; loop stages accumulate."""
    mark = time.perf_counter()
    yield
    setattr(timings, field, getattr(timings, field) + (time.perf_counter() - mark) * 1e3)


def _tone_map_display(
    image: HdrImage, params: TmoParams, pool: WorkerPool, timings: StageTimings
) -> np.ndarray:
    """Shared pipeline body; fills the stage timings, returns the [0, 1] display raster."""
    height, width = image.height, image.width

    with _timed(timings, "luminance_ms"):
        luminance = tmo.rgb_to_luminance(image)

    with _timed(timings, "log_edges_ms"):
        floor = tmo.resolve_log_floor(luminance, params.log_floor)
        log_lum = tmo.log_transform(luminance, floor)
        del luminance
        edges, degenerate = tmo.compute_bin_edges(log_lum, params.bins)
        schedule = None if degenerate else tmo.make_scale_schedule(width, height, params.scales)

    if degenerate:
        # no usable range: emit constant mid-gray
        fused = np.full((height, width), (params.display_min + params.display_max) / 2.0)
    else:
        with _timed(timings, "integral_histogram_ms"):
            hist = integral.build_integral_histogram(log_lum.values, edges, pool)

        with _timed(timings, "integral_images_ms"):
            values = log_lum.values  # squared inside its task, so freed before the scale loop
            build = integral.build_integral_image
            sums, squares = pool.run_tasks((lambda: build(values), lambda: build(values * values)))

        numerator = np.zeros((height, width))
        weight_sum = np.zeros((height, width))
        value_sum = np.zeros((height, width))
        scale_values = np.empty((height, width))
        scale_weights = np.empty((height, width))
        for extent in schedule:
            with _timed(timings, "tone_map_ms"):
                tmo.tone_map_at_scale(log_lum, hist, extent, params, pool=pool, out=scale_values)

            with _timed(timings, "weights_ms"):
                tmo.weight_map_at_scale(
                    sums, squares, extent, params.epsilon, pool=pool, out=scale_weights
                )

            with _timed(timings, "fusion_ms"):
                # scale_weights is rewritten next scale, so the accumulator may clobber it
                tmo.accumulate_scale(
                    numerator, weight_sum, value_sum, scale_values, scale_weights, pool=pool
                )

        with _timed(timings, "fusion_ms"):
            fused = tmo.finalize_fusion(numerator, weight_sum, value_sum, len(schedule))

    with _timed(timings, "color_restore_ms"):
        display = tmo.restore_color(image, log_lum.floored, fused, params.saturation, pool=pool)
        np.clip(display, 0.0, params.display_max, out=display)
        display /= params.display_max
    return display


def _tone_map(
    image: HdrImage, params: TmoParams | None, threads: int, encode: bool
) -> tuple[np.ndarray | LdrImage, StageTimings]:
    params = params or TmoParams()
    if image.width < 2 or image.height < 2:
        raise ParameterError(f"image must be at least 2x2, got {image.width}x{image.height}")
    timings = StageTimings()
    with _timed(timings, "total_ms"), WorkerPool(threads) as pool:
        result = _tone_map_display(image, params, pool, timings)
        if encode:
            result = quantize_ldr(result, params.gamma, pool=pool)
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
