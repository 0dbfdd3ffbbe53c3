"""Full image path: luminance -> log -> integral structures -> scale loop ->
fusion -> color restoration -> gamma encode, with wall-clock capture per stage.

The integral histogram and both summed-area tables are built exactly once per
call; only the per-scale window queries repeat. Everything after those builds
runs as ``tmo.render_rows`` per row strip on a worker pool, so no full-frame
fusion or display raster is kept; neither strip height nor worker count
changes the output bits. Luminance, log and the integral histogram run on
the same pool, whose auto size follows the frame's pixel count.

``tmo.log_transform`` takes the floor and the log range from one pair of
luminance extrema and writes the log, centred on that range, into the sums
table's body; ``integral.build_moment_tables`` squares it into the squares
table and prefix-sums both in place. The strips take each window sum as a row
difference of a table, then a column difference, and ``tone_map_image``
restores colour and gamma-encodes in one log-domain pass. On ``workers``
threads, ``tone_map_image``'s peak traced memory is then close to and at most

    (4 * (bins - 1) + 16) * (H + 1) * (W + 1) + 4 * H * W
    + 64 * min(STRIP_ROWS, H) * W * min(workers, strips)  bytes:

the int32 histogram planes and the two float64 tables; the bin map (one
byte per pixel up to 256 bins) and the uint8 result; and, for each strip
in flight, 64 bytes per strip pixel (measured: 59 at 1920 columns, 55-62
at 769). Through the scale loop a strip holds 33 of them: the numerator
and weight sums, one scale's window counts, and each pixel's gather index
and bin-0 mask. Each scale takes its weights first: the weights, the
second moments and one y-run's row difference of a summed-area table (24
bytes). The tone map then holds the weights beside its two int32 corner
rasters and one run's gather index (24), and allocates its values once
those are freed. The colour restore's fused, luminance and display strips
(40 bytes) start once the scale loop's buffers are freed. ``tone_map_to_array`` returns a float64
raster, 21 bytes per pixel more. Every call checks this estimate against
``MAX_PEAK_BYTES`` before any pixel work.
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
from .hdr_io import HdrImage, LdrImage
from .params import TmoParams

# Largest peak-memory estimate a call may start with: a MAX_RADIANCE_PIXELS
# frame (8192x8192) at the default params estimates 2.28 GiB for
# tone_map_image and 3.59 GiB for tone_map_to_array on one worker, so both fit.
MAX_PEAK_BYTES = 4 << 30
_STRIP_PIXEL_BYTES = 64  # the module docstring's per-strip term


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
    tmo.make_scale_schedule(width, height, params.scales)
    timings = StageTimings()
    with _timed(timings, "total_ms"), parallel.WorkerPool(threads, height * width) as pool:
        peak = _peak_bytes(height, width, params.bins, pool.workers, encode)
        if peak > MAX_PEAK_BYTES:
            raise ParameterError(
                f"a {width}x{height} image at {params.bins} bins on {pool.workers} workers "
                f"needs an estimated {peak / 2**30:.2f} GiB, over the "
                f"{MAX_PEAK_BYTES / 2**30:g} GiB budget"
            )
        with _timed(timings, "luminance_ms"):
            luminance = tmo.rgb_to_luminance(image, pool)

        with _timed(timings, "log_edges_ms"):
            log_lum = tmo.log_transform(luminance, params.log_floor, pool)
            del luminance
            edges, degenerate = tmo.compute_bin_edges(log_lum, params.bins)

        floor, tables = log_lum.floor, None  # tables None: no usable range, every strip is mid-gray
        if not degenerate:
            with _timed(timings, "integral_histogram_ms"):
                hist = integral.build_integral_histogram(log_lum.values, edges, pool)

            with _timed(timings, "integral_images_ms"):
                tables = (hist, *integral.build_moment_tables(log_lum.values, pool))
        del log_lum  # the strips read the tables, never the log raster

        result = np.empty((height, width, 3), np.uint8 if encode else np.float64)
        mark = time.perf_counter()
        laps = pool.run_rows(partial(tmo.render_rows, image, params, floor, tables, out=result), height)
        wall_ms = (time.perf_counter() - mark) * 1e3
        strip_seconds = sum(sum(spent.values()) for spent in laps)
        for field in laps[0].keys() & timings.stage_names():  # encode is no stage
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
