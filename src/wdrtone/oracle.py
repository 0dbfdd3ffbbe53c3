"""Slow, obviously-correct reference implementations for the test suite.

Every window statistic here comes from explicitly slicing the window out of
the raster, never from summed-area tables; the module deliberately imports
nothing from the accelerated machinery. Clamping, binning, degeneracy, and
fusion rules mirror the engine so equality checks are exact, not
approximate-by-convention.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .hdr_io import HdrImage, LdrImage, quantize_ldr
from .params import (
    ABSOLUTE_LOG_FLOOR,
    FUSION_WEIGHT_FLOOR,
    RELATIVE_LOG_FLOOR,
    TmoParams,
)

MAX_NAIVE_SIZE = 64  # quadratic per-pixel cost; larger inputs are a mistake


def _bounds(region) -> tuple[int, int, int, int]:
    """Accept a Region-like object or an (x0, y0, x1, y1) tuple."""
    if hasattr(region, "x0"):
        return region.x0, region.y0, region.x1, region.y1
    x0, y0, x1, y1 = region
    return x0, y0, x1, y1


def _check_region(raster: np.ndarray, region) -> tuple[int, int, int, int]:
    x0, y0, x1, y1 = _bounds(region)
    height, width = raster.shape[:2]
    if not (0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height):
        raise ParameterError(
            f"region ({x0},{y0},{x1},{y1}) invalid for a {width}x{height} raster"
        )
    return x0, y0, x1, y1


def naive_region_sum(raster: np.ndarray, region) -> float:
    """Plain running sum over the region, one pixel at a time."""
    x0, y0, x1, y1 = _check_region(raster, region)
    total = 0.0
    for y in range(y0, y1):
        row = raster[y]
        for x in range(x0, x1):
            total += row[x]
    return total


def naive_bin_map(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Half-open bins, top bin closed, out-of-range clipped to the end bins."""
    edges = np.asarray(edges, dtype=np.float64)
    if not (np.diff(edges) > 0).all():
        raise ParameterError("bin edges must be strictly increasing")
    idx = np.searchsorted(edges, values, side="right") - 1
    return np.clip(idx, 0, len(edges) - 2).astype(np.int32)


def naive_region_histogram(values: np.ndarray, edges: np.ndarray, region) -> np.ndarray:
    """Per-pixel binning over the region; exact integer counts."""
    x0, y0, x1, y1 = _check_region(values, region)
    bins = len(edges) - 1
    window = naive_bin_map(values[y0:y1, x0:x1], edges)
    return np.bincount(window.ravel(), minlength=bins).astype(np.int64)


def naive_region_variance(raster: np.ndarray, region) -> float:
    """Two-pass population variance: mean first, then mean squared deviation."""
    x0, y0, x1, y1 = _check_region(raster, region)
    window = raster[y0:y1, x0:x1]
    mean = window.mean()
    return float(((window - mean) ** 2).mean())


def _halving_extents(width: int, height: int, scales: int) -> list[tuple[int, int]]:
    extents = []
    half_w, half_h = width, height
    for _ in range(scales):
        if half_w < 2 or half_h < 2:
            raise ParameterError(f"{scales} scales collapse below 2x2 on {width}x{height}")
        extents.append((half_w, half_h))
        half_w //= 2
        half_h //= 2
    return extents


def naive_tone_map_array(image: HdrImage, params: TmoParams | None = None) -> np.ndarray:
    """Reference pipeline on a [0, 1] float RGB output; explicit window loops."""
    params = params or TmoParams()
    height, width = image.height, image.width
    if width > MAX_NAIVE_SIZE or height > MAX_NAIVE_SIZE:
        raise ParameterError(
            f"naive path is capped at {MAX_NAIVE_SIZE}x{MAX_NAIVE_SIZE}, got {width}x{height}"
        )
    extents = _halving_extents(width, height, params.scales)
    px = image.pixels
    luminance = px[..., 0] * 0.2126 + px[..., 1] * 0.7152 + px[..., 2] * 0.0722
    if params.log_floor is not None:
        floor = float(params.log_floor)
    else:
        floor = max(ABSOLUTE_LOG_FLOOR, RELATIVE_LOG_FLOOR * float(luminance.max()))
    floored = np.maximum(luminance, floor)
    values = np.log(floored)
    lo_v = float(values.min())
    hi_v = float(values.max())

    edges = lo_v + (hi_v - lo_v) * np.arange(params.bins + 1) / params.bins
    if not (np.diff(edges) > 0).all():
        # no usable range: the edges do not strictly increase
        fused = np.full((height, width), (params.display_min + params.display_max) / 2.0)
    else:
        bin_map = naive_bin_map(values, edges)
        low = params.display_min
        span = params.display_max - params.display_min
        numerator = np.zeros((height, width))
        weight_sum = np.zeros((height, width))
        value_sum = np.zeros((height, width))
        for half_w, half_h in extents:
            mapped = np.empty((height, width))
            weights = np.empty((height, width))
            for y in range(height):
                y0, y1 = max(y - half_h, 0), min(y + half_h + 1, height)
                for x in range(width):
                    x0, x1 = max(x - half_w, 0), min(x + half_w + 1, width)
                    window_bins = bin_map[y0:y1, x0:x1]
                    below = int(np.count_nonzero(window_bins < bin_map[y, x]))
                    mapped[y, x] = low + span * (below / window_bins.size)
                    window = values[y0:y1, x0:x1]
                    mean = window.mean()
                    variance = float(((window - mean) ** 2).mean())
                    weights[y, x] = variance / (variance + params.epsilon)
            numerator += weights * mapped
            weight_sum += weights
            value_sum += mapped
        degenerate = weight_sum < FUSION_WEIGHT_FLOOR
        safe = np.where(degenerate, 1.0, weight_sum)
        fused = np.where(degenerate, value_sum / len(extents), numerator / safe)

    lum3 = floored[..., None]
    ratio = np.divide(px, lum3, out=np.zeros_like(px), where=lum3 > 0)
    restored = ratio**params.saturation * fused[..., None]
    np.clip(restored, 0.0, params.display_max, out=restored)
    return restored / params.display_max


def naive_tone_map(image: HdrImage, params: TmoParams | None = None) -> LdrImage:
    """Reference pipeline quantized to 8 bits."""
    params = params or TmoParams()
    return quantize_ldr(naive_tone_map_array(image, params), params.gamma)
