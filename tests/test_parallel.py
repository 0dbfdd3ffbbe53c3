"""WorkerPool: the worker-count rule, strips come back in order, and a worker's
exception reaches the caller. The front half's pooled kernels give the same
bytes on any pool and strip height."""

import os
import threading
import time

import numpy as np
import pytest

from wdrtone import integral, parallel, tmo
from wdrtone.hdr_io import HdrImage
from wdrtone.parallel import POOLED_PIXELS, STRIP_ROWS, WorkerPool


@pytest.mark.parametrize(
    "threads, pixels, workers",
    [
        (0, None, 5),  # auto with no pixel count: one per CPU
        (0, POOLED_PIXELS - 1, 1),
        (0, POOLED_PIXELS, 5),
        (0, 10 * POOLED_PIXELS, 5),
        (1, 10 * POOLED_PIXELS, 1),
        (3, None, 3),
        (3, 1, 3),  # an explicit count holds at any size
    ],
)
def test_worker_count_rule(monkeypatch, threads, pixels, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    with WorkerPool(threads, pixels) as pool:
        assert pool.workers == workers


def test_run_rows_returns_results_in_strip_order():
    height = 4 * STRIP_ROWS + 5

    def kernel(a, b):
        time.sleep(0.002 * (height - a) / STRIP_ROWS)  # earlier strips finish later
        return a, b

    with WorkerPool(3) as pool:
        got = pool.run_rows(kernel, height)
    assert got == [(a, min(a + STRIP_ROWS, height)) for a in range(0, height, STRIP_ROWS)]


def test_run_rows_reraises_a_later_strips_exception():
    raised_on = []

    def kernel(a, b):
        if a == 3 * STRIP_ROWS:
            raised_on.append(threading.get_ident())
            raise ValueError(f"bad strip at row {a}")
        return a

    with WorkerPool(3) as pool, pytest.raises(ValueError, match=f"bad strip at row {3 * STRIP_ROWS}"):
        pool.run_rows(kernel, 4 * STRIP_ROWS)
    assert raised_on and raised_on[0] != threading.get_ident()  # it was raised on a worker


@pytest.fixture(params=[1, 3, 64])
def strip_rows(request, monkeypatch):
    monkeypatch.setattr(parallel, "STRIP_ROWS", request.param)
    return request.param


def on_every_pool(stage):
    """stage(pool) with no pool and on 1, 2 and 3 workers, in that order."""
    results = [stage(None)]
    for workers in (1, 2, 3):
        with WorkerPool(workers) as pool:
            results.append(stage(pool))
    return results


def raster(seed, height=70, width=23):
    """70 rows: with 3- and 64-row strips the last strip is partial."""
    return 1.0 + np.random.default_rng(seed).random((height, width))


def test_luminance_is_pool_independent(strip_rows):
    px = np.random.default_rng(5).random((70, 23, 3)) * 100.0
    img = HdrImage(px)
    # the row helper's op order, written out over the whole frame
    reference = px[:, :, 0] * 0.2126 + px[:, :, 1] * 0.7152 + px[:, :, 2] * 0.0722
    for luma in on_every_pool(lambda pool: tmo.rgb_to_luminance(img, pool)):
        assert luma.tobytes() == reference.tobytes()


@pytest.mark.parametrize("below_floor", [False, True])
def test_log_and_extrema_are_pool_independent(strip_rows, below_floor):
    lum = raster(6)
    lum[-1, 4], lum[-1, 9] = 1e3, 1e-3  # both extremes in the last strip
    floor = 1e-6
    if below_floor:
        floor = 0.5
        lum[-1, 11:15] = [0.0, 1e-9, 0.25, 0.4999]
    log = np.log(np.maximum(lum, floor))
    offset = (log.min() + log.max()) / 2
    reference = log - offset
    for log_lum in on_every_pool(lambda pool: tmo.log_transform(lum, floor, pool)):
        assert log_lum.offset == offset
        assert log_lum.values.tobytes() == reference.tobytes()
        assert (log_lum.log_min, log_lum.log_max) == (reference.min(), reference.max())
        assert log_lum.log_min == (np.log(floor) if below_floor else np.log(1e-3)) - offset
        assert log_lum.log_max == np.log(1e3) - offset


def test_constant_raster_stays_degenerate(strip_rows):
    lum = np.full((70, 23), 3.5)
    for log_lum in on_every_pool(lambda pool: tmo.log_transform(lum, 1e-6, pool)):
        assert log_lum.log_min == log_lum.log_max == 0.0
        assert log_lum.offset == np.log(3.5)
        assert tmo.compute_bin_edges(log_lum, 5)[1]  # degenerate


def test_bin_map_is_pool_independent(strip_rows):
    values = np.log(raster(7))
    edges = np.linspace(values.min(), values.max(), 6)
    values[-1, :6] = edges  # on every edge, in the last strip
    values[-1, 6] = np.nan  # counts every interior edge: the top bin
    reference = np.clip(np.searchsorted(edges, values, "right") - 1, 0, 4)
    for bmap in on_every_pool(lambda pool: integral.bin_index_map(values, edges, pool)):
        assert bmap.dtype == np.uint8
        assert bmap.tolist() == reference.tolist()
    hists = on_every_pool(lambda pool: integral.build_integral_histogram(values, edges, pool))
    for hist in hists[1:]:
        assert np.array_equal(hist.bin_map, hists[0].bin_map)
        assert np.array_equal(hist.cum_below, hists[0].cum_below)
