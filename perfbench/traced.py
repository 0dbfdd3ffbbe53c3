"""Traced run: spans around the benchmark's calls into each layer.

Besides the whole ``tone_map_image`` call, each item is replayed stage by
stage from the library's public functions, so every stage gets a span of its
own. The replay must give ``tone_map_image``'s LDR bit for bit; if it does
not, ``trace.replay_bitexact`` is 0 and the stage numbers are invalid.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracing import NullTracer, Tracer
from workloads import decoder, encode

DISPATCH_REPEATS = 20  # no-op run_rows calls timed per item
LOOPED_STAGES = ("tone_map_ms", "weights_ms", "fusion_ms")


def noop_rows(row_start: int, row_stop: int) -> None:
    pass


def staged_replay(lib, image, params, tr):
    """``tone_map_image`` rebuilt from the public stage functions, one span each."""
    tmo, integral = lib.tmo, lib.integral
    with tr.span("parallel.WorkerPool"):
        pool = lib.parallel.WorkerPool(0)
    try:
        with tr.span("tmo.rgb_to_luminance"):
            luminance = tmo.rgb_to_luminance(image)
        with tr.span("tmo.log_transform"):
            floor = tmo.resolve_log_floor(luminance, params.log_floor)
            log_lum = tmo.log_transform(luminance, floor)
            floored = np.maximum(luminance, floor)  # restore_color's input
        with tr.span("tmo.compute_bin_edges"):
            edges, degenerate = tmo.compute_bin_edges(log_lum, params.bins)
        hist = sums = squares = None
        values, weights = [], []
        if degenerate:
            fused = np.full(luminance.shape, (params.display_min + params.display_max) / 2.0)
        else:
            with tr.span("tmo.make_scale_schedule"):
                schedule = tmo.make_scale_schedule(image.width, image.height, params.scales)
            with tr.span("integral.build_integral_histogram"):
                hist = integral.build_integral_histogram(log_lum.values, edges, pool)
            with tr.span("integral.build_integral_image"):
                sums = integral.build_integral_image(log_lum.values)
            with tr.span("integral.build_integral_image"):
                squares = integral.build_integral_image(log_lum.values * log_lum.values)
            for scale, extent in enumerate(schedule):
                with tr.span("tmo.tone_map_at_scale", scale=scale, pixels=luminance.size):
                    values.append(tmo.tone_map_at_scale(log_lum, hist, extent, params, pool=pool))
                with tr.span("tmo.weight_map_at_scale", scale=scale):
                    weights.append(
                        tmo.weight_map_at_scale(sums, squares, extent, params.epsilon, pool=pool)
                    )
            with tr.span("tmo.fuse_scales"):
                fused = tmo.fuse_scales(values, weights)
        with tr.span("tmo.restore_color"):
            display = tmo.restore_color(image, floored, fused, params.saturation, pool=pool)
            np.clip(display, 0.0, params.display_max, out=display)
            display /= params.display_max
        with tr.span("hdr_io.quantize_ldr"):
            ldr = lib.hdr_io.quantize_ldr(display, params.gamma)
        # releasing the intermediates costs real time; it gets its own span
        with tr.span("replay.free"):
            del luminance, log_lum, floored, hist, sums, squares, values, weights, fused, display
        return ldr
    finally:
        with tr.span("parallel.close"):
            pool.close()


def add_encodings(lib, items) -> None:
    """Give image workloads both containers, so hdr_io is measured on them too."""
    for item in items:
        if item.data is not None:
            item.encodings = {item.container: (item.data, item.raster)}
        else:
            item.encodings = {c: encode(lib, item.image, c) for c in ("hdr", "pfm")}


def trace_item(lib, item, tr: Tracer, flip: bool) -> dict:
    """Trace one item into ``tr``; return its timings and whether its outputs held."""
    io, pipeline, parallel = lib.hdr_io, lib.pipeline, lib.parallel
    ok = True
    out = {"item": item, "stages": {}}
    with tr.span("item", label=item.label):
        for container, (data, expected) in item.encodings.items():
            decode = decoder(lib, container)
            with tr.span(f"hdr_io.{decode.__name__}"):
                decoded = decode(data)
            ok &= np.array_equal(decoded.pixels, expected)
        writable = np.array(item.raster)
        with tr.span("hdr_io.HdrImage"):
            image = io.HdrImage(writable)
        for threads in ((1, 0) if flip else (0, 1)):
            with tr.span("pipeline.tone_map_image", threads=threads) as rec:
                ldr, timings = pipeline.tone_map_image(image, item.params, threads)
            ok &= np.array_equal(ldr.pixels, item.reference.pixels)
            out["stages"][threads] = (timings, rec)
        replay_ok = True
        for traced in ((False, True) if flip else (True, False)):
            if traced:
                with tr.span("replay") as rec:
                    ldr = staged_replay(lib, image, item.params, tr)
                out["replay_traced"] = rec["end"] - rec["start"]
            else:
                start = time.perf_counter()
                ldr = staged_replay(lib, image, item.params, NullTracer())
                out["replay_untraced"] = time.perf_counter() - start
            replay_ok &= np.array_equal(ldr.pixels, item.reference.pixels)
        with tr.span("hdr_io.encode_ppm"):
            io.encode_ppm(ldr)
        # ThreadPoolExecutor starts its threads on the first submit, so the
        # spin-up span holds a WorkerPool(0) enter, one dispatch and the close.
        with tr.span("parallel.pool_spinup"):
            with parallel.WorkerPool(0) as pool:
                pool.run_rows(noop_rows, item.height)
        with parallel.WorkerPool(0) as pool:
            pool.run_rows(noop_rows, item.height)
            for _ in range(DISPATCH_REPEATS):
                with tr.span("parallel.run_rows"):
                    pool.run_rows(noop_rows, item.height)
    out["ok"] = ok
    out["replay_ok"] = replay_ok
    return out


def traced_run(lib, items, seconds: float) -> tuple[Tracer, list[dict], int]:
    """Pairs of whole passes over the items until ``seconds`` have elapsed.

    Orders flip from one pass to the next, so over a pair of passes every item
    runs each of its call pairs in both orders.
    """
    tr = Tracer()
    results = []
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes % 2 or not results or time.perf_counter() < deadline:
        for index, item in enumerate(items):
            tr.call_id = len(results)
            results.append(trace_item(lib, item, tr, flip=(passes + index) % 2 == 1))
        passes += 1
    return tr, results, passes


def layer_metrics(items, tr: Tracer, results: list[dict]) -> dict[str, float]:
    """Per-layer metrics from span self times, medians over traced item calls."""
    own = tr.self_times()
    calls: list[dict[str, list]] = [dict() for _ in results]
    for span, self_s in zip(tr.spans, own):
        calls[span["call"]].setdefault(span["name"], []).append((span, self_s))

    def ms(call, name, scale=None):
        return sum(s * 1e3 for span, s in call.get(name, ()) if scale is None or span["scale"] == scale)

    rows = []
    for call, result in zip(calls, results):
        item = result["item"]
        row = {
            "integral.histogram_ms": ms(call, "integral.build_integral_histogram"),
            "integral.sat_ms": ms(call, "integral.build_integral_image"),
            "tmo.luminance_log_ms": ms(call, "tmo.rgb_to_luminance") + ms(call, "tmo.log_transform")
            + ms(call, "tmo.compute_bin_edges") + ms(call, "tmo.make_scale_schedule"),
            "tmo.tone_map_ms": ms(call, "tmo.tone_map_at_scale"),
            "tmo.weights_ms": ms(call, "tmo.weight_map_at_scale"),
            "tmo.fusion_ms": ms(call, "tmo.fuse_scales"),
            "tmo.color_ms": ms(call, "tmo.restore_color"),
            "hdr_io.image_ctor_ms_per_mpix": ms(call, "hdr_io.HdrImage") / item.mpix,
            "hdr_io.ldr_encode_ms_per_mpix": (ms(call, "hdr_io.quantize_ldr")
                                              + ms(call, "hdr_io.encode_ppm")) / item.mpix,
            "parallel.pool_spinup_ms": ms(call, "parallel.pool_spinup"),
            "parallel.run_rows_dispatch_us": 1e6 * statistics.median(
                s for _, s in call["parallel.run_rows"]),
        }
        for name, decode in (("rle", "read_radiance_hdr"), ("pfm", "read_pfm")):
            if f"hdr_io.{decode}" in call:
                row[f"hdr_io.{name}_decode_ms_per_mpix"] = ms(call, f"hdr_io.{decode}") / item.mpix
        for scale in range(item.scales):
            row[f"tmo.tone_map_ms.s{scale}"] = ms(call, "tmo.tone_map_at_scale", scale)
            row[f"tmo.weights_ms.s{scale}"] = ms(call, "tmo.weight_map_at_scale", scale)
        replay = call["replay"][0]
        wall = replay[0]["end"] - replay[0]["start"]
        row["trace.replay_span_coverage"] = (wall - replay[1]) / wall
        rows.append(row)

    metrics = {name: statistics.median(r[name] for r in rows if name in r)
               for name in {k for r in rows for k in r}}

    first_pass = range(len(items))
    metrics["tmo.window_queries"] = float(sum(
        span["pixels"] for span in tr.spans
        if span["name"] == "tmo.tone_map_at_scale" and span["call"] in first_pass))
    metrics["integral.histogram_table_mib"] = max(
        it.bins * (it.height + 1) * (it.width + 1) * np.dtype(np.int32).itemsize / 2**20
        for it in items)

    def wall_ms(rec):
        return (rec["end"] - rec["start"]) * 1e3

    auto = [(t.as_dict(), rec) for t, rec in (r["stages"][0] for r in results)]
    serial = [(t.as_dict(), rec) for t, rec in (r["stages"][1] for r in results)]
    metrics["parallel.speedup"] = (statistics.median(wall_ms(rec) for _, rec in serial)
                                   / statistics.median(wall_ms(rec) for _, rec in auto))
    for field in auto[0][0]:
        metrics[f"pipeline.stage.{field}"] = statistics.median(t[field] for t, _ in auto)
    metrics["pipeline.unstaged_ms"] = statistics.median(
        wall_ms(rec) - sum(v for k, v in t.items() if k != "total_ms") for t, rec in auto)
    # the acceptance gate reads the split at threads=1
    metrics["pipeline.looped_share"] = statistics.median(
        sum(t[f] for f in LOOPED_STAGES) / t["total_ms"] for t, _ in serial)
    metrics["pipeline.peak_mib_per_mpix"] = statistics.median(it.peak_mib / it.mpix for it in items)
    # a mean, so the order effects of the two call orders cancel
    metrics["trace.overhead_ms"] = statistics.mean(
        (r["replay_traced"] - r["replay_untraced"]) * 1e3 for r in results)
    metrics["trace.replay_bitexact"] = float(all(r["replay_ok"] for r in results))
    return metrics
