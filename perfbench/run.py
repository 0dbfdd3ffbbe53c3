"""wdrtone benchmark: one workload in one process, every output checked.

    python3 perfbench/run.py --workload hd_frame --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured with
no spans and with tracemalloc off in every timed call; each time is the wall
time net of the hypervisor steal recorded during it (``stolen_ms``), with the
raw wall medians in the ``env`` line. ``--trace 1`` runs the
separate traced pass and reports the per-layer metrics. Each metric is printed
by name with its unit; the last stdout line is the JSON result. The exit code
is 1 when an output check fails and 2 when the library cannot be set up.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.dont_write_bytecode = True  # every run compiles the same way and writes nothing
import traced  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("hdr_io", "integral", "tmo", "parallel", "pipeline", "params", "cli")
SETUP_REPS = 3
MIN_SETUP_S = 3.0  # short set-ups repeat more, so their median holds still
MAX_SETUP_S = 15.0  # set-ups stop repeating here even if not yet steady
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10
# Even the p50 rung needs 20 samples to have ten beyond it, so a run measures
# until it has that many calls at threads=0, whatever --seconds says.
MIN_AUTO_SAMPLES = 20
MAX_TIMED_S = 120.0  # stop early enough to end within the 180 s limit
WARMUP_TOLERANCE = 0.10  # consecutive warm-up blocks this close count as steady
SMALL_BATCH_MPIX = 1.0  # a batch this small warms up whole, a larger one by its first input
SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name
CLK_TCK = os.sysconf("SC_CLK_TCK")  # unit of the /proc/stat counters


def load_library() -> SimpleNamespace:
    """Import the library afresh from ``src/``: no cached modules, no bytecode."""
    for name in [n for n in sys.modules if n == "wdrtone" or n.startswith("wdrtone.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"wdrtone.{m}") for m in MODULES})
    if ROOT / "src" not in Path(lib.pipeline.__file__).resolve().parents:
        raise ImportError(f"wdrtone imported from {lib.pipeline.__file__}, not {ROOT / 'src'}")
    return lib


def vcpu_ticks() -> list[tuple[int, int]]:
    """(busy, steal) clock ticks of each vCPU from /proc/stat; [] where unreadable."""
    try:
        lines = Path("/proc/stat").read_text().splitlines()
    except OSError:
        return []
    ticks = []
    for line in lines:
        if line.startswith("cpu") and line[3:4].isdigit():
            user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, line.split()[1:9])
            ticks.append((user + nice + system + irq + softirq, steal))
    return ticks


def stolen_ms(before, after, wall_ms: float) -> float:
    """Hypervisor steal that held up a call of ``wall_ms``, in ms.

    Steal is time a vCPU was ready to run but the host ran something else, so
    no change to the program can move it. Only vCPUs that did at least half as
    much work as the busiest count: an idle vCPU's steal delays nothing. A
    parallel section waits while any of its vCPUs is stolen, so the call is
    held up for the union of their stolen time, taken with steal on different
    vCPUs as independent: wall * (1 - prod(1 - steal_i / wall)).
    """
    if not before or len(before) != len(after) or wall_ms <= 0:
        return 0.0
    deltas = [(b1 - b0, (s1 - s0) * 1e3 / CLK_TCK) for (b0, s0), (b1, s1) in zip(before, after)]
    busiest = max(busy for busy, _ in deltas)
    running = 1.0
    for busy, steal in deltas:
        if 2 * busy >= busiest:
            running *= max(0.0, 1 - steal / wall_ms)
    return wall_ms * (1 - running)


def timed_call(lib, item, threads: int):
    """(wall ms, steal ms) of one call, or None when it raised or its output is wrong."""
    ticks = vcpu_ticks()
    start = time.perf_counter()
    try:
        result = workloads.run_item(lib, item, threads)
    except Exception:
        traceback.print_exc()
        return None
    elapsed_ms = (time.perf_counter() - start) * 1e3
    steal_ms = stolen_ms(ticks, vcpu_ticks(), elapsed_ms)
    return (elapsed_ms, steal_ms) if workloads.item_ok(item, *result) else None


def set_up(workload: str, seed: int):
    """Inputs, then set-ups until steady, then references.

    One set-up is a fresh import plus a warm-up block at threads=0 (the whole
    batch when it is small, else the first input). Set-ups repeat, at least
    SETUP_REPS times and MIN_SETUP_S in all, until two blocks in a row agree
    within WARMUP_TOLERANCE. Times are net of hypervisor steal, as in timed_run.
    """
    start = time.perf_counter()
    lib = load_library()
    items = workloads.make_items(lib, workload, seed)
    inputgen_s = time.perf_counter() - start
    block = items if sum(it.mpix for it in items) <= SMALL_BATCH_MPIX else items[:1]
    setup_times, block_times = [], []
    deadline = time.perf_counter() + MAX_SETUP_S
    while True:
        ticks = vcpu_ticks()
        start = time.perf_counter()
        lib = load_library()
        for item in block:
            workloads.bind(lib, item)
        warm = time.perf_counter()
        for item in block:
            workloads.run_item(lib, item, 0)
        done = time.perf_counter()
        steal_s = min(stolen_ms(ticks, vcpu_ticks(), (done - start) * 1e3) / 1e3, done - warm)
        setup_times.append(done - start - steal_s)
        block_times.append(done - warm - steal_s)
        steady = len(block_times) >= 2 and (
            abs(block_times[-1] - block_times[-2]) <= WARMUP_TOLERANCE * block_times[-2])
        enough = len(setup_times) >= SETUP_REPS and sum(setup_times) >= MIN_SETUP_S
        if enough and (steady or done >= deadline):
            break
    for item in items:
        workloads.bind(lib, item)
        # the untimed memory pass doubles as the threads=1 reference render
        image = item.image if item.image is not None else lib.hdr_io.HdrImage(item.raster)
        tracemalloc.start()
        item.reference, _ = lib.pipeline.tone_map_image(image, item.params, 1)
        item.peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        if item.data is not None:
            item.reference_ppm = lib.hdr_io.encode_ppm(item.reference)
    return lib, items, inputgen_s, setup_times


def oracle_matches(lib, items) -> bool:
    """A central crop of the most demanding item equals the loop oracle's LDR."""
    item = max(items, key=lambda it: (it.scales, it.bins))
    h, w = workloads.ORACLE_CROP
    top, left = (item.height - h) // 2, (item.width - w) // 2
    crop = lib.hdr_io.HdrImage(np.array(item.raster[top : top + h, left : left + w]))
    fast, _ = lib.pipeline.tone_map_image(crop, item.params, 0)
    oracle = importlib.import_module("wdrtone.oracle").naive_tone_map
    return np.array_equal(fast.pixels, oracle(crop, item.params).pixels)


def timed_run(lib, items, seconds: float) -> dict:
    """Closed loop, one caller: whole passes, threads=0 and threads=1 interleaved.

    Each call's time is its wall time net of the hypervisor steal recorded
    during it; the raw wall times are kept for the report.
    """
    auto, serial, raw = [], [], {0: [], 1: []}
    mpix = auto_s = 0.0
    attempted = failed = passes = 0
    start = time.perf_counter()
    while True:
        for index, item in enumerate(items):
            for threads in ((0, 1) if (passes + index) % 2 == 0 else (1, 0)):
                attempted += 1
                timing = timed_call(lib, item, threads)
                if timing is None:
                    failed += 1
                    continue
                wall_ms, steal_ms = timing
                raw[threads].append(wall_ms)
                if threads == 0:
                    auto.append(wall_ms - steal_ms)
                    mpix += item.mpix
                    auto_s += (wall_ms - steal_ms) / 1e3
                else:
                    serial.append(wall_ms - steal_ms)
        passes += 1
        elapsed = time.perf_counter() - start
        # a failed call already makes the run incorrect: stop at --seconds
        if elapsed >= MAX_TIMED_S or (
                elapsed >= seconds and (len(auto) >= MIN_AUTO_SAMPLES or failed)):
            break
    return {"auto": auto, "serial": serial, "raw": raw, "mpix": mpix, "auto_s": auto_s,
            "attempted": attempted, "failed": failed, "passes": passes}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it.

    Nearest rank; the p50 rung is the median itself, so tail >= median.
    Returns (value, percentile); (nan, 0) below TAIL_BEYOND * 2 samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return (statistics.median(ordered) if pct == 50 else ordered[rank - 1]), pct
    return float("nan"), 0.0


def l3_mib() -> float | None:
    try:
        size = ctypes.CDLL(None).sysconf(SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return None
    return size / 2**20 if size > 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        lib, items, inputgen_s, setup_times = set_up(args.workload, args.seed)
        oracle_ok = oracle_matches(lib, items)
    except Exception:
        traceback.print_exc()
        return 2
    checks = {"oracle crop equals the loop oracle": oracle_ok}

    working_set = max(it.peak_mib for it in items) + max(it.raster.nbytes for it in items) / 2**20
    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cpu_count": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "l3_mib": l3_mib(), "working_set_mib": working_set,
        "inputgen_s": inputgen_s, "setup_s_samples": setup_times,
    }

    if args.trace:
        start = time.perf_counter()
        traced.add_encodings(lib, items)
        inputgen_s += time.perf_counter() - start
        tr, results, passes = traced.traced_run(lib, items, args.seconds)
        tr.write(ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = traced.layer_metrics(items, tr, results)
        metrics["bench.inputgen_s"] = inputgen_s
        metrics["bench.working_set_mib"] = working_set
        attempted = len(results)
        failed = sum(not r["ok"] for r in results)
        env["passes"] = passes
        if not metrics["trace.replay_bitexact"]:
            print("staged replay differs from tone_map_image: per-layer numbers INVALID",
                  file=sys.stderr)
        declared = spec["per_layer"]
    else:
        run = timed_run(lib, items, args.seconds)
        attempted, failed = run["attempted"], run["failed"]
        p50 = statistics.median(run["auto"]) if run["auto"] else float("nan")
        tail_ms, tail_pct = tail(run["auto"])
        metrics = {
            "mpix_per_s": run["mpix"] / run["auto_s"] if run["auto_s"] else 0.0,
            "image_ms_p50": p50,
            "image_ms_tail": tail_ms,
            "serial_image_ms_p50": statistics.median(run["serial"]) if run["serial"] else float("nan"),
            "peak_traced_mib": max(it.peak_mib for it in items),
            "setup_s": statistics.median(setup_times),
            "success_rate": (attempted - failed) / attempted,
        }
        checks[f"{MIN_AUTO_SAMPLES}+ samples at threads=0"] = len(run["auto"]) >= MIN_AUTO_SAMPLES
        checks["image_ms_tail >= image_ms_p50"] = tail_ms >= p50
        env.update(passes=run["passes"], auto_samples=len(run["auto"]),
                   serial_samples=len(run["serial"]), tail_percentile=tail_pct,
                   raw_wall_ms_p50={"auto": statistics.median(run["raw"][0] or [math.nan]),
                                    "serial": statistics.median(run["raw"][1] or [math.nan])})
        declared = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(env))
    for name in units:
        note = ""
        if name == "image_ms_tail":
            note = f"  (p{env['tail_percentile']:g} of n={env['auto_samples']})"
        print(f"{name:40s} {metrics[name]:>14.4f} {units[name]}{note}")
    for name, ok in checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    correct = failed == 0 and all(checks.values())
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
