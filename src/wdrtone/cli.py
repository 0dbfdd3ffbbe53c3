"""Batch command line: tone-map files, emit parameter-sweep grids, run benches.

Exit codes: 0 success, 2 unreadable/undecodable input (or command line misuse,
argparse's convention), 3 invalid parameter values. stdout carries reports
only; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import HdrFormatError, ParameterError, ToneMapError
from .hdr_io import HdrImage, LdrImage, load_hdr_file, save_ldr
from .params import TmoParams
from .pipeline import StageTimings, tone_map_image

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PARAMS = 3

DEFAULT_BENCH_RESOLUTIONS = "480x640,720x1280,1080x1920"
DEFAULT_BENCH_SCALES = "3,4,5"
DEFAULT_BENCH_BINS = "3,4,5"
MONTAGE_GUTTER = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wdrtone",
        description="Tone map wide-dynamic-range images (.hdr / .pfm) to 8-bit output.",
    )
    parser.add_argument("--input", type=Path, help="input .hdr or .pfm file")
    parser.add_argument("--output", type=Path, help="output image (.png, else binary PPM)")
    parser.add_argument("--bins", type=int, default=5, help="histogram bins per window (default 5)")
    parser.add_argument("--scales", type=int, default=5, help="receptive field count (default 5)")
    parser.add_argument("--epsilon", type=float, default=0.1, help="variance-weight regularizer (default 0.1)")
    parser.add_argument("--sat", type=float, default=0.6, help="color saturation exponent (default 0.6)")
    parser.add_argument("--gamma", type=float, default=2.2, help="display gamma (default 2.2)")
    parser.add_argument("--display-min", type=float, default=0.0, help="display range low end (default 0)")
    parser.add_argument("--display-max", type=float, default=1.0, help="display range high end (default 1)")
    parser.add_argument(
        "--log-floor",
        type=float,
        default=None,
        help="luminance clamp before the log; default scales with the scene",
    )
    parser.add_argument("--threads", type=int, default=0, help="worker threads, 0 = auto")
    parser.add_argument("--timing", action="store_true", help="print the per-stage timing block")
    parser.add_argument(
        "--sweep",
        metavar="n=N1,N2:eps=E1,E2",
        help="render every (bins, epsilon) pair plus a contact-sheet grid",
    )
    parser.add_argument("--bench", action="store_true", help="timing table over resolutions and params")
    parser.add_argument(
        "--bench-resolutions",
        default=DEFAULT_BENCH_RESOLUTIONS,
        help=f"HxW list for --bench (default {DEFAULT_BENCH_RESOLUTIONS})",
    )
    parser.add_argument("--bench-scales", default=DEFAULT_BENCH_SCALES, help="scale counts for --bench")
    parser.add_argument("--bench-bins", default=DEFAULT_BENCH_BINS, help="bin counts for --bench")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per bench cell (median, default 5)")
    parser.add_argument(
        "--report-format", choices=("text", "csv"), default="text", help="bench/timing report style"
    )
    return parser


def params_from_args(args: argparse.Namespace) -> TmoParams:
    return TmoParams(
        bins=args.bins,
        scales=args.scales,
        epsilon=args.epsilon,
        saturation=args.sat,
        display_min=args.display_min,
        display_max=args.display_max,
        log_floor=args.log_floor,
        gamma=args.gamma,
    )


def _parse_list(spec: str, what: str, kind: type) -> list:
    try:
        items = [kind(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad {what} list {spec!r}") from exc
    if not items:
        raise ParameterError(f"empty {what} list")
    return items


def parse_sweep_spec(spec: str) -> tuple[list[int], list[float]]:
    """Parse 'n=3,5,7:eps=0.5,0.1,0.01' into bin and epsilon lists."""
    parts = dict()
    for chunk in spec.split(":"):
        key, _, value = chunk.partition("=")
        parts[key.strip()] = value
    if set(parts) != {"n", "eps"}:
        raise ParameterError(f"sweep spec must look like n=...:eps=..., got {spec!r}")
    return _parse_list(parts["n"], "n", int), _parse_list(parts["eps"], "eps", float)


def parse_resolutions(spec: str) -> list[tuple[int, int]]:
    """Parse '480x640,720x1280' into (height, width) pairs."""
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        h, _, w = tok.partition("x")
        try:
            out.append((int(h), int(w)))
        except ValueError as exc:
            raise ParameterError(f"bad resolution {tok!r}, expected HxW") from exc
    if not out:
        raise ParameterError("empty resolution list")
    return out


def synthetic_wdr(height: int, width: int, seed: int = 7) -> HdrImage:
    """Deterministic wide-range test scene: smooth gradients plus grain."""
    rng = np.random.default_rng(seed)
    ys = np.linspace(0.0, 1.0, height)[:, None]
    xs = np.linspace(0.0, 1.0, width)[None, :]
    base = (
        4.0 * np.sin(2.3 * np.pi * xs + 0.7) * np.cos(1.7 * np.pi * ys)
        + 3.0 * (xs + ys)
        - 4.0
    )
    grain = rng.normal(0.0, 0.6, (height, width))
    luminance = np.exp(base + grain)
    gains = np.stack(
        [0.6 + 0.4 * np.cos(2 * np.pi * xs + p) * np.ones_like(ys) for p in (0.0, 2.1, 4.2)],
        axis=-1,
    )
    return HdrImage(luminance[..., None] * (0.2 + 0.8 * np.abs(gains)))


def resample_nearest(image: HdrImage, height: int, width: int) -> HdrImage:
    rows = (np.arange(height) * image.height) // height
    cols = (np.arange(width) * image.width) // width
    return HdrImage(image.pixels[rows][:, cols])


def montage(tiles: list[list[LdrImage]], gutter: int = MONTAGE_GUTTER) -> LdrImage:
    """Grid of equal-size tiles separated by black gutters."""
    tile_h = tiles[0][0].height
    tile_w = tiles[0][0].width
    rows = len(tiles)
    cols = len(tiles[0])
    sheet = np.zeros(
        (rows * tile_h + (rows - 1) * gutter, cols * tile_w + (cols - 1) * gutter, 3),
        np.uint8,
    )
    for r, row in enumerate(tiles):
        for c, tile in enumerate(row):
            y = r * (tile_h + gutter)
            x = c * (tile_w + gutter)
            sheet[y : y + tile_h, x : x + tile_w] = tile.pixels
    return LdrImage(sheet)


def _print_timings(timings: StageTimings, report_format: str) -> None:
    if report_format == "csv":
        items = timings.as_dict()
        print(",".join(items))
        print(",".join(f"{v:.3f}" for v in items.values()))
    else:
        print(timings.to_text())


def run_single(args: argparse.Namespace) -> int:
    if args.input is None or args.output is None:
        print("single mode needs --input and --output", file=sys.stderr)
        return EXIT_INPUT
    params = params_from_args(args)
    image = load_hdr_file(args.input)
    ldr, timings = tone_map_image(image, params, threads=args.threads)
    save_ldr(args.output, ldr)
    if args.timing:
        _print_timings(timings, args.report_format)
    return EXIT_OK


def _sweep_name(output: Path, bins: int, eps: float) -> Path:
    return output.with_name(f"{output.stem}_n{bins}_eps{eps:g}{output.suffix}")


def run_sweep(args: argparse.Namespace) -> int:
    if args.input is None or args.output is None:
        print("sweep mode needs --input and --output", file=sys.stderr)
        return EXIT_INPUT
    bins_list, eps_list = parse_sweep_spec(args.sweep)
    base = params_from_args(args)
    image = load_hdr_file(args.input)
    tiles: list[list[LdrImage]] = []
    for bins in bins_list:  # bins vary down the sheet, epsilon across it
        row = []
        for eps in eps_list:
            params = replace(base, bins=bins, epsilon=eps)
            ldr, _ = tone_map_image(image, params, threads=args.threads)
            save_ldr(_sweep_name(args.output, bins, eps), ldr)
            row.append(ldr)
        tiles.append(row)
    sheet = montage(tiles)
    grid_path = args.output.with_name(f"{args.output.stem}_grid{args.output.suffix}")
    save_ldr(grid_path, sheet)
    print(f"wrote {len(bins_list) * len(eps_list)} images + grid {grid_path}")
    return EXIT_OK


def _bench_input(args: argparse.Namespace, height: int, width: int) -> HdrImage:
    if args.input is not None:
        return resample_nearest(load_hdr_file(args.input), height, width)
    return synthetic_wdr(height, width)


def _time_cell(
    image: HdrImage, params: TmoParams, threads: int, repeats: int
) -> tuple[float, StageTimings]:
    tone_map_image(image, params, threads=threads)  # warm-up
    samples = []
    last = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        _, timings = tone_map_image(image, params, threads=threads)
        samples.append((time.perf_counter() - start) * 1e3)
        last = timings
    return statistics.median(samples), last


def run_bench(args: argparse.Namespace) -> int:
    resolutions = parse_resolutions(args.bench_resolutions)
    scale_list = _parse_list(args.bench_scales, "scales", int)
    bins_list = _parse_list(args.bench_bins, "bins", int)
    base = params_from_args(args)
    inputs = {res: _bench_input(args, *res) for res in resolutions}

    cells: dict[tuple[int, int, tuple[int, int]], float] = {}
    breakdown: StageTimings | None = None
    for bins in bins_list:
        for scales in scale_list:
            params = replace(base, bins=bins, scales=scales)
            for res in resolutions:
                median_ms, timings = _time_cell(inputs[res], params, args.threads, args.repeats)
                cells[(bins, scales, res)] = median_ms
                breakdown = timings  # last cell = largest configuration

    res_names = [f"{h}x{w}" for h, w in resolutions]
    if args.report_format == "csv":
        print("bins,scales," + ",".join(res_names))
        for bins in bins_list:
            for scales in scale_list:
                row = [f"{cells[(bins, scales, res)]:.2f}" for res in resolutions]
                print(f"{bins},{scales}," + ",".join(row))
    else:
        header = f"{'bins':>4} {'scales':>6}" + "".join(f"{name:>12}" for name in res_names)
        print(header)
        for bins in bins_list:
            for scales in scale_list:
                row = "".join(f"{cells[(bins, scales, res)]:>12.2f}" for res in resolutions)
                print(f"{bins:>4} {scales:>6}{row}")
    if breakdown is not None:
        print()
        print("stage breakdown of the last cell (% of staged time):")
        staged = breakdown.stage_sum_ms() or 1.0
        for name in breakdown.stage_names():
            share = 100.0 * getattr(breakdown, name) / staged
            print(f"  {name:<24} {share:6.1f}%")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.bench:
            return run_bench(args)
        if args.sweep:
            return run_sweep(args)
        return run_single(args)
    except (FileNotFoundError, IsADirectoryError, HdrFormatError) as exc:
        print(f"wdrtone: cannot read input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ParameterError as exc:
        print(f"wdrtone: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except ToneMapError as exc:
        print(f"wdrtone: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
