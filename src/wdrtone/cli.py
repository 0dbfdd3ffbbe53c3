"""Batch command line: tone-map files, emit parameter-sweep grids, run benches.

The tone mapping flags take their defaults from ``TmoParams``, and each one's
destination is the field it sets. A bench cell is the median of the library's
``StageTimings.total_ms`` over ``--repeats`` calls after one warm-up.

Exit codes: 0 success, 2 unreadable/undecodable input or an output that
cannot be written (or command line misuse, argparse's convention), 3 invalid
parameter values. stdout carries reports only; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections.abc import Callable
from dataclasses import asdict, fields, replace
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
    parser.add_argument("--bins", type=int, help="histogram bins per window (default %(default)g)")
    parser.add_argument("--scales", type=int, help="receptive field count (default %(default)g)")
    parser.add_argument("--epsilon", type=float, help="variance-weight regularizer (default %(default)g)")
    parser.add_argument(
        "--sat", dest="saturation", metavar="SAT", type=float,
        help="color saturation exponent (default %(default)g)",
    )
    parser.add_argument("--gamma", type=float, help="display gamma (default %(default)g)")
    parser.add_argument("--display-min", type=float, help="display range low end (default %(default)g)")
    parser.add_argument("--display-max", type=float, help="display range high end (default %(default)g)")
    parser.add_argument(
        "--log-floor", type=float, help="luminance clamp before the log; default scales with the scene"
    )
    parser.set_defaults(**asdict(TmoParams()))  # after add_argument, so --help shows them
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
    return TmoParams(**{f.name: getattr(args, f.name) for f in fields(TmoParams)})


def _parse_list(spec: str, what: str, kind: Callable[[str], object]) -> list:
    try:
        items = [kind(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad {what} list {spec!r}: {exc}") from exc
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


def _parse_hxw(token: str) -> tuple[int, int]:
    height, width = map(int, token.split("x"))
    if height < 1 or width < 1:
        raise ParameterError(f"resolution {token.strip()} is smaller than 1x1")
    return height, width


def parse_resolutions(spec: str) -> list[tuple[int, int]]:
    """Parse '480x640,720x1280' into (height, width) pairs."""
    return _parse_list(spec, "resolution", _parse_hxw)


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
    pad = ((0, gutter), (0, gutter), (0, 0))  # a gutter below and right of every tile
    rows = [np.concatenate([np.pad(tile.pixels, pad) for tile in row], axis=1) for row in tiles]
    sheet = np.concatenate(rows)
    return LdrImage(sheet[: sheet.shape[0] - gutter, : sheet.shape[1] - gutter])


def _save(path: Path, image: LdrImage) -> None:
    """save_ldr with write failures told apart from unreadable input."""
    try:
        save_ldr(path, image)
    except OSError as exc:
        raise ToneMapError(f"cannot write output: {exc}") from exc


def run_single(args: argparse.Namespace) -> int:
    params = params_from_args(args)
    image = load_hdr_file(args.input)
    ldr, timings = tone_map_image(image, params, threads=args.threads)
    _save(args.output, ldr)
    if args.timing and args.report_format == "csv":
        items = timings.as_dict()
        print(",".join(items))
        print(",".join(f"{v:.3f}" for v in items.values()))
    elif args.timing:
        print(timings.to_text())
    return EXIT_OK


def run_sweep(args: argparse.Namespace) -> int:
    bins_list, eps_list = parse_sweep_spec(args.sweep)
    base = params_from_args(args)
    image = load_hdr_file(args.input)
    tiles: list[list[LdrImage]] = []
    for bins in bins_list:  # bins vary down the sheet, epsilon across it
        row = []
        for eps in eps_list:
            params = replace(base, bins=bins, epsilon=eps)
            ldr, _ = tone_map_image(image, params, threads=args.threads)
            name = f"{args.output.stem}_n{bins}_eps{eps:g}{args.output.suffix}"
            _save(args.output.with_name(name), ldr)
            row.append(ldr)
        tiles.append(row)
    sheet = montage(tiles)
    grid_path = args.output.with_name(f"{args.output.stem}_grid{args.output.suffix}")
    _save(grid_path, sheet)
    print(f"wrote {len(bins_list) * len(eps_list)} images + grid {grid_path}")
    return EXIT_OK


def _time_cell(
    image: HdrImage, params: TmoParams, threads: int, repeats: int
) -> tuple[float, StageTimings]:
    tone_map_image(image, params, threads=threads)  # warm-up
    runs = [tone_map_image(image, params, threads=threads)[1] for _ in range(max(repeats, 1))]
    return statistics.median(t.total_ms for t in runs), runs[-1]


def _bench_line(csv: bool, bins: object, scales: object, cells: list[str]) -> str:
    """One bench table line, the header included: bins, scales, one cell per resolution."""
    if csv:
        return ",".join([str(bins), str(scales), *cells])
    return f"{bins:>4} {scales:>6}" + "".join(f"{cell:>12}" for cell in cells)


def run_bench(args: argparse.Namespace) -> int:
    resolutions = parse_resolutions(args.bench_resolutions)
    scale_list = _parse_list(args.bench_scales, "scales", int)
    bins_list = _parse_list(args.bench_bins, "bins", int)
    base = params_from_args(args)
    source = None if args.input is None else load_hdr_file(args.input)
    inputs = [
        synthetic_wdr(h, w) if source is None else resample_nearest(source, h, w)
        for h, w in resolutions
    ]

    csv = args.report_format == "csv"
    lines = [_bench_line(csv, "bins", "scales", [f"{h}x{w}" for h, w in resolutions])]
    for bins in bins_list:
        for scales in scale_list:
            params = replace(base, bins=bins, scales=scales)
            cells = [_time_cell(image, params, args.threads, args.repeats) for image in inputs]
            lines.append(_bench_line(csv, bins, scales, [f"{ms:.2f}" for ms, _ in cells]))
    breakdown = cells[-1][1]  # last cell = largest configuration
    print("\n".join(lines))
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
        if args.input is None or args.output is None:
            mode = "sweep" if args.sweep else "single"
            print(f"{mode} mode needs --input and --output", file=sys.stderr)
            return EXIT_INPUT
        if args.sweep:
            return run_sweep(args)
        return run_single(args)
    except (OSError, HdrFormatError) as exc:
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
