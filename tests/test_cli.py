"""Command-line behavior: modes, exit codes, reports, file outputs."""

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wdrtone
from wdrtone import cli
from wdrtone.errors import ParameterError
from wdrtone.hdr_io import HdrImage, write_pfm, write_radiance_hdr
from wdrtone.pipeline import StageTimings


@pytest.fixture()
def scene(tmp_path):
    rng = np.random.default_rng(21)
    img = HdrImage(np.exp(rng.normal(0, 2, (24, 32, 3))))
    path = tmp_path / "scene.hdr"
    path.write_bytes(write_radiance_hdr(img))
    return path


@pytest.fixture()
def big_scene(tmp_path):
    # large enough for the default 5-scale pyramid
    rng = np.random.default_rng(22)
    img = HdrImage(np.exp(rng.normal(0, 2, (40, 40, 3))))
    path = tmp_path / "big.hdr"
    path.write_bytes(write_radiance_hdr(img))
    return path


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestSingleMode:
    def test_defaults_write_output(self, scene, tmp_path, capsys):
        out = tmp_path / "out.ppm"
        code = run("--input", scene, "--output", out, "--scales", "3")
        assert code == 0
        assert out.read_bytes().startswith(b"P6")
        assert capsys.readouterr().out == ""  # no report unless asked

    def test_only_input_output_succeeds(self, big_scene, tmp_path):
        out = tmp_path / "out.ppm"
        assert run("--input", big_scene, "--output", out) == 0
        assert out.exists()

    def test_timing_block_on_stdout(self, scene, tmp_path, capsys):
        out = tmp_path / "out.ppm"
        code = run("--input", scene, "--output", out, "--scales", "2", "--timing")
        assert code == 0
        report = capsys.readouterr().out
        assert "total_ms:" in report
        assert "tone_map_ms:" in report
        # csv: one header line of the StageTimings fields, one line of their values
        code = run("--input", scene, "--output", out, "--scales", "2", "--timing", "--report-format", "csv")
        assert code == 0
        header, values = capsys.readouterr().out.splitlines()
        assert header.split(",") == [f.name for f in dataclasses.fields(StageTimings)]
        assert len(values.split(",")) == len(header.split(","))
        assert all(float(v) >= 0.0 for v in values.split(","))

    def test_reruns_are_byte_identical(self, scene, tmp_path):
        out1 = tmp_path / "a.ppm"
        out2 = tmp_path / "b.ppm"
        for out in (out1, out2):
            assert run("--input", scene, "--output", out, "--scales", "3") == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_scale_global_mapping(self, scene, tmp_path):
        out = tmp_path / "global.ppm"
        assert run("--input", scene, "--output", out, "--scales", "1") == 0
        assert out.exists()

    def test_missing_input_exits_2(self, tmp_path):
        code = run("--input", tmp_path / "nope.hdr", "--output", tmp_path / "o.ppm")
        assert code == 2

    def test_missing_output_exits_2(self, scene, capsys):
        assert run("--input", scene) == 2
        assert capsys.readouterr().err == "single mode needs --input and --output\n"

    def test_undecodable_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.hdr"
        bad.write_bytes(b"this is not an hdr file")
        code = run("--input", bad, "--output", tmp_path / "o.ppm")
        assert code == 2

    @pytest.mark.parametrize(
        "data",
        [
            b"#?RADIANCE\n\n-Y 200000 +X 200000\n",
            b"#?RADIANCE\n\n-Y 1 +X 4000000000\n" + bytes((128,) * 4) + bytes((1, 1, 1, 255)) * 4,
        ],
        ids=["tall", "wide"],
    )
    def test_decompression_bomb_exits_2(self, data, tmp_path, capsys):
        bomb = tmp_path / "bomb.hdr"
        bomb.write_bytes(data)
        assert run("--input", bomb, "--output", tmp_path / "o.ppm") == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_unreadable_input_exits_2(self, scene, tmp_path, monkeypatch, capsys):
        def denied(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_bytes", denied)
        assert run("--input", scene, "--output", tmp_path / "o.ppm") == 2
        err = capsys.readouterr().err
        assert "cannot read input" in err and "Traceback" not in err

    def test_unwritable_output_exits_2(self, scene, tmp_path, capsys):
        out = tmp_path / "missing" / "o.ppm"
        assert run("--input", scene, "--output", out, "--scales", "3") == 2
        err = capsys.readouterr().err
        assert "cannot write output" in err and str(out) in err

    def test_mutated_pfm_exits_2(self, tmp_path, capsys):
        # one payload float overwritten with a signalling NaN
        data = bytearray(write_pfm(HdrImage(np.ones((4, 4, 3)))))
        data[-4:] = bytes([0x00, 0x80, 0x95, 0xFF])
        bad = tmp_path / "snan.pfm"
        bad.write_bytes(bytes(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("--input", bad, "--output", tmp_path / "o.ppm") == 2
        assert "cannot read input" in capsys.readouterr().err

    def test_invalid_params_exit_3(self, scene, tmp_path, capsys):
        out = tmp_path / "o.ppm"
        assert run("--input", scene, "--output", out, "--bins", "1") == 3
        assert run("--input", scene, "--output", out, "--epsilon", "-0.5") == 3
        assert run("--input", scene, "--output", out, "--sat", "1.5") == 3
        capsys.readouterr()
        argv = ("--display-min", "-1", "--display-max", "0")
        assert run("--input", scene, "--output", out, *argv) == 3
        assert "display_max must be a positive finite real" in capsys.readouterr().err
        # the span overflows, then the fusion sums
        for argv in (("--display-min=-1e308", "--display-max=1e308"), ("--display-max=1e308",)):
            assert run("--input", scene, "--output", out, "--scales", "3", *argv) == 3
            assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, code",
        [("--display-min", 0), ("--epsilon", 3), ("--sat", 3), ("--gamma", 3),
         ("--display-max", 3), ("--log-floor", 3)],
    )
    def test_negative_exponent_values_parse(self, flag, code, scene, tmp_path, capsys):
        # argparse alone reads "-1e-3" as a flag and stops with exit 2
        out = tmp_path / "o.ppm"
        assert run("--input", scene, "--output", out, "--scales", "3", flag, "-1e-3") == code
        err = capsys.readouterr().err
        if code == 0:
            joined = tmp_path / "joined.ppm"
            assert run("--input", scene, "--output", joined, "--scales", "3", f"{flag}=-1e-3") == 0
            assert out.read_bytes() == joined.read_bytes()
        else:
            assert err.startswith("wdrtone: invalid parameters: ")

    def test_oversized_scales_exit_3(self, scene, tmp_path, capsys):
        code = run("--input", scene, "--output", tmp_path / "o.ppm", "--scales", "9")
        assert code == 3
        # one line naming the admissible count, and no warning before it
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "at most 4 are admissible" in err

    def test_over_budget_call_exits_3(self, scene, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(wdrtone.pipeline, "MAX_PEAK_BYTES", 1 << 10)
        out = tmp_path / "o.ppm"
        assert run("--input", scene, "--output", out, "--scales", "3") == 3
        err = capsys.readouterr().err
        assert err.startswith("wdrtone: invalid parameters: ") and "GiB budget" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "data, argv, code, message",
        [
            (b"#?RADIANCE\n\n-Y 2 +X 2\n" + bytes(12), [], 2, "cannot read input"),
            (b"#?RADIANCE\n\n+Y 1 +X 1\n" + bytes(4), [], 2, "cannot read input"),
            (b"Pf\n1 1\n-1.0\n" + np.float32(np.nan).tobytes(), [], 2, "cannot read input"),
            (None, ["--bins", "1"], 3, "invalid parameters"),
            (None, ["--scales", "9"], 3, "invalid parameters"),
            (None, ["--output", "missing/o.ppm"], 2, "cannot write output"),
        ],
        ids=["truncated_hdr", "orientation_hdr", "nan_pfm", "bins_1", "scales_9", "unwritable_output"],
    )
    def test_exit_code_per_kind_of_fault(
        self, data, argv, code, message, scene, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        if data is not None:
            scene = tmp_path / "bad_input"
            scene.write_bytes(data)
        assert run("--input", scene, "--output", "o.ppm", "--scales", "3", *argv) == code
        assert capsys.readouterr().err.startswith(f"wdrtone: {message}: ")

    def test_png_output(self, scene, tmp_path):
        out = tmp_path / "out.png"
        assert run("--input", scene, "--output", out, "--scales", "2") == 0
        assert out.read_bytes().startswith(b"\x89PNG")


class TestSweepMode:
    def test_grid_of_nine(self, scene, tmp_path, capsys):
        out = tmp_path / "sweep.ppm"
        code = run(
            "--input", scene, "--output", out,
            "--sweep", "n=3,5,7:eps=0.5,0.1,0.01",
            "--scales", "2",
        )
        assert code == 0
        cells = sorted(p.name for p in tmp_path.glob("sweep_n*_eps*.ppm"))
        assert len(cells) == 9
        assert "sweep_n3_eps0.5.ppm" in cells
        grid = tmp_path / "sweep_grid.ppm"
        assert grid.exists()
        # montage: 3x3 tiles of 32x24 with 2px gutters
        header = grid.read_bytes().split(b"\n", 2)[1]
        assert header == b"100 76"

    def test_singleton_grid_equals_cell(self, scene, tmp_path):
        out = tmp_path / "s.ppm"
        code = run("--input", scene, "--output", out, "--sweep", "n=5:eps=0.1", "--scales", "2")
        assert code == 0
        cell = (tmp_path / "s_n5_eps0.1.ppm").read_bytes()
        grid = (tmp_path / "s_grid.ppm").read_bytes()
        assert cell == grid

    def test_default_cell_matches_single_mode(self, scene, tmp_path):
        single = tmp_path / "single.ppm"
        run("--input", scene, "--output", single, "--scales", "2")
        run("--input", scene, "--output", tmp_path / "sw.ppm",
            "--sweep", "n=5:eps=0.1", "--scales", "2")
        assert single.read_bytes() == (tmp_path / "sw_n5_eps0.1.ppm").read_bytes()

    def test_bad_spec_exit_3(self, scene, tmp_path):
        code = run("--input", scene, "--output", tmp_path / "o.ppm", "--sweep", "bogus")
        assert code == 3


class TestBenchMode:
    def test_table_shape(self, capsys):
        code = run(
            "--bench",
            "--bench-resolutions", "16x24,24x16",
            "--bench-scales", "1,2",
            "--bench-bins", "3,4",
            "--repeats", "1",
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert "16x24" in lines[0] and "24x16" in lines[0]
        assert len([l for l in lines if l.lstrip()[0].isdigit()]) >= 4  # 2 bins x 2 scales
        assert "stage breakdown" in out

    def test_csv_format(self, capsys):
        code = run(
            "--bench",
            "--bench-resolutions", "16x16",
            "--bench-scales", "2",
            "--bench-bins", "3",
            "--repeats", "1",
            "--report-format", "csv",
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "bins,scales,16x16"
        assert out[1].startswith("3,2,")

    def test_resolution_below_1x1_exits_3(self):
        assert run("--bench", "--bench-resolutions=-3x5", "--repeats", "1") == 3

    def test_empty_scales_list_exits_3(self, capsys):
        assert run("--bench", "--bench-scales", ",", "--repeats", "1") == 3
        assert capsys.readouterr().err == "wdrtone: invalid parameters: empty scales list\n"

    def test_file_input_resampled(self, scene, capsys):
        code = run(
            "--bench", "--input", scene,
            "--bench-resolutions", "12x12",
            "--bench-scales", "1",
            "--bench-bins", "3",
            "--repeats", "1",
        )
        assert code == 0

    def test_bench_total_tracks_single_mode(self, scene, tmp_path, capsys):
        # same work measured through two code paths; only sanity bounds
        import time

        from wdrtone.params import TmoParams
        from wdrtone.pipeline import tone_map_image

        img = cli.synthetic_wdr(160, 160)
        params = TmoParams(bins=4, scales=3)
        median, _ = cli._time_cell(img, params, threads=0, repeats=3)
        tone_map_image(img, params)  # warm
        start = time.perf_counter()
        tone_map_image(img, params)
        single = (time.perf_counter() - start) * 1e3
        assert 0.2 < median / single < 5.0

    def test_doubling_pixels_scales_near_linear(self):
        import statistics
        import time

        from wdrtone.params import TmoParams
        from wdrtone.pipeline import tone_map_image

        params = TmoParams(bins=4, scales=3)
        small = cli.synthetic_wdr(256, 256)
        big = cli.synthetic_wdr(256, 512)  # exactly 2x the pixels
        tone_map_image(small, params)
        tone_map_image(big, params)

        def timed(img):
            start = time.perf_counter()
            tone_map_image(img, params)
            return time.perf_counter() - start

        ratios = []
        for i in range(9):  # paired samples ride out host-speed drift
            # alternate which size runs first so neither always runs warmer
            if i % 2:
                t_small = timed(small)
                t_big = timed(big)
            else:
                t_big = timed(big)
                t_small = timed(small)
            ratios.append(t_big / t_small)
        assert 1.3 <= statistics.median(ratios) <= 3.0


class TestEntryPoint:
    """``python -m wdrtone`` runs the same main as the console script."""

    @staticmethod
    def run_module(*argv):
        env = {**os.environ, "PYTHONPATH": str(Path(wdrtone.__file__).parents[1])}
        argv = [sys.executable, "-m", "wdrtone", *map(str, argv)]
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)

    def test_help_exits_0(self):
        done = self.run_module("--help")
        assert done.returncode == 0 and "--input" in done.stdout

    def test_negative_exponent_value_parses(self, scene, tmp_path):
        out = tmp_path / "o.ppm"
        argv = ("--scales", "3", "--display-min", "-1e-3")
        done = self.run_module("--input", scene, "--output", out, *argv)
        assert done.returncode == 0, done.stderr
        assert out.exists()

    def test_missing_input_exits_2(self, tmp_path):
        done = self.run_module("--input", tmp_path / "nope.hdr", "--output", tmp_path / "o.ppm")
        assert done.returncode == 2
        assert "cannot read input" in done.stderr and "Traceback" not in done.stderr


class TestHelpers:
    def test_parse_sweep_spec(self):
        bins, eps = cli.parse_sweep_spec("n=3,5,7:eps=0.5,0.1,0.01")
        assert bins == [3, 5, 7]
        assert eps == [0.5, 0.1, 0.01]
        with pytest.raises(ParameterError):
            cli.parse_sweep_spec("n=3")
        with pytest.raises(ParameterError):
            cli.parse_sweep_spec("n=a:eps=0.1")

    def test_parse_resolutions(self):
        assert cli.parse_resolutions("480x640,720x1280") == [(480, 640), (720, 1280)]
        for bad in ("640", "-3x5", "0x5"):
            with pytest.raises(ParameterError):
                cli.parse_resolutions(bad)

    def test_synthetic_wdr_deterministic(self):
        a = cli.synthetic_wdr(32, 48)
        b = cli.synthetic_wdr(32, 48)
        assert np.array_equal(a.pixels, b.pixels)
        assert a.pixels.max() / a.pixels.min() > 1e3  # genuinely wide range

    def test_resample_nearest(self):
        img = HdrImage(np.arange(2 * 3 * 3, dtype=float).reshape(2, 3, 3))
        out = cli.resample_nearest(img, 4, 6)
        assert out.height == 4 and out.width == 6
        assert np.array_equal(out.pixels[0, 0], img.pixels[0, 0])
        assert np.array_equal(out.pixels[-1, -1], img.pixels[-1, -1])
