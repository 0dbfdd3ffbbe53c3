"""Command-line behavior: modes, exit codes, reports, file outputs."""

import numpy as np
import pytest

from wdrtone import cli
from wdrtone.errors import ParameterError
from wdrtone.hdr_io import HdrImage, write_radiance_hdr


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

    def test_invalid_params_exit_3(self, scene, tmp_path):
        out = tmp_path / "o.ppm"
        assert run("--input", scene, "--output", out, "--bins", "1") == 3
        assert run("--input", scene, "--output", out, "--epsilon", "-0.5") == 3
        assert run("--input", scene, "--output", out, "--sat", "1.5") == 3

    def test_oversized_scales_exit_3(self, scene, tmp_path):
        code = run("--input", scene, "--output", tmp_path / "o.ppm", "--scales", "9")
        assert code == 3

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
        ratios = []
        for _ in range(5):  # paired samples ride out host-speed drift
            start = time.perf_counter()
            tone_map_image(big, params)
            t_big = time.perf_counter() - start
            start = time.perf_counter()
            tone_map_image(small, params)
            ratios.append(t_big / (time.perf_counter() - start))
        assert 1.3 <= statistics.median(ratios) <= 3.0


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
        with pytest.raises(ParameterError):
            cli.parse_resolutions("640")

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
