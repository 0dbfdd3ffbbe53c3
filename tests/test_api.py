"""Public surface: the package root's exports, README's library example, the
module-level names the benchmark under ``perfbench/`` calls, and the error model."""

import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import wdrtone

ROOT_API = {
    # images, parameters and the tone mapping entry points
    "HdrImage",
    "LdrImage",
    "TmoParams",
    "StageTimings",
    "load_hdr_file",
    "save_ldr",
    "tone_map_image",
    "tone_map_to_array",
    # errors
    "ToneMapError",
    "ParameterError",
    "HdrFormatError",
    # O(1) region queries
    "Region",
    "build_integral_image",
    "build_integral_histogram",
    "region_sum",
    "region_histogram",
    "region_variance",
}

# (module, name, positional argument count, keyword arguments) for every call
# the benchmark makes; binding the call shape catches renamed or dropped
# parameters as well as missing names.
BENCHMARK_CALLS = [
    ("tmo", "rgb_to_luminance", 1, ()),
    ("tmo", "resolve_log_floor", 2, ()),
    ("tmo", "log_transform", 2, ()),
    ("tmo", "compute_bin_edges", 2, ()),
    ("tmo", "make_scale_schedule", 3, ()),
    ("tmo", "tone_map_at_scale", 4, ("pool",)),
    ("tmo", "weight_map_at_scale", 4, ("pool",)),
    ("tmo", "fuse_scales", 2, ()),
    ("tmo", "restore_color", 4, ("pool",)),
    ("integral", "build_integral_histogram", 3, ()),
    ("integral", "build_integral_image", 1, ()),
    ("hdr_io", "HdrImage", 1, ()),
    ("hdr_io", "read_radiance_hdr", 1, ()),
    ("hdr_io", "read_pfm", 1, ()),
    ("hdr_io", "write_radiance_hdr", 1, ()),
    ("hdr_io", "write_pfm", 1, ()),
    ("hdr_io", "rgbe_to_radiance", 1, ()),
    ("hdr_io", "radiance_to_rgbe", 1, ()),
    ("hdr_io", "quantize_ldr", 2, ()),
    ("hdr_io", "encode_ppm", 1, ()),
    ("parallel", "WorkerPool", 1, ()),
    ("pipeline", "tone_map_image", 3, ()),
    ("params", "TmoParams", 0, ("bins", "scales")),
    ("cli", "synthetic_wdr", 2, ("seed",)),
    ("oracle", "naive_tone_map", 2, ()),
]


def flat_radiance_file(rgbe):
    """Flat-scanline Radiance bytes for a (H, W, 4) uint8 RGBE raster."""
    height, width = rgbe.shape[:2]
    header = f"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y {height} +X {width}\n".encode()
    return header + rgbe.tobytes()


class TestPackageRoot:
    def test_all_is_the_documented_api(self):
        assert set(wdrtone.__all__) == ROOT_API | {"__version__"}
        assert len(wdrtone.__all__) == len(set(wdrtone.__all__))

    def test_every_export_resolves(self):
        for name in wdrtone.__all__:
            assert getattr(wdrtone, name) is not None, name

    def test_readme_library_use(self, tmp_path):
        from wdrtone import (
            HdrImage,
            LdrImage,
            Region,
            TmoParams,
            build_integral_image,
            load_hdr_file,
            region_sum,
            save_ldr,
            tone_map_image,
            tone_map_to_array,
        )

        rng = np.random.default_rng(3)
        rgbe = rng.integers(128, 256, (12, 16, 4), dtype=np.uint8)
        rgbe[..., 3] = rng.integers(120, 140, (12, 16))
        (tmp_path / "scene.hdr").write_bytes(flat_radiance_file(rgbe))

        image = load_hdr_file(tmp_path / "scene.hdr")
        assert isinstance(image, HdrImage) and (image.width, image.height) == (16, 12)
        params = TmoParams(bins=5, scales=3, epsilon=0.1, saturation=0.6)
        ldr, timings = tone_map_image(image, params)
        assert isinstance(ldr, LdrImage) and ldr.pixels.shape == (12, 16, 3)
        save_ldr(tmp_path / "scene.png", ldr)
        assert (tmp_path / "scene.png").read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"
        assert "total_ms" in timings.to_text()

        array, _ = tone_map_to_array(image, params)
        assert array.shape == (12, 16, 3) and 0.0 <= array.min() <= array.max() <= 1.0

        table = build_integral_image(np.ones((4, 5)))
        assert region_sum(table, Region(1, 1, 4, 3)) == 6.0


class TestBenchmarkContract:
    @pytest.mark.parametrize(
        "module, name, positional, keywords",
        BENCHMARK_CALLS,
        ids=[f"{m}.{n}" for m, n, _, _ in BENCHMARK_CALLS],
    )
    def test_called_name_resolves_with_its_call_shape(self, module, name, positional, keywords):
        obj = getattr(importlib.import_module(f"wdrtone.{module}"), name)
        inspect.signature(obj).bind(*[None] * positional, **dict.fromkeys(keywords))

    def test_worker_pool_interface(self):
        from wdrtone.parallel import WorkerPool

        for method in ("run_rows", "close", "__enter__", "__exit__"):
            assert callable(getattr(WorkerPool, method)), method

    def test_stage_timings_fields(self):
        from wdrtone.pipeline import StageTimings

        assert [f.name for f in fields(StageTimings)] == [
            "luminance_ms",
            "log_edges_ms",
            "integral_histogram_ms",
            "integral_images_ms",
            "tone_map_ms",
            "weights_ms",
            "fusion_ms",
            "color_restore_ms",
            "total_ms",
        ]
        assert callable(StageTimings.as_dict)


def test_pipeline_names_no_private_name_of_another_module():
    # no module reaches into another's private names, and the pipeline
    # orchestrates: the kernels and table layouts it runs are reached through
    # their modules' public functions
    private = []
    for path in sorted(Path(wdrtone.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
        modules = {alias.asname or alias.name for node in imports if node.module is None for alias in node.names}
        private += [
            f"{path.name}: {alias.name}" for node in imports for alias in node.names if alias.name.startswith("_")
        ]
        private += [
            f"{path.name}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ]
        if path.stem == "pipeline":
            assert {"integral", "tmo"} <= modules
    assert private == []


class TestErrorModel:
    """One exception class per kind of fault; a new class or kind changes this test."""

    SOURCES = sorted(Path(wdrtone.__file__).parent.glob("*.py"))

    def test_only_errors_defines_exception_classes(self):
        defined = {
            f"{path.name}:{node.name}"
            for path in self.SOURCES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
            and any(ast.unparse(base).endswith(("Error", "Exception")) for base in node.bases)
        }
        assert defined == {"errors.py:ToneMapError", "errors.py:HdrFormatError", "errors.py:ParameterError"}
        assert issubclass(wdrtone.ParameterError, ValueError)

    def test_every_raise_names_a_kind_of_fault(self):
        def raised(node):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            return "bare raise" if exc is None else ast.unparse(exc)

        stray = []
        for path in self.SOURCES:
            tree = ast.parse(path.read_text())
            # cli._save reports a failed write through the base class, the one direct ToneMapError
            save_raises = {
                id(node)
                for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef) and (path.stem, func.name) == ("cli", "_save")
                for node in ast.walk(func)
            }
            stray += [
                f"{path.name}:{node.lineno} raises {raised(node)}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Raise)
                and raised(node) not in ("HdrFormatError", "ParameterError")
                and not (id(node) in save_raises and raised(node) == "ToneMapError")
            ]
        assert stray == []
