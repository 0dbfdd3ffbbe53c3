"""Multi-receptive-field tone mapping for wide-dynamic-range images.

Each pixel is tone mapped against nested local windows via cumulative window
histograms, the per-window results are fused with local-variance weights, and
summed-area tables plus integral histograms make every window query O(1).

The stage functions live in ``wdrtone.tmo``, ``wdrtone.integral`` and
``wdrtone.hdr_io``; the package root exports the documented API only.
"""

from .errors import HdrFormatError, ParameterError, ToneMapError
from .hdr_io import HdrImage, LdrImage, load_hdr_file, save_ldr
from .integral import (
    Region,
    build_integral_histogram,
    build_integral_image,
    region_histogram,
    region_sum,
    region_variance,
)
from .params import TmoParams
from .pipeline import StageTimings, tone_map_image, tone_map_to_array

__version__ = "0.1.0"

__all__ = [
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
    "__version__",
]
