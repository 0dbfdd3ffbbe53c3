"""Full sha256s of both outputs, pinned so that a change to any stage's
arithmetic or op order shows up as a changed hash.

Recorded with numpy 2.4.6 and Python 3.11.7 on x86_64 (a 2-vCPU Intel Xeon
VM). Another numpy build may round a transcendental differently; if these
fail with every other test passing, check that before suspecting the code.
"""

import hashlib

import numpy as np
import pytest

from wdrtone import cli
from wdrtone.hdr_io import HdrImage
from wdrtone.params import TmoParams
from wdrtone.pipeline import tone_map_image, tone_map_to_array


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def dark_scene() -> HdrImage:
    """150x97, three strips: every fifth row and four columns black."""
    pixels = cli.synthetic_wdr(150, 97, 2).pixels.copy()
    pixels[::5] = 0.0
    pixels[:, 10:14] = 0.0
    return HdrImage(pixels)


def test_1080p_defaults():
    img = cli.synthetic_wdr(1080, 1920, 1)
    assert sha256(tone_map_image(img, threads=1)[0].pixels) == (
        "793b7b34294f132c04bcab7ac34f0877167661ccec91e66a6aa17a4af3ea6fb7"
    )
    assert sha256(tone_map_to_array(img, threads=1)[0]) == (
        "fb9a66d5f788ca3576e3fb8f6de589de1c171c0118bbd94cd7f79bca3d030253"
    )


@pytest.mark.parametrize("threads", [1, 3])
def test_explicit_floor_over_black_pixels(threads):
    # the floor sits above 30% of the luminance, the black pixels included,
    # so the colour restore divides by the clamped value there; display_min
    # keeps the clamped pixels' tone mapped luminance above zero
    params = TmoParams(log_floor=0.0067, display_min=0.05)
    img = dark_scene()
    assert sha256(tone_map_image(img, params, threads=threads)[0].pixels) == (
        "f6e27d01a922e130502fbefc61338ae9eb59c426e4fdac3ce4aa9faa11a35475"
    )
    assert sha256(tone_map_to_array(img, params, threads=threads)[0]) == (
        "1599a6e80979964ea584b1aabb5d259829cad92b5999906a313e197c34c69490"
    )
