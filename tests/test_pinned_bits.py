"""Full sha256s of both outputs, pinned so that a change to any stage's
arithmetic or op order shows up as a changed hash.

The corpus covers two odd shapes (one tall and narrow, so that at the top
scales every column sits in a clamped run), bins 2, 16 and 300, scales 1, 3
and 5, a negative and a -0.0 display minimum, saturation near 0, gamma 1, a
two-level frame whose fusion falls back to the plain mean, and decoded RLE
``.hdr`` and PFM input, each at threads 1 and 3 and at strip heights 1 and
64: one pair of hashes per case holds for all four.

Recorded with numpy 2.4.6 and Python 3.11.7 on x86_64 (a 2-vCPU Intel Xeon
VM). Another numpy build may round a transcendental (``log``, ``power``)
differently; if these fail with every other test passing, check that before
suspecting the code.
"""

import hashlib

import numpy as np
import pytest

from wdrtone import cli, parallel
from wdrtone.hdr_io import HdrImage, read_pfm, read_radiance_hdr, write_pfm, write_radiance_hdr
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
        "7079887d5e70edc936e86f41dc43b46cfc70e2979d1950f0cf50d7ca6018549a"
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
        "7567c3eea24659b51f0a5ccdde5b3fa90049ba8ef384d3442bb522d9d219d3bd"
    )


def odd_scene() -> HdrImage:
    """37x53: no strip height but 1 divides it, and it admits five scales."""
    return cli.synthetic_wdr(37, 53, 3)


def two_level_scene() -> HdrImage:
    """40x48 ones with every third row's even columns 1e-9 brighter.

    The bin edges are usable, but every window variance is so small that
    the fused weights stay under the fusion floor: the plain mean is output.
    """
    pixels = np.ones((40, 48, 3))
    pixels[::3, ::2] *= 1 + 1e-9
    return HdrImage(pixels)


# name: (input, params, (tone_map_image sha256, tone_map_to_array sha256))
CORPUS = {
    "bins2-scales1": (
        odd_scene,
        TmoParams(bins=2, scales=1),
        (
            "2cbf1228ffa4ba513aa614dc295e7d4e10e7d54f329481f4268b39533fc6a0c6",
            "e55595fe793a4cba24d17c7c619d94a025280d6e5dfcf025044397802ed01cc8",
        ),
    ),
    "bins16-scales3-negative-min": (
        odd_scene,
        TmoParams(bins=16, scales=3, display_min=-0.25),
        (
            "a22767e7514225c958af72db3314e471f1a56f3b9b0e44b6ae1abaa1a150ac74",
            "fd8aa51f057e47a2e531dbfd8775a885476a202ade65e4a15525fca4ab95d71c",
        ),
    ),
    "bins300-scales5-gamma1": (
        odd_scene,
        TmoParams(bins=300, scales=5, gamma=1.0),
        (
            "fc22a398ed61002c10409b5d4615d9ab8a9c7d07206ce41e5362260e96e48dbf",
            "f1e8f144f0bfa01a6f9cccad716d0bf6a58cfc3965d35ceb8140e6c4cf715e56",
        ),
    ),
    "tall-narrow-scales4": (
        lambda: cli.synthetic_wdr(131, 19, 4),
        TmoParams(scales=4),
        (
            "907edf75b9628e07b0225b9f892f106eb4489b0ee52a757bc4d2a5e45cf7c140",
            "ec5e6faf45447b5c3fceb1936f27d083b0c8c9c61f55d78c858f4cbe16a32cac",
        ),
    ),
    "bins5-scales3-negative-zero-min": (
        odd_scene,
        TmoParams(bins=5, scales=3, display_min=-0.0),
        (
            "fe6c2a53d6e47455bea5eb4b8b41e006b5381805c4510c5e98462244eb5d1658",
            "40035f8ffb7f617f71beacf12b5579f104b448cfbd9ee4f186dd8426f49b1b5a",
        ),
    ),
    "saturation-near-zero": (
        odd_scene,
        TmoParams(scales=3, saturation=1e-3),
        (
            "34033a2abcb3d8d51c24dffecbfdd0281590c0222fc6c7f4182d98617979855c",
            "cf29f97a616d55a740c57976ce9dbb4e4a7d4eae30e730abce9b3bbce3941788",
        ),
    ),
    "two-level-fallback": (
        two_level_scene,
        TmoParams(scales=4),
        (
            "f1c50237d772205176923b560755a020a2ca43e9f98b24660d583b80fa9466ca",
            "cebe9c4714af500105ed01380ce0b30f44872350982bbae81f4ca27f13f554bc",
        ),
    ),
    "rle-hdr": (
        # 29 columns lie inside the RLE width range, so every scanline is RLE
        lambda: read_radiance_hdr(write_radiance_hdr(cli.synthetic_wdr(41, 29, 5))),
        TmoParams(bins=7, scales=4),
        (
            "343f629fccaaef5bc64fcc1be1e40fe6ec6e7a29a0c7cfe7a75678ffffaf08d7",
            "4fba3b3c8615e626e1a9dacb81d8f4da2db5c4a1e6add0dec5b6c25834bd7127",
        ),
    ),
    "pfm": (
        lambda: read_pfm(write_pfm(cli.synthetic_wdr(23, 31, 6))),
        TmoParams(scales=4, saturation=0.9, epsilon=0.02),
        (
            "bf3b1cd2b5164829aa91609073b2ff36681dbd5bc0f4c0070126804821cf766c",
            "f251c3a9b93bf0dcc0d53d23a149c55c6df46806c7f8711a30af23114956b33f",
        ),
    ),
}


@pytest.mark.parametrize("strip_rows", [1, 64])
@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("case", list(CORPUS))
def test_corpus(monkeypatch, case, threads, strip_rows):
    monkeypatch.setattr(parallel, "STRIP_ROWS", strip_rows)
    scene, params, (ldr_hash, array_hash) = CORPUS[case]
    img = scene()
    assert sha256(tone_map_image(img, params, threads=threads)[0].pixels) == ldr_hash
    assert sha256(tone_map_to_array(img, params, threads=threads)[0]) == array_hash
