"""Seeded inputs for the three benchmark workloads and the per-item operation.

Sizes, containers and parameters are fixed per workload; the seed only
changes pixel content, so every run sees the same mix of work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HD_FRAME = (1080, 1920)

# Cache-resident frames with odd, mixed sizes: fixed per-call costs dominate.
THUMB_SIZES = (
    (101, 151), (117, 173), (128, 192), (143, 211), (160, 240), (171, 257),
    (183, 277), (192, 256), (205, 299), (219, 301), (231, 311), (239, 319),
)

# (height, width, container, bins, scales): each item sits on its own point
# of the bins {3,5,8} x scales {3,4,5} grid, and containers alternate.
HDR_FILES = (
    (483, 641, "hdr", 3, 3),
    (517, 703, "pfm", 5, 4),
    (541, 769, "hdr", 8, 5),
    (577, 811, "pfm", 3, 5),
    (611, 863, "hdr", 5, 3),
    (647, 907, "pfm", 8, 4),
    (683, 937, "hdr", 3, 4),
    (719, 983, "pfm", 5, 5),
    (767, 1021, "hdr", 8, 3),
)

WORKLOADS = ("hd_frame", "thumb_batch", "hdr_files")

# (height, width) of the crop checked against the loop oracle; a short side of
# 40 keeps five scales admissible.
ORACLE_CROP = (40, 48)


@dataclass
class Item:
    """One input of a workload, as raw arrays and bytes.

    ``raster`` is the radiance the program must see after decoding. Library
    objects (``image``, ``params``) are bound later, after the final import.
    """

    label: str
    raster: np.ndarray
    bins: int
    scales: int
    container: str | None = None  # "hdr" or "pfm" when the item is held encoded
    data: bytes | None = None
    image: object = None
    params: object = None
    reference: object = None  # LdrImage rendered at threads=1 in setup
    reference_ppm: bytes | None = None
    peak_mib: float = 0.0
    # traced run only: container -> (bytes, raster a correct decoder gives back)
    encodings: dict = field(default_factory=dict)

    @property
    def height(self) -> int:
        return self.raster.shape[0]

    @property
    def width(self) -> int:
        return self.raster.shape[1]

    @property
    def mpix(self) -> float:
        return self.height * self.width / 1e6


def make_items(lib, workload: str, seed: int) -> list[Item]:
    """Synthesize a workload's inputs from the seed with ``cli.synthetic_wdr``."""
    synth = lib.cli.synthetic_wdr
    if workload == "hd_frame":
        return [Item("hd_frame", synth(*HD_FRAME, seed=seed).pixels, 5, 5)]
    if workload == "thumb_batch":
        return [
            Item(f"thumb{i}_{h}x{w}", synth(h, w, seed=seed * 1009 + i).pixels, 5, 5)
            for i, (h, w) in enumerate(THUMB_SIZES)
        ]
    if workload == "hdr_files":
        items = []
        for i, (h, w, container, bins, scales) in enumerate(HDR_FILES):
            source = synth(h, w, seed=seed * 1009 + i)
            data, raster = encode(lib, source, container)
            items.append(Item(f"{container}{i}_{h}x{w}", raster, bins, scales, container, data))
        return items
    raise ValueError(f"unknown workload {workload!r}")


def encode(lib, image, container: str) -> tuple[bytes, np.ndarray]:
    """Encode to bytes and return the raster a correct decoder must give back."""
    io = lib.hdr_io
    if container == "hdr":
        expected = io.rgbe_to_radiance(io.radiance_to_rgbe(image.pixels))
        return io.write_radiance_hdr(image), expected
    expected = image.pixels.astype(np.float32).astype(np.float64)
    return io.write_pfm(image), expected


def bind(lib, item: Item) -> None:
    """Attach library objects from the current import to an item."""
    item.params = lib.params.TmoParams(bins=item.bins, scales=item.scales)
    if item.data is None:
        item.raster.flags.writeable = False  # shared without a defensive copy
        item.image = lib.hdr_io.HdrImage(item.raster)


def decoder(lib, container: str):
    return lib.hdr_io.read_radiance_hdr if container == "hdr" else lib.hdr_io.read_pfm


def run_item(lib, item: Item, threads: int):
    """The operation a caller pays for: (decode ->) tone map (-> encode PPM)."""
    if item.data is None:
        ldr, _ = lib.pipeline.tone_map_image(item.image, item.params, threads)
        return ldr, None, None
    decoded = decoder(lib, item.container)(item.data)
    ldr, _ = lib.pipeline.tone_map_image(decoded, item.params, threads)
    return ldr, decoded, lib.hdr_io.encode_ppm(ldr)


def item_ok(item: Item, ldr, decoded, ppm) -> bool:
    """Output equals the threads=1 reference bit for bit; decodes are exact."""
    if not np.array_equal(ldr.pixels, item.reference.pixels):
        return False
    if item.data is None:
        return True
    return np.array_equal(decoded.pixels, item.raster) and ppm == item.reference_ppm
