"""Radiance RGBE and PFM codecs plus 8-bit display output.

Radiance ``.hdr`` stores each pixel as four bytes: three mantissas sharing one
exponent. Decoding follows v = (mantissa / 256) * 2**(exponent - 128), with an
exponent byte of 0 meaning a true black pixel. Scanlines come in three layouts:
raw 4-byte pixels, the legacy repeat-marker form (a (1,1,1,count) pixel repeats
its predecessor), and the adaptive per-component RLE used for widths in
[8, 32767]. All three are read; writing emits adaptive RLE where the format
allows it and raw pixels elsewhere.

PFM is a raw stream of 32-bit floats: magic ``PF`` (color) or ``Pf``
(grayscale), dimensions, then a scale whose sign encodes endianness
(negative = little-endian). Rows are stored bottom-to-top; images returned
here are always top-to-bottom.
"""

from __future__ import annotations

import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    HdrFormatError,
    ParameterError,
    RangeError,
    TruncationError,
    UnsupportedOrientationError,
)
from .parallel import SERIAL, WorkerPool

_RLE_MIN_WIDTH = 8
_RLE_MAX_WIDTH = 0x7FFF
# Largest Radiance raster the decoder allocates (twice an 8K frame): legacy repeat
# markers let a few bytes claim billions of pixels, so payload length cannot bound it.
MAX_RADIANCE_PIXELS = 1 << 26


@dataclass(frozen=True)
class _Raster:
    """(height, width, 3) pixel array, frozen read-only after the subclass checks.

    Each subclass is a dataclass of its own, so the generated __init__ runs
    that subclass's __post_init__ checks.
    """

    pixels: np.ndarray

    def _freeze(self, arr: np.ndarray) -> None:
        if arr is self.pixels and arr.flags.writeable:
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class HdrImage(_Raster):
    """Linear-radiance RGB raster; every value finite and non-negative.

    The pixel array is (height, width, 3) float64, frozen read-only so
    instances can be shared across threads.
    """

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.pixels, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ParameterError(f"HdrImage needs a (H, W, 3) array, got shape {np.shape(self.pixels)}")
        if not np.isfinite(arr).all():
            raise ParameterError("HdrImage radiance must be finite")
        if (arr < 0).any():
            raise ParameterError("HdrImage radiance must be non-negative")
        self._freeze(arr)


@dataclass(frozen=True)
class LdrImage(_Raster):
    """Display-referred 8-bit RGB raster, (height, width, 3) uint8, read-only."""

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.pixels)
        if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
            raise ParameterError(f"LdrImage needs a (H, W, 3) uint8 array, got {np.shape(self.pixels)}")
        self._freeze(arr)


# ---------------------------------------------------------------------------
# Radiance RGBE
# ---------------------------------------------------------------------------

_RESOLUTION_RE = re.compile(rb"^([+-][XY])\s+(\d+)\s+([+-][XY])\s+(\d+)\s*$")


def _parse_radiance_header(data: bytes) -> tuple[int, int, int]:
    """Return (width, height, payload offset) or raise."""
    nl = data.find(b"\n")
    if nl < 0:
        raise TruncationError("Radiance header has no newline")
    magic = data[:nl].rstrip(b"\r")
    if not (magic.startswith(b"#?RADIANCE") or magic.startswith(b"#?RGBE")):
        raise HdrFormatError("missing #?RADIANCE / #?RGBE magic")
    pos = nl + 1
    fmt = None
    while True:
        nl = data.find(b"\n", pos)
        if nl < 0:
            raise TruncationError("Radiance header never terminates")
        line = data[pos:nl].rstrip(b"\r")
        pos = nl + 1
        if line == b"":
            break
        if line.startswith(b"FORMAT="):
            fmt = line[len(b"FORMAT=") :].strip()
        # comments, EXPOSURE and other variables are tolerated and ignored
    if fmt is not None and fmt != b"32-bit_rle_rgbe":
        raise HdrFormatError(f"unsupported Radiance format {fmt!r}")
    nl = data.find(b"\n", pos)
    if nl < 0:
        raise TruncationError("missing resolution line")
    m = _RESOLUTION_RE.match(data[pos:nl].rstrip(b"\r"))
    if m is None:
        raise HdrFormatError("cannot parse resolution line")
    if m.group(1) != b"-Y" or m.group(3) != b"+X":
        raise UnsupportedOrientationError(
            f"only '-Y H +X W' orientation is supported, got {data[pos:nl]!r}"
        )
    height = int(m.group(2))
    width = int(m.group(4))
    if width < 1 or height < 1:
        raise HdrFormatError("resolution must be positive")
    return width, height, nl + 1


def _read_flat_scanline(data: bytes, pos: int, width: int, row: np.ndarray) -> int:
    """Raw 4-byte pixels, honoring legacy (1,1,1,count) repeat markers."""
    end = pos + 4 * width
    if end <= len(data):
        block = np.frombuffer(data, np.uint8, 4 * width, pos).reshape(width, 4)
        # Valid encoders never emit a literal (1,1,1,x) pixel (the dominant
        # mantissa is always >= 128), so absence of that pattern means no
        # repeat markers and the block can be taken wholesale.
        markers = (block[:, 0] == 1) & (block[:, 1] == 1) & (block[:, 2] == 1)
        if not markers.any():
            row[:] = block
            return end
    j = 0
    shift = 0
    while j < width:
        if pos + 4 > len(data):
            raise TruncationError("flat scanline truncated")
        r, g, b, e = data[pos], data[pos + 1], data[pos + 2], data[pos + 3]
        pos += 4
        if r == 1 and g == 1 and b == 1:
            if j == 0:
                raise HdrFormatError("repeat marker with no preceding pixel")
            repeat = e << shift
            if j + repeat > width:
                raise HdrFormatError("repeat marker overruns scanline")
            row[j : j + repeat] = row[j - 1]
            j += repeat
            shift += 8
        else:
            row[j] = (r, g, b, e)
            j += 1
            shift = 0
    return pos


def _read_scanline(data: bytes, pos: int, width: int, row: np.ndarray) -> int:
    if width < _RLE_MIN_WIDTH or width > _RLE_MAX_WIDTH:
        return _read_flat_scanline(data, pos, width, row)
    if pos + 4 > len(data):
        raise TruncationError("scanline header truncated")
    if data[pos] != 2 or data[pos + 1] != 2 or data[pos + 2] & 0x80:
        return _read_flat_scanline(data, pos, width, row)
    if (data[pos + 2] << 8 | data[pos + 3]) != width:
        raise HdrFormatError("RLE scanline width disagrees with header")
    pos += 4
    for c in range(4):
        x = 0
        while x < width:
            if pos >= len(data):
                raise TruncationError("RLE scanline truncated")
            code = data[pos]
            pos += 1
            if code > 128:
                run = code - 128
                if pos >= len(data):
                    raise TruncationError("RLE run truncated")
                if x + run > width:
                    raise HdrFormatError("RLE run overruns scanline")
                row[x : x + run, c] = data[pos]
                pos += 1
                x += run
            else:
                if code == 0:
                    raise HdrFormatError("zero-length RLE literal")
                if pos + code > len(data):
                    raise TruncationError("RLE literal truncated")
                if x + code > width:
                    raise HdrFormatError("RLE literal overruns scanline")
                row[x : x + code, c] = np.frombuffer(data, np.uint8, code, pos)
                pos += code
                x += code
    return pos


def rgbe_to_radiance(rgbe: np.ndarray) -> np.ndarray:
    """Decode (..., 4) uint8 RGBE pixels to (..., 3) float64 linear radiance."""
    rgbe = np.asarray(rgbe, dtype=np.uint8)
    exponents = rgbe[..., 3].astype(np.int32)
    # (m / 256) * 2**(e - 128) == m * 2**(e - 136)
    scale = np.ldexp(1.0, exponents - 136)
    rgb = rgbe[..., :3].astype(np.float64) * scale[..., None]
    rgb[exponents == 0] = 0.0
    return rgb


def radiance_to_rgbe(pixels: np.ndarray) -> np.ndarray:
    """Encode (..., 3) non-negative radiance to (..., 4) uint8 RGBE.

    The stored exponent is floored at 1 with the mantissas scaled to match
    (denormal-style), so every value a decoder can produce re-encodes to the
    same value exactly instead of collapsing to black near the format's floor.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    dominant = pixels.max(axis=-1)
    if (dominant >= np.ldexp(1.0, 127)).any():
        raise RangeError("radiance >= 2**127 cannot be stored as RGBE")
    _, exponents = np.frexp(dominant)
    stored = np.maximum(exponents + 128, 1)
    # mantissa byte = floor(v * 2**(136 - stored)); with a canonical exponent
    # the dominant channel lands in [128, 255]
    scale = np.ldexp(np.ones_like(dominant), 136 - stored)
    rgbe = np.empty(pixels.shape[:-1] + (4,), np.uint8)
    rgbe[..., :3] = pixels * scale[..., None]
    rgbe[..., 3] = stored
    rgbe[dominant == 0.0] = 0
    return rgbe


def read_radiance_hdr(data: bytes) -> HdrImage:
    """Decode a Radiance ``.hdr`` byte stream (flat and RLE scanlines)."""
    width, height, pos = _parse_radiance_header(bytes(data))
    if height > (len(data) - pos) // 4:  # every scanline takes at least 4 bytes
        raise TruncationError(f"{len(data) - pos} payload bytes cannot hold {height} scanlines")
    if width * height > MAX_RADIANCE_PIXELS:
        raise HdrFormatError(f"{width}x{height} exceeds the {MAX_RADIANCE_PIXELS}-pixel decode limit")
    rgbe = np.zeros((height, width, 4), np.uint8)
    for y in range(height):
        pos = _read_scanline(data, pos, width, rgbe[y])
    rgb = rgbe_to_radiance(rgbe)
    rgb.flags.writeable = False  # fresh array, skip the defensive copy
    return HdrImage(rgb)


def _rle_encode_component(component: np.ndarray) -> bytes:
    out = bytearray()
    n = len(component)
    change = np.flatnonzero(np.diff(component)) + 1
    starts = np.concatenate(([0], change, [n]))
    lit_start = 0

    def flush_literals(limit: int) -> None:
        nonlocal lit_start
        while lit_start < limit:
            chunk = min(limit - lit_start, 128)
            out.append(chunk)
            out.extend(component[lit_start : lit_start + chunk].tobytes())
            lit_start += chunk

    for i in range(len(starts) - 1):
        start, stop = starts[i], starts[i + 1]
        length = stop - start
        if length < 4:
            continue  # short runs ride along as literals
        flush_literals(start)
        value = int(component[start])
        while length > 0:
            chunk = min(length, 127)
            out.append(128 + chunk)
            out.append(value)
            length -= chunk
        lit_start = stop
    flush_literals(n)
    return bytes(out)


def _deconflict_flat_row(row: np.ndarray, width: int) -> np.ndarray:
    """Rewrite pixels whose raw bytes would read back as scanline markers.

    Canonically encoded pixels carry a mantissa >= 128 and can never collide;
    only the denormal-style deep-shadow range (values around 1e-38) can. Each
    collision is replaced by an exponent-shifted equivalent representation,
    collapsing to black only when none exists (an error of at most two
    mantissa steps at the format's absolute floor).
    """
    copied = False
    legacy = np.flatnonzero((row[:, 0] == 1) & (row[:, 1] == 1) & (row[:, 2] == 1))
    if legacy.size:
        row = row.copy()
        copied = True
        for i in legacy:
            if row[i, 3] <= 1:
                row[i] = 0
            else:
                row[i, :3] = 2
                row[i, 3] -= 1
    if _RLE_MIN_WIDTH <= width <= _RLE_MAX_WIDTH:
        while row[0, 0] == 2 and row[0, 1] == 2 and row[0, 2] < 128:
            if not copied:
                row = row.copy()
                copied = True
            if row[0, 3] <= 1:
                row[0] = 0
                break
            row[0, 0] = 4
            row[0, 1] = 4
            row[0, 2] *= 2
            row[0, 3] -= 1
    return row


def write_radiance_hdr(image: HdrImage, run_length: bool = True) -> bytes:
    """Encode an HdrImage as Radiance ``.hdr`` bytes.

    Adaptive RLE is used when ``run_length`` is set and the width permits it;
    otherwise scanlines are raw 4-byte pixels.
    """
    rgbe = radiance_to_rgbe(image.pixels)
    height, width = image.height, image.width
    out = bytearray(b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n")
    out.extend(f"-Y {height} +X {width}\n".encode("ascii"))
    use_rle = run_length and _RLE_MIN_WIDTH <= width <= _RLE_MAX_WIDTH
    for y in range(height):
        if use_rle:
            out.extend(bytes((2, 2, width >> 8, width & 0xFF)))
            for c in range(4):
                out.extend(_rle_encode_component(rgbe[y, :, c]))
        else:
            out.extend(_deconflict_flat_row(rgbe[y], width).tobytes())
    return bytes(out)


# ---------------------------------------------------------------------------
# PFM
# ---------------------------------------------------------------------------

_PFM_HEADER_RE = re.compile(rb"^(P[Ff])\s+(\d+)\s+(\d+)\s+(\S+)\s")


def read_pfm(data: bytes) -> HdrImage:
    """Decode a PFM byte stream; grayscale maps are replicated to RGB."""
    m = _PFM_HEADER_RE.match(data)
    if m is None:
        raise HdrFormatError("not a PFM stream (bad magic or header)")
    channels = 3 if m.group(1) == b"PF" else 1
    width = int(m.group(2))
    height = int(m.group(3))
    try:
        scale = float(m.group(4))
    except ValueError as exc:
        raise HdrFormatError(f"bad PFM scale token {m.group(4)!r}") from exc
    if scale == 0.0:
        raise HdrFormatError("PFM scale must be non-zero")
    if width < 1 or height < 1:
        raise HdrFormatError("PFM dimensions must be positive")
    count = width * height * channels
    payload = data[m.end() :]
    if len(payload) < count * 4:
        raise TruncationError(
            f"PFM payload holds {len(payload)} bytes, needs {count * 4}"
        )
    dtype = "<f4" if scale < 0 else ">f4"
    values = np.frombuffer(payload, dtype, count).astype(np.float64)
    values *= abs(scale)
    raster = values.reshape(height, width, channels)[::-1]  # stored bottom-up
    if channels == 1:
        raster = np.repeat(raster, 3, axis=2)
    if not np.isfinite(raster).all():
        raise HdrFormatError("PFM payload contains non-finite radiance")
    if (raster < 0).any():
        raise HdrFormatError("PFM payload contains negative radiance")
    return HdrImage(raster)


def write_pfm(image: HdrImage, little_endian: bool = True) -> bytes:
    """Encode an HdrImage as a color PFM byte stream."""
    scale = -1.0 if little_endian else 1.0
    header = f"PF\n{image.width} {image.height}\n{scale:.1f}\n".encode("ascii")
    dtype = "<f4" if little_endian else ">f4"
    return header + image.pixels[::-1].astype(dtype).tobytes()


# ---------------------------------------------------------------------------
# 8-bit display output
# ---------------------------------------------------------------------------

_ENCODE_BLOCK = 1 << 15  # float64 values per encode block: 256 KiB


def quantize_ldr(rgb: np.ndarray, gamma: float, pool: WorkerPool | None = None) -> LdrImage:
    """Quantize a [0, 1] float raster to 8 bits: round(255 * v**(1/gamma)).

    Encodes row strips on the pool in cache-sized blocks; the caller's raster
    is never written.
    """
    if not gamma > 0:
        raise ParameterError(f"gamma must be positive, got {gamma!r}")
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ParameterError(f"expected a (H, W, 3) raster, got shape {rgb.shape}")
    inverse_gamma = 1.0 / gamma
    encoded = np.empty(rgb.shape, np.uint8)

    def kernel(row_start: int, row_stop: int) -> None:
        source = rgb[row_start:row_stop].reshape(-1)
        target = encoded[row_start:row_stop].reshape(-1)
        scratch = np.empty(min(_ENCODE_BLOCK, source.size))
        for start in range(0, source.size, _ENCODE_BLOCK):
            block = source[start : start + _ENCODE_BLOCK]
            # comparisons with NaN are false, so non-finite values fail here too
            if not (block.min() >= 0.0 and block.max() <= 1.0):
                raise RangeError("display values must lie in [0, 1]; clamp before encoding")
            work = scratch[: block.size]
            np.power(block, inverse_gamma, out=work)
            np.multiply(work, 255.0, out=work)
            np.rint(work, out=work)
            target[start : start + block.size] = work

    (pool or SERIAL).run_rows(kernel, rgb.shape[0])
    encoded.flags.writeable = False  # fresh array, skip the defensive copy
    return LdrImage(encoded)


def encode_ppm(image: LdrImage) -> bytes:
    """Binary PPM (P6), always available."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


def _png_chunk(tag: bytes, body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", zlib.crc32(tag + body))


def encode_png(image: LdrImage) -> bytes:
    """8-bit RGB PNG (filter 0, one IDAT), always available: stdlib zlib only."""
    height, width = image.height, image.width
    if height == 0 or width == 0:
        raise ParameterError(f"PNG needs a non-empty image, got {width}x{height}")
    rows = np.zeros((height, 1 + 3 * width), dtype=np.uint8)  # column 0: filter byte 0
    rows[:, 1:] = image.pixels.reshape(height, 3 * width)
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(rows.tobytes()))
        + _png_chunk(b"IEND", b"")
    )


def save_ldr(path: str | Path, image: LdrImage) -> None:
    """Write an LdrImage to disk, container chosen by extension (.png else PPM)."""
    path = Path(path)
    data = encode_png(image) if path.suffix.lower() == ".png" else encode_ppm(image)
    path.write_bytes(data)


def load_hdr_file(path: str | Path) -> HdrImage:
    """Load ``.hdr``/``.pfm`` by sniffing the magic bytes, not the extension."""
    data = Path(path).read_bytes()
    if data.startswith(b"#?"):
        return read_radiance_hdr(data)
    if data[:2] in (b"PF", b"Pf"):
        return read_pfm(data)
    raise HdrFormatError(f"{path}: unrecognized HDR container")
