"""Retinal image container plus minimal PGM/PPM/PNG codecs and bilinear resize.

PNG support is deliberately narrow (8-bit, non-interlaced, gray or RGB) so
the decode path stays auditable; anything else is rejected with a reason.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

MODALITY_FA = "FA"
MODALITY_CFP = "CFP"

# Largest PNG accepted, in pixels (a 4096 x 4096 fundus photograph); the header
# is checked against it before any IDAT byte is inflated.
MAX_PNG_PIXELS = 4096 * 4096


@dataclass
class RetinalImage:
    """8-bit image, pixels shaped (H, W, C) with C in {1, 3}."""

    pixels: np.ndarray
    modality: str = field(default="")

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.uint8)
        if px.ndim == 2:
            px = px[:, :, None]
        if px.ndim != 3 or px.shape[2] not in (1, 3):
            raise DataError(f"image must be HxWx1 or HxWx3, got shape {px.shape}")
        self.pixels = px
        if not self.modality:
            self.modality = MODALITY_FA if self.channels == 1 else MODALITY_CFP

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


# ---------------------------------------------------------------------------
# PNM (PGM P5 / PPM P6)

def _read_pnm_token(data: bytes, pos: int, path: str) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        if data[pos : pos + 1].isspace():
            pos += 1
        elif data[pos : pos + 1] == b"#":  # comment to end of line
            while pos < n and data[pos] not in (0x0A, 0x0D):
                pos += 1
        else:
            break
    if pos >= n:
        raise DataError(f"{path}: truncated header at byte offset {pos}")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def _decode_pnm(data: bytes, path) -> RetinalImage:
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise DataError(f"{path}: not a binary PGM/PPM file (magic {magic!r})")
    channels = 1 if magic == b"P5" else 3
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_pnm_token(data, pos, str(path))
        try:
            fields.append(int(tok))
        except ValueError as e:
            raise DataError(f"{path}: bad header token {tok!r} at byte offset {pos}") from e
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise DataError(f"{path}: empty image {width}x{height}")
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval} (only 8-bit, maxval 255, supported)")
    pos += 1  # single whitespace byte after maxval
    nbytes = width * height * channels
    raster = data[pos : pos + nbytes]
    if len(raster) != nbytes:
        raise DataError(f"{path}: raster truncated at byte offset {pos + len(raster)}")
    px = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels)
    return RetinalImage(pixels=px)


def write_pnm(path, image: RetinalImage) -> None:
    magic = b"P5" if image.channels == 1 else b"P6"
    header = magic + f"\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(image.pixels.tobytes())


# ---------------------------------------------------------------------------
# PNG

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _unfilter_row(ftype: int, line: list, prev: list, bpp: int) -> list:
    """Undo the Avg (3) or Paeth (4) filter of one row, on Python ints."""
    cur = [0] * bpp + line  # bpp zero bytes stand for the pixel left of the row
    up = [0] * bpp + prev
    if ftype == 3:
        for x in range(bpp, len(cur)):
            cur[x] = (cur[x] + ((cur[x - bpp] + up[x]) >> 1)) & 0xFF
    else:
        for x in range(bpp, len(cur)):
            cur[x] = (cur[x] + _paeth(cur[x - bpp], up[x], up[x - bpp])) & 0xFF
    return cur[bpp:]


def _decode_png(data: bytes, path) -> RetinalImage:
    if data[:8] != _PNG_SIG:
        raise DataError(f"{path}: not a PNG file")
    pos = 8
    ihdr = None
    idat = []
    while True:  # bytes after IEND are ignored, as libpng does
        if pos == len(data):
            raise DataError(f"{path}: missing IEND chunk (file ends at offset {pos})")
        if pos + 8 > len(data):
            raise DataError(f"{path}: truncated chunk header at offset {pos}")
        length = int.from_bytes(data[pos : pos + 4], "big")
        ctype = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        if len(body) != length:
            raise DataError(f"{path}: truncated {ctype!r} chunk at offset {pos}")
        crc = int.from_bytes(data[pos + 8 + length : pos + 12 + length], "big")
        if crc != zlib.crc32(ctype + body):
            raise DataError(f"{path}: CRC mismatch in {ctype!r} chunk at offset {pos}")
        if ctype == b"IHDR":
            ihdr = body
        elif ctype == b"IDAT":
            idat.append(body)
        elif ctype == b"IEND":
            break
        pos += 12 + length
    if ihdr is None:
        raise DataError(f"{path}: missing IHDR chunk")
    if len(ihdr) != 13:
        raise DataError(f"{path}: IHDR chunk is {len(ihdr)} bytes, expected 13")
    width = int.from_bytes(ihdr[0:4], "big")
    height = int.from_bytes(ihdr[4:8], "big")
    depth, color, comp, filt, interlace = ihdr[8:13]
    if depth != 8:
        raise DataError(f"{path}: unsupported bit depth {depth} (only 8 supported)")
    if color not in (0, 2):
        raise DataError(f"{path}: unsupported color type {color} (only gray/RGB)")
    if interlace != 0:
        raise DataError(f"{path}: interlaced PNG not supported")
    if comp != 0 or filt != 0:
        raise DataError(f"{path}: unsupported compression/filter method")
    if width == 0 or height == 0:
        raise DataError(f"{path}: empty image {width}x{height}")
    if width * height > MAX_PNG_PIXELS:
        raise DataError(f"{path}: {width}x{height} image exceeds {MAX_PNG_PIXELS} pixels")
    channels = 1 if color == 0 else 3
    stride = width * channels
    expected = (stride + 1) * height
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(b"".join(idat), expected + 1)  # never more than one byte over
    except zlib.error as e:
        raise DataError(f"{path}: corrupt IDAT stream: {e}") from e
    if len(raw) > expected:
        raise DataError(f"{path}: IDAT stream inflates past the expected {expected} bytes")
    if len(raw) != expected:
        raise DataError(f"{path}: decompressed size {len(raw)} != expected {expected}")
    if not inflater.eof:
        raise DataError(f"{path}: corrupt IDAT stream: incomplete or truncated stream")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    filters = rows[:, 0].tolist()
    for y, ftype in enumerate(filters):
        if ftype > 4:
            raise DataError(f"{path}: unknown filter type {ftype} on row {y}")
    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y, ftype in enumerate(filters):
        line = rows[y, 1:]
        if ftype == 0:
            out[y] = line
        elif ftype == 1:  # addition mod 256 is associative, so a wrapping cumsum is exact
            np.cumsum(line.reshape(width, channels), axis=0, dtype=np.uint8,
                      out=out[y].reshape(width, channels))
        elif ftype == 2:
            np.add(line, prev, out=out[y])
        else:  # Avg and Paeth read the byte just decoded to their left, so they stay sequential
            out[y] = _unfilter_row(ftype, line.tolist(), prev.tolist(), channels)
        prev = out[y]
    px = out.reshape(height, width, channels)
    return RetinalImage(pixels=px)


def _png_chunk(ctype: bytes, body: bytes) -> bytes:
    return (
        len(body).to_bytes(4, "big")
        + ctype
        + body
        + zlib.crc32(ctype + body).to_bytes(4, "big")
    )


def write_png(path, pixels: np.ndarray) -> None:
    """Write an 8-bit gray (HxW or HxWx1) or RGB (HxWx3) PNG, filter type 0."""
    px = np.asarray(pixels, dtype=np.uint8)
    if px.ndim == 3 and px.shape[2] == 1:
        px = px[:, :, 0]
    if px.ndim == 2:
        color, channels = 0, 1
    elif px.ndim == 3 and px.shape[2] == 3:
        color, channels = 2, 3
    else:
        raise ValueError(f"write_png: unsupported pixel shape {px.shape}")
    h, w = px.shape[:2]
    ihdr = (
        w.to_bytes(4, "big") + h.to_bytes(4, "big") + bytes([8, color, 0, 0, 0])
    )
    scanlines = np.zeros((h, 1 + w * channels), dtype=np.uint8)  # column 0: filter type 0
    scanlines[:, 1:] = px.reshape(h, w * channels)
    blob = (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(scanlines, 6))
        + _png_chunk(b"IEND", b"")
    )
    with open(path, "wb") as f:
        f.write(blob)


def load_image(path) -> RetinalImage:
    """Read the file once and dispatch on its magic bytes: PGM/PPM or PNG."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] in (b"P5", b"P6"):
        return _decode_pnm(data, path)
    if data[:8] == _PNG_SIG:
        return _decode_png(data, path)
    raise DataError(f"{path}: unsupported image format (magic {data[:4]!r})")


# ---------------------------------------------------------------------------
# resize

def resize_bilinear(values: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Align-corners bilinear resample of an (H, W) or (H, W, C) float array."""
    arr = np.asarray(values, dtype=np.float64)
    squeeze = arr.ndim == 2
    if squeeze:
        arr = arr[:, :, None]
    h, w, _ = arr.shape
    if (h, w) == (out_h, out_w):  # the align-corners grid is the source grid itself
        return (arr[:, :, 0] if squeeze else arr).copy()
    ys = np.linspace(0.0, h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    top = arr[y0][:, x0] * (1 - fx) + arr[y0][:, x1] * fx
    bot = arr[y1][:, x0] * (1 - fx) + arr[y1][:, x1] * fx
    out = top * (1 - fy) + bot * fy
    return out[:, :, 0] if squeeze else out
