"""Minimal PGM/PPM/PNG codecs and bilinear resize. An image is an H x W x C
uint8 array with C = 1 (gray) or 3 (RGB).

PNG support is deliberately narrow (8-bit, non-interlaced, gray or RGB) so
the decode path stays auditable; anything else is rejected with a reason.
"""

from __future__ import annotations

import re
import zlib

import numpy as np

from .errors import DataError

# Largest image accepted, in pixels (a 4096 x 4096 fundus photograph); every
# header is checked against it before a PNM raster is sliced or a PNG's IDAT inflated.
MAX_IMAGE_PIXELS = 4096 * 4096

# A PNG whose Avg/Paeth chains give fewer filtered bytes per wavefront step than
# this is undone row by row: a step costs tens of numpy calls whatever its width,
# and the two paths took the same time at about 30 (RGB) to 35 (gray) bytes a step.
WAVEFRONT_MIN_STEP_BYTES = 32


def _check_size(path, width: int, height: int) -> None:
    """Refuse an empty image and one of more than MAX_IMAGE_PIXELS pixels."""
    if width < 1 or height < 1:
        raise DataError(f"{path}: empty image {width}x{height}")
    if width * height > MAX_IMAGE_PIXELS:
        raise DataError(f"{path}: {width}x{height} image exceeds {MAX_IMAGE_PIXELS} pixels")


# ---------------------------------------------------------------------------
# PNM (PGM P5 / PPM P6)

# One header field after any ASCII whitespace and comments (each from '#' to the next
# CR or LF), up to the next whitespace; (\S*) always matches, so nothing backtracks.
_PNM_FIELD = re.compile(rb"\s*(?:#[^\r\n]*\s*)*(\S*)")


def _pnm_header(data: bytes, path) -> tuple[list[int], int]:
    """A PNM file's width, height and maxval fields, and the offset just past the last."""
    pos, fields = 2, []
    for _ in range(3):
        match = _PNM_FIELD.match(data, pos)
        tok, pos = match[1], match.end()
        if not tok:
            raise DataError(f"{path}: truncated header at byte offset {pos}")
        # 1 to 10 ASCII digits, as many as a PNG's 4-byte size field: int() would also
        # take b"+2" or b"1_0", and its time on a longer field is not bounded
        if len(tok) > 10 or not tok.isdigit():
            raise DataError(f"{path}: bad header token {tok!r} at byte offset {pos}")
        fields.append(int(tok))
    return fields, pos


def _decode_pnm(data: bytes, channels: int, path) -> np.ndarray:
    """The pixels of a PGM (channels 1) or PPM (channels 3) file's bytes."""
    (width, height, maxval), pos = _pnm_header(data, path)
    _check_size(path, width, height)
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval} (only 8-bit, maxval 255, supported)")
    pos += 1  # single whitespace byte after maxval
    nbytes = width * height * channels
    raster = data[pos : pos + nbytes]
    if len(raster) != nbytes:
        raise DataError(f"{path}: raster truncated at byte offset {pos + len(raster)}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels)


def write_pnm(path, pixels: np.ndarray) -> None:
    """Write an H x W x 1 uint8 array as PGM, an H x W x 3 one as PPM."""
    height, width, channels = pixels.shape
    magic = b"P5" if channels == 1 else b"P6"
    header = magic + f"\n{width} {height}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(pixels.tobytes())


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


def _unfilter_vectorized(lines: np.ndarray, y: int, ftype: int, channels: int) -> None:
    """Undo the None, Sub or Up filter of row y in place, once the row above is decoded."""
    line = lines[y]
    if ftype == 1:  # addition mod 256 is associative, so a wrapping cumsum is exact
        np.cumsum(line.reshape(-1, channels), axis=0, dtype=np.uint8,
                  out=line.reshape(-1, channels))
    elif ftype == 2 and y:
        line += lines[y - 1]


def _unfilter_rows(lines: np.ndarray, filters: list, channels: int) -> None:
    """Undo every row's filter in place, top to bottom: None, Sub and Up rows in
    numpy, Avg and Paeth rows byte by byte in _unfilter_row."""
    prev = np.zeros(lines.shape[1], dtype=np.uint8)
    for y, ftype in enumerate(filters):
        if ftype < 3:
            _unfilter_vectorized(lines, y, ftype, channels)
        else:
            lines[y] = _unfilter_row(ftype, lines[y].tolist(), prev.tolist(), channels)
        prev = lines[y]


def _chain_levels(filters: list) -> list:
    """Each row's wavefront level: -1 for a None or Sub row, and for an Up row
    with no Avg or Paeth row between it and the last None or Sub row above;
    else one more than the row above (0 below a level -1 row or the top edge)."""
    levels, level = [], -1
    for ftype in filters:
        level = -1 if ftype < 2 or (ftype == 2 and level < 0) else level + 1
        levels.append(level)
    return levels


def _paeth_vectorized(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """_paeth elementwise on int16 arrays, with its a, b, c tie order."""
    bc, ac = b - c, a - c
    pa, pb, pc = np.abs(bc), np.abs(ac), np.abs(bc + ac)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def _unfilter_wavefront(lines: np.ndarray, filters: list, levels: list, channels: int) -> None:
    """Undo every row's filter in place, as _unfilter_rows does, but every
    Avg/Paeth chain at once: the level -1 rows first, row by row, then one loop
    over t = x + level(y). Pixel (y, x) reads (y, x-1), (y-1, x) and
    (y-1, x-1), all decoded at an earlier t, so each step decodes one pixel of
    every active row with numpy, on a zero-padded int16 copy of the image.
    levels is _chain_levels(filters)."""
    for y, (ftype, level) in enumerate(zip(filters, levels)):
        if level < 0:
            _unfilter_vectorized(lines, y, ftype, channels)
    height, stride = lines.shape
    width = stride // channels
    padded = np.zeros((height + 1, width + 1, channels), dtype=np.int16)
    padded[1:, 1:] = lines.reshape(height, width, channels)
    # with j = y * row + x * channels + channel, flat[j + k] is byte (y, x)'s
    # up-left (c), up (b), left (a) neighbour and the byte itself, in k order
    row = (width + 1) * channels
    flat = padded.reshape(-1)
    up_left, up, left, cur = (flat[k:] for k in (0, channels, row, row + channels))
    steps = np.arange(width + max(levels))
    # per filter type, the rows sorted by level: a row is active at step t while
    # 0 <= t - level < width, so each step's rows are one slice, lo[t]:hi[t]
    groups = []
    for ftype in (2, 3, 4):
        ys = sorted((y for y, f in enumerate(filters) if f == ftype and levels[y] >= 0),
                    key=levels.__getitem__)
        if ys:
            ranks = np.array([levels[y] for y in ys])
            base = (np.array(ys) * row - ranks * channels)[:, None] + np.arange(channels)
            lo = np.searchsorted(ranks, steps - width, side="right") * channels
            hi = np.searchsorted(ranks, steps, side="right") * channels
            groups.append((ftype, base.reshape(-1), lo.tolist(), hi.tolist()))
    for t in steps.tolist():
        for ftype, base, lo, hi in groups:
            if lo[t] == hi[t]:
                continue
            j = base[lo[t]:hi[t]] + t * channels
            b = up[j]
            if ftype == 2:
                pred = b
            elif ftype == 3:
                pred = (left[j] + b) >> 1
            else:
                pred = _paeth_vectorized(left[j], b, up_left[j])
            pred += cur[j]
            pred &= 0xFF
            cur[j] = pred
    lines[:] = padded[1:, 1:].reshape(height, stride)


def _decode_png(data: bytes, path) -> tuple[np.ndarray, list]:
    """The pixels of a PNG file's bytes, and views into data of its IHDR chunk
    and its IDAT chunks in order, each whole: length, type, body and CRC."""
    pos = 8
    ihdr = None
    idat = []  # views into data: a chunk is never copied
    view = memoryview(data)
    while True:  # bytes after IEND are ignored, as libpng does
        if pos == len(data):
            raise DataError(f"{path}: missing IEND chunk (file ends at offset {pos})")
        if pos + 8 > len(data):
            raise DataError(f"{path}: truncated chunk header at offset {pos}")
        length = int.from_bytes(data[pos : pos + 4], "big")
        ctype = data[pos + 4 : pos + 8]
        chunk = view[pos : pos + 12 + length]
        if len(chunk) != 12 + length:
            raise DataError(f"{path}: truncated {ctype!r} chunk at offset {pos}")
        if int.from_bytes(chunk[-4:], "big") != zlib.crc32(chunk[4:-4]):
            raise DataError(f"{path}: CRC mismatch in {ctype!r} chunk at offset {pos}")
        if ctype == b"IHDR":  # first in a valid PNG: its size is checked before the rest is walked
            if length != 13:
                raise DataError(f"{path}: IHDR chunk is {length} bytes, expected 13")
            ihdr = chunk
            width, height = int.from_bytes(ihdr[8:12], "big"), int.from_bytes(ihdr[12:16], "big")
            _check_size(path, width, height)
        elif ctype == b"IDAT":
            idat.append(chunk)
        elif ctype == b"IEND":
            break
        pos += 12 + length
    if ihdr is None:
        raise DataError(f"{path}: missing IHDR chunk")
    depth, color, comp, filt, interlace = ihdr[16:21]
    if depth != 8:
        raise DataError(f"{path}: unsupported bit depth {depth} (only 8 supported)")
    if color not in (0, 2):
        raise DataError(f"{path}: unsupported color type {color} (only gray/RGB)")
    if interlace != 0:
        raise DataError(f"{path}: interlaced PNG not supported")
    if comp != 0 or filt != 0:
        raise DataError(f"{path}: unsupported compression/filter method")
    channels = 1 if color == 0 else 3
    stride = width * channels
    expected = (stride + 1) * height
    inflater = zlib.decompressobj()
    pieces, size = [], 0
    try:
        for chunk in idat:  # one stream over every IDAT body, inflated chunk by chunk
            # never more than one byte over: a piece that fills its limit (and so may
            # leave input in unconsumed_tail) takes the stream past the expected size
            pieces.append(inflater.decompress(chunk[8:-4], expected + 1 - size))
            size += len(pieces[-1])
            if size > expected:
                raise DataError(f"{path}: IDAT stream inflates past the expected {expected} bytes")
    except zlib.error as e:
        raise DataError(f"{path}: corrupt IDAT stream: {e}") from e
    if size != expected:
        raise DataError(f"{path}: decompressed size {size} != expected {expected}")
    if not inflater.eof:
        raise DataError(f"{path}: corrupt IDAT stream: incomplete or truncated stream")
    if inflater.unused_data:  # input fed after the end of the stream lands here
        raise DataError(f"{path}: {len(inflater.unused_data)} bytes after the end of the "
                        f"IDAT stream")
    raw = b"".join(pieces)  # a lone piece is returned as it is, not copied
    del pieces
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    filters = rows[:, 0].tolist()
    for y, ftype in enumerate(filters):
        if ftype > 4:
            raise DataError(f"{path}: unknown filter type {ftype} on row {y}")
    lines = rows[:, 1:].copy()  # undone in place below
    del raw, rows  # freed before a wavefront's padded copy is made
    levels = _chain_levels(filters)
    chained = sum(level >= 0 for level in levels)
    if chained and chained * stride >= WAVEFRONT_MIN_STEP_BYTES * (width + max(levels)):
        _unfilter_wavefront(lines, filters, levels, channels)
    else:
        _unfilter_rows(lines, filters, channels)
    return lines.reshape(height, width, channels), [ihdr, *idat]


def _png_chunk(ctype: bytes, body: bytes) -> bytes:
    return (
        len(body).to_bytes(4, "big")
        + ctype
        + body
        + zlib.crc32(ctype + body).to_bytes(4, "big")
    )


_IEND = _png_chunk(b"IEND", b"")


def encode_png(pixels: np.ndarray) -> bytes:
    """An 8-bit gray (HxW or HxWx1) or RGB (HxWx3) PNG file's bytes, filter type 0."""
    px = np.asarray(pixels, dtype=np.uint8)
    if px.ndim == 3 and px.shape[2] == 1:
        px = px[:, :, 0]
    if px.ndim == 2:
        color, channels = 0, 1
    elif px.ndim == 3 and px.shape[2] == 3:
        color, channels = 2, 3
    else:
        raise ValueError(f"encode_png: unsupported pixel shape {px.shape}")
    h, w = px.shape[:2]
    ihdr = (
        w.to_bytes(4, "big") + h.to_bytes(4, "big") + bytes([8, color, 0, 0, 0])
    )
    scanlines = np.zeros((h, 1 + w * channels), dtype=np.uint8)  # column 0: filter type 0
    scanlines[:, 1:] = px.reshape(h, w * channels)
    return (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(scanlines, 6))
        + _IEND
    )


def write_png(path, pixels: np.ndarray) -> None:
    """Write encode_png(pixels) to path."""
    with open(path, "wb") as f:
        f.write(encode_png(pixels))


def _read(path) -> tuple[np.ndarray, list | None]:
    """Read the file once and dispatch on its magic bytes: the pixels of a PGM/PPM
    file and None, or those of a PNG file and _decode_png's views of its chunks."""
    with open(path, "rb") as f:
        data = f.read()
    magic = data[:2]
    if magic in (b"P5", b"P6"):
        return _decode_pnm(data, 1 if magic == b"P5" else 3, path), None
    if data[:8] == _PNG_SIG:
        return _decode_png(data, path)
    raise DataError(f"{path}: unsupported image format (magic {data[:4]!r})")


def load_image(path) -> np.ndarray:
    """The image file's pixels: read_image(path)[0], without building the PNG bytes."""
    return _read(path)[0]


def read_image(path) -> tuple[np.ndarray, bytes | None]:
    """The image file's pixels and, for a PNG file, a PNG of exactly those pixels:
    the signature, the file's IHDR chunk, its IDAT chunks as they are, in order, and
    an IEND chunk. No ancillary chunk is kept and nothing is compressed. For a
    PGM/PPM file the second item is None."""
    pixels, chunks = _read(path)
    return pixels, None if chunks is None else b"".join((_PNG_SIG, *chunks, _IEND))


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
