"""The benchmark's own image codecs, kept apart from the package's so that
the inputs it writes and the outputs it checks do not rest on the code under
test.

- `encode_png` writes 8-bit PNGs with a chosen filter type on every row, so
  the workload exercises all five row filters of the PNG spec (RFC 2083 §6).
- `decode_png` reads any non-interlaced 8-bit gray or RGB PNG back to pixels.
- `read_pnm` reads the binary PGM/PPM files the synthetic dataset is made of.
"""

from __future__ import annotations

import zlib

import numpy as np

_SIG = b"\x89PNG\r\n\x1a\n"
FILTER_NAMES = ("none", "sub", "up", "avg", "paeth")


def read_pnm(path) -> np.ndarray:
    """Binary PGM (P5) or PPM (P6), maxval 255, as an H x W x C uint8 array."""
    with open(path, "rb") as f:
        data = f.read()
    fields, pos = [], 0
    while len(fields) < 4:
        while data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            pos = data.index(b"\n", pos)
            continue
        end = pos
        while not data[end:end + 1].isspace():
            end += 1
        fields.append(data[pos:end])
        pos = end
    magic, width, height, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    if magic not in (b"P5", b"P6") or maxval != 255:
        raise ValueError(f"{path}: not an 8-bit binary PGM/PPM")
    channels = 1 if magic == b"P5" else 3
    count = width * height * channels
    px = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos + 1)
    return px.reshape(height, width, channels).copy()


def _paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def _chunk(ctype: bytes, body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + ctype + body + \
        zlib.crc32(ctype + body).to_bytes(4, "big")


def encode_png(pixels: np.ndarray, row_filters) -> bytes:
    """PNG bytes of an H x W x C (C = 1 or 3) uint8 image; row y uses filter row_filters[y]."""
    h, w, channels = pixels.shape
    rows = pixels.reshape(h, w * channels).astype(np.int32)
    zeros_row = np.zeros((1, w * channels), dtype=np.int32)
    zeros_col = np.zeros((h, channels), dtype=np.int32)
    up = np.vstack([zeros_row, rows[:-1]])
    left = np.hstack([zeros_col, rows[:, :-channels]])
    up_left = np.hstack([zeros_col, up[:, :-channels]])
    predictors = (0, left, up, (left + up) // 2, _paeth(left, up, up_left))
    raw = bytearray()
    for y in range(h):
        f = int(row_filters[y])
        raw.append(f)
        raw += ((rows[y] - predictors[f][y] if f else rows[y]) & 0xFF).astype(np.uint8).tobytes()
    color = 0 if channels == 1 else 2
    ihdr = w.to_bytes(4, "big") + h.to_bytes(4, "big") + bytes([8, color, 0, 0, 0])
    return (_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", zlib.compress(bytes(raw), 6))
            + _chunk(b"IEND", b""))


def decode_png(path) -> np.ndarray:
    """Pixels of an 8-bit, non-interlaced gray or RGB PNG as H x W x C uint8."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != _SIG:
        raise ValueError(f"{path}: not a PNG file")
    pos, ihdr, idat = 8, None, bytearray()
    while pos + 8 <= len(data):
        length = int.from_bytes(data[pos:pos + 4], "big")
        ctype, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + length]
        if zlib.crc32(ctype + body) != int.from_bytes(data[pos + 8 + length:pos + 12 + length], "big"):
            raise ValueError(f"{path}: bad CRC in {ctype!r}")
        if ctype == b"IHDR":
            ihdr = body
        elif ctype == b"IDAT":
            idat += body
        elif ctype == b"IEND":
            break
        pos += 12 + length
    if ihdr is None:
        raise ValueError(f"{path}: no IHDR chunk")
    w, h = int.from_bytes(ihdr[0:4], "big"), int.from_bytes(ihdr[4:8], "big")
    if ihdr[8] != 8 or ihdr[9] not in (0, 2) or ihdr[12] != 0:
        raise ValueError(f"{path}: only 8-bit non-interlaced gray/RGB is read")
    bpp = 1 if ihdr[9] == 0 else 3
    stride = w * bpp
    raw = zlib.decompress(bytes(idat))
    if len(raw) != (stride + 1) * h:
        raise ValueError(f"{path}: {len(raw)} bytes of image data, expected {(stride + 1) * h}")
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int32)
    for y in range(h):
        f = raw[y * (stride + 1)]
        line = np.frombuffer(raw, np.uint8, stride, y * (stride + 1) + 1).astype(np.int32)
        if f == 0:
            cur = line
        elif f == 2:
            cur = (line + prev) & 0xFF
        elif f in (1, 3, 4):
            cur = _unfilter_row(f, line.tolist(), prev.tolist(), bpp)
        else:
            raise ValueError(f"{path}: unknown filter {f} on row {y}")
        out[y] = cur
        prev = np.asarray(cur, dtype=np.int32)
    return out.reshape(h, w, bpp)


def _unfilter_row(f: int, line: list, prev: list, bpp: int) -> list:
    cur = line[:]
    for x in range(len(cur)):
        a = cur[x - bpp] if x >= bpp else 0
        if f == 1:
            pred = a
        elif f == 3:
            pred = (a + prev[x]) // 2
        else:
            b, c = prev[x], prev[x - bpp] if x >= bpp else 0
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
        cur[x] = (cur[x] + pred) & 0xFF
    return cur
