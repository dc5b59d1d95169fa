import builtins
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from retinapipe import imageio
from retinapipe.errors import DataError
from retinapipe.imageio import (
    MAX_PNG_PIXELS, load_image, resize_bilinear, write_png, write_pnm,
)

from oracles import png_bytes_row_join


PNG_SIG = b"\x89PNG\r\n\x1a\n"


def png_chunk(ctype: bytes, body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + ctype + body + zlib.crc32(ctype + body).to_bytes(4, "big")


def ihdr_body(width: int, height: int, channels: int = 1) -> bytes:
    color = 0 if channels == 1 else 2
    return width.to_bytes(4, "big") + height.to_bytes(4, "big") + bytes([8, color, 0, 0, 0])


def png_file(ihdr: bytes, idat: bytes) -> bytes:
    return PNG_SIG + png_chunk(b"IHDR", ihdr) + png_chunk(b"IDAT", idat) + png_chunk(b"IEND", b"")


def png_bytes(width: int, height: int, idat: bytes) -> bytes:
    """An 8-bit gray PNG with the given header size and IDAT payload."""
    return png_file(ihdr_body(width, height), idat)


def spec_paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def filtered_scanlines(pixels: np.ndarray, row_filters) -> bytes:
    """Filter byte plus filtered row for each row, as RFC 2083 §6 defines them:
    every predictor reads the original pixels, left (a), up (b) and up-left (c)."""
    height, width, channels = pixels.shape
    rows = pixels.reshape(height, width * channels).tolist()
    out = bytearray()
    for y, ftype in enumerate(row_filters):
        up = rows[y - 1] if y else [0] * len(rows[y])
        out.append(ftype)
        for x, value in enumerate(rows[y]):
            a = rows[y][x - channels] if x >= channels else 0
            b = up[x]
            c = up[x - channels] if x >= channels else 0
            predictor = (0, a, b, (a + b) // 2, spec_paeth(a, b, c))[ftype]
            out.append((value - predictor) % 256)
    return bytes(out)


def filtered_png(pixels: np.ndarray, row_filters) -> bytes:
    height, width, channels = pixels.shape
    idat = zlib.compress(filtered_scanlines(pixels, row_filters))
    return png_file(ihdr_body(width, height, channels), idat)


class TestPnm:
    def test_pgm_direct_decode(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]))
        img = load_image(path)
        assert img.shape == (2, 2, 1)
        assert img[:, :, 0].tolist() == [[0, 64], [128, 255]]

    def test_pgm_with_comment(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([10, 20]))
        assert load_image(path)[:, :, 0].tolist() == [[10, 20]]

    def test_truncated_header_names_offset(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2")
        with pytest.raises(DataError, match="offset"):
            load_image(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2]))
        with pytest.raises(DataError, match="truncated"):
            load_image(path)

    def test_16bit_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(DataError, match="maxval"):
            load_image(path)

    @pytest.mark.parametrize("header, raster, match", [
        (b"P5 0 4 255\n", b"", "empty image 0x4"),
        (b"P6 4 0 255\n", b"", "empty image 4x0"),
        (b"P6 -2 3 255\n", bytes(18), "empty image -2x3"),
        (b"P5 2 1 15\n", b"\x0f\xff", "unsupported maxval 15"),
        (b"P5 1 1 0\n", b"\x00", "unsupported maxval 0"),
    ], ids=["width-0", "height-0", "width-negative", "maxval-15", "maxval-0"])
    def test_header_out_of_range_rejected(self, header, raster, match, tmp_path):
        path = tmp_path / "t.pnm"
        path.write_bytes(header + raster)
        with pytest.raises(DataError, match=match):
            load_image(path)

    def test_ppm_round_trip(self, tmp_path):
        px = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
        path = tmp_path / "t.ppm"
        write_pnm(path, px)
        assert path.read_bytes() == b"P6\n4 2\n255\n" + px.tobytes()
        assert np.array_equal(load_image(path), px)


class TestPng:
    def test_missing_iend_rejected(self, tmp_path):
        blob = png_bytes(2, 1, zlib.compress(b"\x00\x07\x09"))
        path = tmp_path / "t.png"
        path.write_bytes(blob[: -len(png_chunk(b"IEND", b""))])
        with pytest.raises(DataError, match="missing IEND"):
            load_image(path)

    def test_bytes_after_iend_ignored(self, tmp_path):
        blob = png_bytes(2, 1, zlib.compress(b"\x00\x07\x09"))
        path = tmp_path / "t.png"
        path.write_bytes(blob + b"trailing garbage, not a chunk")
        assert load_image(path)[:, :, 0].tolist() == [[7, 9]]

    def test_gray_round_trip(self, tmp_path):
        px = np.arange(64, dtype=np.uint8).reshape(8, 8)
        path = tmp_path / "t.png"
        write_png(path, px)
        img = load_image(path)
        assert img.shape == (8, 8, 1)
        assert np.array_equal(img[:, :, 0], px)

    def test_rgb_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        px = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
        path = tmp_path / "t.png"
        write_png(path, px)
        assert np.array_equal(load_image(path), px)

    def test_matches_ppm_of_same_pixels(self, tmp_path):
        rng = np.random.default_rng(4)
        px = rng.integers(0, 256, (6, 6, 3), dtype=np.uint8)
        write_png(tmp_path / "a.png", px)
        write_pnm(tmp_path / "a.ppm", px)
        assert np.array_equal(load_image(tmp_path / "a.png"), load_image(tmp_path / "a.ppm"))

    def test_cross_decoder_against_opencv(self, tmp_path):
        # opencv writes PNGs with real filter choices; our decoder must agree
        cv2 = pytest.importorskip("cv2")
        rng = np.random.default_rng(5)
        px = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        path = str(tmp_path / "cv.png")
        cv2.imwrite(path, px[:, :, ::-1])  # cv2 is BGR
        assert np.array_equal(load_image(path), px)
        gray = rng.integers(0, 256, (12, 9), dtype=np.uint8)
        path2 = str(tmp_path / "cvg.png")
        cv2.imwrite(path2, gray)
        assert np.array_equal(load_image(path2)[:, :, 0], gray)

    # width 1 makes the row stride equal to the bytes per pixel; height 1 has no row above
    FILTER_SHAPES = [(5, 7, 1), (4, 6, 3), (6, 1, 1), (5, 1, 3), (1, 8, 1), (1, 8, 3)]

    @pytest.mark.parametrize("shape", FILTER_SHAPES)
    @pytest.mark.parametrize("ftype", range(5))
    def test_each_row_filter_decodes_exactly(self, ftype, shape, tmp_path):
        rng = np.random.default_rng(ftype)
        checker = np.indices(shape).sum(axis=0) % 2 * 255  # neighbours 0 and 255: every sum wraps
        images = [rng.integers(0, 256, shape, dtype=np.uint8), np.zeros(shape, np.uint8),
                  np.full(shape, 255, np.uint8), checker.astype(np.uint8),
                  rng.integers(0, 4, shape, dtype=np.uint8)]  # few levels: Paeth's ties
        path = tmp_path / "f.png"
        for px in images:
            path.write_bytes(filtered_png(px, [ftype] * shape[0]))
            assert np.array_equal(load_image(path), px)

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_row_filters_decode_exactly(self, seed, tmp_path):
        rng = np.random.default_rng(100 + seed)
        shape = (int(rng.integers(1, 16)), int(rng.integers(1, 16)), int(rng.choice([1, 3])))
        px = rng.integers(0, 256, shape, dtype=np.uint8)
        path = tmp_path / "mix.png"
        path.write_bytes(filtered_png(px, rng.integers(0, 5, shape[0]).tolist()))
        assert np.array_equal(load_image(path), px)

    @pytest.mark.parametrize("bad", [5, 255])
    def test_unknown_filter_type_names_its_row(self, bad, tmp_path):
        px = np.random.default_rng(7).integers(0, 256, (4, 3, 3), dtype=np.uint8)
        lines = bytearray(filtered_scanlines(px, [1, 4, 0, 3]))
        lines[2 * (3 * 3 + 1)] = bad  # the filter byte of row 2
        path = tmp_path / "bad.png"
        path.write_bytes(png_file(ihdr_body(3, 4, 3), zlib.compress(bytes(lines))))
        with pytest.raises(DataError, match=f"unknown filter type {bad} on row 2"):
            load_image(path)

    @pytest.mark.parametrize("length", [0, 5, 12, 14])
    def test_ihdr_of_wrong_length_rejected(self, length, tmp_path):
        ihdr = (ihdr_body(2, 2) + b"\x00")[:length]
        path = tmp_path / "ihdr.png"
        path.write_bytes(png_file(ihdr, zlib.compress(bytes(2 * 3))))
        with pytest.raises(DataError, match=f"IHDR chunk is {length} bytes, expected 13"):
            load_image(path)

    def test_truncated_chunk_rejected(self, tmp_path):
        path = tmp_path / "t.png"
        write_png(path, np.zeros((4, 4), dtype=np.uint8))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataError):
            load_image(path)

    def test_crc_corruption_rejected(self, tmp_path):
        path = tmp_path / "t.png"
        write_png(path, np.zeros((4, 4), dtype=np.uint8))
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            load_image(path)

    def test_not_png_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"\x00" * 32)
        with pytest.raises(DataError, match="unsupported image format"):
            load_image(path)

    def test_decompression_bomb_rejected_in_bounded_memory(self, tmp_path):
        # a 16x16 header over an IDAT stream that inflates to 64 MiB
        deflate = zlib.compressobj(9)
        block = bytes(1 << 20)
        idat = b"".join(deflate.compress(block) for _ in range(64)) + deflate.flush()
        path = tmp_path / "bomb.png"
        path.write_bytes(png_bytes(16, 16, idat))
        assert path.stat().st_size < 100_000
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="inflates past the expected 272 bytes"):
                load_image(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(idat)

    @pytest.mark.parametrize("width, height", [(0, 4), (4, 0)])
    def test_empty_image_rejected(self, width, height, tmp_path):
        path = tmp_path / "empty.png"
        path.write_bytes(png_bytes(width, height, zlib.compress(b"")))
        with pytest.raises(DataError, match="empty image"):
            load_image(path)

    def test_pixel_cap_checked_before_inflating(self, tmp_path, monkeypatch):
        path = tmp_path / "huge.png"
        path.write_bytes(png_bytes(MAX_PNG_PIXELS + 1, 1, zlib.compress(b"\x00")))
        monkeypatch.setattr(zlib, "decompressobj", None)  # any inflate attempt fails the test
        with pytest.raises(DataError, match=f"exceeds {MAX_PNG_PIXELS} pixels"):
            load_image(path)

    def test_truncated_stream_rejected(self, tmp_path):
        stream = zlib.compress(bytes(4 * 5))
        path = tmp_path / "cut.png"
        path.write_bytes(png_bytes(4, 4, stream[:-4]))  # all pixels, no checksum
        with pytest.raises(DataError, match="truncated stream"):
            load_image(path)

    @pytest.mark.parametrize("name, pixels", [
        ("a.png", np.arange(12, dtype=np.uint8).reshape(3, 4)),
        ("a.pgm", np.arange(12, dtype=np.uint8).reshape(3, 4)),
    ])
    def test_load_image_opens_file_once(self, name, pixels, tmp_path, monkeypatch):
        path = tmp_path / name
        if name.endswith(".png"):
            write_png(path, pixels)
        else:
            write_pnm(path, pixels[:, :, None])
        opened = []
        real_open = builtins.open
        monkeypatch.setattr(builtins, "open", lambda *a, **k: opened.append(a[0]) or real_open(*a, **k))
        assert np.array_equal(load_image(path)[:, :, 0], pixels)
        assert opened == [path]

    @pytest.mark.parametrize("shape", [
        (1, 1), (1, 9), (9, 1), (5, 7), (4, 33), (1, 1, 3), (1, 9, 3), (9, 1, 3), (5, 7, 3),
        (3, 33, 3),
    ])
    def test_bytes_equal_row_join_oracle(self, shape, tmp_path):
        px = np.random.default_rng(len(shape) * 100 + shape[1]).integers(
            0, 256, shape, dtype=np.uint8)
        write_png(tmp_path / "a.png", px)
        assert (tmp_path / "a.png").read_bytes() == png_bytes_row_join(px)
        write_png(tmp_path / "b.png", px[:, :, None] if px.ndim == 2 else px[:, ::-1])
        want = px if px.ndim == 2 else np.ascontiguousarray(px[:, ::-1])  # a strided view
        assert (tmp_path / "b.png").read_bytes() == png_bytes_row_join(want)

    def test_write_is_deterministic(self, tmp_path):
        px = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
        write_png(tmp_path / "a.png", px)
        write_png(tmp_path / "b.png", px)
        assert (tmp_path / "a.png").read_bytes() == (tmp_path / "b.png").read_bytes()


def sample_images(shape, seed: int) -> list:
    """Random pixels, all 0, all 255, a checkerboard of 0 and 255 (every sum
    wraps) and 4-level pixels (Paeth's ties), in that order."""
    rng = np.random.default_rng(seed)
    checker = np.indices(shape).sum(axis=0) % 2 * 255
    return [rng.integers(0, 256, shape, dtype=np.uint8), np.zeros(shape, np.uint8),
            np.full(shape, 255, np.uint8), checker.astype(np.uint8),
            rng.integers(0, 4, shape, dtype=np.uint8)]


def unfilter_both(scanlines: bytes, height: int, channels: int) -> list:
    """The row loop's and the wavefront's decode of scanlines, each called
    directly, so each runs whatever the cut-over would choose."""
    rows = np.frombuffer(scanlines, np.uint8).reshape(height, -1)
    filters = rows[:, 0].tolist()
    by_rows, by_wavefront = rows[:, 1:].copy(), rows[:, 1:].copy()
    imageio._unfilter_rows(by_rows, filters, channels)
    imageio._unfilter_wavefront(by_wavefront, filters, imageio._chain_levels(filters), channels)
    return [by_rows, by_wavefront]


def assert_both_decode(pixels: np.ndarray, row_filters) -> None:
    height, width, channels = pixels.shape
    for lines in unfilter_both(filtered_scanlines(pixels, row_filters), height, channels):
        assert np.array_equal(lines.reshape(pixels.shape), pixels)


class TestUnfilterOracles:
    """Both row-filter decoders give back the pixels filtered_scanlines filtered,
    bit for bit, at any size: the small shapes here fall below the cut-over,
    so load_image alone would never run the wavefront on them."""

    SHAPES = [(1, 1, 1), (1, 1, 3), (9, 1, 1), (9, 1, 3), (1, 2, 1), (1, 2, 3), (6, 2, 1),
              (7, 2, 3), (1, 11, 3), (13, 9, 1), (11, 13, 3), (64, 64, 1), (64, 64, 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("ftype", range(5))
    def test_each_filter(self, ftype, shape):
        for px in sample_images(shape, ftype):
            assert_both_decode(px, [ftype] * shape[0])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_random_per_row_mixes(self, shape):
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        for px in sample_images(shape, shape[1]):
            assert_both_decode(px, rng.integers(0, 5, shape[0]).tolist())

    @pytest.mark.parametrize("row_filters", [
        [4] * 20 + [3] * 20,  # one chain of 40 levels
        [0] + [3] * 15 + [1] + [4] * 15 + [2] * 8,  # two long runs, Up rows under the second
        [4, 2, 2, 3, 2, 0, 2, 4, 2, 1, 3, 2, 2, 2],  # chains that continue through Up rows
        [2, 2, 4, 2, 3, 2, 2, 0, 2, 2],  # Up rows above a chain are row-parallel
        [0, 4] * 12,  # isolated Paeth rows, every one at level 0
    ])
    @pytest.mark.parametrize("width, channels", [(1, 1), (2, 3), (17, 1), (33, 3)])
    def test_long_runs_and_chains_through_up(self, row_filters, width, channels):
        for px in sample_images((len(row_filters), width, channels), width):
            assert_both_decode(px, row_filters)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_report_sized_shuffled_mix(self, channels):
        # the benchmark's report images: 256 x 256 with the five filters shuffled over the rows
        rng = np.random.default_rng(channels)
        px = rng.integers(0, 256, (256, 256, channels), dtype=np.uint8)
        assert_both_decode(px, rng.permutation(np.arange(256) % 5).tolist())

    def test_chain_levels(self):
        assert imageio._chain_levels([0, 2, 4, 2, 3, 1, 2, 3, 4, 2, 0, 2, 2, 3]) == [
            -1, -1, 0, 1, 2, -1, -1, 0, 1, 2, -1, -1, -1, 0]
        assert imageio._chain_levels([2, 3, 2]) == [-1, 0, 1]  # the zero row above row 0

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(data=st.data(), height=st.integers(1, 12), width=st.integers(1, 12),
           channels=st.sampled_from([1, 3]))
    def test_random_scanlines(self, data, height, width, channels):
        """Both decoders agree on any filtered bytes, and filtering what they
        decode gives those bytes back."""
        scanlines = b"".join(
            bytes([data.draw(st.integers(0, 4))])
            + data.draw(st.binary(min_size=width * channels, max_size=width * channels))
            for _ in range(height))
        by_rows, by_wavefront = unfilter_both(scanlines, height, channels)
        assert np.array_equal(by_rows, by_wavefront)
        filters = [scanlines[y * (width * channels + 1)] for y in range(height)]
        pixels = by_rows.reshape(height, width, channels)
        assert filtered_scanlines(pixels, filters) == scanlines


class TestUnfilterPath:
    """Which decoder load_image runs, and how much memory it takes."""

    @pytest.mark.parametrize("shape, row_filters, path", [
        ((256, 256, 3), np.random.default_rng(5).permutation(np.arange(256) % 5).tolist(),
         "wavefront"),
        ((1, 4096, 3), [4], "rows"),  # 3 bytes per step: one pixel of one row
        ((4096, 1, 3), [4] * 4096, "rows"),
    ])
    def test_path_choice(self, shape, row_filters, path, tmp_path, monkeypatch):
        calls = []
        for name in ("rows", "wavefront"):
            unfilter = getattr(imageio, f"_unfilter_{name}")
            monkeypatch.setattr(imageio, f"_unfilter_{name}",
                                lambda *args, name=name, f=unfilter: calls.append(name) or f(*args))
        px = np.random.default_rng(shape[0]).integers(0, 256, shape, dtype=np.uint8)
        (tmp_path / "a.png").write_bytes(filtered_png(px, row_filters))
        assert np.array_equal(load_image(tmp_path / "a.png"), px)
        assert calls == [path]

    def test_peak_memory_grows_with_the_pixels(self, tmp_path):
        # random Paeth scanlines: they barely compress, so the file is about the raster's size
        side, stride = 512, 512 * 3
        scanlines = np.random.default_rng(0).integers(0, 256, (side, stride + 1), dtype=np.uint8)
        scanlines[:, 0] = 4
        path = tmp_path / "paeth.png"
        path.write_bytes(png_file(ihdr_body(side, side, 3), zlib.compress(scanlines.tobytes())))
        tracemalloc.start()
        try:
            load_image(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * side * side  # a layout of H x (W + H) pixels would take 24 B/px


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    """The bytes unchanged, with one byte replaced, cut short, or with bytes appended."""
    how = draw(st.sampled_from(["keep", "replace", "cut", "append"]))
    if how == "replace" and blob:
        at = draw(st.integers(0, len(blob) - 1))
        return blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at + 1:]
    if how == "cut":
        return blob[:draw(st.integers(0, len(blob)))]
    if how == "append":
        return blob + draw(st.binary(min_size=1, max_size=8))
    return blob


@st.composite
def pnm_files(draw) -> bytes:
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    width, height = draw(st.integers(-3, 5)), draw(st.integers(-3, 5))
    maxval = draw(st.sampled_from([-1, 0, 1, 15, 255, 256, 65535]))
    sep = draw(st.sampled_from([b" ", b"\n", b"\n# comment\n"]))
    header = magic + sep + b"%d %d %d\n" % (width, height, maxval)
    return draw(mutated(header + draw(st.binary(max_size=80))))


@st.composite
def png_files(draw) -> bytes:
    """A small PNG with random filter bytes (0-7) and pixels, then mutated chunk by
    chunk with every CRC recomputed, so the decoder gets past the chunk check."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    channels = draw(st.sampled_from([1, 3]))
    scanlines = b"".join(
        bytes([draw(st.integers(0, 7))])
        + draw(st.binary(min_size=width * channels, max_size=width * channels))
        for _ in range(height))
    ihdr = draw(st.one_of(mutated(ihdr_body(width, height, channels)), st.binary(max_size=20)))
    idat = draw(st.one_of(mutated(zlib.compress(scanlines)),
                          st.builds(zlib.compress, mutated(scanlines))))
    chunks = [(b"IHDR", ihdr), (b"IDAT", idat), (b"IEND", b"")]
    chunks = draw(st.one_of(st.just(chunks), st.permutations(chunks), st.just(chunks[1:])))
    return draw(mutated(PNG_SIG + b"".join(png_chunk(t, body) for t, body in chunks)))


class TestLoadImageProperty:
    """Any bytes either load as a non-empty H x W x C uint8 image, C 1 or 3,
    or raise DataError."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=st.one_of(
        st.binary(max_size=64),
        st.builds(bytes.__add__, st.sampled_from([b"P5", b"P6", PNG_SIG]), st.binary(max_size=64)),
        pnm_files(),
        png_files(),
    ))
    def test_loads_or_raises_data_error(self, blob, tmp_path):
        path = tmp_path / "img"
        path.write_bytes(blob)
        try:
            img = load_image(path)
        except DataError:
            return
        assert isinstance(img, np.ndarray) and img.dtype == np.uint8
        assert img.ndim == 3 and img.shape[2] in (1, 3)
        assert img.shape[0] >= 1 and img.shape[1] >= 1


class TestResizeBilinear:
    def test_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        assert np.allclose(resize_bilinear(x, 3, 4), x)

    @pytest.mark.parametrize("shape", [(32, 32, 3), (7, 5), (256, 256, 1), (1, 1), (1, 9)])
    def test_same_size_is_a_copy_equal_to_the_interpolation(self, shape):
        x = np.random.default_rng(8).random(shape)
        got = resize_bilinear(x, *shape[:2])
        assert got is not x and not np.shares_memory(got, x)
        assert np.array_equal(got, x)  # every interpolation weight is exactly 1 or 0

    def test_downsample_keeps_corners(self):
        x = np.random.default_rng(9).random((4, 4))
        out = resize_bilinear(x, 1, 2)
        assert out.shape == (1, 2)
        assert out[0, 0] == x[0, 0] and out[0, 1] == x[0, -1]

    def test_center_of_2x2(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = resize_bilinear(x, 3, 3)
        assert abs(out[1, 1] - 0.5) < 1e-12

    def test_corners_preserved(self):
        rng = np.random.default_rng(6)
        x = rng.random((4, 4))
        out = resize_bilinear(x, 9, 7)
        assert out[0, 0] == x[0, 0]
        assert out[0, -1] == x[0, -1]
        assert out[-1, 0] == x[-1, 0]
        assert out[-1, -1] == x[-1, -1]

    def test_matches_closed_form(self):
        rng = np.random.default_rng(7)
        x = rng.random((4, 4))
        out = resize_bilinear(x, 7, 7)
        for i in range(7):
            for j in range(7):
                sy = i * 3.0 / 6.0
                sx = j * 3.0 / 6.0
                y0, x0 = int(sy), int(sx)
                y1, x1 = min(y0 + 1, 3), min(x0 + 1, 3)
                fy, fx = sy - y0, sx - x0
                want = (x[y0, x0] * (1 - fy) * (1 - fx) + x[y0, x1] * (1 - fy) * fx
                        + x[y1, x0] * fy * (1 - fx) + x[y1, x1] * fy * fx)
                assert abs(out[i, j] - want) < 1e-10
