"""PNG decoding: every filter type against the per-byte reference, chunk
CRCs, and the size bound on the inflated image data."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from helpers import (PNG_SIGNATURE, png_chunk, png_file, png_scanlines,
                     reference_unfilter, write_png)
from leafnet import data as D
from leafnet.errors import DecodeError

SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 64), (64, 1), (3, 40), (40, 3), (9, 7)]
MODES = ["f0", "f1", "f2", "f3", "f4", "mix1", "mix2", "mix3"]
# Shapes with long diagonals whose length changes, for the modes that take
# the wavefront.
LONG_SHAPES = [(33, 70), (70, 33), (96, 96)]
CASES = ([(shape, mode) for mode in MODES for shape in SHAPES]
         + [(shape, mode) for mode in MODES if mode not in ("f0", "f1", "f2")
            for shape in LONG_SHAPES])


def _filters(mode: str, h: int) -> list[int]:
    """One filter type for every row ("f<k>"), or a seeded per-row mix."""
    if mode.startswith("f"):
        return [int(mode[1:])] * h
    return np.random.default_rng(int(mode[3:])).integers(0, 5, h).tolist()


def _as_rgb(arr: np.ndarray) -> np.ndarray:
    """What decode_image returns for [H, W, C] pixels."""
    if arr.shape[2] in (1, 2):
        return np.repeat(arr[:, :, :1], 3, axis=2)
    return arr[:, :, :3]


@pytest.mark.parametrize("shape,mode", CASES,
                         ids=[f"{h}x{w}-{mode}" for (h, w), mode in CASES])
def test_unfilter_matches_reference(tmp_path, shape, mode):
    h, w = shape
    filters = _filters(mode, h)
    for c in (1, 2, 3, 4):
        arr = np.random.default_rng([h, w, c]).integers(0, 256, (h, w, c), dtype=np.uint8)
        raw = png_scanlines(arr, filters)
        np.testing.assert_array_equal(reference_unfilter(raw, h, w, c), arr)
        lines = np.frombuffer(raw, np.uint8).reshape(h, 1 + w * c)[:, 1:].reshape(h, w, c)
        np.testing.assert_array_equal(
            D._unfilter_wavefront(lines, np.array(filters, np.uint8)), arr)
        if max(filters) <= 2:
            np.testing.assert_array_equal(
                D._unfilter_rows(lines, np.array(filters, np.uint8)), arr)
        write_png(tmp_path / "t.png", arr, filters=filters)
        np.testing.assert_array_equal(D.decode_image(tmp_path / "t.png"), _as_rgb(arr))


@pytest.mark.parametrize("filters", [[0, 5, 1, 2], [3, 5, 4, 0]], ids=["rows", "wavefront"])
def test_unknown_filter_rejected(tmp_path, filters):
    write_png(tmp_path / "f5.png", np.zeros((4, 3, 3), np.uint8), filters=filters)
    with pytest.raises(DecodeError, match="f5.png.*unknown PNG filter 5"):
        D.decode_image(tmp_path / "f5.png")


def _rgb_ihdr(w: int, h: int) -> bytes:
    return struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)


def test_inflate_stops_at_declared_size(tmp_path):
    """A 4x4 header over a stream that inflates to 50 MB fails after
    inflating about the declared 52 bytes."""
    pack = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    stream = b"".join(pack.compress(zeros) for _ in range(50)) + pack.flush()
    assert len(stream) < 64 * 1024
    (tmp_path / "bomb.png").write_bytes(png_file(_rgb_ihdr(4, 4), stream))
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError, match="bomb.png.*longer than its 4x4 header"):
            D.decode_image(tmp_path / "bomb.png")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"decode peaked at {peak} traced bytes"


def test_header_size_beyond_address_space_rejected(tmp_path):
    ihdr = struct.pack(">IIBBBBB", 2 ** 31 - 1, 2 ** 31 - 1, 8, 6, 0, 0, 0)
    (tmp_path / "huge.png").write_bytes(png_file(ihdr, zlib.compress(b"\0" * 64)))
    with pytest.raises(DecodeError, match="huge.png.*too large"):
        D.decode_image(tmp_path / "huge.png")


def test_image_data_longer_than_header_rejected(tmp_path):
    raw = png_scanlines(np.zeros((5, 4, 3), np.uint8))
    (tmp_path / "long.png").write_bytes(png_file(_rgb_ihdr(4, 4), zlib.compress(raw)))
    with pytest.raises(DecodeError, match="long.png.*longer"):
        D.decode_image(tmp_path / "long.png")


@pytest.mark.parametrize("cut", ["short-rows", "cut-stream", "cut-checksum"])
def test_image_data_ending_early_rejected(tmp_path, cut):
    raw = png_scanlines(np.zeros((4, 4, 3), np.uint8))
    stream = {"short-rows": zlib.compress(raw[:-1]),
              "cut-stream": zlib.compress(raw)[:-8],
              "cut-checksum": zlib.compress(raw)[:-2]}[cut]
    (tmp_path / "early.png").write_bytes(png_file(_rgb_ihdr(4, 4), stream))
    with pytest.raises(DecodeError, match="early.png.*ends early"):
        D.decode_image(tmp_path / "early.png")


def test_image_data_split_over_idat_chunks(tmp_path):
    arr = np.random.default_rng(5).integers(0, 256, (6, 5, 3), dtype=np.uint8)
    stream = zlib.compress(png_scanlines(arr, [4, 3, 2, 1, 0, 4]))
    idats = b"".join(png_chunk(b"IDAT", stream[i:i + 7]) for i in range(0, len(stream), 7))
    (tmp_path / "split.png").write_bytes(
        PNG_SIGNATURE + png_chunk(b"IHDR", _rgb_ihdr(5, 6)) + idats
        + png_chunk(b"IEND", b""))
    np.testing.assert_array_equal(D.decode_image(tmp_path / "split.png"), arr)


# Offsets in a write_png file: the 8-byte signature, then IHDR (length,
# type, 13 payload bytes from 16, CRC from 29) and IDAT, whose payload
# starts at 41 and whose CRC ends where the 12-byte IEND chunk begins.
@pytest.mark.parametrize("where,offset", [("IHDR", 19), ("IHDR", 30),
                                          ("IDAT", 43), ("IDAT", -14)],
                         ids=["IHDR-payload", "IHDR-crc", "IDAT-payload", "IDAT-crc"])
def test_crc_mismatch_names_chunk(tmp_path, where, offset):
    write_png(tmp_path / "t.png", np.full((4, 4, 3), 7, np.uint8))
    blob = bytearray((tmp_path / "t.png").read_bytes())
    blob[offset] ^= 0x01
    (tmp_path / "t.png").write_bytes(bytes(blob))
    with pytest.raises(DecodeError, match=f"t.png.*{where}.*CRC"):
        D.decode_image(tmp_path / "t.png")


def test_load_image_keeps_no_copy_of_the_compressed_data(tmp_path):
    """A 1000x1000 RGB PNG of noise, None rows (a 3.0 MB file, 3.0 MB of
    pixels): the file's bytes, the inflated scanlines and the unfiltered
    image are the only full-size buffers. Copying each chunk and then the
    image data into one buffer first peaked at 12.1 MB."""
    pixels = np.random.default_rng(7).integers(0, 256, (1000, 1000, 3), dtype=np.uint8)
    write_png(tmp_path / "big.png", pixels)
    tracemalloc.start()
    try:
        x = D.load_image(tmp_path / "big.png", (128, 128, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (128, 128, 3)
    assert peak < 3.5 * pixels.nbytes, f"load_image peaked at {peak / 1e6:.1f} MB"
