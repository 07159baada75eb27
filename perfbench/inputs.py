"""Seeded inputs for the benchmark workloads.

Everything here is derived from the workload seed alone, and none of it uses
leafnet: the PNG encoder and the PPM writer are independent of the decoders
they feed, so a decoder bug cannot hide behind a matching encoder bug.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

CLASSES = 38
PNG_FILTERS = (0, 1, 2, 3, 4)  # None, Sub, Up, Average, Paeth
PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
IDAT_CHUNK = 1 << 16  # split the zlib stream so decoders must join IDAT chunks


def class_names() -> list[str]:
    """Byte-order sorted, so the label map equals this list."""
    return [f"class_{k:02d}" for k in range(CLASSES)]


def _anchor_colors() -> np.ndarray:
    """One well-separated RGB anchor in [0, 1] per class (hue wheel)."""
    hue = np.arange(CLASSES) / CLASSES * 6.0
    sector = hue.astype(int) % 6
    frac = hue - np.floor(hue)
    v, p = np.full(CLASSES, 0.85), np.full(CLASSES, 0.2)
    q, t = 0.85 - 0.65 * frac, 0.2 + 0.65 * frac
    table = np.stack([
        np.stack([v, t, p], 1), np.stack([q, v, p], 1), np.stack([p, v, t], 1),
        np.stack([p, q, v], 1), np.stack([t, p, v], 1), np.stack([v, p, q], 1)])
    return table[sector, np.arange(CLASSES)]


def leaf_pixels(rng: np.random.Generator, label: int, size: int) -> np.ndarray:
    """A uint8 [size, size, 3] image: the class anchor, a smooth random
    shading field and pixel noise, so PNG filters and zlib see realistic
    rather than constant or white-noise rows."""
    yy, xx = np.mgrid[0:size, 0:size] / size
    fy, fx, phase = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), rng.uniform(0, 2 * np.pi)
    shade = 0.15 * np.sin(2 * np.pi * (fy * yy + fx * xx) + phase)
    img = _anchor_colors()[label] + shade[:, :, None]
    img = img + rng.normal(0.0, 0.03, size=(size, size, 3))
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def labels_covering_all_classes(rng: np.random.Generator, n: int) -> list[int]:
    """n labels (n >= CLASSES) that use every class at least once, shuffled."""
    labels = np.concatenate([np.arange(CLASSES), rng.integers(0, CLASSES, n - CLASSES)])
    return [int(y) for y in rng.permutation(labels)]


# ---------------------------------------------------------------------------
# in-memory training tensors

def train_tensors(seed: int, n_train: int, n_valid: int):
    """(train_x, train_y, valid_x, valid_y): float32 [128, 128, 3] stock CNN
    inputs in [0, 1]. The train labels cover all 38 classes."""
    rng = np.random.default_rng([seed, 0x7A41])
    labels = labels_covering_all_classes(rng, n_train)
    labels += [int(y) for y in rng.integers(0, CLASSES, n_valid)]
    xs = []
    for y in labels:
        xs.append(leaf_pixels(rng, y, 128).astype(np.float32) / np.float32(255.0))
    return xs[:n_train], labels[:n_train], xs[n_train:], labels[n_train:]


# ---------------------------------------------------------------------------
# image files

def encode_ppm(pixels: np.ndarray) -> bytes:
    h, w, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(pixels).tobytes()


def _chunk(ctype: bytes, body: bytes) -> bytes:
    return (struct.pack(">I", len(body)) + ctype + body
            + struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF))


def _filter_rows(raw: np.ndarray, filt: int, bpp: int) -> np.ndarray:
    """Apply one PNG filter type to every scanline of raw [H, stride] bytes.
    Filters predict from unfiltered neighbours, so all rows filter at once."""
    raw = raw.astype(np.int16)
    left = np.zeros_like(raw)
    left[:, bpp:] = raw[:, :-bpp]
    up = np.zeros_like(raw)
    up[1:] = raw[:-1]
    up_left = np.zeros_like(raw)
    up_left[1:, bpp:] = raw[:-1, :-bpp]
    if filt == 0:
        pred = np.zeros_like(raw)
    elif filt == 1:
        pred = left
    elif filt == 2:
        pred = up
    elif filt == 3:
        pred = (left + up) // 2
    elif filt == 4:
        p = left + up - up_left
        pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - up_left)
        pred = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, up_left))
    else:
        raise ValueError(f"PNG filter type {filt} does not exist")
    return ((raw - pred) & 0xFF).astype(np.uint8)


def encode_png(pixels: np.ndarray, filt: int) -> bytes:
    """8-bit RGB, non-interlaced PNG with every scanline using filter `filt`."""
    h, w, _ = pixels.shape
    rows = _filter_rows(pixels.reshape(h, w * 3), filt, bpp=3)
    scanlines = np.concatenate([np.full((h, 1), filt, dtype=np.uint8), rows], axis=1)
    stream = zlib.compress(scanlines.tobytes(), 6)
    out = [PNG_SIGNATURE, _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))]
    out += [_chunk(b"IDAT", stream[i:i + IDAT_CHUNK])
            for i in range(0, len(stream), IDAT_CHUNK)]
    out.append(_chunk(b"IEND", b""))
    return b"".join(out)


def write_image(path_stem: Path, pixels: np.ndarray, fmt: str) -> Path:
    """Write `pixels` as `fmt` ("png-f<k>" or "ppm"); returns the file path."""
    if fmt == "ppm":
        path = path_stem.with_suffix(".ppm")
        path.write_bytes(encode_ppm(pixels))
    else:
        path = path_stem.with_suffix(".png")
        path.write_bytes(encode_png(pixels, int(fmt[-1])))
    return path


def split_formats(rng: np.random.Generator, n: int, n_ppm: int) -> list[str]:
    """n formats: n - n_ppm PNGs spread equally over the five filter types,
    then n_ppm PPMs, in seeded order."""
    n_png = n - n_ppm
    if n_png % len(PNG_FILTERS):
        raise ValueError(f"{n_png} PNGs do not split equally over {len(PNG_FILTERS)} filters")
    fmts = [f"png-f{f}" for f in PNG_FILTERS] * (n_png // len(PNG_FILTERS)) + ["ppm"] * n_ppm
    return [fmts[i] for i in rng.permutation(n)]


def write_tree(root: Path, seed: int, size: int = 256, n_ppm: int = 8):
    """Folder-per-class tree with one image per class in both train/ and
    valid/ (the dataset's native 256x256 RGB). Returns {path: (pixels,
    format, label)} for every file written, for bit-exact decode checks."""
    rng = np.random.default_rng([seed, 0x7EE])
    names = class_names()
    files = {}
    for split in ("train", "valid"):
        fmts = split_formats(rng, CLASSES, n_ppm)
        for label, name in enumerate(names):
            class_dir = root / split / name
            class_dir.mkdir(parents=True, exist_ok=True)
            pixels = leaf_pixels(rng, label, size)
            path = write_image(class_dir / f"{split}_{label:02d}", pixels, fmts[label])
            files[path] = (pixels, fmts[label], label)
    return files
