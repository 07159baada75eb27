"""Dataset scanning, image loading, batching, fixtures, and model files.

Dataset layout is folder-per-class under train/ and valid/:

    <root>/train/<ClassName>/*.{jpg,jpeg,png,ppm}
    <root>/valid/<ClassName>/*.{jpg,jpeg,png,ppm}

Class ids are assigned by sorting class names in byte order, so the same
tree gives the same label map on any machine.

PPM (P6) and 8-bit PNG decode natively; JPEG needs pillow (optional extra).
A PPM header is P6, then width, height and maxval in ASCII decimal (no sign
or underscore), each after whitespace and #-to-end-of-line comments, then
one whitespace byte.
A PPM, PNG or JPEG header declaring more than MAX_PIXELS pixels is refused
before any image data is inflated, decoded or copied. The PNG decoder checks
every chunk's CRC-32 and inflates no more than the header's
height * (stride + 1) bytes (plus one, to detect longer data). Rows filtered
only with None, Sub or Up are unfiltered row by row; any Average or Paeth
row sends the image through an anti-diagonal wavefront. load_image reads an
image as a model input of the spec's input_shape: [S, S, 3] is an S x S RGB
resize, and [T, F] is the square RGB resize of T * F / 3 pixels reshaped
row-major. Pixel values are scaled to [0, 1]. The resize reads only the
source samples it interpolates, so it costs what its output costs.

Model files: magic b"LEAF", u32-LE version, u32-LE manifest length, UTF-8
JSON manifest (architecture config, label map, layer/parameter order, gate
order), then raw little-endian float32 parameter blobs in manifest order.
Round trips are bit-exact. A manifest loads only if each field, config
included, equals as JSON what save_model writes (`_manifest`); `_rebuild`
is that one check. A load then checks the declared parameter total against
the file's size before it allocates anything, and reads the parameter bytes
once into one float32 array that every loaded parameter is a view of.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import re
import stat
import struct
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import layers as L
from . import models as M
from .errors import (ConfigError, DatasetError, DecodeError, ModelFormatError,
                     ModelStateError)

IMAGE_EXTENSIONS = {".jpg", ".jpeg", ".png", ".ppm"}
SPLITS = ("train", "valid")

# The largest image decoded, in pixels: 2**25 is about 5792 x 5792, above a
# 24-megapixel camera frame. A header declaring more is a DecodeError, raised
# before any image data is inflated, decoded or copied, so a small file
# cannot ask for a large allocation.
MAX_PIXELS = 2 ** 25

MAGIC = b"LEAF"
FORMAT_VERSION = 1


class DatasetWarning(UserWarning):
    pass


class Record(NamedTuple):
    path: Path
    label: int
    split: str


@dataclass
class DatasetIndex:
    label_map: list[str]            # sorted class names; index is the class id
    records: list[Record]

    def for_split(self, split: str) -> list[Record]:
        return [r for r in self.records if r.split == split]

    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in SPLITS}
        for r in self.records:
            out[r.split] += 1
        return out


def scan_dataset(root: str | Path) -> DatasetIndex:
    """Index every image under <root>/{train,valid}/<class>/."""
    root = Path(root)
    for split in SPLITS:
        if not (root / split).is_dir():
            raise DatasetError(f"missing split directory: {root / split}")
    per_split_classes = {
        split: {d.name for d in (root / split).iterdir() if d.is_dir()}
        for split in SPLITS
    }
    valid_only = per_split_classes["valid"] - per_split_classes["train"]
    if valid_only:
        warnings.warn(
            f"classes only in valid/: {sorted(valid_only)}", DatasetWarning)
    label_map = sorted(per_split_classes["train"] | per_split_classes["valid"])
    ids = {name: i for i, name in enumerate(label_map)}
    records: list[Record] = []
    for split in SPLITS:
        for name in sorted(per_split_classes[split]):
            class_dir = root / split / name
            for f in sorted(class_dir.iterdir()):
                if f.is_file() and f.suffix.lower() in IMAGE_EXTENSIONS:
                    records.append(Record(f, ids[name], split))
    return DatasetIndex(label_map, records)


# ---------------------------------------------------------------------------
# decoding

def _check_size(width: int, height: int, kind: str, path: Path) -> None:
    if width < 1 or height < 1:
        raise DecodeError(f"{path}: {kind} size {width}x{height} has no pixels")
    if width * height > MAX_PIXELS:
        raise DecodeError(f"{path}: {kind} size {width}x{height} is too large to decode "
                          f"(over {MAX_PIXELS} pixels)")


# The PPM header grammar the module docstring states.
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*\n)+([0-9]+)" * 3 + rb"\s")


def _decode_ppm(data: bytes, path: Path) -> np.ndarray:
    """Binary PPM (P6), maxval <= 255; samples are rescaled to 0..255."""
    header = _PPM_HEADER.match(data)
    if header is None:
        raise DecodeError(f"{path}: bad PPM header")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError as exc:   # a number over int()'s 4300-digit limit
        raise DecodeError(f"{path}: bad PPM header") from exc
    if maxval > 255 or maxval < 1:
        raise DecodeError(f"{path}: unsupported PPM maxval {maxval}")
    _check_size(width, height, "PPM", path)
    pos = header.end()
    if len(data) - pos < width * height * 3:
        raise DecodeError(f"{path}: PPM pixel data truncated")
    samples = np.frombuffer(data, dtype=np.uint8, count=width * height * 3,
                            offset=pos).reshape(height, width, 3)
    if maxval == 255:
        return samples
    if samples.max() > maxval:
        raise DecodeError(f"{path}: PPM sample above maxval {maxval}")
    # rescale to 0..255, rounding to nearest
    return ((samples.astype(np.uint16) * 255 + maxval // 2) // maxval).astype(np.uint8)


def _decode_png(data: bytes, path: Path) -> np.ndarray:
    """8-bit non-interlaced PNG, color types gray / RGB / gray+alpha / RGBA."""
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise DecodeError(f"{path}: not a PNG file")
    pos = 8
    width = height = channels = None
    view = memoryview(data)     # chunk slices share the file's bytes
    idat = []
    while pos + 8 <= len(data):
        (length,), ctype = struct.unpack(">I", data[pos:pos + 4]), data[pos + 4:pos + 8]
        if pos + 12 + length > len(data):
            raise DecodeError(f"{path}: PNG chunk {ctype!r} truncated")
        chunk = view[pos + 8:pos + 8 + length]
        crc, = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        if zlib.crc32(chunk, zlib.crc32(ctype)) != crc:
            raise DecodeError(f"{path}: PNG chunk {ctype!r} fails its CRC-32 check")
        pos += 12 + length
        if ctype == b"IHDR":
            if length != 13:
                raise DecodeError(f"{path}: PNG IHDR chunk has {length} bytes, not 13")
            width, height, depth, color, _, _, interlace = struct.unpack(">IIBBBBB", chunk)
            _check_size(width, height, "PNG", path)
            if depth != 8 or interlace != 0:
                raise DecodeError(f"{path}: only 8-bit non-interlaced PNG supported")
            channels = {0: 1, 2: 3, 4: 2, 6: 4}.get(color)
            if channels is None:
                raise DecodeError(f"{path}: unsupported PNG color type {color}")
        elif ctype == b"IDAT":
            idat.append(chunk)
        elif ctype == b"IEND":
            break
    # one IDAT chunk inflates straight from the file's bytes; several are joined once
    idat = idat[0] if len(idat) == 1 else b"".join(idat)
    if width is None or not idat:
        raise DecodeError(f"{path}: PNG missing IHDR or IDAT")
    # Inflate at most the declared size, plus one byte to tell a longer
    # stream apart, so a small file cannot expand into a large allocation.
    size = height * (width * channels + 1)
    inflate = zlib.decompressobj()
    try:
        raw = inflate.decompress(idat, size)
        if not inflate.eof and inflate.decompress(inflate.unconsumed_tail, 1):
            raise DecodeError(f"{path}: PNG image data is longer than its "
                              f"{width}x{height} header declares")
    except zlib.error as exc:
        raise DecodeError(f"{path}: PNG deflate stream corrupt") from exc
    if len(raw) != size or not inflate.eof:
        raise DecodeError(f"{path}: PNG image data ends early")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, size // height)
    filters = rows[:, 0]
    top = filters.max()
    if top > 4:
        raise DecodeError(f"{path}: unknown PNG filter {top}")
    lines = rows[:, 1:].reshape(height, width, channels)
    if top > 2:     # an Average or Paeth row
        img = _unfilter_wavefront(lines, filters)
    else:
        img = _unfilter_rows(lines, filters)
    if channels < 3:    # gray, or gray + alpha
        return np.repeat(img[:, :, :1], 3, axis=2)
    return img[:, :, :3]


def _unfilter_rows(lines: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """Undo PNG filters None (0), Sub (1) and Up (2) row by row on [H, W, C]
    filtered bytes. uint8 arithmetic wraps mod 256, as PNG requires."""
    out = np.empty_like(lines)
    prev = np.zeros_like(lines[0])
    for y, filt in enumerate(filters.tolist()):
        if filt == 0:
            out[y] = lines[y]
        elif filt == 1:
            np.cumsum(lines[y], axis=0, dtype=np.uint8, out=out[y])
        else:
            np.add(lines[y], prev, out=out[y])
        prev = out[y]
    return out


def _unfilter_wavefront(lines: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """Undo any mix of the five PNG filters on [H, W, C] filtered bytes.

    Pixel (y, x) predicts from (y, x-1), (y-1, x) and (y-1, x-1) only, so
    all pixels of one anti-diagonal y + x = d are independent. The bytes are
    copied into a skewed uint8 array, `skew[d + 2, i + 1]`, where i runs
    along the shorter image side; each diagonal is then one contiguous slice
    and reads its neighbours from the two slices before it. The zero rows
    and column in front of the data are the out-of-image neighbours.

    Each diagonal adds to itself, in place and mod 256, the predictor of
    each filter type the image uses. In an image of one type the predictor
    is added as it is; in one that mixes types, each is masked to its own
    rows."""
    height, width, channels = lines.shape
    short, long = min(height, width), max(height, width)
    skew = np.zeros((height + width + 1, short + 1, channels), dtype=np.uint8)
    diag, col = skew.strides[:2]
    steps = (diag + col, diag) if height <= width else (diag, diag + col)
    pixels = np.lib.stride_tricks.as_strided(
        skew[2:, 1:], shape=lines.shape, strides=steps + (skew.strides[2],),
        writeable=True)
    pixels[...] = lines
    is_type = filters == np.arange(5)[:, None]      # [type, y]
    # keep[k, y]: every byte of row y is 0xFF if the row uses type k, else 0
    keep = np.repeat(is_type[:, :, None], channels, axis=2).astype(np.uint8) * 255
    types = set(filters.tolist())
    kinds, mixed = sorted(types - {0}), len(types) > 1
    scratch = np.empty((2, short, channels), dtype=np.uint8)
    wide = np.empty((3, short, channels), dtype=np.int16)
    flags = np.empty((2, short, channels), dtype=bool)
    for d in range(height + width - 1):
        lo, hi = max(0, d - long + 1), min(short - 1, d)
        n = hi - lo + 1
        same, before = skew[d + 1, lo + 1:hi + 2], skew[d + 1, lo:hi + 1]
        if height <= width:     # i is y: same i is the left pixel
            a, b, first = same, before, lo
        else:                   # i is x: same i is the pixel above, and y = d - i
            a, b, first = before, same, d - hi
        c, cur = skew[d, lo:hi + 1], skew[d + 2, lo + 1:hi + 2]
        pred_buf, spare = scratch[:, :n]
        for kind in kinds:
            if kind == 1:
                pred = a
            elif kind == 2:
                pred = b
            elif kind == 3:     # floor((a + b) / 2) = (a & b) + ((a ^ b) >> 1)
                pred = np.bitwise_and(a, b, out=pred_buf)
                np.bitwise_xor(a, b, out=spare)
                np.right_shift(spare, 1, out=spare)
                np.add(pred, spare, out=pred)
            else:
                pred = _paeth(a, b, c, wide[:, :n], flags[:, :n], pred_buf)
            if mixed:
                rows = keep[kind, first:first + n]
                pred = np.bitwise_and(pred, rows if height <= width else rows[::-1],
                                      out=spare)
            np.add(cur, pred, out=cur)
    return pixels.copy()


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray, wide: np.ndarray,
           flags: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The Paeth predictor of uint8 neighbours a (left), b (up) and c
    (up-left), written to `out` through the int16 and bool scratch `wide`
    and `flags`: for p = a + b - c, a if |p - a| is the least distance,
    else b if |p - b| <= |p - c|, else c."""
    pa, pb, pc = wide
    np.subtract(b, c, dtype=np.int16, out=pa)   # p - a
    np.subtract(a, c, dtype=np.int16, out=pb)   # p - b
    np.add(pa, pb, out=pc)                      # p - c
    np.abs(pa, out=pa)
    np.abs(pb, out=pb)
    np.abs(pc, out=pc)
    take_b, take_a = flags
    np.less_equal(pb, pc, out=take_b)
    np.minimum(pb, pc, out=pc)
    np.less_equal(pa, pc, out=take_a)
    np.copyto(out, c)
    np.copyto(out, b, where=take_b)
    np.copyto(out, a, where=take_a)
    return out


def _decode_jpeg(path: Path) -> np.ndarray:
    try:
        from PIL import Image
    except ImportError as exc:
        raise DecodeError(
            f"{path}: JPEG decoding needs pillow (pip install leafnet[jpeg])") from exc
    try:
        with Image.open(path) as im:
            _check_size(*im.size, "JPEG", path)
            return np.asarray(im.convert("RGB"), dtype=np.uint8)
    except DecodeError:
        raise
    except Exception as exc:
        raise DecodeError(f"{path}: {exc}") from exc


def decode_image(path: str | Path) -> np.ndarray:
    """Decode to a uint8 [H, W, 3] array (grayscale replicated, alpha dropped)."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DecodeError(f"{path}: {exc}") from exc
    if data[:2] == b"P6":
        return _decode_ppm(data, path)
    if data[:8] == b"\x89PNG\r\n\x1a\n":
        return _decode_png(data, path)
    if data[:2] == b"\xff\xd8":
        return _decode_jpeg(path)
    raise DecodeError(f"{path}: unrecognized image format")


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resample to float64; identity when sizes
    match. Only the four source samples around each output pixel are read
    and converted, so the cost follows the output size, not the input's."""
    h, w = img.shape[:2]
    if (h, w) == (out_h, out_w):
        return img.astype(np.float64, copy=True)
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0f, x0f = np.floor(ys), np.floor(xs)
    ty, tx = ys - y0f, xs - x0f
    y0 = np.clip(y0f, 0, h - 1).astype(int)[:, None] * w
    y1 = np.clip(y0f + 1, 0, h - 1).astype(int)[:, None] * w
    x0 = np.clip(x0f, 0, w - 1).astype(int)
    x1 = np.clip(x0f + 1, 0, w - 1).astype(int)
    ty = ty[:, None, None]
    tx = tx[None, :, None]
    samples = img.reshape(h * w, -1)   # a view for any decoded image

    def at(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return np.take(samples, rows + cols, axis=0).astype(np.float64)

    top = at(y0, x0) * (1 - tx) + at(y0, x1) * tx
    bottom = at(y1, x0) * (1 - tx) + at(y1, x1) * tx
    return top * (1 - ty) + bottom * ty


def load_image(path: str | Path, shape: Sequence[int]) -> np.ndarray:
    """Decode, resize and scale one image to a model input of `shape`, a
    spec's input_shape: [S, S, 3], or [T, F] read row-major from a square
    RGB image of T * F / 3 pixels. The shape is checked before the file is
    read."""
    shape = tuple(shape)
    values = math.prod(shape) if min(shape, default=0) > 0 else 0
    side = math.isqrt(values // 3)
    if not side or 3 * side * side != values or len(shape) != 2 and shape != (side, side, 3):
        raise ConfigError(f"no square RGB image fills a model input of shape {shape}; "
                          "it must be [S, S, 3], or [T, F] with T * F = 3 * S^2")
    resized = bilinear_resize(decode_image(path), side, side)
    return (resized / 255.0).astype(np.float32).reshape(shape)


# ---------------------------------------------------------------------------
# batching and datasets

class _Dataset:
    """The shared dataset interface over `labels` and `_load(i)`, the input
    of sample i; see leafnet.training."""
    labels: list[int]

    def __len__(self) -> int:
        return len(self.labels)

    def batches(self, batch_size: int, seed: int, epoch: int
                ) -> Iterator[tuple[list[np.ndarray], list[int]]]:
        """Shuffled (inputs, labels) batches; the final short batch is
        included. (seed, epoch) seeds the shuffle as a pair, so no other
        pair repeats it."""
        if not self.labels:
            raise ConfigError("cannot batch an empty dataset")
        if batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {batch_size}")
        order = np.random.default_rng([seed, epoch]).permutation(len(self.labels))
        for start in range(0, len(order), batch_size):
            idx = order[start:start + batch_size]
            yield [self._load(i) for i in idx], [self.labels[i] for i in idx]

    def samples(self) -> Iterator[tuple[np.ndarray, int]]:
        """(input, label) pairs in the dataset's fixed order."""
        for i, label in enumerate(self.labels):
            yield self._load(i), label


class MemoryDataset(_Dataset):
    """In-memory (input, label) pairs."""

    def __init__(self, inputs: Sequence[np.ndarray], labels: Sequence[int],
                 class_names: list[str]):
        if len(inputs) != len(labels):
            raise ConfigError("inputs and labels differ in length")
        self.inputs = list(inputs)
        self.labels = [int(y) for y in labels]
        self.class_names = class_names

    def _load(self, i: int) -> np.ndarray:
        return self.inputs[i]


class DiskDataset(_Dataset):
    """Lazy folder-per-class dataset over one split of a DatasetIndex."""

    def __init__(self, index: DatasetIndex, split: str,
                 loader: Callable[[Path], np.ndarray]):
        self.loader = loader
        self._records = index.for_split(split)
        self.labels = [r.label for r in self._records]

    def _load(self, i: int) -> np.ndarray:
        return self.loader(self._records[i].path)


def _base_colors(k: int) -> np.ndarray:
    """K well-separated RGB anchors (hue wheel at fixed saturation/value)."""
    colors = np.zeros((k, 3))
    for i in range(k):
        hue = (i / k) * 6.0
        sector, frac = int(hue) % 6, hue - int(hue)
        v, p, q, t = 0.9, 0.15, 0.9 - 0.75 * frac, 0.15 + 0.75 * frac
        colors[i] = [(v, t, p), (q, v, p), (p, v, t),
                     (p, q, v), (t, p, v), (v, p, q)][sector]
    return colors


def synth_dataset(classes: int, per_class: int, seed: int, *,
                  size: int = 32) -> MemoryDataset:
    """Class-separable fixture: class k is a base color plus sigma=0.05 noise."""
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    rng = np.random.default_rng(seed)
    colors = _base_colors(classes)
    width = len(str(classes - 1))
    names = [f"class_{i:0{width}d}" for i in range(classes)]
    inputs, labels = [], []
    for k in range(classes):
        for _ in range(per_class):
            img = colors[k] + rng.normal(0.0, 0.05, size=(size, size, 3))
            inputs.append(np.clip(img, 0.0, 1.0).astype(np.float32))
            labels.append(k)
    return MemoryDataset(inputs, labels, names)


# ---------------------------------------------------------------------------
# model files

def _manifest(spec: M.ModelSpec, label_map: Sequence[str]) -> dict:
    """The manifest save_model writes for a model of `spec`; load_model
    accepts only a manifest equal to it."""
    return {
        "format": "leaf",
        "version": FORMAT_VERSION,
        "arch": spec.arch,
        "config": dataclasses.asdict(spec.config),
        "label_map": list(label_map),
        "gate_order": L.GATE_ORDER,
        "layers": [
            {"name": layer.name,
             "params": [{"name": key, "shape": list(shape)}
                        for key, shape in M.param_shapes(layer).items()]}
            for layer in spec.layers
        ],
    }


def write_atomic(path: str | Path, blocks: Iterable) -> None:
    """Write the bytes-like `blocks`, in order, as the file at `path`,
    atomically: a failed write leaves no partial file behind, and the old
    file, if any, in place.

    The blocks go to a temporary file beside `path`. An existing file is
    renamed aside before the new one takes its name, and removed after:
    renaming over it would make ext4 (its auto_da_alloc heuristic) write the
    whole new file to disk inside the rename, so the write's time would
    follow the disk's queue. Nothing here forces the data to disk (no
    fsync): a written file is lost only if the machine fails before the
    kernel writes it out."""
    path = Path(path)
    tmp, old = path.with_name(path.name + ".tmp"), path.with_name(path.name + ".old")
    moved = False
    try:
        with open(tmp, "wb") as f:
            for block in blocks:
                f.write(block)
        if path.is_file():
            os.replace(path, old)
            moved = True
        os.replace(tmp, path)
    except BaseException:
        if moved:
            os.replace(old, path)
        tmp.unlink(missing_ok=True)
        raise
    if moved:
        old.unlink()


def save_model(model: M.SequentialModel, path: str | Path) -> None:
    """Write a model file with write_atomic. Parameters stream from their
    own buffers into the file, so a save allocates no file-sized blob and
    its time does not depend on what the allocator holds. A model whose
    parameters are not the ones its spec declares, in name, order or shape,
    raises ModelStateError before anything is written."""
    shapes = [list(M.param_shapes(layer).items()) for layer in model.spec.layers]
    if [[(key, p.shape) for key, p in layer.items()] for layer in model.params] != shapes:
        raise ModelStateError("model parameters differ from the parameters its spec declares")
    manifest = json.dumps(_manifest(model.spec, model.label_map)).encode("utf-8")
    head = MAGIC + struct.pack("<II", FORMAT_VERSION, len(manifest)) + manifest
    params = (np.ascontiguousarray(p, dtype="<f4").data
              for layer in model.params for p in layer.values())
    write_atomic(path, itertools.chain([head], params))


def _config_value(default, value):
    """The manifest value typed like the dataclass default, or None."""
    if isinstance(default, tuple):
        ok = isinstance(value, list) and all(type(v) is int for v in value)
        return tuple(value) if ok else None
    number = (int, float) if isinstance(default, float) else (int,)
    return value if type(value) in number else None


def _rebuild(text: bytes, where: str) -> tuple[M.ModelSpec, list[str]]:
    """The spec and label map of a manifest, whose every field, config
    included, must be what save_model writes for them (compared as JSON, so
    1.0 is not 1 and true is not 1). Draws no parameters, since load_model
    fills them all from the file."""
    try:
        manifest = json.loads(text.decode("utf-8"))
    except ValueError as exc:   # bad UTF-8 or JSON, or an int over 4300 digits
        raise ModelFormatError(f"{where} unreadable: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ModelFormatError(f"{where} is not a JSON object")
    arch, config, label_map = (manifest.get(key) for key in ("arch", "config", "label_map"))
    if not isinstance(arch, str) or arch not in M.ARCHS:
        raise ModelFormatError(f"{where}: unknown architecture {arch!r}")
    if not isinstance(config, dict):
        raise ModelFormatError(f"{where}: config is not a JSON object")
    if not isinstance(label_map, list) or not all(isinstance(n, str) for n in label_map):
        raise ModelFormatError(f"{where}: label_map is not a list of strings")
    cls, spec_of, _ = M.ARCHS[arch]
    # a config key missing or extra fails the comparison below
    values = {f.name: _config_value(f.default, config[f.name])
              for f in dataclasses.fields(cls) if f.name in config}
    for key, value in values.items():
        if value is None:
            raise ModelFormatError(f"{where}: config {key}={config[key]!r} has the wrong type")
    try:
        spec = spec_of(cls(**values))
    except ConfigError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc
    if label_map and len(label_map) != spec.classes:
        raise ModelFormatError(f"{where}: label_map has {len(label_map)} names "
                               f"for {spec.classes} classes")
    declared, expected = ({key: json.dumps(value, sort_keys=True) for key, value in m.items()}
                          for m in (manifest, _manifest(spec, label_map)))
    differ = sorted(key for key in declared.keys() | expected.keys()
                    if declared.get(key) != expected.get(key))
    if differ:
        raise ModelFormatError(f"{where}: {', '.join(differ)} not as save_model writes "
                               f"them for this {arch} config")
    return spec, label_map


def load_model(path: str | Path) -> M.SequentialModel:
    """Read a model file written by save_model, refusing any file that does
    not match its manifest with ModelFormatError.

    The header and manifest are read and checked first. The parameter total
    the manifest declares is then checked against the file's size, with
    exact integers, before anything is allocated. The parameter bytes are
    read once, straight into one float32 array, and each parameter is a
    reshaped, writable view of that array."""
    path = Path(path)
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise ModelFormatError(f"{path}: not a regular file")
        size = st.st_size
        head = f.read(12)
        if head[:4] != MAGIC:
            raise ModelFormatError(f"{path}: bad magic at offset 0")
        if len(head) < 12:
            raise ModelFormatError(f"{path}: truncated header at offset {len(head)}")
        version, mlen = struct.unpack("<II", head[4:])
        if version != FORMAT_VERSION:
            raise ModelFormatError(f"{path}: unsupported version {version}")
        if 12 + mlen > size:
            raise ModelFormatError(f"{path}: manifest truncated at offset {size}")
        try:
            spec, label_map = _rebuild(f.read(mlen), f"{path}: manifest")
        except RecursionError as exc:
            raise ModelFormatError(f"{path}: manifest nested too deeply to read") from exc
        shapes = [M.param_shapes(layer) for layer in spec.layers]
        total = sum(math.prod(shape) for layer_shapes in shapes
                    for shape in layer_shapes.values())
        end = 12 + mlen + 4 * total
        if end > size:
            raise ModelFormatError(f"{path}: parameter blob truncated at offset {size}; "
                                   f"the manifest declares {end} bytes")
        if end < size:
            raise ModelFormatError(f"{path}: {size - end} trailing bytes at offset {end}")
        flat = np.empty(total, dtype="<f4")
        if f.readinto(flat.data) != flat.nbytes or f.read(1):
            raise ModelFormatError(f"{path}: file changed size while it was read")
    flat = flat.astype(np.float32, copy=False)  # a copy only on big-endian hosts
    params: list[dict[str, np.ndarray]] = []
    offset = 0
    for layer_shapes in shapes:
        layer_params = {}
        for key, shape in layer_shapes.items():
            count = math.prod(shape)
            layer_params[key] = flat[offset:offset + count].reshape(shape)
            offset += count
        params.append(layer_params)
    return M.SequentialModel(spec, params, list(label_map))

