"""Shared test utilities: gradient checking, image writers, fixture trees."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import struct
import sys
import types
import zlib
from pathlib import Path

import numpy as np

from leafnet import models as M


def fd_grads(loss_fn, params: dict, eps: float = 1e-5) -> dict:
    """Central finite differences of a scalar loss over every array entry."""
    out = {}
    for key, p in params.items():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = p[ix]
            p[ix] = orig + eps
            lp = loss_fn()
            p[ix] = orig - eps
            lm = loss_fn()
            p[ix] = orig
            g[ix] = (lp - lm) / (2 * eps)
        out[key] = g
    return out


def assert_grads_close(analytic: dict, numeric: dict,
                       rel: float = 1e-3, abs_floor: float = 1e-6) -> None:
    for key in numeric:
        a, n = analytic[key], numeric[key]
        tol = abs_floor + rel * np.maximum(np.abs(a), np.abs(n))
        bad = np.abs(a - n) > tol
        assert not bad.any(), (
            f"{key}: {bad.sum()} of {a.size} gradient entries off; "
            f"worst diff {np.abs(a - n).max():.3e}")


def model_to_f64(model) -> None:
    for params in model.params:
        for key in params:
            params[key] = params[key].astype(np.float64)


def flat_params(model) -> dict:
    return {(li, key): p for li, ps in enumerate(model.params) for key, p in ps.items()}


def specials(a: np.ndarray) -> np.ndarray:
    """a with +0, -0, NaN, +inf and -inf spread over it, in place."""
    flat = a.reshape(-1)
    for k, v in enumerate([0.0, -0.0, np.nan, np.inf, -np.inf]):
        flat[k::7] = v
    return a


def conv_reference(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, up: np.ndarray,
                   padding: str):
    """Direct 3x3 stride-1 convolution of one [H, W, C] sample by nested loops:
    (output, kernel gradient, input gradient) for upstream gradient `up`."""
    h, w, _ = x.shape
    kh, kw = kernels.shape[:2]
    pad = (kh - 1) // 2 if padding == "same" else 0
    xp = np.zeros((h + 2 * pad, w + 2 * pad, x.shape[2]))
    xp[pad:pad + h, pad:pad + w] = x
    oh, ow = xp.shape[0] - kh + 1, xp.shape[1] - kw + 1
    out = np.tile(bias, (oh, ow, 1)).astype(np.float64)
    d_kernels = np.zeros(kernels.shape)
    d_xp = np.zeros_like(xp)
    for y in range(oh):
        for xx in range(ow):
            for i in range(kh):
                for j in range(kw):
                    pixel = xp[y + i, xx + j]
                    out[y, xx] += pixel @ kernels[i, j]
                    d_kernels[i, j] += np.outer(pixel, up[y, xx])
                    d_xp[y + i, xx + j] += kernels[i, j] @ up[y, xx]
    return out, d_kernels, d_xp[pad:pad + h, pad:pad + w]


def reference_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resample of the whole image converted to
    float64; the reference data.bilinear_resize must match byte for byte."""
    h, w = img.shape[:2]
    if (h, w) == (out_h, out_w):
        return img.astype(np.float64, copy=True)
    src = img.astype(np.float64)
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0f, x0f = np.floor(ys), np.floor(xs)
    ty, tx = ys - y0f, xs - x0f
    y0 = np.clip(y0f, 0, h - 1).astype(int)
    y1 = np.clip(y0f + 1, 0, h - 1).astype(int)
    x0 = np.clip(x0f, 0, w - 1).astype(int)
    x1 = np.clip(x0f + 1, 0, w - 1).astype(int)
    ty = ty[:, None, None]
    tx = tx[None, :, None]
    top = src[y0][:, x0] * (1 - tx) + src[y0][:, x1] * tx
    bottom = src[y1][:, x0] * (1 - tx) + src[y1][:, x1] * tx
    return top * (1 - ty) + bottom * ty


def write_ppm(path: Path, arr: np.ndarray) -> None:
    h, w, _ = arr.shape
    path.write_bytes(b"P6\n%d %d\n255\n" % (w, h) + arr.astype(np.uint8).tobytes())


def write_jpeg_stub(path: Path) -> Path:
    """A file that decode_image routes to the JPEG decoder (its first two
    bytes are the JPEG start-of-image marker); only a stand-in pillow reads
    the rest."""
    path.write_bytes(b"\xff\xd8\xff\xe0" + bytes(16))
    return path


def stand_in_pillow(monkeypatch, size: tuple[int, int], pixels=None, fail: str | None = None):
    """Install a stand-in `PIL` package for the test. `Image.open` gives an
    image declaring `size` (width, height) whose convert() returns `pixels`;
    `fail` ("open" or "convert") names the step that raises OSError instead.
    Returns the list of modes convert() was called with."""
    converted = []

    def convert(mode):
        converted.append(mode)
        if fail == "convert":
            raise OSError("image file is truncated")
        return pixels

    def open_image(path):
        if fail == "open":
            raise OSError("cannot identify image file")
        return contextlib.nullcontext(types.SimpleNamespace(size=size, convert=convert))

    pil = types.ModuleType("PIL")
    pil.Image = types.SimpleNamespace(open=open_image)
    monkeypatch.setitem(sys.modules, "PIL", pil)
    return converted


PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def png_chunk(ctype: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + ctype + payload
            + struct.pack(">I", zlib.crc32(ctype + payload)))


def png_file(ihdr: bytes, idat: bytes) -> bytes:
    """PNG bytes with one IHDR, one IDAT and an IEND chunk, CRCs correct."""
    return (PNG_SIGNATURE + png_chunk(b"IHDR", ihdr) + png_chunk(b"IDAT", idat)
            + png_chunk(b"IEND", b""))


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def _filter_rows(raw: np.ndarray, filters, bpp: int) -> np.ndarray:
    """PNG-filter each scanline of raw [H, stride] bytes with its own type
    from `filters`. Filters predict from unfiltered neighbours, so all rows
    filter at once. A type above 4 keeps its row's bytes as they are."""
    raw = raw.astype(np.int16)
    left = np.zeros_like(raw)
    left[:, bpp:] = raw[:, :-bpp]
    up = np.zeros_like(raw)
    up[1:] = raw[:-1]
    up_left = np.zeros_like(raw)
    up_left[1:, bpp:] = raw[:-1, :-bpp]
    p = left + up - up_left
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - up_left)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, up_left))
    preds = np.stack([np.zeros_like(raw), left, up, (left + up) // 2, paeth,
                      np.zeros_like(raw)])
    rows = np.minimum(np.asarray(filters, dtype=np.intp), 5)[:, None]
    pred = preds[rows, np.arange(raw.shape[0])[:, None], np.arange(raw.shape[1])]
    return ((raw - pred) & 0xFF).astype(np.uint8)


def reference_unfilter(raw: bytes, height: int, width: int, channels: int) -> np.ndarray:
    """Per-byte PNG unfilter of inflated scanlines, as the PNG specification
    states it; the reference the vectorised decoder must match byte for byte."""
    stride = width * channels
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int64)
    for y in range(height):
        offset = y * (stride + 1)
        filt = raw[offset]
        line = np.frombuffer(raw, dtype=np.uint8,
                             count=stride, offset=offset + 1).astype(np.int64)
        if filt == 0:
            cur = line
        elif filt == 2:
            cur = (line + prev) & 0xFF
        elif filt in (1, 3, 4):
            cur = np.zeros(stride, dtype=np.int64)
            for x in range(stride):
                left = cur[x - channels] if x >= channels else 0
                up = prev[x]
                ul = prev[x - channels] if x >= channels else 0
                if filt == 1:
                    pred = left
                elif filt == 3:
                    pred = (left + up) // 2
                else:
                    pred = _paeth(left, up, ul)
                cur[x] = (line[x] + pred) & 0xFF
        else:
            raise ValueError(f"unknown PNG filter {filt}")
        out[y] = cur
        prev = cur
    return out.reshape(height, width, channels)


def png_scanlines(arr: np.ndarray, filters=None) -> bytes:
    """The inflated PNG image data of `arr` ([H, W, C] uint8): each row is
    its filter type byte, then the row filtered by that type (`filters`,
    one type per row; all 0 when None)."""
    h, w, c = arr.shape
    filters = [0] * h if filters is None else list(filters)
    rows = _filter_rows(arr.reshape(h, w * c), filters, bpp=c)
    return np.concatenate([np.array(filters, np.uint8)[:, None], rows], axis=1).tobytes()


def write_png(path: Path, arr: np.ndarray, ihdr: bytes | None = None,
              filters=None) -> None:
    """Minimal 8-bit PNG writer for decode tests. `filters` gives each row's
    filter type (0 None, 1 Sub, 2 Up, 3 Average, 4 Paeth; a type above 4 is
    written over unfiltered bytes, to test its rejection); None writes type 0
    rows. `ihdr` replaces the IHDR payload (to write malformed headers)."""
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, c = arr.shape
    if ihdr is None:
        ihdr = struct.pack(">IIBBBBB", w, h, 8, {1: 0, 2: 4, 3: 2, 4: 6}[c], 0, 0, 0)
    path.write_bytes(png_file(ihdr, zlib.compress(png_scanlines(arr, filters))))


# An 8-byte IHDR payload: width and height only, the rest of the header cut.
SHORT_IHDR = struct.pack(">II", 4, 4)


def make_dataset_tree(root: Path, class_colors: dict, n_train: int = 3,
                      n_valid: int = 1, size: int = 16, seed: int = 0) -> Path:
    """Folder-per-class PPM tree with near-constant color classes."""
    rng = np.random.default_rng(seed)
    for split, n in (("train", n_train), ("valid", n_valid)):
        for name, color in class_colors.items():
            d = root / split / name
            d.mkdir(parents=True, exist_ok=True)
            for i in range(n):
                img = np.clip(np.array(color) + rng.normal(0, 10, (size, size, 3)),
                              0, 255).astype(np.uint8)
                write_ppm(d / f"img_{i}.ppm", img)
    return root


def _without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


def _configured(m: dict, **changes) -> dict:
    """The manifest with `changes` made to its config alone."""
    return {**m, "config": {**m["config"], **changes}}


def declaring(arch: str, **changes):
    """Manifest mutator: declare `arch` with `changes` applied to a config
    (the file's own if it has that arch, else the defaults with its class
    count), and the layers and parameter shapes a saver would write for it.
    The parameter bytes stay those of the original file."""
    config_cls, spec_of, _ = M.ARCHS[arch]

    def mutate(m: dict) -> dict:
        own = m["config"] if m["arch"] == arch else {"classes": m["config"]["classes"]}
        config = {key: tuple(v) if isinstance(v, list) else v
                  for key, v in {**own, **changes}.items()}
        spec = spec_of(config_cls(**config))
        return {**m, "arch": arch, "config": dataclasses.asdict(spec.config),
                "layers": [{"name": layer.name,
                            "params": [{"name": key, "shape": list(shape)}
                                       for key, shape in M.param_shapes(layer).items()]}
                           for layer in spec.layers]}
    return mutate


# Malformed manifests load_model must reject with ModelFormatError:
# case name -> manifest dict -> rewritten manifest (any JSON value).
# The two oversized cases declare consistent shapes whose element counts
# overflow int64 (2**62 dense units; an LSTM with 4 * 2**62 gate columns).
MALFORMED_MANIFESTS = {
    "missing-arch": lambda m: _without(m, "arch"),
    "unknown-config-key": lambda m: {**m, "config": {**m["config"], "bogus": 1}},
    "non-object": lambda m: [m],
    "layer-without-name": lambda m: {
        **m, "layers": [_without(m["layers"][0], "name")] + m["layers"][1:]},
    "layer-without-params": lambda m: {
        **m, "layers": [_without(m["layers"][0], "params")] + m["layers"][1:]},
    "label-map-length": lambda m: {**m, "label_map": m["label_map"][:-1]},
    "other-gate-order": lambda m: {**m, "gate_order": "fiog"},
    "missing-gate-order": lambda m: _without(m, "gate_order"),
    "missing-format": lambda m: _without(m, "format"),
    "manifest-version-2": lambda m: {**m, "version": 2},
    "layer-extra-key": lambda m: {
        **m, "layers": [{**m["layers"][0], "extra": 1}] + m["layers"][1:]},
    "dense-units-2**62": declaring("cnn", dense_units=2 ** 62),
    "lstm-hidden-2**62": declaring("lstm", hidden=2 ** 62),
    # declaring cannot build these: the spec builder refuses the rates
    "conv-dropout-5": lambda m: _configured(m, conv_dropout=5.0),
    "dense-dropout-nan": lambda m: _configured(m, dense_dropout=float("nan")),
    # one case per check data._rebuild makes: the types, keys and fields it reads
    "config-without-channels": lambda m: {**m, "config": _without(m["config"], "channels")},
    "input-size-128.0": lambda m: _configured(m, input_size=128.0),
    "dense-units-true": lambda m: _configured(m, dense_units=True),
    "filters-strings": lambda m: _configured(m, filters=["32"]),
    "label-map-entry-7": lambda m: {**m, "label_map": [7] + m["label_map"][1:]},
    "label-map-string": lambda m: {**m, "label_map": "abc"},
    "label-map-surrogate": lambda m: {**m, "label_map": ["\ud800"] + m["label_map"][1:]},
    "arch-list": lambda m: {**m, "arch": ["cnn"]},
    "config-list": lambda m: {**m, "config": []},
}


def rewrite_manifest(src: Path, dst: Path, mutate) -> None:
    """Copy a model file with its JSON manifest replaced by mutate(manifest);
    the parameter bytes are kept as they are."""
    blob = src.read_bytes()
    mlen, = struct.unpack("<I", blob[8:12])
    manifest = json.dumps(mutate(json.loads(blob[12:12 + mlen]))).encode("utf-8")
    dst.write_bytes(blob[:8] + struct.pack("<I", len(manifest)) + manifest
                    + blob[12 + mlen:])
