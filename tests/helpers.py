"""Shared test utilities: gradient checking, image writers, fixture trees."""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np


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


def write_ppm(path: Path, arr: np.ndarray) -> None:
    h, w, _ = arr.shape
    path.write_bytes(b"P6\n%d %d\n255\n" % (w, h) + arr.astype(np.uint8).tobytes())


def _png_chunk(ctype: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + ctype + payload
            + struct.pack(">I", zlib.crc32(ctype + payload)))


def write_png(path: Path, arr: np.ndarray, ihdr: bytes | None = None) -> None:
    """Minimal PNG writer (8-bit, filter 0 rows) for decode tests; `ihdr`
    replaces the IHDR payload (to write malformed headers)."""
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, c = arr.shape
    color = {1: 0, 2: 4, 3: 2, 4: 6}[c]
    raw = b"".join(b"\x00" + arr[y].tobytes() for y in range(h))
    if ihdr is None:
        ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", ihdr)
                     + _png_chunk(b"IDAT", zlib.compress(raw)) + _png_chunk(b"IEND", b""))


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


# Malformed manifests load_model must reject with ModelFormatError:
# case name -> manifest dict -> rewritten manifest (any JSON value).
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
}


def rewrite_manifest(src: Path, dst: Path, mutate) -> None:
    """Copy a model file with its JSON manifest replaced by mutate(manifest);
    the parameter bytes are kept as they are."""
    blob = src.read_bytes()
    mlen, = struct.unpack("<I", blob[8:12])
    manifest = json.dumps(mutate(json.loads(blob[12:12 + mlen]))).encode("utf-8")
    dst.write_bytes(blob[:8] + struct.pack("<I", len(manifest)) + manifest
                    + blob[12 + mlen:])
