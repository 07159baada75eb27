"""Seeded fuzzing of the parsers at the trust boundary: decode_image and
load_model end every malformed input in a LeafnetError, and `leafnet
predict` turns one into exit code 2. Seeded dataset trees of odd names and
odd files end every `leafnet train`, `eval` and `predict` in exit 0 or 2."""

import copy
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from helpers import write_png, write_ppm
from leafnet import data as D
from leafnet import models as M
from leafnet.cli import main
from leafnet.errors import DecodeError, LeafnetError


def _truncations(blob: bytes, end: int):
    for n in range(end):
        yield f"cut at {n}", blob[:n]


def _bit_flips(blob: bytes, start: int, end: int):
    for i in range(start, end):
        for bit in range(8):
            mutated = bytearray(blob)
            mutated[i] ^= 1 << bit
            yield f"bit {bit} of byte {i} flipped", bytes(mutated)


def _seeded_flips(blob: bytes, start: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        i, bit = int(rng.integers(start, len(blob))), int(rng.integers(8))
        mutated = bytearray(blob)
        mutated[i] ^= 1 << bit
        yield f"bit {bit} of byte {i} flipped", bytes(mutated)


def _accepted(path, cases, read) -> int:
    """Write each case's bytes to `path` and read it back with `read`; count
    the cases read without error. Any error but a LeafnetError fails."""
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC)
    accepted = size = 0
    try:
        for label, blob in cases:
            os.pwrite(fd, blob, 0)
            if len(blob) != size:   # most cases keep the size; truncating is slow
                os.ftruncate(fd, size := len(blob))
            try:
                read(path)
                accepted += 1
            except LeafnetError:
                pass
            except Exception as exc:
                raise AssertionError(f"{label}: untyped {exc!r}") from exc
    finally:
        os.close(fd)
    return accepted


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small mixed-filter PNG, a small PPM and a reduced-CNN model file."""
    root = tmp_path_factory.mktemp("fuzz")
    pixels = np.random.default_rng(11).integers(0, 256, (5, 4, 3), dtype=np.uint8)
    write_png(root / "image.png", pixels, filters=[0, 1, 2, 3, 4])
    write_ppm(root / "image.ppm", pixels)
    model = M.build_cnn(M.CnnConfig(input_size=8, filters=(2,), dense_units=4, classes=2))
    model.label_map = ["a", "b"]
    D.save_model(model, root / "model.leaf")
    return {kind: root / f"image.{kind}" for kind in ("png", "ppm")} | {
        "model": root / "model.leaf"}


@pytest.mark.parametrize("kind", ["png", "ppm"])
def test_image_truncations_and_bit_flips(files, tmp_path, kind):
    blob = files[kind].read_bytes()
    cases = [*_truncations(blob, len(blob)), *_bit_flips(blob, 0, len(blob))]
    accepted = _accepted(tmp_path / f"case.{kind}", cases, D.decode_image)
    assert accepted < len(cases)
    assert _accepted(tmp_path / f"case.{kind}", [("intact", blob)], D.decode_image) == 1


_SPACES = [b" ", b"\t", b"\n", b"\v", b"\f", b"\r"]
_JUNK = [b"+", b"-", b"_", b"x", b"\xd9\xa5", b"\0"]


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _comment(rng, newline: bool = True) -> bytes:
    text = bytes(int(b) for b in rng.integers(0, 256, int(rng.integers(0, 6))) if b != 0x0A)
    return b"#" + text + (b"\n" if newline else b"")


def _separator(rng) -> bytes:
    """What may come before a header number: whitespace bytes and comments,
    at least one of them."""
    return b"".join(_comment(rng) if rng.random() < 0.3 else _pick(rng, _SPACES)
                    for _ in range(int(rng.integers(1, 4))))


def _gap(rng) -> bytes:
    """Zero to two pieces, mostly whitespace bytes, else comments (with or
    without their newline) or junk."""
    pieces = []
    for _ in range(int(rng.choice(3, p=[0.05, 0.65, 0.3]))):
        roll = rng.random()
        pieces.append(_pick(rng, _SPACES) if roll < 0.8 else
                      _comment(rng, rng.random() < 0.5) if roll < 0.9 else _pick(rng, _JUNK))
    return b"".join(pieces)


def _number(rng) -> bytes:
    """A small decimal number, sometimes signed, zero-led or split by an
    underscore."""
    forms = [b"%d"] * 12 + [b"0%d", b"+%d", b"-%d", b"%d_0"]
    return _pick(rng, forms) % rng.integers(0, 5)


def _ppm_headers(count: int, seed: int):
    """(label, file bytes, shape or None): `count` PPM files, half from a
    known width, height and maxval written with random separators, comments
    and leading zeros (shape (height, width, 3)), half from random tokens
    (shape None)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        if i % 2 == 0:
            width, height, maxval = (int(v) for v in rng.integers(1, [5, 5, 256]))
            numbers = [b"0" * int(rng.integers(0, 3)) + b"%d" % v
                       for v in (width, height, maxval)]
            header = b"P6" + b"".join(_separator(rng) + n for n in numbers)
            header += _pick(rng, _SPACES)
            pixels = rng.integers(0, maxval + 1, width * height * 3, dtype=np.uint8)
            yield f"known {header!r}", header + pixels.tobytes(), (height, width, 3)
        else:
            header = b"P6" + b"".join(_gap(rng) + _number(rng) for _ in range(3)) + _gap(rng)
            yield f"random {header!r}", header + bytes(int(rng.integers(0, 60))), None


def test_ppm_seeded_headers(tmp_path):
    """A header from known numbers decodes to their shape; any other header
    decodes or raises DecodeError, never another exception."""
    path = tmp_path / "h.ppm"
    decoded = 0
    for label, blob, shape in _ppm_headers(2000, seed=13):
        path.write_bytes(blob)
        try:
            img = D.decode_image(path)
        except DecodeError:
            assert shape is None, label
            continue
        except Exception as exc:
            raise AssertionError(f"{label}: untyped {exc!r}") from exc
        assert shape is None or img.shape == shape, label
        decoded += shape is None
    assert 0 < decoded < 1000


def _manifest_end(blob: bytes) -> int:
    return 12 + struct.unpack("<I", blob[8:12])[0]


def test_model_header_and_manifest_truncations_and_bit_flips(files, tmp_path):
    blob = files["model"].read_bytes()
    end = _manifest_end(blob)
    cases = [*_truncations(blob, end + 1), *_bit_flips(blob, 0, end)]
    assert _accepted(tmp_path / "case.leaf", cases, D.load_model) < len(cases)


def test_model_body_seeded_bit_flips(files, tmp_path):
    blob = files["model"].read_bytes()
    cases = list(_seeded_flips(blob, _manifest_end(blob), 200, seed=5))
    _accepted(tmp_path / "case.leaf", cases, D.load_model)


# Values a mutation puts in place of a manifest node.
_VALUES = [None, True, False, 0, -1, 3, 2 ** 64, 0.5, float("nan"), "", "x",
           "conv2d", [], [1], [-1, 2], {}, {"name": "x"}]


def _node_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _node_paths(child, path + (key,))


def _json_mutations(manifest: dict, count: int, seed: int):
    """Replace, delete or wrap one node of the manifest per case."""
    rng = np.random.default_rng(seed)
    paths = list(_node_paths(manifest))[1:]
    for _ in range(count):
        path = paths[int(rng.integers(len(paths)))]
        mutated = copy.deepcopy(manifest)
        parent = mutated
        for key in path[:-1]:
            parent = parent[key]
        action = int(rng.integers(3))
        if action == 0:
            parent[path[-1]] = _VALUES[int(rng.integers(len(_VALUES)))]
        elif action == 1:
            del parent[path[-1]]
        else:
            parent[path[-1]] = [parent[path[-1]]]
        yield f"{['replaced', 'deleted', 'wrapped'][action]} {path}", mutated


def test_model_seeded_manifest_json_mutations(files, tmp_path):
    blob = files["model"].read_bytes()
    end = _manifest_end(blob)
    manifest = json.loads(blob[12:end])
    cases = []
    for label, mutated in _json_mutations(manifest, 300, seed=9):
        text = json.dumps(mutated).encode("utf-8")
        cases.append((label, blob[:8] + struct.pack("<I", len(text)) + text + blob[end:]))
    assert _accepted(tmp_path / "case.leaf", cases, D.load_model) < len(cases)


# One corruption per file kind: a flipped IHDR byte fails its CRC, the
# other two files lose their last bytes.
_CORRUPT = {"png": lambda b: b[:20] + bytes([b[20] ^ 1]) + b[21:],
            "ppm": lambda b: b[:-3],
            "model": lambda b: b[:-3]}


@pytest.mark.parametrize("kind", sorted(_CORRUPT))
def test_predict_on_corrupt_file_exit_2(files, tmp_path, capsys, kind):
    bad = tmp_path / f"bad-{files[kind].name}"
    bad.write_bytes(_CORRUPT[kind](files[kind].read_bytes()))
    paths = {"model": files["model"], "image": files["png"]}
    paths["model" if kind == "model" else "image"] = bad
    assert main(["predict", str(paths["model"]), str(paths["image"])]) == 2
    assert bad.name in capsys.readouterr().err


def _declaring_size(kind: str, blob: bytes, width: int, height: int) -> bytes:
    """A write_png or write_ppm file whose header declares width x height;
    the PNG's IHDR CRC is recomputed, so only the size is wrong."""
    if kind == "png":   # IHDR payload at 16..29, its CRC at 29..33
        ihdr = struct.pack(">II", width, height) + blob[24:29]
        return blob[:16] + ihdr + struct.pack(">I", zlib.crc32(b"IHDR" + ihdr)) + blob[33:]
    return b"P6\n%d %d\n255\n" % (width, height) + blob.split(b"\n", 3)[3]


HUGE = [(2 ** 31 - 1, 2 ** 31 - 1), (D.MAX_PIXELS + 1, 1), (1, D.MAX_PIXELS + 1)]


@pytest.mark.parametrize("kind", ["png", "ppm"])
@pytest.mark.parametrize("size", HUGE, ids=lambda s: f"{s[0]}x{s[1]}")
def test_huge_header_rejected_before_allocating(files, tmp_path, kind, size):
    path = tmp_path / f"huge.{kind}"
    path.write_bytes(_declaring_size(kind, files[kind].read_bytes(), *size))
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError, match=f"huge.{kind}.*too large"):
            D.decode_image(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"decode peaked at {peak} traced bytes"


@pytest.mark.parametrize("kind", ["png", "ppm"])
def test_size_at_the_cap_is_not_too_large(files, tmp_path, kind):
    path = tmp_path / f"cap.{kind}"
    path.write_bytes(_declaring_size(kind, files[kind].read_bytes(), D.MAX_PIXELS, 1))
    with pytest.raises(DecodeError, match="truncated|ends early") as err:
        D.decode_image(path)
    assert "too large" not in str(err.value)


@pytest.mark.parametrize("kind", ["png", "ppm"])
def test_predict_on_huge_header_exit_2(files, tmp_path, capsys, kind):
    bad = tmp_path / f"huge.{kind}"
    bad.write_bytes(_declaring_size(kind, files[kind].read_bytes(), 2 ** 31 - 1, 2 ** 31 - 1))
    assert main(["predict", str(files["model"]), str(bad)]) == 2
    assert "too large" in capsys.readouterr().err


# Names a dataset tree holds: UTF-8 and non-UTF-8 bytes, a newline, a comma,
# quotes, and 250 bytes (a file name adds a digit and ".ppm", to 255 bytes).
_TREE_NAMES = [b"plain", b"caf\xc3\xa9", b"bad\xff", b"two\nlines", b"a,b", b"\"q'",
               b"n" * 250]


def _tiny_ppm(path: bytes, rng) -> None:
    write_ppm(Path(os.fsdecode(path)), rng.integers(0, 256, (8, 8, 3)))


# Odd entries, by file name: how each is made at a given path.
_ODD = {b"dangling.ppm": lambda path: os.symlink(b"missing.ppm", path),
        b"loop.ppm": lambda path: os.symlink(b"loop.ppm", path),
        b"pipe.ppm": os.mkfifo,
        b"folder.png": os.mkdir,
        b"empty.png": lambda path: open(path, "wb").close()}


def _dataset_tree(root: Path, seed: int) -> list[bytes]:
    """A seeded train/valid tree: two classes named from _TREE_NAMES, two
    images each, under file names from the same list. Each odd entry of
    _ODD, an empty class directory and a class only in valid/ are added
    with probability 1/3, an odd entry in a random class directory. Returns
    what was added."""
    rng = np.random.default_rng(seed)
    top = os.fsencode(root)
    classes = [_TREE_NAMES[i] for i in rng.choice(len(_TREE_NAMES), 2, replace=False)]
    for split in (b"train", b"valid"):
        for name in classes:
            os.makedirs(os.path.join(top, split, name))
            for i in range(2):
                stem = _TREE_NAMES[int(rng.integers(len(_TREE_NAMES)))]
                _tiny_ppm(os.path.join(top, split, name, b"%d%s.ppm" % (i, stem)), rng)
    added = []
    for entry, make in _ODD.items():
        if rng.random() < 1 / 3:
            split = (b"train", b"valid")[int(rng.integers(2))]
            make(os.path.join(top, split, classes[int(rng.integers(2))], entry))
            added.append(entry)
    if rng.random() < 1 / 3:
        os.mkdir(os.path.join(top, (b"train", b"valid")[int(rng.integers(2))], b"no_images"))
        added.append(b"no_images/")
    if rng.random() < 1 / 3:
        os.mkdir(os.path.join(top, b"valid", b"valid_only"))
        _tiny_ppm(os.path.join(top, b"valid", b"valid_only", b"0.ppm"), rng)
        added.append(b"valid/valid_only/")
    return added


# Runs in a child: train a tiny CNN on the tree at argv[1]; eval the trained
# model, or the model at argv[2] if training failed; predict every entry of
# every class directory. Prints the exit codes as one JSON line.
_RUN_TREE = """
import json, os, sys
from leafnet.cli import main
root, fallback, out = sys.argv[1:]
codes = {"train": main(["train", root, "--input", "8", "--filters", "2", "--dense", "4",
                        "--epochs", "1", "--batch", "2", "--out", out])}
model = os.path.join(out, "model.leaf") if codes["train"] == 0 else fallback
codes["eval"] = main(["eval", model, root, "--out", os.path.join(out, "eval")])
for split in ("train", "valid"):
    for name in sorted(os.listdir(os.path.join(root, split))):
        folder = os.path.join(root, split, name)
        for entry in sorted(os.listdir(folder)) if os.path.isdir(folder) else []:
            key = ascii(os.path.join(split, name, entry))
            codes[key] = main(["predict", model, os.path.join(folder, entry)])
print(json.dumps(codes))
"""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_seeded_dataset_trees_exit_0_or_2(files, tmp_path):
    """Every train, eval and predict run on a seeded odd tree exits 0 or 2,
    with no traceback, in a child killed after a timeout (a FIFO read that
    waits for a writer would block it forever). The seeds give both
    outcomes of train."""
    trains = set()
    for seed in range(8):
        root = tmp_path / f"tree{seed}"
        added = _dataset_tree(root, seed)
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_TREE, str(root), str(files["model"]),
             str(tmp_path / f"out{seed}")], capture_output=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")))
        stderr = proc.stderr.decode("utf-8", "replace")
        assert proc.returncode == 0 and "Traceback" not in stderr, (seed, added, stderr)
        codes = json.loads(proc.stdout.splitlines()[-1])
        assert set(codes.values()) <= {0, 2}, (seed, added, codes)
        trains.add(codes["train"])
    assert trains == {0, 2}
