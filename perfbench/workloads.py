"""The two workloads: what each runs through leafnet, and its checks.

Every workload drives leafnet from outside, through `training.train`,
`data.save_model` and `cli.main(["eval" | "predict", ...])`, in a closed
loop with one caller: each call starts when the previous one returned.
The program only sees the generated inputs; the seed never reaches it
except as the training seed a user would pass.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs as I

BATCH = 32            # the CLI default
N_TRAIN = 40          # 2 optimizer steps (32 + 8), every class at least once
N_VALID = 10          # the dataset's 70,295 : 17,572 = 4 : 1 train:valid ratio
N_PREDICT = 40        # predicts per run: median and p75 (10 samples beyond it)
CHILD_SAVES = 20      # model_save_ms is a median over these, in a fresh process
PREDICT_IMAGES = 10   # distinct native-size PPMs train-cnn predicts on

# The infer-disk predict schedule: per 10 calls, 8 fast formats (PPM, PNG
# None/Up: load + forward) and 2 of the slow PNG filters Sub/Average/Paeth
# in rotation, which add 100-350 ms of per-byte Python unfiltering. The
# slow calls rank above the p75, so median and p75 both sit inside the fast
# group: the unfiltering loop swings with the host's Python speed far more
# than the rest, and a p75 among those calls read 0.28 IQR/median over ten
# seeds. Their cost still shows in every `eval` (18 of its 38 images) and
# in the data.decode_png.* spans.
_SLOW = ("png-f1", "png-f3", "png-f4")
INFER_PREDICT_MIX = [fmt for k in range(N_PREDICT // 10) for fmt in
                     ["ppm"] * 4 + ["png-f0"] * 2 + ["png-f2"] * 2
                     + [_SLOW[2 * k % 3], _SLOW[(2 * k + 1) % 3]]]

WHY = {
    "train-cnn": "one epoch of the stock 7.84M-parameter CNN, then saves: im2col conv + "
                 "matmul dominate, with pool, dense, Adam and gradient accumulation; no PNG decode",
    "infer-disk": "CLI eval and predict over a 256x256 PNG (5 filters) / PPM tree: image decode, "
                  "model reads, reports, and forward-only batch-1 conv",
}


class Checks:
    """Correctness checks; `failed / attempted` is the run's fail ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", flush=True)


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def same_model(a, b) -> bool:
    """Bit-exact: every parameter byte, the layer order and the label map."""
    if a.spec.arch != b.spec.arch or a.label_map != b.label_map:
        return False
    if [s.name for s in a.spec.layers] != [s.name for s in b.spec.layers]:
        return False
    for pa, pb in zip(a.params, b.params):
        if list(pa) != list(pb):
            return False
        for k in pa:
            if pa[k].dtype != pb[k].dtype or pa[k].shape != pb[k].shape \
                    or pa[k].tobytes() != pb[k].tobytes():
                return False
    return True


@dataclass
class RoundResult:
    samples: int          # samples the round's main operation processed
    wall_s: float         # its wall time


@dataclass
class Workload:
    """Shared shape of a workload; subclasses fill in the program calls."""
    name: str
    seed: int
    leafnet: dict         # short module name -> leafnet module
    work: Path
    checks: Checks = field(default_factory=Checks)
    decoded: dict = field(default_factory=dict)   # path -> expected pixels
    formats: dict = field(default_factory=dict)   # str(path) -> "png-f<k>" or "ppm"
    predict_files: list = field(default_factory=list)
    label_map: list = field(default_factory=list)

    def counts(self, predicts: int) -> dict:
        """Sample counts of one round, for per-sample trace figures."""
        raise NotImplementedError

    def predict(self, image: Path) -> float:
        """One CLI predict call; returns its wall time in ms."""
        t0 = time.perf_counter()
        rc, out = run_cli(self.leafnet["cli"], ["predict", str(self.model_file), str(image)])
        ms = (time.perf_counter() - t0) * 1e3
        fields = out.strip().splitlines()[-1].split("\t") if out.strip() else []
        ok = rc == 0 and len(fields) == 2 and fields[0] in self.label_map
        if ok:
            conf = float(fields[1])
            ok = 0.0 < conf <= 1.0
        self.checks(ok, f"predict {image.name}: rc={rc} output={out.strip()[-80:]!r}")
        return ms

    def predict_phase(self, n: int, first: int = 0) -> list[float]:
        """Predicts number first .. first + n - 1 of the fixed schedule."""
        files = self.predict_files
        return [self.predict(files[i % len(files)]) for i in range(first, first + n)]

    def verify_round(self) -> None:
        """The round's saved model reloads bit-exact."""
        self.verify_saved(self.saved_file)

    def verify_saved(self, path: Path) -> None:
        loaded = self.leafnet["data"].load_model(path)
        self.checks(same_model(self.model, loaded), f"{path.name} does not reload bit-exact")

    def save_phase(self) -> list[float]:
        """`CHILD_SAVES` timed saves of the last round's model in a fresh
        process (see save_child.py); returns their times in ms."""
        out = self.work / "child.leaf"
        src = Path(self.leafnet["data"].__file__).resolve().parents[1]
        child = Path(__file__).resolve().parent / "save_child.py"
        proc = subprocess.run([sys.executable, str(child), str(src), str(self.saved_file),
                               str(out), str(CHILD_SAVES)],
                              capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"save_child.py exited {proc.returncode}: {proc.stderr[-2000:]}")
        self.verify_saved(out)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def verify_decodes(self) -> None:
        D = self.leafnet["data"]
        for path, pixels in self.decoded.items():
            img = D.decode_image(path)
            self.checks(img.dtype == np.uint8 and np.array_equal(img, pixels),
                        f"{path.name} does not decode to its generated pixels")


class TrainWorkload(Workload):
    """train-cnn: in-memory tensors through `training.train`."""

    def setup(self) -> None:
        M, D = self.leafnet["models"], self.leafnet["data"]
        tx, ty, vx, vy = I.train_tensors(self.seed, N_TRAIN, N_VALID)
        self.label_map = I.class_names()
        self.train_set = D.MemoryDataset(tx, ty, self.label_map)
        self.valid_set = D.MemoryDataset(vx, vy, self.label_map)
        self.model = M.build_cnn(seed=self.seed)
        self.model.label_map = list(self.label_map)
        rng = np.random.default_rng([self.seed, 0x9E])
        self.predict_files, self.decoded = [], {}
        for k in range(PREDICT_IMAGES):
            pixels = I.leaf_pixels(rng, int(rng.integers(I.CLASSES)), 128)
            path = I.write_image(self.work / f"predict_{k}", pixels, "ppm")
            self.predict_files.append(path)
            self.decoded[path] = pixels
        self.model_file = self.work / "model.leaf"
        self.saved_file = self.work / "trained.leaf"

    def config(self):
        return self.leafnet["training"].TrainConfig(
            epochs=1, batch_size=BATCH, lr=1e-4, seed=self.seed)

    def warm_up(self) -> None:
        """A 2-sample epoch, a save and two predicts: first-call costs
        (allocator growth, BLAS threads, page faults) land here."""
        D, TR = self.leafnet["data"], self.leafnet["training"]
        tiny = D.MemoryDataset(self.train_set.inputs[:2], self.train_set.labels[:2],
                               self.label_map)
        one = D.MemoryDataset(self.valid_set.inputs[:1], self.valid_set.labels[:1],
                              self.label_map)
        TR.train(self.model, tiny, one, self.config())
        D.save_model(self.model, self.model_file)
        self.predict_phase(2)

    def round(self) -> RoundResult:
        TR = self.leafnet["training"]
        t0 = time.perf_counter()
        try:
            _, history = TR.train(self.model, self.train_set, self.valid_set, self.config())
        except self.leafnet["errors"].LeafnetError as exc:
            self.checks(False, f"training failed: {exc}")
            history = []
        wall = time.perf_counter() - t0
        for rec in history:
            self.checks(math.isfinite(rec.train_loss) and math.isfinite(rec.val_loss),
                        f"non-finite loss in epoch record {rec}")
        self.leafnet["data"].save_model(self.model, self.saved_file)
        return RoundResult(len(self.train_set), wall)

    def counts(self, predicts: int) -> dict:
        return {"train": N_TRAIN, "valid": N_VALID, "infer": predicts,
                "steps": math.ceil(N_TRAIN / BATCH), "evals": 0, "eval_images": 0}


class InferWorkload(Workload):
    """infer-disk: a PNG/PPM tree read through `leafnet eval` and `predict`."""

    def setup(self) -> None:
        M, D = self.leafnet["models"], self.leafnet["data"]
        self.root = self.work / "data"
        files = I.write_tree(self.root, self.seed)
        self.label_map = I.class_names()
        self.model = M.build_cnn(seed=self.seed)
        self.model.label_map = list(self.label_map)
        self.model_file = self.work / "model.leaf"
        self.saved_file = self.work / "saved.leaf"
        D.save_model(self.model, self.model_file)
        valid = {p: v for p, v in files.items() if p.parent.parent.name == "valid"}
        self.n_valid = len(valid)
        self.decoded = {p: pixels for p, (pixels, _, _) in valid.items()}
        self.formats = {str(p): fmt for p, (_, fmt, _) in valid.items()}
        by_fmt = {}
        for p, (_, fmt, _) in sorted(valid.items()):
            by_fmt.setdefault(fmt, []).append(p)
        rng = np.random.default_rng([self.seed, 0x9D])
        for fmt in by_fmt:
            by_fmt[fmt] = [by_fmt[fmt][i] for i in rng.permutation(len(by_fmt[fmt]))]
        used = {fmt: 0 for fmt in by_fmt}
        self.predict_files = []
        for i in range(N_PREDICT):
            fmt = INFER_PREDICT_MIX[i]
            self.predict_files.append(by_fmt[fmt][used[fmt] % len(by_fmt[fmt])])
            used[fmt] += 1
        self.out_dir = self.work / "report"

    def warm_up(self) -> None:
        """One predict per image format and a save."""
        seen = {}
        for p in self.predict_files:
            seen.setdefault(self.formats[str(p)], p)
        for p in seen.values():
            self.predict(p)
        self.leafnet["data"].save_model(self.model, self.saved_file)

    def round(self) -> RoundResult:
        t0 = time.perf_counter()
        rc, out = run_cli(self.leafnet["cli"], ["eval", str(self.model_file), str(self.root),
                                                "--split", "valid", "--out", str(self.out_dir)])
        wall = time.perf_counter() - t0
        self.check_eval(rc, out)
        self.leafnet["data"].save_model(self.model, self.saved_file)
        return RoundResult(self.n_valid, wall)

    def check_eval(self, rc: int, out: str) -> None:
        """Printed accuracy and n agree with confusion.csv and the tree."""
        ok, why = rc == 0, f"rc={rc}"
        if ok:
            last = out.strip().splitlines()[-1]
            try:
                acc_text, n_text = last.split("accuracy: ")[1].split(" (n=")
                n = int(n_text.rstrip(")"))
                with open(self.out_dir / "confusion.csv", newline="") as f:
                    rows = list(csv.reader(f))
                counts = np.array([[int(v) for v in r[1:]] for r in rows[1:]])
                ok = (rows[0] == self.label_map
                      and [r[0] for r in rows[1:]] == self.label_map
                      and counts.sum() == n == self.n_valid
                      and acc_text == f"{np.trace(counts) / n:.4f}"
                      and (self.out_dir / "report.txt").stat().st_size > 0)
                why = f"printed {last!r}, confusion total {counts.sum()}, {self.n_valid} images"
            except (IndexError, ValueError, OSError) as exc:
                ok, why = False, f"unreadable eval output: {exc}"
        self.checks(ok, f"eval: {why}")

    def counts(self, predicts: int) -> dict:
        return {"train": 0, "valid": 0, "infer": predicts + self.n_valid,
                "steps": 0, "evals": 1, "eval_images": self.n_valid}


def make(name: str, seed: int, leafnet: dict, work: Path) -> Workload:
    cls = TrainWorkload if name.startswith("train-") else InferWorkload
    return cls(name, seed, leafnet, work)


def timed_setups(name: str, seed: int, leafnet: dict, work: Path,
                 least: int, budget_s: float):
    """Set the workload up in fresh directories, at least `least` times and
    until `budget_s` seconds of set-up have passed, so cheap set-ups still
    give a steady median. Returns the last one and every set-up time."""
    secs, wl = [], None
    while len(secs) < least or sum(secs) < budget_s:
        d = work / f"setup{len(secs)}"
        d.mkdir(parents=True)
        fresh = make(name, seed, leafnet, d)
        t0 = time.perf_counter()
        fresh.setup()
        secs.append(time.perf_counter() - t0)
        if wl is not None:
            shutil.rmtree(wl.work)
            fresh.checks = wl.checks
        wl = fresh
    return wl, secs
