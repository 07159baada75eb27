"""Per-module spans for the traced run, recorded from outside leafnet.

leafnet looks every cross-module call up as a module attribute at call time
(`L.conv2d_forward`, `T.matmul`, ...), so replacing those attributes with
timing wrappers sees every call without touching `src/`. Spans stay in
memory until `write_spans` at the end of the run.

A refactor can bypass a wrapper, for example with a dispatch table that
captures the functions at import. Such a timer would silently read zero, so
`check_complete` fails the run when a target is missing or saw no calls on
a workload that must use it, and every model pass must attribute exactly
one call to each of its layers.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

# Layer-level functions, keyed by the layer kind they implement. A call to
# one of these whose direct parent is a models._forward / models.backward
# span is one layer of that pass; nested calls (T.reshape inside
# layers.flatten) are ordinary tensor spans.
FORWARD_KIND = {
    "layers.conv2d_forward": "conv", "layers.maxpool2d_forward": "maxpool",
    "layers.dropout_forward": "dropout", "layers.flatten": "flatten",
    "layers.dense_forward": "dense",
}
BACKWARD_KIND = {
    "layers.conv2d_backward": "conv", "layers.maxpool2d_backward": "maxpool",
    "layers.dropout_backward": "dropout", "tensor.reshape": "flatten",
    "layers.dense_backward": "dense",
}
PARAM_KINDS = {"conv", "dense"}

ALL = ("train-cnn", "infer-disk")
TRAIN = ("train-cnn",)

# (module, attribute) -> workloads on which it must see at least one call.
# An empty tuple marks an internal helper a valid refactor may remove
# (layers.conv.col_mb then reads 0: there is no im2col buffer).
TARGETS = {
    ("tensor", "matmul"): ALL,
    ("tensor", "relu"): ALL,
    ("tensor", "relu_backward"): TRAIN,
    ("tensor", "softmax"): ALL,
    ("tensor", "reshape"): ALL,
    ("layers", "conv2d_forward"): ALL,
    ("layers", "conv2d_backward"): TRAIN,
    ("layers", "_im2col"): (),
    ("layers", "maxpool2d_forward"): ALL,
    ("layers", "maxpool2d_backward"): TRAIN,
    ("layers", "dropout_forward"): ALL,
    ("layers", "dropout_backward"): TRAIN,
    ("layers", "flatten"): ALL,
    ("layers", "dense_forward"): ALL,
    ("layers", "dense_backward"): TRAIN,
    ("models", "_forward"): ALL,
    ("models", "backward"): TRAIN,
    ("training", "train"): TRAIN,
    ("training", "loss_and_grads"): TRAIN,
    ("training", "adam_step"): TRAIN,
    ("training", "evaluate_loss_acc"): TRAIN,
    ("data", "scan_dataset"): ("infer-disk",),
    ("data", "decode_image"): ALL,
    ("data", "_decode_png"): ("infer-disk",),
    ("data", "bilinear_resize"): ALL,
    ("data", "load_image"): ALL,
    ("data", "save_model"): ALL,
    ("data", "load_model"): ALL,
    ("data", "_rebuild"): ALL,
    ("metrics", "confusion_matrix"): ("infer-disk",),
    ("metrics", "class_report"): ("infer-disk",),
    ("metrics", "format_report"): ("infer-disk",),
    ("metrics", "cm_to_csv"): ("infer-disk",),
    ("cli", "cmd_eval"): ("infer-disk",),
    ("cli", "cmd_predict"): ALL,
}

BATCH_WAIT = "training.batch_wait"

# span fields: [name, start, end, parent, sample, layer, info]
NAME, START, END, PARENT, SAMPLE, LAYER, INFO = range(7)


class TraceError(RuntimeError):
    """The trace cannot be trusted: a target is missing, unused, or a model
    pass could not be attributed layer by layer."""


def _info(name: str, args: tuple):
    """Computed per-call facts, from the arguments only."""
    if name == "tensor.matmul":
        a, b = args[0], args[1]
        return 2 * a.shape[0] * a.shape[1] * b.shape[1]
    if name == "layers._im2col":
        x, kh, kw, oh, ow = args[:5]
        return oh * ow * kh * kw * x.shape[2] * x.itemsize
    if name == "data.decode_image":
        return str(args[0])
    if name == "data._decode_png":
        return str(args[1])
    return None


class Tracer:
    def __init__(self, leafnet_modules: dict, dataset=None):
        self.modules = leafnet_modules  # short name -> module object
        self.dataset = dataset          # its `batches` iterator is timed too
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.sample = 0
        self._saved: list[tuple] = []
        self._cursor: dict[int, list] = {}  # pass span -> [model, layer order, next]

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, args: tuple) -> int:
        parent = self.stack[-1] if self.stack else -1
        if name == "models._forward":
            self.sample += 1
        span = [name, 0.0, 0.0, parent, self.sample, None, _info(name, args)]
        if parent >= 0 and parent in self._cursor:
            self._attribute(span, parent, args)
        idx = len(self.spans)
        self.spans.append(span)
        if name in ("models._forward", "models.backward"):
            model = args[0]
            order = list(range(len(model.spec.layers)))
            if name == "models.backward":
                order.reverse()
            else:
                span[INFO] = args[2] if len(args) > 2 else "infer"  # mode
            self._cursor[idx] = [model, order, 0]
        self.stack.append(idx)
        span[START] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()
        cur = self._cursor.pop(idx, None)
        if cur is not None and cur[2] != len(cur[1]):
            raise TraceError(
                f"{self.spans[idx][NAME]} made {cur[2]} layer calls for "
                f"{len(cur[1])} layers; a layer was bypassed or renamed")

    def _attribute(self, span: list, parent: int, args: tuple) -> None:
        kinds = FORWARD_KIND if self.spans[parent][NAME] == "models._forward" else BACKWARD_KIND
        kind = kinds.get(span[NAME])
        if kind is None:
            return
        model, order, pos = self._cursor[parent]
        if pos >= len(order):
            raise TraceError(f"{span[NAME]}: more layer calls than layers")
        li = order[pos]
        spec = model.spec.layers[li]
        if spec.kind != kind:
            raise TraceError(f"{span[NAME]} called where layer {spec.name} ({spec.kind}) was due")
        if kind in PARAM_KINDS and args[1] is not model.params[li]:
            raise TraceError(f"{span[NAME]} got parameters that are not {spec.name}'s")
        span[LAYER] = spec.name
        self._cursor[parent][2] = pos + 1

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, args)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return wrapper

    def _wrap_batches(self, inner):
        """Time the dataset's `batches` iterator (the wait for each batch)."""
        def batches(*args, **kwargs):
            it = inner(*args, **kwargs)
            while True:
                idx = self._open(BATCH_WAIT, ())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item
        return batches

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        for (mod, attr) in TARGETS:
            module = self.modules[mod]
            fn = getattr(module, attr, None)
            if fn is None:
                if TARGETS[(mod, attr)]:
                    raise TraceError(f"leafnet.{mod}.{attr} no longer exists; "
                                     "update perfbench/spans.py")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{mod}.{attr}", fn))
        if self.dataset is not None:
            self.dataset.batches = self._wrap_batches(self.dataset.batches)

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        if self.dataset is not None:
            vars(self.dataset).pop("batches", None)  # back to the class's method

    def span_cost_s(self, n: int = 20000) -> float:
        """Seconds one wrapped call adds, from timing a wrapped no-op; the
        calibration spans are dropped again."""
        def noop():
            return None
        wrapped = self._wrap("calibration", noop)
        mark = len(self.spans)
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        cost = (time.perf_counter() - t0 - bare) / n
        del self.spans[mark:]
        return cost

    def check_complete(self, workload: str) -> None:
        calls = defaultdict(int)
        for s in self.spans:
            calls[s[NAME]] += 1
        missing = [f"leafnet.{m}.{a}" for (m, a), need in TARGETS.items()
                   if workload in need and calls[f"{m}.{a}"] == 0]
        if missing:
            raise TraceError(f"{workload}: no calls seen through {', '.join(missing)}; "
                             "a refactor bypasses these wrappers")

    # -- reduction ---------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total s, self s); per (layer, direction):
        (calls, total s)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        by_layer = defaultdict(lambda: [0, 0.0])
        for i, s in enumerate(self.spans):
            dur = s[END] - s[START]
            agg = by_name[s[NAME]]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child[i]
            if s[LAYER] is not None:
                direction = "fwd" if s[NAME] in FORWARD_KIND else "bwd"
                lay = by_layer[(s[LAYER], direction)]
                lay[0] += 1
                lay[1] += dur
        return by_name, by_layer

    def write_spans(self, path: Path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s[NAME], "start": round(s[START] - t0, 9),
                    "end": round(s[END] - t0, 9), "parent": s[PARENT],
                    "sample": s[SAMPLE], "layer": s[LAYER],
                    "info": s[INFO] if isinstance(s[INFO], (int, str)) else None,
                }) + "\n")
