"""The one worker thread: tensor.halves, the OpenBLAS pin, and what may run
on the worker.

The benchmark's tracer keeps one span stack and attributes every layer call
to the thread that makes it, so only the calling thread may enter a layer
function, a model pass or a training step; the worker runs numpy ops,
tensor.matmul and tensor.gate inside one layer call. The tests here fail on
a change that breaks that, on a split whose result depends on the worker,
and on a nested split that deadlocks the one-worker pool.
"""

import ctypes
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from helpers import conv_reference, specials
from leafnet import data as D
from leafnet import layers as L
from leafnet import models as M
from leafnet import tensor as T
from leafnet import training as TR
from leafnet.errors import NumericError

ROOT = Path(__file__).resolve().parents[1]


def run_isolated(code: str, seconds: float = 60.0) -> str:
    """Run `code` in a fresh interpreter and return its stdout. A deadlock
    fails the test when the child is killed after `seconds`; in this process
    it would also hang the interpreter's exit, which joins the worker."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=seconds, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_halves_splits_at_the_middle():
    assert T.halves(7, lambda lo, hi: (lo, hi)) == [(0, 3), (3, 7)]
    assert T.halves(1, lambda lo, hi: (lo, hi)) == [(0, 1)]
    assert T.halves(0, lambda lo, hi: (lo, hi)) == [(0, 0)]
    # declared work below SPLIT_MIN runs whole
    assert T.halves(8, lambda lo, hi: (lo, hi), T.SPLIT_MIN - 1) == [(0, 8)]
    assert T.halves(8, lambda lo, hi: (lo, hi), T.SPLIT_MIN) == [(0, 4), (4, 8)]


def test_layer_calls_split_from_split_min_on(monkeypatch):
    """Conv, max-pool and the split product each declare their multiply-adds
    to T.halves: a call hands the worker nothing one multiply-add below
    SPLIT_MIN, and one half at SPLIT_MIN."""
    submitted = []

    class Recording:
        def submit(self, fn, lo, hi):
            submitted.append((lo, hi))
            done = Future()
            done.set_result(fn(lo, hi))
            return done

    rng = np.random.default_rng(56)
    x = rng.standard_normal((2, 8, 8, 4))
    params = {"kernels": rng.standard_normal((3, 3, 4, 8)), "bias": np.zeros(8)}
    up = rng.standard_normal((2, 8, 8, 8))
    _, idx = L.maxpool2d_forward(x)
    pooled_up = rng.standard_normal(idx.shape)
    a, b = rng.standard_normal((6, 5)), rng.standard_normal((5, 4))
    conv_work = 2 * 8 * 8 * params["kernels"].size
    calls = {
        "conv forward": (conv_work, lambda: L.conv2d_forward(x, params)),
        "conv backward": (conv_work, lambda: L.conv2d_backward(x, params, up)),
        "max-pool forward": (x.size * L.POOL_WEIGHT, lambda: L.maxpool2d_forward(x)),
        "max-pool backward": (x.size * L.POOL_WEIGHT,
                              lambda: L.maxpool2d_backward(idx, pooled_up, x.shape)),
        "product": (a.size * b.shape[1], lambda: T.matmul_halves(a, b)),
    }
    monkeypatch.setattr(T, "_pool", Recording())
    for name, (work, call) in calls.items():
        for split_min, halves in ((work + 1, 0), (work, 1)):
            monkeypatch.setattr(T, "SPLIT_MIN", split_min)
            submitted.clear()
            call()
            assert len(submitted) == halves, (name, split_min)


def test_halves_first_half_on_the_worker():
    threads = T.halves(2, lambda lo, hi: threading.get_ident())
    assert threads[1] == threading.get_ident()
    if T._pool is not None:
        assert threads[0] != threading.get_ident()


def test_halves_inline_without_worker(monkeypatch):
    monkeypatch.setattr(T, "_pool", None)
    threads = T.halves(2, lambda lo, hi: threading.get_ident())
    assert threads == [threading.get_ident()] * 2


def test_nested_halves_run_inline():
    """A split from inside either half runs its two halves in turn on that
    half's own thread; with one worker, waiting on it from inside the
    worker's own half would never return."""
    out = run_isolated(
        "import threading\n"
        "from leafnet import tensor as T\n"
        "def outer(lo, hi):\n"
        "    inner = T.halves(hi - lo, lambda a, b: (lo + a, lo + b, threading.get_ident()))\n"
        "    assert len({ident for _, _, ident in inner}) == 1\n"
        "    return [(a, b) for a, b, _ in inner]\n"
        "print(T.halves(8, outer))\n")
    assert out.strip() == "[[(0, 2), (2, 4)], [(4, 6), (6, 8)]]"


@pytest.mark.parametrize("failing", [0, 1], ids=["worker-half", "caller-half"])
def test_error_raised_after_both_halves_finish(failing):
    """The failing half raises at once; the other is still running. The
    error reaches the caller with its type, and only once the other half has
    finished."""
    finished = []

    def fn(lo, hi):
        if lo == failing:
            raise NumericError(f"half from {lo} failed")
        time.sleep(0.2)
        finished.append(lo)

    with pytest.raises(NumericError, match=f"half from {failing} failed"):
        T.halves(2, fn)
    assert finished == [1 - failing]
    assert T.halves(2, lambda lo, hi: lo) == [0, 1]  # the worker still serves


# (input shape, kernel shape) reaching each way `layers._split` splits a
# conv call once T.SPLIT_MIN is 0: forward / backward.
SPLITS = {
    "samples": ((3, 7, 6, 3), (3, 3, 3, 4)),       # samples / samples
    "rows": ((1, 7, 6, 3), (3, 3, 3, 4)),          # output rows / input channels
    "channels": ((1, 3, 3, 2), (3, 3, 2, 60)),     # output / input channels
}


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("split", sorted(SPLITS))
def test_split_conv_matches_reference(monkeypatch, split, padding):
    """Every split of a conv call, forward and backward, equals the
    nested-loop reference on float64."""
    x_shape, k_shape = SPLITS[split]
    rng = np.random.default_rng(53)
    x = rng.standard_normal(x_shape)
    params = {"kernels": rng.standard_normal(k_shape), "bias": rng.standard_normal(k_shape[3])}
    oh, ow = L.conv_output_hw(x_shape[1], x_shape[2], 3, 3, padding)
    up = rng.standard_normal((x_shape[0], oh, ow, k_shape[3]))
    monkeypatch.setattr(T, "SPLIT_MIN", 0)
    assert L._split(x, params["kernels"]) == split
    refs = [conv_reference(x[k], params["kernels"], params["bias"], up[k], padding)
            for k in range(len(x))]
    tight = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(L.conv2d_forward(x, params, padding),
                               np.stack([r[0] for r in refs]), **tight)
    for need_input in (True, False):
        g = L.conv2d_backward(x, params, up, padding, need_input=need_input)
        np.testing.assert_allclose(g["kernels"], sum(r[1] for r in refs), **tight)
        np.testing.assert_allclose(g["bias"], up.sum(axis=(0, 1, 2)), **tight)
        if need_input:
            np.testing.assert_allclose(g["input"], np.stack([r[2] for r in refs]), **tight)
        else:
            assert "input" not in g


# (shapes, SPLIT_MIN) per case: "whole" runs the "samples" shapes below
# SPLIT_MIN, so T.halves keeps every call on one thread.
SPLIT_KINDS = {"whole": ("samples", 1 << 62), **{k: (k, 0) for k in SPLITS}}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the products
@pytest.mark.parametrize("worker", [True, False], ids=["worker", "inline"])
@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("split", sorted(SPLIT_KINDS))
def test_fused_relu_conv_bit_identical(monkeypatch, split, padding, worker):
    """ReLU inside the conv halves equals relu(conv(x)) byte for byte, and
    the backward that gates its own upstream equals the conv backward of
    relu_backward(out, upstream), ±0, NaN and ±inf in the upstream included."""
    shapes, split_min = SPLIT_KINDS[split]
    x_shape, k_shape = SPLITS[shapes]
    rng = np.random.default_rng(54)
    x = rng.standard_normal(x_shape).astype(np.float32)
    params = {"kernels": rng.standard_normal(k_shape).astype(np.float32),
              "bias": rng.standard_normal(k_shape[3]).astype(np.float32)}
    oh, ow = L.conv_output_hw(x_shape[1], x_shape[2], 3, 3, padding)
    up = specials(rng.standard_normal((x_shape[0], oh, ow, k_shape[3])).astype(np.float32))
    monkeypatch.setattr(T, "SPLIT_MIN", split_min)
    if not worker:
        monkeypatch.setattr(T, "_pool", None)
    assert L._split(x, params["kernels"]) == shapes
    out = L.conv2d_forward(x, params, padding, "relu")
    assert 0 < np.count_nonzero(out) < out.size
    assert out.tobytes() == T.relu(L.conv2d_forward(x, params, padding)).tobytes()
    for need_input in (True, False):
        got = L.conv2d_backward(x, params, up, padding, need_input, activated=out)
        want = L.conv2d_backward(x, params, T.relu_backward(out, up), padding, need_input)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("worker", [True, False], ids=["worker", "inline"])
@pytest.mark.parametrize("case", ["ties", "nan"])
def test_sample_split_maxpool_bit_identical(monkeypatch, case, worker):
    """Max-pool split into halves of its samples gives the same pooled
    values, argmax indices and input gradient as one unsplit call, on
    windows full of ties and on windows holding NaN, with an odd trailing
    row and column dropped."""
    rng = np.random.default_rng(55)
    x = rng.integers(0, 3, (5, 7, 9, 4)).astype(np.float32)
    if case == "nan":
        x = specials(rng.standard_normal(x.shape).astype(np.float32))
    out_shape = (5, 3, 4, 4)
    up = specials(rng.standard_normal(out_shape).astype(np.float32))
    if not worker:
        monkeypatch.setattr(T, "_pool", None)
    results = []
    for split_min in (1 << 62, 0):
        monkeypatch.setattr(T, "SPLIT_MIN", split_min)
        out, idx = L.maxpool2d_forward(x)
        d_x = L.maxpool2d_backward(idx, up, x.shape)
        results.append([a.tobytes() for a in (out, idx, d_x)])
    assert results[0] == results[1]
    halves, calls = T.halves, []
    monkeypatch.setattr(T, "halves",
                        lambda n, fn, work=None: calls.append(n) or halves(n, fn, work))
    _, idx = L.maxpool2d_forward(x)
    L.maxpool2d_backward(idx, up, x.shape)
    assert calls == [5, 5]  # at SPLIT_MIN 0, both calls split their 5 samples


def test_concurrent_callers_match_inline(monkeypatch):
    """Three calling threads share the one worker, with every split forced
    on and a 1 us switch interval so the threads interleave as finely as the
    interpreter allows: every conv result, in each way of splitting, and
    every split product equals the same call run inline."""
    rng = np.random.default_rng(52)
    convs = []
    for x_shape, k_shape in SPLITS.values():
        x = rng.standard_normal(x_shape)
        params = {"kernels": rng.standard_normal(k_shape),
                  "bias": rng.standard_normal(k_shape[3])}
        convs.append((x, params, rng.standard_normal(x_shape[:3] + k_shape[3:])))
    a, b = rng.standard_normal((40, 30)), rng.standard_normal((30, 20))

    def results():
        out = [T.matmul_halves(a, b)]
        for x, params, up in convs:
            g = L.conv2d_backward(x, params, up)
            out += [L.conv2d_forward(x, params), g["kernels"], g["bias"], g["input"]]
        return [r.tobytes() for r in out]

    monkeypatch.setattr(T, "SPLIT_MIN", 0)
    with monkeypatch.context() as inline:
        inline.setattr(T, "_pool", None)
        want = results()
    mismatches = []

    def caller():
        for _ in range(30):
            if results() != want:
                mismatches.append(threading.get_ident())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, daemon=True) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a caller did not finish in 60 s"
    assert not mismatches


def test_matmul_halves_matches_matmul():
    rng = np.random.default_rng(50)
    for m, k, n in [(4, 2048, 700), (700, 4, 600), (3, 5, 7)]:
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        np.testing.assert_allclose(T.matmul_halves(a, b), a @ b, rtol=1e-5, atol=1e-4)


def _blas_thread_counts() -> list[int]:
    with open("/proc/self/maps") as maps:
        libs = {ln.split()[-1] for ln in maps if "blas" in ln.lower() and ".so" in ln}
    counts = []
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, sym, None)
            if getter is not None:
                counts.append(getter())
                break
    return counts


def test_import_pins_openblas_to_one_thread():
    """A worker next to a second OpenBLAS thread is slower than either
    alone, so the worker exists only where OpenBLAS was pinned."""
    counts = _blas_thread_counts()
    assert all(c == 1 for c in counts), counts
    if not counts:
        assert T._pool is None


# Everything the benchmark's tracer attributes to the thread that calls it,
# except tensor.matmul, which the worker may run.
CALLER_ONLY = [
    (L, "conv2d_forward"), (L, "conv2d_backward"), (L, "maxpool2d_forward"),
    (L, "maxpool2d_backward"), (L, "dropout_forward"), (L, "dropout_backward"),
    (L, "flatten"), (L, "dense_forward"), (L, "dense_backward"), (L, "lstm_forward"),
    (L, "lstm_backward"), (T, "relu"), (T, "relu_backward"), (T, "softmax"),
    (T, "reshape"), (M, "_forward"), (M, "backward"), (TR, "loss_and_grads"),
    (TR, "adam_step"), (TR, "evaluate_loss_acc"),
]


def _lstm_sets():
    cfg = M.LstmConfig(timesteps=3, features=12, hidden=4, dense_units=5, classes=3)
    rng = np.random.default_rng(51)
    xs = [rng.standard_normal((3, 12)).astype(np.float32) for _ in range(6)]
    return M.build_lstm(cfg, seed=3), D.MemoryDataset(xs, [0, 1, 2] * 2, ["a", "b", "c"])


@pytest.mark.parametrize("arch", ["cnn", "lstm"])
def test_only_the_caller_enters_traced_functions(monkeypatch, arch):
    """One seeded training step and its validation, which runs eval
    micro-batches, with every split forced on: every layer call, model pass
    and training step runs on the calling thread, and the worker does run
    products."""
    if arch == "cnn":
        cfg = M.CnnConfig(input_size=14, channels=3, filters=(4, 6), dense_units=5,
                          classes=3, conv_dropout=0.25, dense_dropout=0.25)
        model, data = M.build_cnn(cfg, seed=1), D.synth_dataset(3, 2, seed=5, size=14)
    else:
        model, data = _lstm_sets()
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(T, "SPLIT_MIN", 0)
    for module, attr in CALLER_ONLY + [(T, "matmul")]:
        monkeypatch.setattr(module, attr,
                            recording(f"{module.__name__}.{attr}", getattr(module, attr)))
    TR.train(model, data, data, TR.TrainConfig(epochs=1, batch_size=len(data), seed=4))
    monkeypatch.undo()
    caller = threading.get_ident()
    elsewhere = {name for name, ident in calls if ident != caller}
    assert elsewhere <= {"leafnet.tensor.matmul"}, f"ran off the calling thread: {elsewhere}"
    assert {name for name, _ in calls} >= {"leafnet.training.adam_step",
                                           "leafnet.training.evaluate_loss_acc"}
    if T._pool is not None:
        assert elsewhere, "no product ran on the worker"
