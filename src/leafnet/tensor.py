"""Dense row-major arrays and the primitive numeric ops layers are built from.

A tensor here is a C-contiguous numpy array, float32 by default (gradient
checks run the same code on float64 replicas). There is no broadcasting
beyond bias-add over the last axis; every other shape change is an explicit
reshape, which keeps backward passes auditable.

Threads: importing this module pins numpy's OpenBLAS to one thread for the
whole process, and `halves` runs the first half of a piece of work on one
persistent worker thread while the caller runs the second; a forked child
starts a worker of its own on its first split. OpenBLAS's own helper
threads spin after each call, so a second BLAS thread next to the worker
slows both; with no known setter, or one usable CPU, there is no worker.
`halves` alone decides whether a call splits, from its item count and the
multiply-adds its caller declares (SPLIT_MIN). The split points depend only
on the work's size, never on timing or the CPU count, and the inline path
runs the same two halves in turn, so results are the same bytes with and
without the worker.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import NumericError, ShapeError

DTYPE = np.float32


def validate_shape(shape) -> tuple[int, ...]:
    """Check rank >= 1 and every dim >= 1; returns the shape as a tuple."""
    dims = tuple(int(d) for d in shape)
    if len(dims) < 1 or any(d < 1 for d in dims):
        raise ShapeError(f"invalid shape {dims}: rank >= 1 and all dims >= 1 required")
    return dims


def _pin_blas() -> bool:
    """Set every loaded OpenBLAS to one thread; False if none has a known
    setter (or the process maps cannot be read)."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {ln.split(maxsplit=5)[5].rstrip("\n") for ln in maps
                    if "blas" in ln.lower() and ".so" in ln}
    except OSError:
        return False
    pinned = False
    for lib in sorted(libs):
        try:    # the path field may name what is gone, e.g. "... (deleted)"
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                    "openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(handle, sym, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                pinned = True
                break
    return pinned


_inside = threading.local()   # .busy: this thread is running a half


def _start_worker() -> None:
    """First thing on the worker thread: mark it busy, and move it off the
    CPU it was started on, which is its caller's. A scheduler that does not
    balance load across CPUs would otherwise keep both threads on one."""
    _inside.busy = True
    getcpu = getattr(ctypes.CDLL(None), "sched_getcpu", None)
    if getcpu is not None:
        getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    others = os.sched_getaffinity(0) - {getcpu() if getcpu else -1}
    if others:
        os.sched_setaffinity(0, others)


def _new_pool() -> None:
    """Make the executor of the one worker, which starts on first use. A
    forked child inherits the executor but not its thread, and a split would
    wait forever on it, so the child makes its own."""
    global _pool
    _pool = ThreadPoolExecutor(1, "leafnet-half", _start_worker)


# None (every split inline) without a BLAS pin or a second CPU.
_pool = None
if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1 and _pin_blas():
    _new_pool()
    os.register_at_fork(after_in_child=_new_pool)


# Multiply-adds below which a call runs whole, unsplit: the handoff to the
# worker costs about as much as that much work.
SPLIT_MIN = 1 << 20


def halves(n: int, fn, work: int | None = None) -> list:
    """[fn(0, n // 2), fn(n // 2, n)], or [fn(0, n)] when n < 2 or when
    `work`, the call's multiply-adds, is given and below SPLIT_MIN.

    The first half runs on the worker thread while the caller runs the
    second, and both have finished when this returns. A call made from
    inside a half, or with no worker, runs the same two halves in turn on
    the calling thread. An exception from either half is raised here, with
    its type, once both have finished. The worker may run only numpy ops,
    `matmul` and `gate`: the benchmark's tracer attributes every other
    leafnet call to the thread that makes it."""
    if n < 2 or (work is not None and work < SPLIT_MIN):
        return [fn(0, n)]
    mid = n // 2
    if _pool is None or getattr(_inside, "busy", False):
        return [fn(0, mid), fn(mid, n)]
    first = _pool.submit(fn, 0, mid)
    _inside.busy = True
    try:
        second = fn(mid, n)
    except BaseException:
        first.exception()   # wait for the worker's half
        raise
    finally:
        _inside.busy = False
    return [first.result(), second]


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2-D matrix product, into `out` if given; inner dimensions must agree."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    return a @ b if out is None else np.matmul(a, b, out=out)


# Elements per block of an elementwise pass over a set of parameter-shaped
# tensors (Adam, the gradient sum and its scale). Whole tensors stream
# through memory once per operation; in 64K-element blocks, which stay in
# cache across a pass's operations, one thread took 36-40 ms per stock CNN
# Adam step against 58 ms whole. `halves` splits the list of blocks.
BLOCK = 1 << 16


def blocks(*arrays: np.ndarray) -> list[list[np.ndarray]]:
    """Matching flat slices of at most BLOCK elements of equal-size arrays;
    the slices of a C-contiguous array are views of it."""
    flat = [a.reshape(-1) for a in arrays]
    return [[a[s:s + BLOCK] for a in flat] for s in range(0, flat[0].size, BLOCK)]


def matmul_halves(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """matmul(a, b) with the larger output dimension split by `halves`, given
    the product's a.size * b.shape[1] multiply-adds. Each output element is
    still one product over the whole inner dimension."""
    if a.ndim != 2 or b.ndim != 2:
        return matmul(a, b)
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    work = a.size * b.shape[1]
    if a.shape[0] >= b.shape[1]:
        halves(a.shape[0], lambda lo, hi: matmul(a[lo:hi], b, out=out[lo:hi]), work)
    else:
        halves(b.shape[1], lambda lo, hi: matmul(a, b[:, lo:hi], out=out[:, lo:hi]), work)
    return out


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0); with `out=x` it runs in place."""
    return np.maximum(x, 0, out=out)


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Pass upstream gradient where x > 0; x may be the forward input or the
    ReLU's output, which are positive at the same places."""
    if x.shape != upstream.shape:
        raise ShapeError(f"relu_backward shape mismatch: {x.shape} vs {upstream.shape}")
    return gate(x > 0, upstream)


def gate(keep: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.where(keep, x, 0), bit for bit (NaN, -0.0 and inf included), as an
    AND of x's unsigned words with a 0 / all-ones mask: no per-element branch.
    With `out` (x's shape and dtype, any strides, not overlapping x), the
    mask and then the result are written there."""
    word = np.dtype(f"u{x.dtype.itemsize}")
    mask = np.negative(keep, dtype=word, out=None if out is None else out.view(word))
    return np.bitwise_and(x.view(word), mask, out=mask).view(x.dtype)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Exp-normalize a logit vector [K], or each row of [N, K];
    max-subtraction keeps exp in range."""
    if logits.ndim not in (1, 2) or logits.shape[-1] < 1:
        raise ShapeError(f"softmax needs non-empty [K] or [N, K] logits, got shape {logits.shape}")
    if not np.all(np.isfinite(logits)):
        raise NumericError("softmax input contains non-finite values")
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def reshape(x: np.ndarray, shape) -> np.ndarray:
    dims = validate_shape(shape)
    if int(np.prod(dims)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} ({x.size} elements) to {dims}")
    return np.ascontiguousarray(x).reshape(dims)
