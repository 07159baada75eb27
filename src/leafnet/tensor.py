"""Dense row-major arrays and the primitive numeric ops layers are built from.

A tensor here is a C-contiguous numpy array, float32 by default (gradient
checks run the same code on float64 replicas). There is no broadcasting
beyond bias-add over the last axis; every other shape change is an explicit
reshape, which keeps backward passes auditable.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

DTYPE = np.float32


def validate_shape(shape) -> tuple[int, ...]:
    """Check rank >= 1 and every dim >= 1; returns the shape as a tuple."""
    dims = tuple(int(d) for d in shape)
    if len(dims) < 1 or any(d < 1 for d in dims):
        raise ShapeError(f"invalid shape {dims}: rank >= 1 and all dims >= 1 required")
    return dims


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2-D matrix product; inner dimensions must agree."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    return a @ b


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0); with `out=x` it runs in place."""
    return np.maximum(x, 0, out=out)


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Pass upstream gradient where x > 0; x may be the forward input or the
    ReLU's output, which are positive at the same places."""
    if x.shape != upstream.shape:
        raise ShapeError(f"relu_backward shape mismatch: {x.shape} vs {upstream.shape}")
    return gate(x > 0, upstream)


def gate(keep: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.where(keep, x, 0), bit for bit (NaN, -0.0 and inf included), as an
    AND of x's unsigned words with a 0 / all-ones mask: no per-element branch."""
    word = np.dtype(f"u{x.dtype.itemsize}")
    mask = np.negative(keep, dtype=word)
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
