"""Forward/backward passes and parameter accounting for every layer kind.

Conventions:
  - images are channels-last [H, W, C]; dense vectors are 1-D
  - conv kernels are [Kh, Kw, Cin, Cout], dense weights [In, Out]
  - LSTM packs the four gates along the last axis of W[In, 4H], U[H, 4H]
    and bias[4H] in the fixed order [input, forget, candidate, output];
    model files depend on that order
  - parameters are read-only during forward/backward; only the optimizer
    mutates them

Convolution forward and backward are nine shifted GEMMs through the shared
matmul kernel, so conv and dense exercise one numeric hot path: the padded
input is flattened once to rows, and kernel tap (i, j) multiplies the rows
starting at i*Wp + j (Wp the padded width). Outputs are computed on "wide"
rows of Wp columns and the kw-1 columns past the output width are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError

GATE_ORDER = "ifgo"


# ---------------------------------------------------------------------------
# initialization

def he_uniform(shape, fan_in: int, rng: np.random.Generator, dtype=T.DTYPE) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def glorot_uniform(shape, fan_in: int, fan_out: int, rng: np.random.Generator,
                   dtype=T.DTYPE) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def init_conv(kh: int, kw: int, cin: int, cout: int, rng: np.random.Generator,
              dtype=T.DTYPE) -> dict[str, np.ndarray]:
    return {
        "kernels": he_uniform((kh, kw, cin, cout), kh * kw * cin, rng, dtype),
        "bias": np.zeros(cout, dtype=dtype),
    }


def init_dense(n_in: int, n_out: int, rng: np.random.Generator,
               dtype=T.DTYPE) -> dict[str, np.ndarray]:
    return {
        "weights": he_uniform((n_in, n_out), n_in, rng, dtype),
        "bias": np.zeros(n_out, dtype=dtype),
    }


def init_lstm(n_in: int, hidden: int, rng: np.random.Generator,
              dtype=T.DTYPE) -> dict[str, np.ndarray]:
    """Glorot kernels; forget-gate bias starts at 1, the rest at 0."""
    bias = np.zeros(4 * hidden, dtype=dtype)
    bias[hidden:2 * hidden] = 1.0
    return {
        "w_input": glorot_uniform((n_in, 4 * hidden), n_in, 4 * hidden, rng, dtype),
        "w_recurrent": glorot_uniform((hidden, 4 * hidden), hidden, 4 * hidden, rng, dtype),
        "bias": bias,
    }


def param_count(params: dict[str, np.ndarray]) -> int:
    return sum(int(p.size) for p in params.values())


# ---------------------------------------------------------------------------
# convolution (3x3, stride 1, same/valid)

def conv_output_hw(h: int, w: int, kh: int, kw: int, padding: str) -> tuple[int, int]:
    if padding == "same":
        return h, w
    if padding == "valid":
        if h < kh or w < kw:
            raise ShapeError(
                f"valid conv needs input >= kernel: input {h}x{w}, kernel {kh}x{kw}")
        return h - kh + 1, w - kw + 1
    raise ConfigError(f"unknown padding {padding!r}")


def _padded_rows(x: np.ndarray, pad: int, kw: int) -> np.ndarray:
    """Zero-pad [H, W, C] by `pad` on both spatial axes and flatten it to rows
    [(H+2p)*(W+2p) + kw-1, C]. Row r*Wp + c holds padded pixel (r, c); the
    kw-1 trailing zero rows let the last shifted window run past the grid."""
    h, w, c = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    flat = np.zeros((hp * wp + kw - 1, c), dtype=x.dtype)
    flat[:hp * wp].reshape(hp, wp, c)[pad:pad + h, pad:pad + w] = x
    return flat


def _taps(kh: int, kw: int, wp: int):
    """Kernel taps (i, j) with the row offset i*Wp + j of their shifted window."""
    return [(i, j, i * wp + j) for i in range(kh) for j in range(kw)]


def conv2d_forward(x: np.ndarray, params: dict[str, np.ndarray],
                   padding: str = "same") -> np.ndarray:
    if x.ndim != 3:
        raise ShapeError(f"conv2d input must be [H, W, C], got shape {x.shape}")
    kernels, bias = params["kernels"], params["bias"]
    kh, kw, cin, cout = kernels.shape
    if x.shape[2] != cin:
        raise ShapeError(f"conv2d channels mismatch: input {x.shape} vs kernels {kernels.shape}")
    h, w = x.shape[:2]
    oh, ow = conv_output_hw(h, w, kh, kw, padding)
    pad = (kh - 1) // 2 if padding == "same" else 0
    wp = w + 2 * pad
    flat = _padded_rows(x, pad, kw)
    n = oh * wp
    out = np.zeros((n, cout), dtype=np.result_type(x, kernels))
    for i, j, s in _taps(kh, kw, wp):
        out += T.matmul(flat[s:s + n], kernels[i, j])
    return out.reshape(oh, wp, cout)[:, :ow] + bias


def conv2d_backward(x: np.ndarray, params: dict[str, np.ndarray], upstream: np.ndarray,
                    padding: str = "same") -> dict[str, np.ndarray]:
    """Gradients for kernels, bias, and input. Bias grad is the per-channel
    sum of the upstream gradient."""
    kernels = params["kernels"]
    kh, kw, cin, cout = kernels.shape
    h, w = x.shape[:2]
    oh, ow = conv_output_hw(h, w, kh, kw, padding)
    if upstream.shape != (oh, ow, cout):
        raise ShapeError(
            f"conv2d upstream shape {upstream.shape} != forward output {(oh, ow, cout)}")
    pad = (kh - 1) // 2 if padding == "same" else 0
    hp, wp = h + 2 * pad, w + 2 * pad
    flat = _padded_rows(x, pad, kw)
    n = oh * wp
    # wide rows: the kw-1 columns past the output width carry zero gradient
    up = np.zeros((oh, wp, cout), dtype=upstream.dtype)
    up[:, :ow] = upstream
    up = up.reshape(n, cout)
    d_kernels = np.empty(kernels.shape, dtype=np.result_type(x, upstream))
    d_flat = np.zeros((flat.shape[0], cin), dtype=np.result_type(upstream, kernels))
    for i, j, s in _taps(kh, kw, wp):
        d_kernels[i, j] = T.matmul(flat[s:s + n].T, up)
        d_flat[s:s + n] += T.matmul(up, kernels[i, j].T)
    d_bias = upstream.reshape(oh * ow, cout).sum(axis=0)
    d_x = d_flat[:hp * wp].reshape(hp, wp, cin)[pad:pad + h, pad:pad + w]
    return {"kernels": d_kernels, "bias": d_bias, "input": d_x}


# ---------------------------------------------------------------------------
# max pooling (2x2, stride 2; odd trailing row/column dropped)

def _windows(x: np.ndarray, oh: int, ow: int) -> list[np.ndarray]:
    """The four strided views of 2x2 windows, in row-major position order."""
    return [x[di:2 * oh:2, dj:2 * ow:2] for di in (0, 1) for dj in (0, 1)]


def maxpool2d_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Returns (pooled, indices); indices record the winning position 0..3
    within each window (row-major, ties to the lowest index). A window
    holding NaN pools to NaN."""
    if x.ndim != 3:
        raise ShapeError(f"maxpool input must be [H, W, C], got shape {x.shape}")
    h, w = x.shape[:2]
    if h < 2 or w < 2:
        raise ShapeError(f"maxpool needs H, W >= 2, got {h}x{w}")
    a, b, c, d = _windows(x, h // 2, w // 2)
    out = np.maximum(np.maximum(a, b), np.maximum(c, d))
    # first match wins: idx = 0 if a hit, else 1 if b hit, else 2 if c hit, else 3
    idx = (c != out).astype(np.uint8)
    idx += 1
    idx *= b != out
    idx += 1
    idx *= a != out
    return out, idx


def maxpool2d_backward(indices: np.ndarray, upstream: np.ndarray,
                       input_shape: tuple[int, int, int]) -> np.ndarray:
    """Route each upstream value to its recorded argmax position."""
    if indices.shape != upstream.shape:
        raise ShapeError(f"maxpool indices {indices.shape} vs upstream {upstream.shape}")
    oh, ow, _ = upstream.shape
    d_x = np.zeros(input_shape, dtype=upstream.dtype)
    for k, window in enumerate(_windows(d_x, oh, ow)):
        window[...] = np.where(indices == k, upstream, 0)
    return d_x


# ---------------------------------------------------------------------------
# dense

def dense_forward(x: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    weights, bias = params["weights"], params["bias"]
    if x.ndim != 1 or x.shape[0] != weights.shape[0]:
        raise ShapeError(f"dense input shape {x.shape} vs weights {weights.shape}")
    return T.matmul(x[None, :], weights)[0] + bias


def dense_backward(x: np.ndarray, params: dict[str, np.ndarray],
                   upstream: np.ndarray) -> dict[str, np.ndarray]:
    weights = params["weights"]
    if upstream.shape != (weights.shape[1],):
        raise ShapeError(f"dense upstream shape {upstream.shape} vs weights {weights.shape}")
    return {
        "weights": T.matmul(x[:, None], upstream[None, :]),
        "bias": upstream.copy(),
        "input": T.matmul(weights, upstream[:, None])[:, 0],
    }


# ---------------------------------------------------------------------------
# dropout (inverted: survivors scaled at train time, inference is identity)

@dataclass
class DropoutMask:
    rate: float
    mask: np.ndarray | None  # 0/1 keep mask; None means identity (inference)


def dropout_forward(x: np.ndarray, rate: float, mode: str,
                    rng: np.random.Generator | None = None) -> tuple[np.ndarray, DropoutMask]:
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if mode == "infer" or rate == 0.0:
        return x, DropoutMask(rate, None)
    if mode != "train":
        raise ConfigError(f"dropout mode must be 'train' or 'infer', got {mode!r}")
    if rng is None:
        raise ConfigError("train-mode dropout needs an rng")
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    scale = x.dtype.type(1.0 / (1.0 - rate))
    return x * keep * scale, DropoutMask(rate, keep)


def dropout_backward(mask: DropoutMask, upstream: np.ndarray) -> np.ndarray:
    if mask.mask is None:
        return upstream
    scale = upstream.dtype.type(1.0 / (1.0 - mask.rate))
    return upstream * mask.mask * scale


# ---------------------------------------------------------------------------
# flatten

def flatten(x: np.ndarray) -> np.ndarray:
    if x.ndim != 3:
        raise ShapeError(f"flatten expects [H, W, C], got shape {x.shape}")
    return T.reshape(x, (x.size,))


# ---------------------------------------------------------------------------
# LSTM

def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lstm_cell_step(x: np.ndarray, h: np.ndarray, c: np.ndarray,
                   params: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray, dict]:
    """One recurrence step.

    z = x W + h U + b is split into [i, f, g, o]; then
    c' = sigmoid(f) * c + sigmoid(i) * tanh(g) and h' = sigmoid(o) * tanh(c').
    The cache retains everything the backward pass needs.
    """
    w, u, b = params["w_input"], params["w_recurrent"], params["bias"]
    n_in, four_h = w.shape
    hidden = four_h // 4
    if x.shape != (n_in,) or h.shape != (hidden,) or c.shape != (hidden,):
        raise ShapeError(
            f"lstm step shapes: x {x.shape}, h {h.shape}, c {c.shape} "
            f"vs W {w.shape}")
    z = T.matmul(x[None, :], w)[0] + T.matmul(h[None, :], u)[0] + b
    zi, zf, zg, zo = (z[k * hidden:(k + 1) * hidden] for k in range(4))
    i, f, o = _sigmoid(zi), _sigmoid(zf), _sigmoid(zo)
    g = np.tanh(zg)
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    h_new = o * tanh_c
    cache = {"x": x, "h_prev": h, "c_prev": c, "i": i, "f": f, "g": g, "o": o,
             "tanh_c": tanh_c}
    return h_new, c_new, cache


def lstm_cell_backward(cache: dict, params: dict[str, np.ndarray],
                       dh: np.ndarray, dc: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of one step given dL/dh' and dL/dc' (dc accumulates the
    contribution flowing straight through the cell state)."""
    w, u = params["w_input"], params["w_recurrent"]
    i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
    tanh_c = cache["tanh_c"]
    dc_total = dc + dh * o * (1.0 - tanh_c * tanh_c)
    d_zo = dh * tanh_c * o * (1.0 - o)
    d_zf = dc_total * cache["c_prev"] * f * (1.0 - f)
    d_zi = dc_total * g * i * (1.0 - i)
    d_zg = dc_total * i * (1.0 - g * g)
    dz = np.concatenate([d_zi, d_zf, d_zg, d_zo])
    return {
        "w_input": T.matmul(cache["x"][:, None], dz[None, :]),
        "w_recurrent": T.matmul(cache["h_prev"][:, None], dz[None, :]),
        "bias": dz,
        "input": T.matmul(w, dz[:, None])[:, 0],
        "h_prev": T.matmul(u, dz[:, None])[:, 0],
        "c_prev": dc_total * f,
    }


def lstm_forward(sequence: np.ndarray, params: dict[str, np.ndarray],
                 return_caches: bool = False):
    """Run the cell over t = 1..T from zero state; returns the final hidden
    state (the sequence's summary vector feeding the dense head)."""
    if sequence.ndim != 2:
        raise ShapeError(f"lstm input must be [T, In], got shape {sequence.shape}")
    if sequence.shape[0] < 1:
        raise ConfigError("lstm sequence must have at least one step")
    hidden = params["w_recurrent"].shape[0]
    h = np.zeros(hidden, dtype=sequence.dtype)
    c = np.zeros(hidden, dtype=sequence.dtype)
    caches = []
    for t in range(sequence.shape[0]):
        h, c, cache = lstm_cell_step(sequence[t], h, c, params)
        if return_caches:
            caches.append(cache)
    if return_caches:
        return h, caches
    return h


def lstm_backward(caches: list[dict], params: dict[str, np.ndarray],
                  dh_last: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate through time from the final hidden state only."""
    hidden = params["w_recurrent"].shape[0]
    grads = {
        "w_input": np.zeros_like(params["w_input"]),
        "w_recurrent": np.zeros_like(params["w_recurrent"]),
        "bias": np.zeros_like(params["bias"]),
    }
    t_steps = len(caches)
    d_input = np.zeros((t_steps, params["w_input"].shape[0]), dtype=dh_last.dtype)
    dh = dh_last
    dc = np.zeros(hidden, dtype=dh_last.dtype)
    for t in range(t_steps - 1, -1, -1):
        step = lstm_cell_backward(caches[t], params, dh, dc)
        grads["w_input"] += step["w_input"]
        grads["w_recurrent"] += step["w_recurrent"]
        grads["bias"] += step["bias"]
        d_input[t] = step["input"]
        dh, dc = step["h_prev"], step["c_prev"]
    grads["input"] = d_input
    return grads
