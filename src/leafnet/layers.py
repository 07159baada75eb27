"""Forward/backward passes and parameter accounting for every layer kind.

Conventions:
  - images are channels-last [H, W, C]; dense vectors are 1-D; LSTM
    sequences are [T, In]
  - every layer also takes a leading sample axis ([N, H, W, C], [N, In],
    [N, T, In]) and returns outputs and input gradients with it; an input
    without it is a batch of one. Parameter gradients are summed over the
    samples
  - conv kernels are [Kh, Kw, Cin, Cout], dense weights [In, Out]
  - LSTM packs the four gates along the last axis of W[In, 4H], U[H, 4H]
    and bias[4H] in the fixed order [input, forget, candidate, output]
    (GATE_ORDER); model files record it and loading checks it
  - parameters are read-only during forward/backward; only the optimizer
    mutates them
  - conv and dense apply the activation they are given (ReLU; softmax on
    dense); their backward, given the ReLU output as `activated`, gates the
    upstream itself. A softmax head's upstream is the loss's d(logits)

Convolution runs as row-tap GEMMs through the shared matmul kernel, so conv
and dense exercise one numeric hot path. A chunk of n samples is zero-padded
and flattened once to rows ordered (padded row r, sample b, padded column c),
so output row o starts at row o*n*Wp (Wp the padded width). For each band of
output rows, the kw column shifts of the band's padded rows are copied side by
side into a [rows, kw*C] buffer, and kernel row i, reshaped to [kw*C, Cout],
multiplies the buffer rows from i*n*Wp on: forward and the kernel gradient are
kh GEMMs with an inner or outer dimension of kw*C. The input gradient is kh*kw
shifted GEMMs, tap (i, j) adding into the padded rows from i*n*Wp + j.
Outputs are computed on "wide" rows of Wp columns and the kw-1 columns past
the output width are dropped. A chunk holds max(1, ROWS // (oh*Wp)) samples
and a band max(1, ROWS // (n*Wp)) output rows, so large layers stream one
sample through bounded bands and small ones batch samples in one band.

A conv call declares its multiply-adds to T.halves, which runs it whole
below T.SPLIT_MIN and otherwise splits it in two: the worker thread runs the
first half while the caller runs the second, each half chunking and banding
its own part. `_split` picks the axis from the shapes. Where the kernels
hold CHANNEL_SPLIT times the input's values (the 6x6 layers), forward splits
the output channels and backward the input channels, so each half reads half
the weights and writes its own slices of the results. Otherwise forward and
backward split the samples, and a single sample's forward its output rows;
a backward of one sample splits its input channels. Only the sample split
of backward sums in parts: each half sums its own kernel gradient, and the
second sum is added to the first.

Conv applies its ReLU inside the halves: forward activates each band of
output right after its bias add, and backward, given the activated output,
gates the upstream gradient with ReLU's gradient, each sample-split half
gating its own samples. Max-pool splits its samples at the same boundary,
so on a sample split the thread that wrote a sample's activations also
pools them. The dense and LSTM weight products go through T.matmul_halves;
dense activates on the calling thread. The worker runs only numpy ops,
T.matmul and T.gate, never a layer function (see tensor.halves).

The LSTM has two entry points. lstm_forward/lstm_backward run the whole
sequence and are what the models use. lstm_cell_step/lstm_cell_backward are
the single-step API: one recurrence step and its gradients, from any (h, c)
state, for checking the cell on its own; they share the gate arithmetic
(_gates, _gate_grads) with the sequence functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError

GATE_ORDER = "ifgo"


# ---------------------------------------------------------------------------
# initialization

def he_uniform(shape, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(T.DTYPE)


def glorot_uniform(shape, fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(T.DTYPE)


def init_conv(kh: int, kw: int, cin: int, cout: int,
              rng: np.random.Generator) -> dict[str, np.ndarray]:
    return {
        "kernels": he_uniform((kh, kw, cin, cout), kh * kw * cin, rng),
        "bias": np.zeros(cout, dtype=T.DTYPE),
    }


def init_dense(n_in: int, n_out: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    return {
        "weights": he_uniform((n_in, n_out), n_in, rng),
        "bias": np.zeros(n_out, dtype=T.DTYPE),
    }


def init_lstm(n_in: int, hidden: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Glorot kernels; forget-gate bias starts at 1, the rest at 0."""
    bias = np.zeros(4 * hidden, dtype=T.DTYPE)
    bias[hidden:2 * hidden] = 1.0
    return {
        "w_input": glorot_uniform((n_in, 4 * hidden), n_in, 4 * hidden, rng),
        "w_recurrent": glorot_uniform((hidden, 4 * hidden), hidden, 4 * hidden, rng),
        "bias": bias,
    }


def param_count(params: dict[str, np.ndarray]) -> int:
    return sum(int(p.size) for p in params.values())


# ---------------------------------------------------------------------------
# shared shape helpers

def _rows(a: np.ndarray) -> np.ndarray:
    """[..., K] as a 2-D [rows, K] matrix (a view when contiguous)."""
    return a.reshape(-1, a.shape[-1])


def _as_batch(x: np.ndarray, rank: int, what: str) -> np.ndarray:
    """x with a leading sample axis; a rank-`rank` input is a batch of one."""
    if x.ndim == rank:
        return x[None]
    if x.ndim != rank + 1:
        raise ShapeError(f"{what}, got shape {x.shape}")
    return x


# ---------------------------------------------------------------------------
# convolution (3x3, stride 1, same/valid)

# Wide output rows one conv GEMM aims for: a chunk of samples, or a band of a
# chunk's output rows, holds at most this many (one output row, at least).
# The band's row-tap buffer is (ROWS + (kh-1)*n*Wp) x kw*C, at most 2.8 MB on
# the stock CNN. Timed on its layers at 4 samples, 1024 to 4096 ran alike.
ROWS = 2048


def conv_output_hw(h: int, w: int, kh: int, kw: int, padding: str) -> tuple[int, int]:
    if padding == "same":
        return h, w
    if padding == "valid":
        if h < kh or w < kw:
            raise ShapeError(
                f"valid conv needs input >= kernel: input {h}x{w}, kernel {kh}x{kw}")
        return h - kh + 1, w - kw + 1
    raise ConfigError(f"unknown padding {padding!r}")


def _chunks(n: int, rows_each: int, lo: int = 0):
    """(first, count) of each run of items lo..n-1, `rows_each` wide rows
    apiece, that fits ROWS: the samples of one conv call, or the output rows
    of one chunk."""
    step = max(1, ROWS // rows_each)
    return [(b, min(step, n - b)) for b in range(lo, n, step)]


def _padded_rows(x: np.ndarray, pad: int, kw: int) -> np.ndarray:
    """Zero-pad a chunk [n, H, W, C] by `pad` on both spatial axes and flatten
    it to rows [(H+2p)*n*(W+2p) + kw-1, C]. Row (r*n + b)*Wp + c holds padded
    pixel (r, c) of sample b; the kw-1 trailing zero rows let the last
    shifted window run past the grid."""
    n, h, w, c = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    flat = np.zeros((hp * n * wp + kw - 1, c), dtype=x.dtype)
    flat[:hp * n * wp].reshape(hp, n, wp, c)[pad:pad + h, :, pad:pad + w] = \
        x.transpose(1, 0, 2, 3)
    return flat


def _row_taps(flat: np.ndarray, lo: int, hi: int, stride: int, kh: int, kw: int):
    """Per band of a chunk's output rows lo..hi-1 (stride = n*Wp rows per
    output row): (first output row o, row count, taps). taps
    [(kh-1+count)*stride, kw*C] holds the kw column shifts of flat's rows
    from o*stride side by side, so row t is flat[o*stride + t + j] for
    j = 0..kw-1, and the rows from i*stride on multiply kernel row i reshaped
    to [kw*C, Cout]. Every band reuses one buffer."""
    bands = _chunks(hi, stride, lo)
    buf = np.empty(((kh - 1 + bands[0][1]) * stride, kw, flat.shape[1]), dtype=flat.dtype)
    for o, no in bands:
        rows = (kh - 1 + no) * stride
        for j in range(kw):
            buf[:rows, j] = flat[o * stride + j:o * stride + j + rows]
        yield o, no, buf[:rows].reshape(rows, -1)


def _unpad(rows: np.ndarray, hp: int, n: int, wp: int, rs: slice, cs: slice) -> np.ndarray:
    """The [n, len(rs), len(cs), C] view of (row, sample, column)-ordered rows."""
    return rows[:hp * n * wp].reshape(hp, n, wp, -1)[rs, :, cs].transpose(1, 0, 2, 3)


def _forward_part(xb: np.ndarray, kernels: np.ndarray, bias: np.ndarray, pad: int,
                  out: np.ndarray, lo: int, hi: int, relu: bool) -> None:
    """Output rows lo..hi-1 of the samples xb [n, H, W, C], chunk by chunk
    and band by band, into out [n, oh, ow, Cout], with ReLU applied to each
    band after its bias add when `relu`. kernels and bias may be a slice of
    a layer's output channels, and out the matching slice."""
    kh, kw, cin, cout = kernels.shape
    wp = xb.shape[2] + 2 * pad
    oh, ow = out.shape[1:3]
    k_rows = kernels.reshape(kh, kw * cin, cout)
    for b, nb in _chunks(len(xb), oh * wp):
        flat = _padded_rows(xb[b:b + nb], pad, kw)
        stride = nb * wp
        for o, no, taps in _row_taps(flat, lo, hi, stride, kh, kw):
            m = no * stride
            acc = T.matmul(taps[:m], k_rows[0])
            for i in range(1, kh):
                acc += T.matmul(taps[i * stride:i * stride + m], k_rows[i])
            band = out[b:b + nb, o:o + no]
            np.add(_unpad(acc, no, nb, wp, slice(None), slice(ow)), bias, out=band)
            if relu:
                np.maximum(band, 0, out=band)


def _backward_part(xb: np.ndarray, ub: np.ndarray, kernels: np.ndarray, pad: int,
                   d_x: np.ndarray | None) -> np.ndarray:
    """The kernel gradient [kh, kw, C, Cout] of the samples xb [n, H, W, C]
    under upstream ub [n, oh, ow, Cout], summed over them; with d_x, their
    input gradient is written into it. kernels may be a slice of a layer's
    input channels, with xb and d_x the matching slices."""
    kh, kw, cin, cout = kernels.shape
    n, h, w, _ = xb.shape
    oh, ow = ub.shape[1:3]
    hp, wp = h + 2 * pad, w + 2 * pad
    d_rows = np.zeros((kh, kw * cin, cout), dtype=np.result_type(xb, ub))
    for b, nb in _chunks(n, oh * wp):
        flat = _padded_rows(xb[b:b + nb], pad, kw)
        stride = nb * wp
        u_chunk = ub[b:b + nb].transpose(1, 0, 2, 3)
        if d_x is not None:
            d_flat = np.zeros((flat.shape[0], cin), dtype=d_x.dtype)
        for o, no, taps in _row_taps(flat, 0, oh, stride, kh, kw):
            m = no * stride
            # wide rows: the kw-1 columns past the output width carry zero gradient
            up = np.zeros((no, nb, wp, cout), dtype=ub.dtype)
            up[:, :, :ow] = u_chunk[o:o + no]
            up = up.reshape(m, cout)
            for i in range(kh):
                d_rows[i] += T.matmul(taps[i * stride:i * stride + m].T, up)
            if d_x is not None:
                for i in range(kh):
                    for j in range(kw):
                        s = (o + i) * stride + j
                        d_flat[s:s + m] += T.matmul(up, kernels[i, j].T)
        if d_x is not None:
            d_x[b:b + nb] = _unpad(d_flat, hp, nb, wp, slice(pad, pad + h), slice(pad, pad + w))
    return d_rows.reshape(kh, kw, cin, cout)


# A conv call whose kernels hold this many times its input's values splits
# its channels: reading the weights then dominates, and each half reads half.
# Timed on the stock layers, that won on the 6x6 maps (32x at 4 samples, 64x
# and more at one) and lost or tied on the 14x14 ones (3x and 12x).
CHANNEL_SPLIT = 16


def _split(xb: np.ndarray, kernels: np.ndarray) -> str:
    """The axis along which T.halves splits a conv call, should it split:
    "channels" from CHANNEL_SPLIT on, else "samples", or the output "rows"
    of one sample. The choice depends on the shapes only."""
    if kernels.size >= CHANNEL_SPLIT * xb.size:
        return "channels"
    return "samples" if len(xb) > 1 else "rows"


def conv2d_forward(x: np.ndarray, params: dict[str, np.ndarray],
                   padding: str = "same", activation: str | None = None) -> np.ndarray:
    """Convolution, followed by ReLU when `activation` is "relu" (the only
    activation conv layers carry); T.halves splits a large call into halves
    of its output channels, samples or output rows, as `_split` picks, which
    write and activate disjoint parts of the output."""
    relu = activation == "relu"
    xb = _as_batch(x, 3, "conv2d input must be [H, W, C] or [N, H, W, C]")
    kernels, bias = params["kernels"], params["bias"]
    kh, kw, cin, cout = kernels.shape
    n, h, w, c = xb.shape
    if c != cin:
        raise ShapeError(f"conv2d channels mismatch: input {x.shape} vs kernels {kernels.shape}")
    oh, ow = conv_output_hw(h, w, kh, kw, padding)
    pad = (kh - 1) // 2 if padding == "same" else 0
    out = np.empty((n, oh, ow, cout), dtype=np.result_type(x, kernels, bias))
    work = n * oh * ow * kernels.size
    split = _split(xb, kernels)
    if split == "channels":
        T.halves(cout, lambda lo, hi: _forward_part(
            xb, kernels[..., lo:hi], bias[lo:hi], pad, out[..., lo:hi], 0, oh, relu), work)
    elif split == "samples":
        T.halves(n, lambda lo, hi: _forward_part(
            xb[lo:hi], kernels, bias, pad, out[lo:hi], 0, oh, relu), work)
    else:
        T.halves(oh, lambda lo, hi: _forward_part(
            xb, kernels, bias, pad, out, lo, hi, relu), work)
    return out if x.ndim == 4 else out[0]


def conv2d_backward(x: np.ndarray, params: dict[str, np.ndarray], upstream: np.ndarray,
                    padding: str = "same", need_input: bool = True,
                    activated: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Gradients for kernels, bias and, unless `need_input` is false, the
    input. With `activated`, the output of a forward with ReLU, upstream is
    first gated to where activated > 0 (ReLU's gradient). Bias grad is the
    per-channel sum of the gated upstream. A large call is split into halves
    of its input channels, which give disjoint slices of both gradients, or,
    where `_split` picks samples, into halves of the samples: each half then
    gates its own samples and sums its own kernel gradient, and the second
    half's sum is added to the first's."""
    xb = _as_batch(x, 3, "conv2d input must be [H, W, C] or [N, H, W, C]")
    kernels = params["kernels"]
    kh, kw, cin, cout = kernels.shape
    n, h, w, _ = xb.shape
    oh, ow = conv_output_hw(h, w, kh, kw, padding)
    if upstream.shape != x.shape[:-3] + (oh, ow, cout):
        raise ShapeError(f"conv2d upstream shape {upstream.shape} != forward output "
                         f"{x.shape[:-3] + (oh, ow, cout)}")
    if activated is not None and activated.shape != upstream.shape:
        raise ShapeError(f"conv2d activated output {activated.shape} vs upstream "
                         f"{upstream.shape}")
    ub = upstream if x.ndim == 4 else upstream[None]
    if activated is None:
        gated = ub
        gated_part = lambda lo, hi: ub[lo:hi]
    else:
        act = activated if x.ndim == 4 else activated[None]
        gated = np.empty(ub.shape, dtype=ub.dtype)
        gated_part = lambda lo, hi: T.gate(act[lo:hi] > 0, ub[lo:hi], out=gated[lo:hi])
    pad = (kh - 1) // 2 if padding == "same" else 0
    d_x = np.empty(xb.shape, dtype=np.result_type(upstream, kernels)) if need_input else None
    work = n * oh * ow * kernels.size
    if _split(xb, kernels) == "samples":
        d_k, *second = T.halves(n, lambda lo, hi: _backward_part(
            xb[lo:hi], gated_part(lo, hi), kernels, pad, None if d_x is None else d_x[lo:hi]),
            work)
        for part in second:
            d_k += part
    else:
        d_k = np.empty(kernels.shape, dtype=np.result_type(x, upstream))
        u = gated_part(0, n)

        def half(lo, hi):
            d_k[:, :, lo:hi] = _backward_part(xb[..., lo:hi], u, kernels[:, :, lo:hi], pad,
                                              None if d_x is None else d_x[..., lo:hi])
        T.halves(cin, half, work)
    grads = {"kernels": d_k, "bias": _rows(gated).sum(axis=0)}
    if need_input:
        grads["input"] = d_x if x.ndim == 4 else d_x[0]
    return grads


# ---------------------------------------------------------------------------
# max pooling (2x2, stride 2; odd trailing row/column dropped)

def _windows(x: np.ndarray, oh: int, ow: int) -> list[np.ndarray]:
    """The four strided views of 2x2 windows, in row-major position order."""
    return [x[..., di:2 * oh:2, dj:2 * ow:2, :] for di in (0, 1) for dj in (0, 1)]


# A max-pool call declares POOL_WEIGHT multiply-adds per input element to
# T.halves, so it splits from T.SPLIT_MIN // POOL_WEIGHT elements on. Timed
# on the stock pools at 4 samples, the split won from 28x28x128 (401K
# elements) up and lost at 12x12x256 (147K).
POOL_WEIGHT = 4


def maxpool2d_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Returns (pooled, indices); indices record the winning position 0..3
    within each window (row-major, ties to the lowest index). A window
    holding NaN pools to NaN. Both outputs are allocated here; a large batch
    is split into halves of its samples, each filling its own slices."""
    xb = _as_batch(x, 3, "maxpool input must be [H, W, C] or [N, H, W, C]")
    n, h, w, ch = xb.shape
    if h < 2 or w < 2:
        raise ShapeError(f"maxpool needs H, W >= 2, got {h}x{w}")
    oh, ow = h // 2, w // 2
    out = np.empty((n, oh, ow, ch), dtype=x.dtype)
    idx = np.empty(out.shape, dtype=np.uint8)

    def part(lo, hi):
        a, b, c, d = _windows(xb[lo:hi], oh, ow)
        o, i = out[lo:hi], idx[lo:hi]
        np.maximum(a, b, out=o)
        np.maximum(o, np.maximum(c, d), out=o)
        # first match wins: idx = 0 if a hit, else 1 if b hit, else 2 if c hit, else 3
        np.not_equal(c, o, out=i)
        i += 1
        i *= b != o
        i += 1
        i *= a != o

    T.halves(n, part, xb.size * POOL_WEIGHT)
    return (out, idx) if x.ndim == 4 else (out[0], idx[0])


def maxpool2d_backward(indices: np.ndarray, upstream: np.ndarray,
                       input_shape: tuple[int, ...]) -> np.ndarray:
    """Route each upstream value to its recorded argmax position; a large
    batch is split into halves of its samples, as in the forward."""
    if indices.shape != upstream.shape or len(input_shape) != upstream.ndim:
        raise ShapeError(f"maxpool indices {indices.shape} vs upstream {upstream.shape} "
                         f"and input {tuple(input_shape)}")
    ub = _as_batch(upstream, 3, "maxpool upstream must be [H, W, C] or [N, H, W, C]")
    ib = indices if indices.ndim == 4 else indices[None]
    oh, ow = ub.shape[1:3]
    d_x = np.zeros(input_shape, dtype=upstream.dtype)
    db = d_x if d_x.ndim == 4 else d_x[None]

    def part(lo, hi):
        for k, window in enumerate(_windows(db[lo:hi], oh, ow)):
            T.gate(ib[lo:hi] == k, ub[lo:hi], out=window)

    T.halves(len(db), part, db.size * POOL_WEIGHT)
    return d_x


# ---------------------------------------------------------------------------
# dense

def dense_forward(x: np.ndarray, params: dict[str, np.ndarray],
                  activation: str | None = None) -> np.ndarray:
    """x W + b, then the given activation: ReLU (in place) or softmax."""
    weights, bias = params["weights"], params["bias"]
    if x.ndim not in (1, 2) or x.shape[-1] != weights.shape[0]:
        raise ShapeError(f"dense input shape {x.shape} vs weights {weights.shape}")
    z = T.matmul_halves(_rows(x), weights).reshape(x.shape[:-1] + bias.shape) + bias
    if activation == "relu":
        return T.relu(z, out=z)
    return T.softmax(z) if activation == "softmax" else z


def dense_backward(x: np.ndarray, params: dict[str, np.ndarray], upstream: np.ndarray,
                   activated: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """dW = X^T U, db = column sums of U (both over the samples), dX = U W^T,
    with U the upstream gated by ReLU's gradient when `activated` is given."""
    weights = params["weights"]
    if upstream.shape != x.shape[:-1] + (weights.shape[1],):
        raise ShapeError(f"dense upstream shape {upstream.shape} vs input {x.shape} "
                         f"and weights {weights.shape}")
    u = _rows(upstream if activated is None else T.relu_backward(activated, upstream))
    return {
        "weights": T.matmul_halves(_rows(x).T, u),
        "bias": u.sum(axis=0),
        "input": T.matmul_halves(u, weights.T).reshape(x.shape),
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
    if x.ndim not in (3, 4):
        raise ShapeError(f"flatten expects [H, W, C] or [N, H, W, C], got shape {x.shape}")
    return T.reshape(x, x.shape[:-3] + (int(np.prod(x.shape[-3:])),))


# ---------------------------------------------------------------------------
# LSTM

def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e) where z >= 0 and e / (1 + e) below, with e = exp(-|z|),
    so exp never overflows."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _gates(z: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Split z = x W + h U + b into [i, f, g, o] along its last axis; then
    c' = sigmoid(f) * c + sigmoid(i) * tanh(g) and h' = sigmoid(o) * tanh(c').
    One sigmoid call covers all of z; its candidate quarter goes unused."""
    hidden = z.shape[-1] // 4
    s = _sigmoid(z)
    i, f, o = s[..., :hidden], s[..., hidden:2 * hidden], s[..., 3 * hidden:]
    g = np.tanh(z[..., 2 * hidden:3 * hidden])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    return o * tanh_c, c_new, {"c_prev": c, "i": i, "f": f, "g": g, "o": o,
                               "tanh_c": tanh_c}


def _gate_grads(cache: dict, dh: np.ndarray, dc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dL/dz of one step and dL/dc (the cell state's own path) given dL/dh'
    and dL/dc'."""
    i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
    tanh_c = cache["tanh_c"]
    dc_total = dc + dh * o * (1.0 - tanh_c * tanh_c)
    d_zo = dh * tanh_c * o * (1.0 - o)
    d_zf = dc_total * cache["c_prev"] * f * (1.0 - f)
    d_zi = dc_total * g * i * (1.0 - i)
    d_zg = dc_total * i * (1.0 - g * g)
    return np.concatenate([d_zi, d_zf, d_zg, d_zo], axis=-1), dc_total * f


def lstm_cell_step(x: np.ndarray, h: np.ndarray, c: np.ndarray,
                   params: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray, dict]:
    """One recurrence step on x [In] or [N, In] (see _gates). The cache
    retains everything lstm_cell_backward needs."""
    w, u, b = params["w_input"], params["w_recurrent"], params["bias"]
    n_in, four_h = w.shape
    state = x.shape[:-1] + (four_h // 4,)
    if x.ndim not in (1, 2) or x.shape[-1] != n_in or h.shape != state or c.shape != state:
        raise ShapeError(
            f"lstm step shapes: x {x.shape}, h {h.shape}, c {c.shape} "
            f"vs W {w.shape}")
    z = (T.matmul(_rows(x), w) + T.matmul(_rows(h), u)).reshape(x.shape[:-1] + (four_h,)) + b
    h_new, c_new, cache = _gates(z, c)
    cache.update(x=x, h_prev=h)
    return h_new, c_new, cache


def lstm_cell_backward(cache: dict, params: dict[str, np.ndarray],
                       dh: np.ndarray, dc: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of one step given dL/dh' and dL/dc' (dc accumulates the
    contribution flowing straight through the cell state)."""
    w, u = params["w_input"], params["w_recurrent"]
    dz, dc_prev = _gate_grads(cache, dh, dc)
    dzr = _rows(dz)
    return {
        "w_input": T.matmul(_rows(cache["x"]).T, dzr),
        "w_recurrent": T.matmul(_rows(cache["h_prev"]).T, dzr),
        "bias": dzr.sum(axis=0),
        "input": T.matmul(dzr, w.T).reshape(cache["x"].shape),
        "h_prev": T.matmul(dzr, u.T).reshape(dh.shape),
        "c_prev": dc_prev,
    }


def lstm_forward(sequence: np.ndarray, params: dict[str, np.ndarray]
                 ) -> tuple[np.ndarray, dict]:
    """Run the cell over t = 1..T from zero state on [T, In] or [N, T, In];
    returns the final hidden state (the sequence's summary vector feeding
    the dense head) and the caches lstm_backward reads. The input
    projection x W of every step is one GEMM."""
    if sequence.ndim not in (2, 3):
        raise ShapeError(f"lstm input must be [T, In] or [N, T, In], got shape {sequence.shape}")
    if sequence.shape[-2] < 1:
        raise ConfigError("lstm sequence must have at least one step")
    w, u, b = params["w_input"], params["w_recurrent"], params["bias"]
    if sequence.shape[-1] != w.shape[0]:
        raise ShapeError(f"lstm input shape {sequence.shape} vs W {w.shape}")
    lead, t_steps, four_h = sequence.shape[:-2], sequence.shape[-2], w.shape[1]
    xw = T.matmul_halves(_rows(sequence), w).reshape(lead + (t_steps, four_h))
    h_prev = np.zeros(lead + (t_steps, four_h // 4), dtype=xw.dtype)
    c = np.zeros(lead + (four_h // 4,), dtype=xw.dtype)
    steps = []
    for t in range(t_steps):
        h = h_prev[..., t, :]
        z = xw[..., t, :] + T.matmul(_rows(h), u).reshape(lead + (four_h,)) + b
        h, c, cache = _gates(z, c)
        if t + 1 < t_steps:
            h_prev[..., t + 1, :] = h
        steps.append(cache)
    return h, {"x": sequence, "h_prev": h_prev, "steps": steps}


def lstm_backward(caches: dict, params: dict[str, np.ndarray], dh_last: np.ndarray,
                  need_input: bool = True) -> dict[str, np.ndarray]:
    """Backpropagate through time from the final hidden state only. The time
    loop carries dh and dc; the weight, bias and input gradients are one GEMM
    each over every step's dL/dz afterwards."""
    w, u = params["w_input"], params["w_recurrent"]
    x, steps = caches["x"], caches["steps"]
    dz = np.empty(x.shape[:-1] + (w.shape[1],), dtype=np.result_type(dh_last, u))
    dh, dc = dh_last, np.zeros_like(dh_last)
    for t in range(len(steps) - 1, -1, -1):
        dz_t, dc = _gate_grads(steps[t], dh, dc)
        dz[..., t, :] = dz_t
        if t:
            dh = T.matmul(_rows(dz_t), u.T).reshape(dh.shape)
    dzr = _rows(dz)
    grads = {"w_input": T.matmul_halves(_rows(x).T, dzr),
             "w_recurrent": T.matmul_halves(_rows(caches["h_prev"]).T, dzr),
             "bias": dzr.sum(axis=0)}
    if need_input:
        grads["input"] = T.matmul_halves(dzr, w.T).reshape(x.shape)
    return grads
