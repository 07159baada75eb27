"""Architecture specs, the two stock classifiers, summaries, and inference.

The CNN default is five blocks of [3x3 conv (same) + ReLU, 3x3 conv (valid)
+ ReLU, 2x2 max pool] with filters 32..512, dropout, flatten, a 1500-unit
ReLU dense layer, dropout, and a 38-way softmax head (7,842,762 trainable
parameters). The LSTM default runs a 128-unit cell over [15, 1280]
sequences into a 128-unit ReLU dense layer and the same softmax head
(742,822 parameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import layers as L
from . import tensor as T
from .errors import ConfigError, ModelStateError, ShapeError


@dataclass(frozen=True)
class CnnConfig:
    input_size: int = 128
    channels: int = 3
    filters: tuple[int, ...] = (32, 64, 128, 256, 512)
    dense_units: int = 1500
    classes: int = 38
    conv_dropout: float = 0.25
    dense_dropout: float = 0.4


@dataclass(frozen=True)
class LstmConfig:
    timesteps: int = 15
    features: int = 1280
    hidden: int = 128
    dense_units: int = 128
    classes: int = CnnConfig.classes


@dataclass
class LayerSpec:
    """One layer of a sequential model: kind, name, and shape bookkeeping."""
    kind: str                 # conv | maxpool | dropout | flatten | dense | lstm
    name: str
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    activation: str | None = None   # relu | softmax | None
    padding: str | None = None      # conv only
    rate: float | None = None       # dropout only


@dataclass
class ModelSpec:
    arch: str                 # cnn | lstm
    config: CnnConfig | LstmConfig
    layers: list[LayerSpec]
    input_shape: tuple[int, ...]
    classes: int


@dataclass
class SequentialModel:
    spec: ModelSpec
    params: list[dict[str, np.ndarray]]   # one dict per layer, empty if none
    label_map: list[str] = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(L.param_count(p) for p in self.params)

    def layer_param_counts(self) -> list[int]:
        return [L.param_count(p) for p in self.params]


@dataclass
class SummaryRow:
    name: str
    kind: str
    output_shape: tuple[int, ...]
    params: int


class _Namer:
    """Keras-style layer names: first use is bare, repeats get _1, _2, ..."""

    def __init__(self):
        self._counts: dict[str, int] = {}

    def __call__(self, base: str) -> str:
        n = self._counts.get(base, 0)
        self._counts[base] = n + 1
        return base if n == 0 else f"{base}_{n}"


def cnn_spec(cfg: CnnConfig) -> ModelSpec:
    """Layer specs of the convolutional classifier; draws no parameters."""
    if cfg.input_size < 3 or cfg.channels < 1 or cfg.classes < 2 or cfg.dense_units < 1:
        raise ConfigError(f"invalid CNN config: {cfg}")
    if not cfg.filters or any(f < 1 for f in cfg.filters):
        raise ConfigError(f"CNN filter progression must be positive: {cfg.filters}")
    if not (0 <= cfg.conv_dropout < 1 and 0 <= cfg.dense_dropout < 1):   # NaN fails too
        raise ConfigError(f"CNN dropout rates must be in [0, 1): {cfg.conv_dropout}, "
                          f"{cfg.dense_dropout}")
    name = _Namer()
    specs: list[LayerSpec] = []
    shape = (cfg.input_size, cfg.input_size, cfg.channels)

    def add(spec: LayerSpec) -> tuple[int, ...]:
        specs.append(spec)
        return spec.output_shape

    for n_filters in cfg.filters:
        for padding in ("same", "valid"):
            layer_name = name("conv2d")
            h, w, _ = shape
            if padding == "valid" and (h < 3 or w < 3):
                raise ConfigError(
                    f"layer {layer_name}: input {h}x{w} too small for a 3x3 valid conv")
            oh, ow = L.conv_output_hw(h, w, 3, 3, padding)
            shape = add(LayerSpec("conv", layer_name, shape, (oh, ow, n_filters),
                                  activation="relu", padding=padding))
        layer_name = name("max_pooling2d")
        h, w, c = shape
        if h < 2 or w < 2:
            raise ConfigError(f"layer {layer_name}: input {h}x{w} too small for 2x2 pooling")
        shape = add(LayerSpec("maxpool", layer_name, shape, (h // 2, w // 2, c)))

    shape = add(LayerSpec("dropout", name("dropout"), shape, shape, rate=cfg.conv_dropout))
    shape = add(LayerSpec("flatten", name("flatten"), shape, (math.prod(shape),)))
    shape = add(LayerSpec("dense", name("dense"), shape, (cfg.dense_units,),
                          activation="relu"))
    shape = add(LayerSpec("dropout", name("dropout"), shape, shape, rate=cfg.dense_dropout))
    add(LayerSpec("dense", name("dense"), shape, (cfg.classes,), activation="softmax"))
    return ModelSpec("cnn", cfg, specs, (cfg.input_size, cfg.input_size, cfg.channels),
                     cfg.classes)


def lstm_spec(cfg: LstmConfig) -> ModelSpec:
    """Layer specs of the recurrent classifier; draws no parameters."""
    if min(cfg.timesteps, cfg.features, cfg.hidden, cfg.dense_units) < 1 or cfg.classes < 2:
        raise ConfigError(f"invalid LSTM config: {cfg}")
    name = _Namer()
    in_shape = (cfg.timesteps, cfg.features)
    specs = [
        LayerSpec("lstm", name("lstm"), in_shape, (cfg.hidden,)),
        LayerSpec("dense", name("dense"), (cfg.hidden,), (cfg.dense_units,),
                  activation="relu"),
        LayerSpec("dense", name("dense"), (cfg.dense_units,), (cfg.classes,),
                  activation="softmax"),
    ]
    return ModelSpec("lstm", cfg, specs, in_shape, cfg.classes)


class _Kind(NamedTuple):
    """What the model needs of one layer kind. forward(spec, params, x, mode,
    rng) returns the output, activated as the spec says, and the cache
    backward reads. backward(spec, params, cache, d_out, need_input) returns
    the parameter gradients plus, when need_input, the input gradient under
    "input". Layer functions are looked up when called
    (`L.conv2d_forward(...)`), so module-level replacements such as timing
    wrappers see every call."""
    label: str
    shapes: Callable[[LayerSpec], dict[str, tuple[int, ...]]]
    init: Callable              # (parameter shapes, rng) -> parameters
    forward: Callable
    backward: Callable


def _no_params(*_) -> dict:
    """Shapes and initializer of a kind without parameters."""
    return {}


def _cached(s: LayerSpec, x, out):
    """Conv and dense caches: the input, and the ReLU output for its gate."""
    return out, (x, out if s.activation == "relu" else None)


def _lstm_shapes(layer: LayerSpec) -> dict[str, tuple[int, ...]]:
    n_in, hidden = layer.input_shape[1], layer.output_shape[0]
    return {"w_input": (n_in, 4 * hidden), "w_recurrent": (hidden, 4 * hidden),
            "bias": (4 * hidden,)}


_KINDS = {
    "conv": _Kind(
        "Conv2D",
        lambda s: {"kernels": (3, 3, s.input_shape[2], s.output_shape[2]),
                   "bias": (s.output_shape[2],)},
        lambda shapes, rng: L.init_conv(*shapes["kernels"], rng),
        lambda s, p, x, mode, rng: _cached(
            s, x, L.conv2d_forward(x, p, s.padding, s.activation)),
        lambda s, p, cache, d, need: L.conv2d_backward(
            cache[0], p, d, s.padding, need_input=need, activated=cache[1])),
    "maxpool": _Kind(
        "MaxPooling2D", _no_params, _no_params,
        lambda s, p, x, mode, rng: L.maxpool2d_forward(x),
        lambda s, p, idx, d, need: {
            "input": L.maxpool2d_backward(idx, d, d.shape[:-3] + s.input_shape)}),
    "dropout": _Kind(
        "Dropout", _no_params, _no_params,
        lambda s, p, x, mode, rng: L.dropout_forward(x, s.rate, mode, rng),
        lambda s, p, mask, d, need: {"input": L.dropout_backward(mask, d)}),
    "flatten": _Kind(
        "Flatten", _no_params, _no_params,
        lambda s, p, x, mode, rng: (L.flatten(x), x.shape),
        lambda s, p, shape, d, need: {"input": T.reshape(d, shape)}),
    "dense": _Kind(
        "Dense",
        lambda s: {"weights": (s.input_shape[0], s.output_shape[0]),
                   "bias": (s.output_shape[0],)},
        lambda shapes, rng: L.init_dense(*shapes["weights"], rng),
        lambda s, p, x, mode, rng: _cached(s, x, L.dense_forward(x, p, s.activation)),
        lambda s, p, cache, d, need: L.dense_backward(cache[0], p, d, activated=cache[1])),
    "lstm": _Kind(
        "LSTM", _lstm_shapes,
        lambda shapes, rng: L.init_lstm(shapes["w_input"][0], shapes["w_recurrent"][0], rng),
        lambda s, p, x, mode, rng: L.lstm_forward(x, p),
        lambda s, p, cache, d, need: L.lstm_backward(cache, p, d, need_input=need)),
}


def param_shapes(layer: LayerSpec) -> dict[str, tuple[int, ...]]:
    """Parameter names and shapes of one layer, in model-file order."""
    return _KINDS[layer.kind].shapes(layer)


def _initialized(spec: ModelSpec, seed: int) -> SequentialModel:
    """Draw every layer's parameters in layer order from one seeded stream."""
    rng = np.random.default_rng(seed)
    params = []
    for layer in spec.layers:
        try:
            params.append(_KINDS[layer.kind].init(param_shapes(layer), rng))
        except (ValueError, MemoryError) as exc:
            raise ConfigError(
                f"layer {layer.name}: cannot allocate its parameters: {exc}") from None
    return SequentialModel(spec, params)


def build_cnn(config: CnnConfig | None = None, *, seed: int = 0) -> SequentialModel:
    """Build the convolutional classifier; defaults give the stock network."""
    return _initialized(cnn_spec(config or CnnConfig()), seed)


def build_lstm(config: LstmConfig | None = None, *, seed: int = 0) -> SequentialModel:
    """Build the recurrent classifier; defaults give the stock network."""
    return _initialized(lstm_spec(config or LstmConfig()), seed)


# Per architecture name: its config class, spec builder and model builder.
ARCHS = {"cnn": (CnnConfig, cnn_spec, build_cnn), "lstm": (LstmConfig, lstm_spec, build_lstm)}


# ---------------------------------------------------------------------------
# summary

def summary_rows(model: SequentialModel) -> list[SummaryRow]:
    return [SummaryRow(s.name, _KINDS[s.kind].label, s.output_shape, L.param_count(p))
            for s, p in zip(model.spec.layers, model.params)]


def _shape_str(shape: Iterable[int]) -> str:
    return "(" + ", ".join(str(d) for d in shape) + ")"


def summary(model: SequentialModel) -> str:
    """Fixed-width table: Layer (Type) | Output Shape | Param #, plus totals."""
    rows = summary_rows(model)
    entries = [(f"{r.name} ({r.kind})", _shape_str(r.output_shape), f"{r.params:,}")
               for r in rows]
    name_w = max(len("Layer (Type)"), *(len(e[0]) for e in entries)) + 2
    shape_w = max(len("Output Shape"), *(len(e[1]) for e in entries)) + 2
    param_w = max(len("Param #"), *(len(e[2]) for e in entries))
    lines = [f"{'Layer (Type)':<{name_w}}{'Output Shape':<{shape_w}}{'Param #':>{param_w}}",
             "=" * (name_w + shape_w + param_w)]
    lines += [f"{n:<{name_w}}{s:<{shape_w}}{p:>{param_w}}" for n, s, p in entries]
    total = model.total_params
    lines += ["=" * (name_w + shape_w + param_w),
              f"Total params: {total:,}",
              f"Trainable params: {total:,}",
              "Non-trainable params: 0"]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# forward / backward / predict

def _check_input(model: SequentialModel, x: np.ndarray) -> None:
    """x is one sample or a stack [N, ...] of samples of the model's input shape."""
    shape = model.spec.input_shape
    if tuple(x.shape) != shape and (x.ndim != len(shape) + 1 or tuple(x.shape[1:]) != shape):
        raise ShapeError(f"input shape mismatch: expected {shape}, got {tuple(x.shape)}")


def _forward(model: SequentialModel, x: np.ndarray, mode: str,
             rng: np.random.Generator | None, keep_caches: bool = False
             ) -> tuple[np.ndarray, list | None]:
    """Layer-by-layer forward over one sample or a stacked batch; each layer
    applies its own activation. With `keep_caches`, also returns each
    layer's cache for backward(); without, each layer's input is freed as
    soon as the next layer has it. `mode` is "train" or "infer"; it is
    checked here, once, for every layer kind."""
    if mode not in ("train", "infer"):
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")
    _check_input(model, x)
    caches = [] if keep_caches else None
    out = x
    for spec, params in zip(model.spec.layers, model.params):
        out, cache = _KINDS[spec.kind].forward(spec, params, out, mode, rng)
        if keep_caches:
            caches.append(cache)
    return out, caches


def forward(model: SequentialModel, x: np.ndarray, mode: str = "infer") -> np.ndarray:
    """Class probabilities for one sample ([K]) or a stacked batch ([N, K]);
    inference is deterministic."""
    probs, _ = _forward(model, x, mode, None)
    return probs


def forward_train(model: SequentialModel, x: np.ndarray,
                  rng: np.random.Generator | None = None) -> tuple[np.ndarray, list]:
    """Train-mode forward returning per-layer caches for backward()."""
    return _forward(model, x, "train", rng, keep_caches=True)


def backward(model: SequentialModel, caches: list, d_logits: np.ndarray,
             grads: list[dict[str, np.ndarray]] | None = None
             ) -> list[dict[str, np.ndarray]]:
    """Backpropagate d(loss)/d(logits) through every layer and return the
    parameter gradients, summed over the samples of the forward pass.

    The softmax head is fused with the loss: callers pass the gradient with
    respect to the final pre-softmax logits (probs - onehot for
    cross-entropy), which the head takes as it is. With `grads` (one dict
    per layer), each layer's gradients are added into it in place as soon
    as they exist, so no second full gradient set is built; one T.halves
    call adds each layer's T.BLOCK-element blocks. The first layer's input
    gradient is never computed. Backward consumes `caches`: each layer's
    entry is set to None as its backward starts, so the activations are
    freed as the pass goes.
    """
    grads = [dict() for _ in model.params] if grads is None else grads
    d_out = d_logits
    for li in range(len(model.spec.layers) - 1, -1, -1):
        spec, params, cache = model.spec.layers[li], model.params[li], caches[li]
        caches[li] = None
        g = _KINDS[spec.kind].backward(spec, params, cache, d_out, li > 0)
        d_out = g.pop("input", None)
        acc = grads[li]
        sums = [b for key, gk in g.items() if key in acc for b in T.blocks(acc[key], gk)]
        acc.update({key: np.ascontiguousarray(gk) for key, gk in g.items() if key not in acc})
        T.halves(len(sums), lambda lo, hi: [np.add(a, b, out=a) for a, b in sums[lo:hi]])
        g = sums = None  # not kept alive through the next layer's backward
    return grads


def predict(model: SequentialModel, x: np.ndarray) -> tuple[str, float]:
    """Most likely class name and its probability; ties go to the lowest id."""
    if not model.label_map:
        raise ModelStateError("model has no label map; train or load one first")
    if len(model.label_map) != model.spec.classes:
        raise ModelStateError(
            f"label map has {len(model.label_map)} entries for {model.spec.classes} classes")
    if tuple(x.shape) != model.spec.input_shape:
        raise ShapeError(f"predict takes one input of shape {model.spec.input_shape}, "
                         f"got {tuple(x.shape)}")
    probs = forward(model, x, mode="infer")
    k = int(np.argmax(probs))
    return model.label_map[k], float(probs[k])
