"""Categorical cross-entropy, Adam, and the minibatch training loop.

Datasets are anything with `__len__`, `batches(batch_size, seed, epoch)`
yielding (inputs, labels) lists, and `samples()` yielding (input, label)
pairs in a fixed order; see leafnet.data for the two implementations.

All randomness (shuffle order, dropout masks) derives from the config seed,
so identical seeds give bit-identical histories and trained parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models as M
from . import tensor as T
from .errors import ConfigError, NumericError, TrainingDiverged

CLIP_EPS = 1e-12  # floor inside -ln(p); irrelevant for any reportable loss

# Samples per forward/backward pass in training and validation. Chosen by
# measurement on the stock CNN: 8 trained no faster and its caches raised
# peak memory by ~24%.
MICRO = 4


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-4
    seed: int = 42

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"epochs and batch size must be >= 1: {self}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.lr}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


# Adam's moment decay rates and the epsilon added to the denominator.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, one pair per parameter tensor."""
    m: list[dict[str, np.ndarray]]
    v: list[dict[str, np.ndarray]]
    t: int = 0
    lr: float = 1e-4

    @classmethod
    def for_params(cls, params: list[dict[str, np.ndarray]],
                   lr: float = 1e-4) -> "AdamState":
        zeros = lambda ps: {k: np.zeros_like(p) for k, p in ps.items()}
        return cls(m=[zeros(p) for p in params], v=[zeros(p) for p in params], lr=lr)


def adam_step(params: list[dict[str, np.ndarray]],
              grads: list[dict[str, np.ndarray]],
              state: AdamState) -> AdamState:
    """One bias-corrected Adam update; mutates params and moments in place.

    The operations and their order are those of the textbook form
    m = b1 m + (1-b1) g, v = b2 v + (1-b2) g g, p -= lr (m/bc1) / (sqrt(v/bc2) + eps),
    so the result is bit-identical to it; two scratch buffers per block
    replace its temporaries. Every tensor is cut into blocks of at most
    T.BLOCK elements, and T.halves updates the two halves of the list of
    all blocks."""
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    blocks = []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        for key in p:
            pk, gk, mk, vk = p[key], g[key], m[key], v[key]
            if gk.shape != pk.shape:
                raise ConfigError(
                    f"grad shape {gk.shape} != param shape {pk.shape} for {key!r}")
            if not (pk.flags.c_contiguous and mk.flags.c_contiguous and vk.flags.c_contiguous):
                raise ConfigError(f"{key!r}: Adam updates C-contiguous arrays in place")
            blocks += T.blocks(pk, gk, mk, vk)

    def update(lo, hi):
        for pk, gk, mk, vk in blocks[lo:hi]:
            step, denom = np.empty_like(mk), np.empty_like(vk)
            mk *= BETA1
            np.multiply(gk, 1.0 - BETA1, out=step)
            mk += step
            vk *= BETA2
            np.multiply(gk, 1.0 - BETA2, out=step)
            step *= gk
            vk += step
            np.divide(vk, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += EPSILON
            np.divide(mk, bc1, out=step)
            step *= state.lr
            step /= denom
            pk -= step

    T.halves(len(blocks), update)
    return state


def categorical_cross_entropy(probs: np.ndarray, target) -> tuple[float, np.ndarray]:
    """-ln(p[target]) and the fused softmax gradient probs - onehot(target).
    For a batch, probs [N, K] and N targets: the summed loss and the
    gradient of every row."""
    rows = probs.reshape(-1, probs.shape[-1])
    targets = np.atleast_1d(target)
    n = rows.shape[1]
    if targets.shape != (rows.shape[0],):
        raise ConfigError(f"{targets.size} targets for {rows.shape[0]} rows of probabilities")
    for t in targets:
        if not 0 <= t < n:
            raise ConfigError(f"target {t} out of range for {n} classes")
    at = (np.arange(len(targets)), targets)
    loss = sum(-math.log(min(float(p) + CLIP_EPS, 1.0)) for p in rows[at]) + 0.0
    d_logits = probs.copy()
    d_logits.reshape(rows.shape)[at] -= 1.0
    return loss, d_logits


def loss_and_grads(model: M.SequentialModel, x: np.ndarray, target,
                   mode: str = "train", rng: np.random.Generator | None = None,
                   grads: list[dict[str, np.ndarray]] | None = None):
    """Loss, number of correct predictions, and parameter gradients of one
    sample or a stacked batch (loss and gradients summed over its samples).
    With `grads`, the gradients are added into it (see models.backward)."""
    probs, caches = M._forward(model, x, mode, rng, keep_caches=True)
    loss, d_logits = categorical_cross_entropy(probs, target)
    grads = M.backward(model, caches, d_logits, grads)
    correct = int(np.sum(np.argmax(probs, axis=-1) == target))
    return loss, correct, grads


def _micro_batches(pairs):
    """Stack (input, label) pairs into [MICRO, ...] inputs and label lists."""
    xs, ys = [], []
    for x, y in pairs:
        xs.append(x)
        ys.append(y)
        if len(xs) == MICRO:
            yield np.stack(xs), ys
            xs, ys = [], []
    if xs:
        yield np.stack(xs), ys


def train(model: M.SequentialModel, train_set, valid_set,
          config: TrainConfig | None = None) -> tuple[M.SequentialModel, list[EpochRecord]]:
    """Seeded minibatch training; one Adam step per batch on the mean gradient.

    Each batch runs as micro-batches of MICRO stacked samples, one forward
    and one backward pass each, whose gradients add into the batch's sum."""
    cfg = config or TrainConfig()
    if len(train_set) == 0 or len(valid_set) == 0:
        raise ConfigError("train and validation sets must be non-empty")
    state = AdamState.for_params(model.params, lr=cfg.lr)
    dropout_rng = np.random.default_rng([cfg.seed, 0xD0])
    history: list[EpochRecord] = []
    for epoch in range(1, cfg.epochs + 1):
        loss_sum, correct_sum, seen = 0.0, 0, 0
        for batch_idx, (inputs, labels) in enumerate(
                train_set.batches(cfg.batch_size, cfg.seed, epoch - 1)):
            total: list[dict[str, np.ndarray]] = [dict() for _ in model.params]
            for x, y in _micro_batches(zip(inputs, labels)):
                try:
                    loss, correct, _ = loss_and_grads(model, x, y, "train", dropout_rng, total)
                except NumericError as exc:
                    raise TrainingDiverged(epoch, batch_idx, str(exc)) from exc
                if not math.isfinite(loss):
                    raise TrainingDiverged(epoch, batch_idx)
                loss_sum += loss
                correct_sum += correct
            scale = 1.0 / len(inputs)
            parts = [b for acc in total for g in acc.values() for (b,) in T.blocks(g)]
            T.halves(len(parts), lambda lo, hi: [np.multiply(b, scale, out=b)
                                                 for b in parts[lo:hi]])
            state = adam_step(model.params, total, state)
            seen += len(inputs)
        try:
            val_loss, val_acc = evaluate_loss_acc(model, valid_set)
        except NumericError as exc:
            raise TrainingDiverged(epoch, None, f"validation: {exc}") from exc
        history.append(EpochRecord(epoch, loss_sum / seen, correct_sum / seen,
                                   val_loss, val_acc))
    return model, history


def predictions(model: M.SequentialModel, dataset):
    """Inference-mode class probabilities [n, K] and the n labels of each
    micro-batch of MICRO samples, in the dataset's fixed sample order."""
    for x, y in _micro_batches(dataset.samples()):
        yield M.forward(model, x, mode="infer"), y


def evaluate_loss_acc(model: M.SequentialModel, dataset) -> tuple[float, float]:
    """Mean cross-entropy and accuracy over a dataset, inference mode."""
    if len(dataset) == 0:
        raise ConfigError("cannot evaluate an empty dataset")
    loss_sum, correct, n = 0.0, 0, 0
    for probs, y in predictions(model, dataset):
        loss, _ = categorical_cross_entropy(probs, y)
        loss_sum += loss
        correct += int(np.sum(np.argmax(probs, axis=-1) == y))
        n += len(y)
    return loss_sum / n, correct / n


def history_to_csv(history: list[EpochRecord]) -> str:
    lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
    for r in history:
        lines.append(f"{r.epoch},{r.train_loss:.6f},{r.train_acc:.6f},"
                     f"{r.val_loss:.6f},{r.val_acc:.6f}")
    return "\n".join(lines) + "\n"
