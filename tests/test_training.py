import math

import numpy as np
import pytest

from helpers import assert_grads_close, fd_grads, flat_params, model_to_f64
from leafnet import data as D
from leafnet import layers as L
from leafnet import models as M
from leafnet import tensor as T
from leafnet import training as TR
from leafnet.errors import ConfigError, TrainingDiverged


def toy_cnn(classes=3, seed=1, dropout=0.0):
    cfg = M.CnnConfig(input_size=14, channels=3, filters=(2, 3), dense_units=5,
                      classes=classes, conv_dropout=dropout, dense_dropout=dropout)
    return M.build_cnn(cfg, seed=seed)


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        probs = np.array([0.0, 1.0, 0.0])
        loss, _ = TR.categorical_cross_entropy(probs, 1)
        assert loss == 0.0

    def test_uniform_38_is_ln38(self):
        probs = np.full(38, 1 / 38)
        loss, _ = TR.categorical_cross_entropy(probs, 5)
        assert abs(loss - math.log(38)) < 1e-6
        assert abs(loss - 3.63759) < 1e-5

    def test_gradient_is_probs_minus_onehot(self):
        probs = np.array([0.2, 0.5, 0.3])
        _, grad = TR.categorical_cross_entropy(probs, 2)
        np.testing.assert_allclose(grad, [0.2, 0.5, -0.7], atol=1e-12)

    def test_gradient_matches_fd_through_softmax(self):
        rng = np.random.default_rng(0)
        logits = {"z": rng.standard_normal(7)}
        target = 3

        def loss():
            return TR.categorical_cross_entropy(T.softmax(logits["z"]), target)[0]

        probs = T.softmax(logits["z"])
        _, analytic = TR.categorical_cross_entropy(probs, target)
        numeric = fd_grads(loss, logits)
        np.testing.assert_allclose(analytic, numeric["z"], atol=1e-4)

    def test_target_out_of_range(self):
        with pytest.raises(ConfigError):
            TR.categorical_cross_entropy(np.full(3, 1 / 3), 3)
        with pytest.raises(ConfigError):
            TR.categorical_cross_entropy(np.full(3, 1 / 3), -1)

    def test_loss_never_negative(self):
        probs = np.zeros(4)
        probs[0] = 1.0
        assert TR.categorical_cross_entropy(probs, 0)[0] >= 0.0
        probs = np.array([1.0 - 1e-9, 1e-9, 0.0, 0.0])
        assert TR.categorical_cross_entropy(probs, 0)[0] >= 0.0


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = [{"w": np.array([1.5, -2.0], np.float32)}]
        before = params[0]["w"].copy()
        state = TR.AdamState.for_params(params, lr=1e-4)
        TR.adam_step(params, [{"w": np.zeros(2, np.float32)}], state)
        np.testing.assert_array_equal(params[0]["w"], before)
        assert state.t == 1

    def test_first_step_magnitude_is_lr(self):
        params = [{"w": np.array([0.0])}]
        state = TR.AdamState.for_params(params, lr=1e-4)
        TR.adam_step(params, [{"w": np.array([2.0])}], state)
        delta = abs(params[0]["w"][0])
        assert abs(delta - 1e-4) / 1e-4 < 0.01

    def test_monotone_decrease_after_burn_in(self):
        params = [{"p": np.array([0.0])}]
        state = TR.AdamState.for_params(params, lr=1e-3)
        values = []
        for _ in range(200):
            p = params[0]["p"]
            values.append(float(p[0] - 3.0) ** 2)
            TR.adam_step(params, [{"p": 2.0 * (p - 3.0)}], state)
        tail = values[10:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_second_moment_nonnegative_and_t_counts(self):
        params = [{"w": np.zeros(3)}]
        state = TR.AdamState.for_params(params, lr=1e-3)
        rng = np.random.default_rng(0)
        for step in range(1, 6):
            TR.adam_step(params, [{"w": rng.standard_normal(3)}], state)
            assert state.t == step
            assert np.all(state.v[0]["w"] >= 0)

    def test_shape_mismatch_rejected(self):
        params = [{"w": np.zeros(3)}]
        state = TR.AdamState.for_params(params)
        with pytest.raises(ConfigError):
            TR.adam_step(params, [{"w": np.zeros(4)}], state)

    def test_non_contiguous_param_rejected(self):
        """Blocks are views of the flattened tensors; a transposed parameter
        would flatten to a copy and never be updated."""
        params = [{"w": np.zeros((3, 4)).T}]
        state = TR.AdamState.for_params(params)
        with pytest.raises(ConfigError, match="C-contiguous"):
            TR.adam_step(params, [{"w": np.ones((4, 3))}], state)


def textbook_adam_step(params, grads, state):
    """The allocating Adam update adam_step must reproduce bit for bit."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        for key in p:
            gk = g[key]
            m[key] = state.beta1 * m[key] + (1.0 - state.beta1) * gk
            v[key] = state.beta2 * v[key] + (1.0 - state.beta2) * gk * gk
            m_hat = m[key] / bc1
            v_hat = v[key] / bc2
            p[key] -= (state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)).astype(p[key].dtype)


def test_blocked_adam_bit_identical_to_textbook():
    """Tensors of several T.BLOCK blocks, a short last block included,
    and blocks of one tensor on both halves of the split: 22 steps match the
    textbook update bit for bit."""
    rng = np.random.default_rng(41)
    shapes = {"k": (3, 3, 40, 300), "w": (2 * T.BLOCK + 123,), "b": (7,)}
    params = [{k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}]
    ref = [{k: p.copy() for k, p in params[0].items()}]
    state = TR.AdamState.for_params(params, lr=1e-3)
    ref_state = TR.AdamState.for_params(ref, lr=1e-3)
    for _ in range(22):
        grads = [{k: (rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3)).astype(np.float32)
                  for k, s in shapes.items()}]
        TR.adam_step(params, grads, state)
        textbook_adam_step(ref, grads, ref_state)
    for got, want in ((params, ref), (state.m, ref_state.m), (state.v, ref_state.v)):
        for key in shapes:
            assert got[0][key].tobytes() == want[0][key].tobytes(), key


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_adam_bit_identical_to_textbook(dtype):
    rng = np.random.default_rng(40)
    shapes = {"w": (3, 4, 5), "b": (5,)}
    params = [{k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}, {}]
    ref = [{k: p.copy() for k, p in ps.items()} for ps in params]
    state = TR.AdamState.for_params(params, lr=1e-3)
    ref_state = TR.AdamState.for_params(ref, lr=1e-3)
    for _ in range(50):
        grads = [{k: (rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3)).astype(dtype)
                  for k, s in shapes.items()}, {}]
        TR.adam_step(params, grads, state)
        textbook_adam_step(ref, grads, ref_state)
        for got, want in ((params, ref), (state.m, ref_state.m), (state.v, ref_state.v)):
            for g_layer, w_layer in zip(got, want):
                for key in w_layer:
                    assert g_layer[key].dtype == dtype
                    assert g_layer[key].tobytes() == w_layer[key].tobytes(), key
    assert state.t == ref_state.t == 50


class TestEndToEndGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_toy_cnn_loss_gradients(self, seed):
        model = toy_cnn(seed=seed)
        model_to_f64(model)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(model.spec.input_shape)
        target = int(rng.integers(0, 3))

        def loss():
            probs = M.forward(model, x, mode="train")
            return TR.categorical_cross_entropy(probs, target)[0]

        probs, caches = M.forward_train(model, x)
        _, d_logits = TR.categorical_cross_entropy(probs, target)
        grads = M.backward(model, caches, d_logits)
        analytic = {(li, k): v for li, g in enumerate(grads) for k, v in g.items()}
        numeric = fd_grads(loss, flat_params(model))
        assert_grads_close(analytic, numeric)

    @pytest.mark.parametrize("seed", range(3))
    def test_toy_lstm_loss_gradients(self, seed):
        cfg = M.LstmConfig(timesteps=3, features=4, hidden=3, dense_units=4, classes=3)
        model = M.build_lstm(cfg, seed=seed)
        model_to_f64(model)
        rng = np.random.default_rng(seed + 50)
        x = rng.standard_normal((3, 4))
        target = int(rng.integers(0, 3))

        def loss():
            probs = M.forward(model, x, mode="train")
            return TR.categorical_cross_entropy(probs, target)[0]

        probs, caches = M.forward_train(model, x)
        _, d_logits = TR.categorical_cross_entropy(probs, target)
        grads = M.backward(model, caches, d_logits)
        analytic = {(li, k): v for li, g in enumerate(grads) for k, v in g.items()}
        assert_grads_close(analytic, fd_grads(loss, flat_params(model)))


class TestMicroBatch:
    """loss_and_grads on a stacked micro-batch equals the per-sample sum."""

    def check(self, model, xs, ys):
        model_to_f64(model)
        loss, correct, grads = TR.loss_and_grads(model, np.stack(xs), ys, mode="infer")
        singles = [TR.loss_and_grads(model, x, y, mode="infer") for x, y in zip(xs, ys)]
        assert loss == pytest.approx(sum(s[0] for s in singles), rel=1e-12)
        assert correct == sum(s[1] for s in singles)
        for li, layer in enumerate(grads):
            assert list(layer) == list(model.params[li])
            for key, g in layer.items():
                np.testing.assert_allclose(g, sum(s[2][li][key] for s in singles),
                                           rtol=1e-10, atol=1e-13)

    def test_reduced_cnn(self):
        rng = np.random.default_rng(41)
        model = toy_cnn()
        self.check(model, list(rng.standard_normal((4,) + model.spec.input_shape)),
                   [0, 2, 1, 2])

    def test_reduced_lstm(self):
        cfg = M.LstmConfig(timesteps=3, features=4, hidden=3, dense_units=4, classes=3)
        model = M.build_lstm(cfg, seed=2)
        rng = np.random.default_rng(42)
        self.check(model, list(rng.standard_normal((4, 3, 4))), [1, 0, 2, 2])

    def test_grads_add_into_accumulator(self):
        model = toy_cnn()
        model_to_f64(model)
        rng = np.random.default_rng(43)
        xs = rng.standard_normal((3,) + model.spec.input_shape)
        total = [dict() for _ in model.params]
        TR.loss_and_grads(model, xs[:2], [0, 1], "infer", None, total)
        TR.loss_and_grads(model, xs[2:], [2], "infer", None, total)
        _, _, whole = TR.loss_and_grads(model, xs, [0, 1, 2], mode="infer")
        for acc, ref in zip(total, whole):
            assert list(acc) == list(ref)
            for key in ref:
                np.testing.assert_allclose(acc[key], ref[key], rtol=1e-12, atol=1e-15)


def test_first_layer_input_gradient_not_computed(monkeypatch):
    """models.backward asks layer 0 for no input gradient: its conv backward
    makes the 3 kernel GEMMs only and returns no input, while the model's
    parameter gradients equal those of a full-gradient backward. With the
    split forced on these small layers, every conv backward of the 2-sample
    pass runs two 1-sample halves (the "samples" split of layers._split),
    each with 3 kernel GEMMs and, except on layer 0, 9 input-gradient GEMMs:
    the products that read the kernel. Each conv backward is handed the
    ungated upstream and the layer's activated output, and gates the
    upstream itself, so the full-gradient reference gets both too."""
    model = toy_cnn()
    model_to_f64(model)
    x = np.random.default_rng(44).standard_normal((2,) + model.spec.input_shape)
    probs, caches = M.forward_train(model, x)
    first_input = caches[0][0]
    _, d_logits = TR.categorical_cross_entropy(probs, [1, 2])
    conv_backward, matmul = L.conv2d_backward, T.matmul
    calls = []

    def counting_matmul(a, b, out=None):
        if calls and "returned" not in calls[-1]:  # inside a conv backward
            # list.append is atomic: both halves' threads record here
            calls[-1]["reads_kernel"].append(np.shares_memory(b, calls[-1]["params"]["kernels"]))
        return matmul(a, b, out=out)

    def spy(x_in, params, upstream, padding, need_input=True, activated=None):
        calls.append({"params": params, "upstream": upstream, "activated": activated,
                      "reads_kernel": []})
        grads = conv_backward(x_in, params, upstream, padding, need_input=need_input,
                              activated=activated)
        calls[-1]["returned"] = set(grads)
        return grads

    monkeypatch.setattr(L, "conv2d_backward", spy)
    monkeypatch.setattr(T, "matmul", counting_matmul)
    monkeypatch.setattr(T, "SPLIT_MIN", 0)
    grads = M.backward(model, caches, d_logits)
    first = next(c for c in calls if c["params"] is model.params[0])
    full = conv_backward(first_input, model.params[0], first["upstream"], "same",
                         activated=first["activated"])
    monkeypatch.undo()
    halves = 2
    assert first["returned"] == {"kernels", "bias"}
    assert sorted(first["reads_kernel"]) == [False] * 3 * halves
    for c in calls:
        if c is not first:
            assert sorted(c["reads_kernel"]) == [False] * 3 * halves + [True] * 9 * halves
    assert all(c["activated"] is not None for c in calls)
    assert "input" in full
    for key in ("kernels", "bias"):
        np.testing.assert_array_equal(grads[0][key], full[key])


class TestTrainLoop:
    def make_sets(self, classes=3, per_class=2, size=14):
        ds = D.synth_dataset(classes, per_class, seed=5, size=size)
        return ds

    def test_zero_lr_keeps_params_bitwise(self):
        ds = self.make_sets()
        model = toy_cnn()
        before = [{k: v.copy() for k, v in p.items()} for p in model.params]
        _, history = TR.train(model, ds, ds, TR.TrainConfig(epochs=2, batch_size=3, lr=0.0))
        assert len(history) == 2
        for b, p in zip(before, model.params):
            for key in b:
                assert np.array_equal(b[key], p[key])

    def test_seeded_determinism(self):
        ds = self.make_sets()
        cfg = TR.TrainConfig(epochs=3, batch_size=2, lr=1e-3, seed=21)
        m1 = toy_cnn(dropout=0.2)
        _, h1 = TR.train(m1, ds, ds, cfg)
        m2 = toy_cnn(dropout=0.2)
        _, h2 = TR.train(m2, ds, ds, cfg)
        assert TR.history_to_csv(h1) == TR.history_to_csv(h2)
        for a, b in zip(m1.params, m2.params):
            for key in a:
                assert np.array_equal(a[key], b[key])

    def test_batch_gradient_is_mean_of_sample_gradients(self, monkeypatch):
        """train hands Adam the mean of the batch's per-sample gradients,
        the final short batch included: 6 samples in batches of 4 and 2."""
        ds = self.make_sets()
        cfg = TR.TrainConfig(epochs=1, batch_size=4, lr=1e-3, seed=3)
        model = toy_cnn()
        model_to_f64(model)
        batches = list(ds.batches(cfg.batch_size, cfg.seed, 0))
        adam_step, steps = TR.adam_step, []

        def checked_adam_step(params, grads, state):
            xs, ys = batches[len(steps)]
            singles = [TR.loss_and_grads(model, x, y)[2] for x, y in zip(xs, ys)]
            for li, layer in enumerate(grads):
                assert list(layer) == list(params[li])
                for key, g in layer.items():
                    mean = sum(s[li][key] for s in singles) / len(xs)
                    np.testing.assert_allclose(g, mean, rtol=1e-10, atol=1e-13)
            steps.append(len(xs))
            return adam_step(params, grads, state)

        monkeypatch.setattr(TR, "adam_step", checked_adam_step)
        TR.train(model, ds, ds, cfg)
        assert steps == [4, 2]

    def test_overfits_tiny_synthetic_set(self):
        ds = D.synth_dataset(4, 2, seed=7, size=14)
        cfg = M.CnnConfig(input_size=14, channels=3, filters=(4, 8), dense_units=16,
                          classes=4, conv_dropout=0.0, dense_dropout=0.0)
        model = M.build_cnn(cfg, seed=3)
        _, history = TR.train(model, ds, ds,
                              TR.TrainConfig(epochs=250, batch_size=8, lr=3e-3, seed=11))
        last = history[-1]
        assert last.train_loss < 0.1
        assert last.train_acc == 1.0

    def test_empty_dataset_rejected(self):
        model = toy_cnn()
        empty = D.MemoryDataset([], [], [])
        ds = self.make_sets()
        with pytest.raises(ConfigError):
            TR.train(model, empty, ds, TR.TrainConfig(epochs=1))
        with pytest.raises(ConfigError):
            TR.evaluate_loss_acc(model, empty)

    def test_non_finite_loss_aborts_with_location(self):
        ds = self.make_sets()
        model = toy_cnn()
        model.params[0]["kernels"][...] = np.nan
        with pytest.raises(TrainingDiverged) as err:
            TR.train(model, ds, ds, TR.TrainConfig(epochs=1, batch_size=3))
        assert err.value.epoch == 1
        assert err.value.batch == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_found_by_validation_names_the_epoch(self):
        """With one batch per epoch, the step's loss is finite, and the
        non-finite parameters it leaves first show in validation."""
        ds = self.make_sets()
        with pytest.raises(TrainingDiverged, match="validation: .* at epoch 1$") as err:
            TR.train(toy_cnn(), ds, ds, TR.TrainConfig(epochs=1, batch_size=len(ds), lr=1e30))
        assert err.value.epoch == 1
        assert err.value.batch is None


class TestEvaluate:
    def test_uniform_model_balanced_accuracy(self):
        """Zero weights predict class 0 always; balanced set gives 1/38."""
        cfg = M.LstmConfig(timesteps=2, features=4, hidden=2, dense_units=2, classes=38)
        model = M.build_lstm(cfg)
        for p in model.params:
            for k in p:
                p[k][...] = 0.0
        rng = np.random.default_rng(3)
        inputs = [rng.random((2, 4), dtype=np.float32) for _ in range(3800)]
        labels = [i % 38 for i in range(3800)]
        ds = D.MemoryDataset(inputs, labels, [f"c{i}" for i in range(38)])
        loss, acc = TR.evaluate_loss_acc(model, ds)
        assert abs(acc - 1 / 38) < 0.02
        assert abs(loss - math.log(38)) < 1e-3

    def test_perfect_predictor(self):
        model = toy_cnn()
        model.params[-1]["weights"][...] = 0.0
        ds = D.synth_dataset(3, 2, seed=1, size=14)
        # force the true class logit high for every sample via bias routing
        correct_preds = []
        for x, y in ds.samples():
            model.params[-1]["bias"][...] = 0.0
            model.params[-1]["bias"][y] = 30.0
            loss, acc = TR.evaluate_loss_acc(
                model, D.MemoryDataset([x], [y], ds.class_names))
            correct_preds.append((loss, acc))
        assert all(acc == 1.0 for _, acc in correct_preds)
        assert all(loss < 1e-6 for loss, _ in correct_preds)

    def test_single_wrong_sample_zero_accuracy(self):
        model = toy_cnn()
        model.params[-1]["weights"][...] = 0.0
        model.params[-1]["bias"][...] = 0.0
        model.params[-1]["bias"][2] = 30.0
        x = np.zeros(model.spec.input_shape, np.float32)
        _, acc = TR.evaluate_loss_acc(model, D.MemoryDataset([x], [0], ["a", "b", "c"]))
        assert acc == 0.0


class TestHistoryCsv:
    def test_header_and_rows(self):
        hist = [TR.EpochRecord(1, 1.5, 0.25, 1.4, 0.5),
                TR.EpochRecord(2, 1.0, 0.5, 0.9, 0.75)]
        text = TR.history_to_csv(hist)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 3
        assert lines[1].startswith("1,1.500000,0.250000,")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TR.TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TR.TrainConfig(batch_size=0)

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, -0.003])
    def test_learning_rate_must_be_finite_and_non_negative(self, lr):
        with pytest.raises(ConfigError, match="learning rate"):
            TR.TrainConfig(lr=lr)
