"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Criterion 4's convergence clause (4b) asserts that Adam at lr=1e-4 reaches
|p-3| < 0.01 from p=0 first at a step t* with 29,900 <= t* <= 40,000, and that
no step moves p by more than lr. Bias-corrected Adam on a monotone scalar
gradient advances at most ~lr per step (m_hat/sqrt(v_hat) -> g/|g|), so the
originally stated budget of 20,000 steps (at most ~2.0 of the required 3.0
distance) was unreachable; 29,900 is the floor that bound implies. See the
test docstring for the measured numbers.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from helpers import (assert_grads_close, fd_grads, flat_params,
                     make_dataset_tree, model_to_f64)
from leafnet import data as D
from leafnet import layers as L
from leafnet import metrics as MET
from leafnet import models as M
from leafnet import tensor as T
from leafnet import training as TR
from leafnet.cli import main
from reference_data import REFERENCE_ROWS, REFERENCE_TOTAL_SUPPORT

CNN_LAYER_COUNTS = [896, 9248, 0, 18496, 36928, 0, 73856, 147584, 0, 295168,
                    590080, 0, 1180160, 2359808, 0, 0, 0, 3073500, 0, 57038]
CNN_CONV_COUNTS = [896, 9248, 18496, 36928, 73856, 147584, 295168, 590080,
                   1180160, 2359808, 3073500, 57038]


def check(ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def test_criterion_01_parameter_exactness():
    cnn = M.build_cnn()
    lstm = M.build_lstm()
    ok = (cnn.layer_param_counts() == CNN_LAYER_COUNTS
          and [c for c in cnn.layer_param_counts() if c] == CNN_CONV_COUNTS
          and cnn.total_params == 7_842_762
          and lstm.layer_param_counts() == [721_408, 16_512, 4_902]
          and lstm.total_params == 742_822
          and "Non-trainable params: 0" in M.summary(cnn))
    check(ok, "criterion 1: parameter exactness",
          f"cnn={cnn.total_params:,} lstm={lstm.total_params:,}")


def test_criterion_02_shape_chain_exactness():
    model = M.build_cnn()
    pools = [s.output_shape for s in model.spec.layers if s.kind == "maxpool"]
    flat = next(s.output_shape for s in model.spec.layers if s.kind == "flatten")
    ok = (pools == [(63, 63, 32), (30, 30, 64), (14, 14, 128), (6, 6, 256),
                    (2, 2, 512)] and flat == (2048,))
    check(ok, "criterion 2: shape-chain exactness", f"pools={pools} flatten={flat}")


def test_criterion_03_gradient_checks():
    failures = []

    for seed in range(3):
        rng = np.random.default_rng(seed)

        # conv, both paddings
        for padding in ("same", "valid"):
            x = rng.standard_normal((6, 6, 2))
            params = {"kernels": rng.standard_normal((3, 3, 2, 3)) * 0.5,
                      "bias": rng.standard_normal(3) * 0.1}
            target = rng.standard_normal(L.conv2d_forward(x, params, padding).shape)

            def conv_loss():
                return float(np.sum((L.conv2d_forward(x, params, padding) - target) ** 2))

            out = L.conv2d_forward(x, params, padding)
            analytic = L.conv2d_backward(x, params, 2 * (out - target), padding)
            try:
                assert_grads_close(analytic, fd_grads(conv_loss, params))
                assert_grads_close({"input": analytic["input"]},
                                   fd_grads(conv_loss, {"input": x}))
            except AssertionError as exc:
                failures.append(f"conv/{padding}/seed{seed}: {exc}")

        # dense
        xd = rng.standard_normal(5)
        pd = {"weights": rng.standard_normal((5, 4)), "bias": rng.standard_normal(4)}
        td = rng.standard_normal(4)

        def dense_loss():
            return float(np.sum((L.dense_forward(xd, pd) - td) ** 2))

        outd = L.dense_forward(xd, pd)
        ad = L.dense_backward(xd, pd, 2 * (outd - td))
        try:
            assert_grads_close(ad, fd_grads(dense_loss, pd))
            assert_grads_close({"input": ad["input"]}, fd_grads(dense_loss, {"input": xd}))
        except AssertionError as exc:
            failures.append(f"dense/seed{seed}: {exc}")

        # maxpool input gradient
        xp = rng.standard_normal((6, 6, 2))
        up = rng.standard_normal((3, 3, 2))

        def pool_loss():
            out, _ = L.maxpool2d_forward(xp)
            return float(np.sum(out * up))

        _, idx = L.maxpool2d_forward(xp)
        a_pool = L.maxpool2d_backward(idx, up, xp.shape)
        try:
            assert_grads_close({"input": a_pool}, fd_grads(pool_loss, {"input": xp}))
        except AssertionError as exc:
            failures.append(f"maxpool/seed{seed}: {exc}")

        # flatten input gradient
        xf = rng.standard_normal((2, 3, 4))
        wf = rng.standard_normal(24)

        def flat_loss():
            return float(np.sum(L.flatten(xf) * wf))

        try:
            assert_grads_close({"input": wf.reshape(2, 3, 4)},
                               fd_grads(flat_loss, {"input": xf}))
        except AssertionError as exc:
            failures.append(f"flatten/seed{seed}: {exc}")

        # dropout backward against a frozen mask
        xr = rng.standard_normal(40)
        _, mask = L.dropout_forward(xr.astype(np.float64), 0.3, "train",
                                    np.random.default_rng(seed))
        wr = rng.standard_normal(40)
        scale = 1.0 / 0.7

        def drop_loss():
            return float(np.sum(xr * mask.mask * scale * wr))

        try:
            assert_grads_close({"input": L.dropout_backward(mask, wr)},
                               fd_grads(drop_loss, {"input": xr}))
        except AssertionError as exc:
            failures.append(f"dropout/seed{seed}: {exc}")

        # lstm cell
        xc = rng.standard_normal(3)
        h0, c0 = rng.standard_normal(2), rng.standard_normal(2)
        pl = {"w_input": rng.standard_normal((3, 8)) * 0.5,
              "w_recurrent": rng.standard_normal((2, 8)) * 0.5,
              "bias": rng.standard_normal(8) * 0.1}
        tl = rng.standard_normal(2)

        def cell_loss():
            h, _, _ = L.lstm_cell_step(xc, h0, c0, pl)
            return float(np.sum((h - tl) ** 2))

        h, _, cache = L.lstm_cell_step(xc, h0, c0, pl)
        al = L.lstm_cell_backward(cache, pl, 2 * (h - tl), np.zeros(2))
        try:
            assert_grads_close(al, fd_grads(cell_loss, pl))
        except AssertionError as exc:
            failures.append(f"lstm-cell/seed{seed}: {exc}")

        # end-to-end toy CNN
        cfg = M.CnnConfig(input_size=14, channels=3, filters=(2, 3), dense_units=5,
                          classes=3, conv_dropout=0.0, dense_dropout=0.0)
        model = M.build_cnn(cfg, seed=seed)
        model_to_f64(model)
        xi = rng.standard_normal(model.spec.input_shape)
        yi = int(rng.integers(0, 3))

        def cnn_loss():
            return TR.categorical_cross_entropy(M.forward(model, xi, "train"), yi)[0]

        probs, caches = M.forward_train(model, xi)
        _, dlog = TR.categorical_cross_entropy(probs, yi)
        grads = M.backward(model, caches, dlog)
        analytic_flat = {(li, k): v for li, g in enumerate(grads) for k, v in g.items()}
        try:
            assert_grads_close(analytic_flat, fd_grads(cnn_loss, flat_params(model)))
        except AssertionError as exc:
            failures.append(f"cnn-end-to-end/seed{seed}: {exc}")

        # end-to-end toy LSTM
        lcfg = M.LstmConfig(timesteps=3, features=4, hidden=3, dense_units=4, classes=3)
        lmodel = M.build_lstm(lcfg, seed=seed)
        model_to_f64(lmodel)
        xs = rng.standard_normal((3, 4))
        ys = int(rng.integers(0, 3))

        def lstm_loss():
            return TR.categorical_cross_entropy(M.forward(lmodel, xs, "train"), ys)[0]

        probs, caches = M.forward_train(lmodel, xs)
        _, dlog = TR.categorical_cross_entropy(probs, ys)
        grads = M.backward(lmodel, caches, dlog)
        analytic_flat = {(li, k): v for li, g in enumerate(grads) for k, v in g.items()}
        try:
            assert_grads_close(analytic_flat, fd_grads(lstm_loss, flat_params(lmodel)))
        except AssertionError as exc:
            failures.append(f"lstm-end-to-end/seed{seed}: {exc}")

    check(not failures, "criterion 3: gradient checks vs central differences",
          "; ".join(failures) if failures else "all layer kinds + both toy models, 3 seeds")


def test_criterion_04a_adam_first_step_magnitude():
    params = [{"p": np.array([0.0])}]
    state = TR.AdamState.for_params(params, lr=1e-4)
    TR.adam_step(params, [{"p": np.array([2.0])}], state)
    delta = abs(float(params[0]["p"][0]))
    check(abs(delta - 1e-4) / 1e-4 < 0.01, "criterion 4a: first Adam step ~ lr",
          f"|step| = {delta:.3e}")


def test_criterion_04b_adam_quadratic_convergence_as_stated():
    """Adam at lr=1e-4 drives (p-3)^2 from p=0 to |p-3| < 0.01, in the step
    window that Adam's step-size bound implies.

    Adam's effective step is bounded by its step size alpha = lr (Kingma & Ba
    2015, arXiv:1412.6980, sec. 2.1): on a gradient of one sign the
    bias-corrected ratio m_hat/sqrt(v_hat) -> g/|g|, so each step moves at
    most ~lr. Covering 3.0 - 0.01 therefore takes at least 29,900 steps, and
    the originally stated budget of 20,000 steps cannot be met by any correct
    Adam. The test asserts, over one loop of 40,000 steps:
      1. no step moves p by more than lr * (1 + 1e-6);
      2. the first step t* with |p-3| < 0.01 exists and t* <= 40,000;
      3. t* >= 29,900, so an update that moves too fast also fails.
    Measured with textbook Adam: largest step 0.9999999983 * lr, p = 1.908
    at step 20,000 and 2.767 at step 30,000, t* = 34,446 (float64 and float32).
    """
    lr, start, target, tol, budget = 1e-4, 0.0, 3.0, 0.01, 40_000
    floor = math.ceil((abs(target - start) - tol) / lr)
    params = [{"p": np.array([start])}]
    state = TR.AdamState.for_params(params, lr=lr)
    largest, t_star = 0.0, None
    for t in range(1, budget + 1):
        before = float(params[0]["p"][0])
        grads = [{"p": 2.0 * (params[0]["p"] - target)}]
        TR.adam_step(params, grads, state)
        after = float(params[0]["p"][0])
        largest = max(largest, abs(after - before))
        if t_star is None and abs(after - target) < tol:
            t_star = t
    ok = largest <= lr * (1 + 1e-6) and t_star is not None and t_star >= floor
    check(ok, f"criterion 4b: Adam at lr=1e-4 drives (p-3)^2 to |p-3| < 0.01 "
              f"within steps [{floor:,}, {budget:,}]",
          f"t* = {t_star}, largest step = {largest / lr:.10f} * lr")


def test_criterion_05_loss_check():
    uniform = np.full(38, 1 / 38)
    loss_u, grad_u = TR.categorical_cross_entropy(uniform, 0)
    perfect = np.zeros(38)
    perfect[4] = 1.0
    loss_p, _ = TR.categorical_cross_entropy(perfect, 4)
    rng = np.random.default_rng(0)
    logits = rng.standard_normal(38)
    probs = T.softmax(logits)
    _, grad = TR.categorical_cross_entropy(probs, 7)
    onehot = np.zeros(38)
    onehot[7] = 1.0
    ok = (abs(loss_u - math.log(38)) < 1e-4
          and abs(loss_u - 3.6376) < 1e-4
          and loss_p == 0.0
          and np.allclose(grad, probs - onehot, atol=1e-6))
    check(ok, "criterion 5: cross-entropy values and fused gradient",
          f"uniform={loss_u:.5f} perfect={loss_p}")


def test_criterion_06_overfit_tiny_sets():
    ds = D.synth_dataset(4, 2, seed=7, size=32)
    cfg = M.CnnConfig(input_size=32, channels=3, filters=(8, 16, 32), dense_units=64,
                      classes=4, conv_dropout=0.0, dense_dropout=0.0)
    model = M.build_cnn(cfg, seed=3)
    _, hist = TR.train(model, ds, ds,
                       TR.TrainConfig(epochs=250, batch_size=8, lr=3e-3, seed=11))
    cnn_last = hist[-1]

    seq_src = D.synth_dataset(4, 2, seed=9, size=8)
    seqs = [x.reshape(4, 48) for x in seq_src.inputs]
    dsl = D.MemoryDataset(seqs, seq_src.labels, seq_src.class_names)
    lcfg = M.LstmConfig(timesteps=4, features=48, hidden=16, dense_units=16, classes=4)
    lmodel = M.build_lstm(lcfg, seed=5)
    _, lhist = TR.train(lmodel, dsl, dsl,
                        TR.TrainConfig(epochs=300, batch_size=8, lr=3e-3, seed=13))
    lstm_last = lhist[-1]

    ok = (cnn_last.train_loss < 0.1 and cnn_last.train_acc == 1.0
          and lstm_last.train_loss < 0.1 and lstm_last.train_acc == 1.0)
    check(ok, "criterion 6: overfit 8-sample synthetic sets (>= 200 steps)",
          f"cnn loss={cnn_last.train_loss:.4f} acc={cnn_last.train_acc}; "
          f"lstm loss={lstm_last.train_loss:.4f} acc={lstm_last.train_acc}")


def test_criterion_07_metrics_oracle():
    ok = True
    detail = []

    # brute-force tally on random K=5 matrices, exact agreement
    for seed in range(3):
        rng = np.random.default_rng(seed)
        preds = rng.integers(0, 5, 400).tolist()
        labels = rng.integers(0, 5, 400).tolist()
        cm = MET.confusion_matrix(preds, labels, 5)
        for k in range(5):
            tp = sum(1 for p, t in zip(preds, labels) if p == k and t == k)
            fp = sum(1 for p, t in zip(preds, labels) if p == k and t != k)
            fn = sum(1 for p, t in zip(preds, labels) if p != k and t == k)
            expect_p = tp / (tp + fp) if tp + fp else 0.0
            expect_r = tp / (tp + fn) if tp + fn else 0.0
            expect_f = (2 * expect_p * expect_r / (expect_p + expect_r)
                        if expect_p + expect_r else 0.0)
            got = MET.per_class_prf(cm, k)
            if not np.allclose(got, (expect_p, expect_r, expect_f), atol=1e-12):
                ok = False
                detail.append(f"per-class mismatch seed={seed} k={k}")
        macro, weighted, acc = MET.aggregates(cm)
        supports = [cm.support(k) for k in range(5)]
        per = [MET.per_class_prf(cm, k) for k in range(5)]
        expect_macro = tuple(sum(row[i] for row in per) / 5 for i in range(3))
        expect_weighted = tuple(
            sum(row[i] * s for row, s in zip(per, supports)) / sum(supports)
            for i in range(3))
        if not (np.allclose(macro, expect_macro, atol=1e-12)
                and np.allclose(weighted, expect_weighted, atol=1e-12)):
            ok = False
            detail.append(f"aggregate mismatch seed={seed}")

    # every published row is consistent with the F1 formula given that its
    # printed inputs are half-up roundings of the true values
    for name, p, r, f, _ in REFERENCE_ROWS:
        lo_p, lo_r = max(p - 0.005, 0.0), max(r - 0.005, 0.0)
        hi_p, hi_r = min(p + 0.005, 1.0), min(r + 0.005, 1.0)
        f_lo = 2 * lo_p * lo_r / (lo_p + lo_r) if lo_p + lo_r else 0.0
        f_hi = 2 * hi_p * hi_r / (hi_p + hi_r)
        if not (MET.round_half_up(f_lo) - 1e-9 <= f <= MET.round_half_up(f_hi) + 1e-9):
            ok = False
            detail.append(f"row inconsistent: {name}")
        if abs(MET.round_half_up(2 * p * r / (p + r)) - f) > 0.01 + 1e-9:
            ok = False
            detail.append(f"row off by more than one printed ulp: {name}")

    total = sum(s for *_, s in REFERENCE_ROWS)
    wp = sum(p * s for _, p, _, _, s in REFERENCE_ROWS) / total
    wr = sum(r * s for _, _, r, _, s in REFERENCE_ROWS) / total
    wf = sum(f * s for _, _, _, f, s in REFERENCE_ROWS) / total
    rounded = (MET.round_half_up(wp), MET.round_half_up(wr), MET.round_half_up(wf))
    if total != REFERENCE_TOTAL_SUPPORT or rounded != (0.96, 0.96, 0.96):
        ok = False
        detail.append(f"weighted averages {rounded} on support {total}")

    check(ok, "criterion 7: metrics vs brute-force tally and published rows",
          "; ".join(detail) if detail else
          f"38 rows consistent; weighted avgs -> {rounded}")


def test_criterion_08_serialization(tmp_path):
    cfg = M.CnnConfig(input_size=14, channels=3, filters=(2, 3), dense_units=5,
                      classes=3)
    model = M.build_cnn(cfg, seed=1)
    model.label_map = ["a", "b", "c"]
    D.save_model(model, tmp_path / "m.leaf")
    loaded = D.load_model(tmp_path / "m.leaf")
    bit_exact = all(np.array_equal(a[k], b[k])
                    for a, b in zip(model.params, loaded.params) for k in a)
    same_summary = M.summary(loaded) == M.summary(model)
    same_labels = loaded.label_map == model.label_map

    blob = (tmp_path / "m.leaf").read_bytes()
    rejected = 0
    for corrupt in (blob[:7], blob[: len(blob) // 2], b"XXXX" + blob[4:], blob + b"!"):
        (tmp_path / "c.leaf").write_bytes(corrupt)
        try:
            D.load_model(tmp_path / "c.leaf")
        except Exception:
            rejected += 1
    ok = bit_exact and same_summary and same_labels and rejected == 4
    check(ok, "criterion 8: model file round trip and corruption rejection",
          f"bit_exact={bit_exact} corrupt_rejected={rejected}/4")


def test_criterion_09_determinism(tmp_path):
    tree = make_dataset_tree(tmp_path / "data",
                             {"blight": (170, 110, 30), "healthy": (40, 200, 40)},
                             n_train=3, n_valid=1)
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        rc = main(["train", str(tree), "--arch", "cnn", "--input", "16",
                   "--filters", "4,8", "--dense", "16", "--epochs", "2",
                   "--batch", "4", "--lr", "0.003", "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
        outs.append(out)
    same_history = ((outs[0] / "history.csv").read_bytes()
                    == (outs[1] / "history.csv").read_bytes())
    same_model = ((outs[0] / "model.leaf").read_bytes()
                  == (outs[1] / "model.leaf").read_bytes())
    check(same_history and same_model, "criterion 9: seeded runs byte-identical",
          f"history={same_history} model={same_model}")


DATASET_ROOT = os.environ.get("LEAFNET_DATA_ROOT", "")


@pytest.mark.skipif(not (DATASET_ROOT and Path(DATASET_ROOT, "train").is_dir()
                         and Path(DATASET_ROOT, "valid").is_dir()),
                    reason="full dataset not present (set LEAFNET_DATA_ROOT)")
def test_criterion_10_full_dataset_integration(tmp_path):
    index = D.scan_dataset(DATASET_ROOT)
    counts = index.counts()
    ok_counts = (counts["train"] == 70_295 and counts["valid"] == 17_572
                 and len(index.label_map) == 38)

    # short training run on a per-class subset, then a 38-class report
    per_class_train, per_class_valid = 3, 2
    subset = []
    for split, limit in (("train", per_class_train), ("valid", per_class_valid)):
        taken: dict[int, int] = {}
        for r in index.for_split(split):
            if taken.get(r.label, 0) < limit:
                taken[r.label] = taken.get(r.label, 0) + 1
                subset.append(r)
    small = D.DatasetIndex(index.label_map, subset)
    cfg = M.CnnConfig(input_size=32, channels=3, filters=(8, 16), dense_units=32,
                      classes=38, conv_dropout=0.0, dense_dropout=0.0)
    model = M.build_cnn(cfg, seed=1)
    model.label_map = list(index.label_map)
    loader = lambda p: D.load_image(p, model.spec.input_shape)
    train_set = D.DiskDataset(small, "train", loader)
    valid_set = D.DiskDataset(small, "valid", loader)
    TR.train(model, train_set, valid_set, TR.TrainConfig(epochs=1, batch_size=16,
                                                         lr=1e-3, seed=3))
    preds, labels = [], []
    for x, y in valid_set.samples():
        preds.append(int(M.forward(model, x).argmax()))
        labels.append(y)
    cm = MET.confusion_matrix(preds, labels, index.label_map)
    text = MET.format_report(MET.class_report(cm))
    rows = [l for l in text.splitlines() if l.strip()]
    ok_report = (sum(1 for name in index.label_map
                     if any(l.strip().startswith(name) for l in rows)) == 38
                 and "macro avg" in text and "weighted avg" in text)
    check(ok_counts and ok_report, "criterion 10: full-dataset integration",
          f"counts={counts} classes={len(index.label_map)}")
