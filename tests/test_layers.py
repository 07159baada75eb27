import numpy as np
import pytest

from helpers import assert_grads_close, conv_reference, fd_grads, specials
from leafnet import layers as L
from leafnet import tensor as T
from leafnet.errors import ConfigError, NumericError, ShapeError


def rand_params(init, *args, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    params = init(*args, rng)
    return {k: rng.standard_normal(v.shape) if dtype == np.float64
            else v.astype(dtype) for k, v in params.items()}


class TestConvForward:
    def test_zero_kernel_outputs_bias(self):
        x = np.random.default_rng(0).random((5, 5, 1)).astype(np.float32)
        params = {"kernels": np.zeros((3, 3, 1, 1), np.float32),
                  "bias": np.array([7.0], np.float32)}
        out = L.conv2d_forward(x, params, "valid")
        assert out.shape == (3, 3, 1)
        np.testing.assert_array_equal(out, np.full((3, 3, 1), 7.0))

    def test_stock_first_layer_shape_and_params(self):
        rng = np.random.default_rng(1)
        params = L.init_conv(3, 3, 3, 32, rng)
        assert L.param_count(params) == 896
        x = rng.random((128, 128, 3)).astype(np.float32)
        assert L.conv2d_forward(x, params, "same").shape == (128, 128, 32)

    def test_delta_kernel_copies_input(self):
        x = np.random.default_rng(2).random((6, 7, 1)).astype(np.float32)
        kernels = np.zeros((3, 3, 1, 1), np.float32)
        kernels[1, 1, 0, 0] = 1.0
        params = {"kernels": kernels, "bias": np.zeros(1, np.float32)}
        out = L.conv2d_forward(x, params, "same")
        np.testing.assert_allclose(out, x, atol=1e-6)

    @pytest.mark.parametrize("h", [3, 8, 17, 40])
    def test_same_valid_output_sizes(self, h):
        rng = np.random.default_rng(h)
        params = L.init_conv(3, 3, 2, 2, rng)
        x = rng.random((h, h, 2)).astype(np.float32)
        assert L.conv2d_forward(x, params, "same").shape == (h, h, 2)
        assert L.conv2d_forward(x, params, "valid").shape == (h - 2, h - 2, 2)

    def test_valid_rejects_small_input(self):
        params = L.init_conv(3, 3, 1, 1, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            L.conv2d_forward(np.zeros((2, 2, 1), np.float32), params, "valid")


class TestConvBackward:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(3)
        x = rng.random((5, 5, 2))
        params = {k: v.astype(np.float64) for k, v in L.init_conv(3, 3, 2, 2, rng).items()}
        g = L.conv2d_backward(x, params, np.zeros((3, 3, 2)), "valid")
        assert not g["kernels"].any() and not g["bias"].any() and not g["input"].any()

    def test_bias_grad_is_upstream_channel_sum(self):
        rng = np.random.default_rng(4)
        x = rng.random((6, 6, 1))
        params = {k: v.astype(np.float64) for k, v in L.init_conv(3, 3, 1, 2, rng).items()}
        g = L.conv2d_backward(x, params, np.ones((4, 4, 2)), "valid")
        np.testing.assert_array_equal(g["bias"], [16.0, 16.0])

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("seed,shape", [
        pytest.param(0, (6, 6, 2), id="0"),
        pytest.param(1, (6, 6, 2), id="1"),
        pytest.param(2, (6, 6, 2), id="2"),
        pytest.param(3, (5, 7, 2), id="5x7x2"),
        pytest.param(4, (6, 6, 3), id="6x6x3"),
    ])
    def test_matches_finite_differences(self, padding, seed, shape):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape)
        params = {"kernels": rng.standard_normal((3, 3, shape[2], 3)) * 0.5,
                  "bias": rng.standard_normal(3) * 0.1}
        target = rng.standard_normal(L.conv2d_forward(x, params, padding).shape)

        def loss():
            out = L.conv2d_forward(x, params, padding)
            return float(np.sum((out - target) ** 2))

        out = L.conv2d_forward(x, params, padding)
        analytic = L.conv2d_backward(x, params, 2 * (out - target), padding)
        numeric = fd_grads(loss, params)
        assert_grads_close(analytic, numeric)
        numeric_x = fd_grads(loss, {"input": x})
        assert_grads_close({"input": analytic["input"]}, numeric_x)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_matches_nested_loop_reference(self, padding):
        """Direct convolution with its own padding and loops as the oracle."""
        rng = np.random.default_rng(20)
        h, w, cin, cout = 5, 7, 3, 4
        x = rng.standard_normal((h, w, cin))
        kernels = rng.standard_normal((3, 3, cin, cout))
        params = {"kernels": kernels, "bias": rng.standard_normal(cout)}
        pad = 1 if padding == "same" else 0
        xp = np.zeros((h + 2 * pad, w + 2 * pad, cin))
        xp[pad:pad + h, pad:pad + w] = x
        oh, ow = xp.shape[0] - 2, xp.shape[1] - 2
        up = rng.standard_normal((oh, ow, cout))
        out = np.zeros((oh, ow, cout))
        d_kernels = np.zeros_like(kernels)
        d_xp = np.zeros_like(xp)
        for y in range(oh):
            for xx in range(ow):
                for co in range(cout):
                    out[y, xx, co] = params["bias"][co]
                    for i in range(3):
                        for j in range(3):
                            for ci in range(cin):
                                out[y, xx, co] += xp[y + i, xx + j, ci] * kernels[i, j, ci, co]
                                d_kernels[i, j, ci, co] += xp[y + i, xx + j, ci] * up[y, xx, co]
                                d_xp[y + i, xx + j, ci] += kernels[i, j, ci, co] * up[y, xx, co]
        np.testing.assert_allclose(L.conv2d_forward(x, params, padding), out,
                                   rtol=1e-12, atol=1e-12)
        g = L.conv2d_backward(x, params, up, padding)
        np.testing.assert_allclose(g["kernels"], d_kernels, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(g["input"], d_xp[pad:pad + h, pad:pad + w],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(g["bias"], up.sum(axis=(0, 1)), rtol=1e-12, atol=1e-12)

    def test_upstream_shape_checked(self):
        rng = np.random.default_rng(5)
        params = {k: v.astype(np.float64) for k, v in L.init_conv(3, 3, 1, 1, rng).items()}
        with pytest.raises(ShapeError):
            L.conv2d_backward(np.zeros((5, 5, 1)), params, np.zeros((5, 5, 1)), "valid")


class TestMaxPool:
    def test_stock_shapes(self):
        x = np.random.default_rng(6).random((126, 126, 32)).astype(np.float32)
        out, _ = L.maxpool2d_forward(x)
        assert out.shape == (63, 63, 32)
        x = np.random.default_rng(7).random((61, 61, 64)).astype(np.float32)
        out, _ = L.maxpool2d_forward(x)
        assert out.shape == (30, 30, 64)

    def test_window_max_and_backward_routing(self):
        x = np.array([[1, 2], [3, 4]], np.float32).reshape(2, 2, 1)
        out, idx = L.maxpool2d_forward(x)
        assert out[0, 0, 0] == 4.0
        d_x = L.maxpool2d_backward(idx, np.array([[[5.0]]], np.float32), (2, 2, 1))
        np.testing.assert_array_equal(d_x[:, :, 0], [[0, 0], [0, 5.0]])

    def test_tie_routes_to_lowest_index(self):
        x = np.full((2, 2, 1), 3.0, np.float32)
        _, idx = L.maxpool2d_forward(x)
        assert idx[0, 0, 0] == 0
        d_x = L.maxpool2d_backward(idx, np.ones((1, 1, 1), np.float32), (2, 2, 1))
        assert d_x[0, 0, 0] == 1.0 and d_x.sum() == 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_backward_sum_preserved_and_sparse(self, seed):
        rng = np.random.default_rng(seed)
        h, w, c = 7, 9, 3  # odd trailing row/column dropped
        x = rng.standard_normal((h, w, c)).astype(np.float32)
        out, idx = L.maxpool2d_forward(x)
        assert out.shape == (3, 4, 3)
        up = rng.standard_normal(out.shape).astype(np.float32)
        d_x = L.maxpool2d_backward(idx, up, (h, w, c))
        assert np.isclose(d_x.sum(), up.sum(), atol=1e-5)
        assert np.count_nonzero(d_x) <= up.size
        # dropped rows/columns never receive gradient
        assert not d_x[6, :, :].any() and not d_x[:, 8, :].any()

    def test_small_input_rejected(self):
        with pytest.raises(ShapeError):
            L.maxpool2d_forward(np.zeros((1, 5, 2), np.float32))

    def test_nan_window_pools_to_nan(self):
        x = np.random.default_rng(21).random((4, 6, 2)).astype(np.float32)
        x[2, 3, 1] = np.nan
        out, _ = L.maxpool2d_forward(x)
        nan = np.zeros(out.shape, bool)
        nan[1, 1, 1] = True
        np.testing.assert_array_equal(np.isnan(out), nan)
        with pytest.raises(NumericError):  # divergence is still caught at the softmax
            T.softmax(out.ravel())

    def test_four_way_tie_routes_to_index_zero(self):
        rng = np.random.default_rng(22)
        base = rng.standard_normal((3, 4, 5)).astype(np.float32)
        x = np.full((7, 9, 5), 100.0, np.float32)  # dropped row/column hold the largest values
        x[:6, :8] = np.repeat(np.repeat(base, 2, axis=0), 2, axis=1)
        out, idx = L.maxpool2d_forward(x)
        np.testing.assert_array_equal(out, base)
        assert not idx.any()
        d_x = L.maxpool2d_backward(idx, np.ones_like(base), x.shape)
        expected = np.zeros_like(x)
        expected[0:6:2, 0:8:2] = 1.0
        np.testing.assert_array_equal(d_x, expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_argmax_reference(self, seed):
        """Stacked-window argmax and np.add.at scatter as the oracle; values
        drawn from {0, 1, 2} so most windows hold ties."""
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 3, (9, 7, 4)).astype(np.float32)
        windows = np.stack([x[di:8:2, dj:6:2] for di in (0, 1) for dj in (0, 1)])
        ref_idx = np.argmax(windows, axis=0)
        out, idx = L.maxpool2d_forward(x)
        np.testing.assert_array_equal(out, windows.max(axis=0))
        np.testing.assert_array_equal(idx, ref_idx)
        up = rng.standard_normal(out.shape).astype(np.float32)
        ref = np.zeros_like(x)
        rows = 2 * np.arange(4)[:, None, None] + ref_idx // 2
        cols = 2 * np.arange(3)[None, :, None] + ref_idx % 2
        np.add.at(ref, (rows, cols, np.broadcast_to(np.arange(4), ref_idx.shape)), up)
        np.testing.assert_array_equal(L.maxpool2d_backward(idx, up, x.shape), ref)


class TestDense:
    def test_stock_param_counts(self):
        rng = np.random.default_rng(8)
        assert L.param_count(L.init_dense(2048, 1500, rng)) == 3_073_500
        assert L.param_count(L.init_dense(1500, 38, rng)) == 57_038

    def test_zero_weights_output_is_bias(self):
        b = np.array([1.0, -2.0, 3.0], np.float32)
        params = {"weights": np.zeros((4, 3), np.float32), "bias": b}
        out = L.dense_forward(np.random.default_rng(9).random(4).astype(np.float32), params)
        np.testing.assert_array_equal(out, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(5)
        params = {"weights": rng.standard_normal((5, 4)), "bias": rng.standard_normal(4)}
        target = rng.standard_normal(4)

        def loss():
            return float(np.sum((L.dense_forward(x, params) - target) ** 2))

        out = L.dense_forward(x, params)
        analytic = L.dense_backward(x, params, 2 * (out - target))
        assert_grads_close(analytic, fd_grads(loss, params))
        assert_grads_close({"input": analytic["input"]}, fd_grads(loss, {"input": x}))

    def test_shape_mismatch(self):
        params = {"weights": np.zeros((4, 3), np.float32), "bias": np.zeros(3, np.float32)}
        with pytest.raises(ShapeError):
            L.dense_forward(np.zeros(5, np.float32), params)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the products
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batched"])
    def test_activations_bit_identical_to_tensor_ops(self, lead):
        """The activation a dense layer applies equals T.relu or T.softmax of
        its linear output, and the backward given the ReLU output equals the
        backward of T.relu_backward(out, upstream), byte for byte, with ±0,
        NaN and ±inf in the upstream."""
        rng = np.random.default_rng(37)
        x = rng.standard_normal(lead + (6,)).astype(np.float32)
        params = rand_params(L.init_dense, 6, 9, seed=38, dtype=np.float32)
        params["bias"] = rng.standard_normal(9).astype(np.float32)
        up = specials(rng.standard_normal(lead + (9,)).astype(np.float32))
        out = L.dense_forward(x, params, "relu")
        assert 0 < np.count_nonzero(out) < out.size
        assert out.tobytes() == T.relu(L.dense_forward(x, params)).tobytes()
        assert (L.dense_forward(x, params, "softmax").tobytes()
                == T.softmax(L.dense_forward(x, params)).tobytes())
        got = L.dense_backward(x, params, up, activated=out)
        want = L.dense_backward(x, params, T.relu_backward(out, up))
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key


class TestDropout:
    def test_rate_zero_is_identity_both_modes(self):
        x = np.random.default_rng(10).random(100).astype(np.float32)
        rng = np.random.default_rng(0)
        for mode in ("train", "infer"):
            out, mask = L.dropout_forward(x, 0.0, mode, rng)
            np.testing.assert_array_equal(out, x)
            np.testing.assert_array_equal(L.dropout_backward(mask, x), x)

    def test_infer_identity_any_rate(self):
        x = np.random.default_rng(11).random(50).astype(np.float32)
        out, mask = L.dropout_forward(x, 0.7, "infer")
        np.testing.assert_array_equal(out, x)
        assert mask.mask is None

    def test_survivor_fraction(self):
        x = np.ones(10_000, np.float32)
        _, mask = L.dropout_forward(x, 0.5, "train", np.random.default_rng(12))
        survivors = mask.mask.mean()
        assert abs(survivors - 0.5) < 0.02

    def test_train_mode_expectation_matches_input(self):
        x = np.full(10_000, 2.5, np.float32)
        means = []
        for seed in range(5):
            out, _ = L.dropout_forward(x, 0.4, "train", np.random.default_rng(seed))
            means.append(out.mean())
        assert abs(np.mean(means) / 2.5 - 1.0) < 0.02

    def test_backward_applies_same_mask_and_scale(self):
        x = np.ones(1000, np.float32)
        out, mask = L.dropout_forward(x, 0.25, "train", np.random.default_rng(13))
        up = np.ones_like(x)
        d_x = L.dropout_backward(mask, up)
        np.testing.assert_array_equal(d_x, out)

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            L.dropout_forward(np.zeros(3, np.float32), 1.0, "train",
                              np.random.default_rng(0))


class TestFlatten:
    def test_stock_shape(self):
        assert L.flatten(np.zeros((2, 2, 512), np.float32)).shape == (2048,)

    def test_preserves_values(self):
        x = np.arange(5, dtype=np.float32).reshape(1, 1, 5)
        np.testing.assert_array_equal(L.flatten(x), np.arange(5))

    def test_round_trip(self):
        x = np.random.default_rng(14).random((3, 4, 5)).astype(np.float32)
        np.testing.assert_array_equal(L.flatten(x).reshape(3, 4, 5), x)


class TestLstm:
    def test_stock_param_count(self):
        params = L.init_lstm(1280, 128, np.random.default_rng(15))
        assert L.param_count(params) == 721_408

    def test_zero_params_zero_cell_from_zero_state(self):
        params = {"w_input": np.zeros((3, 8)), "w_recurrent": np.zeros((2, 8)),
                  "bias": np.zeros(8)}
        x = np.random.default_rng(16).standard_normal(3)
        h, c, _ = L.lstm_cell_step(x, np.zeros(2), np.zeros(2), params)
        np.testing.assert_array_equal(c, np.zeros(2))
        np.testing.assert_array_equal(h, np.zeros(2))

    @pytest.mark.parametrize("seed", range(3))
    def test_cell_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(3)
        h0, c0 = rng.standard_normal(2), rng.standard_normal(2)
        params = {"w_input": rng.standard_normal((3, 8)) * 0.5,
                  "w_recurrent": rng.standard_normal((2, 8)) * 0.5,
                  "bias": rng.standard_normal(8) * 0.1}
        target = rng.standard_normal(2)

        def loss():
            h, _, _ = L.lstm_cell_step(x, h0, c0, params)
            return float(np.sum((h - target) ** 2))

        h, c, cache = L.lstm_cell_step(x, h0, c0, params)
        analytic = L.lstm_cell_backward(cache, params, 2 * (h - target), np.zeros(2))
        assert_grads_close(analytic, fd_grads(loss, params))
        assert_grads_close({"x": analytic["input"], "h": analytic["h_prev"],
                            "c": analytic["c_prev"]},
                           fd_grads(loss, {"x": x, "h": h0, "c": c0}))

    def test_saturated_forget_gate_accumulates_cell(self):
        rng = np.random.default_rng(17)
        params = {"w_input": rng.standard_normal((3, 8)) * 0.1,
                  "w_recurrent": rng.standard_normal((2, 8)) * 0.1,
                  "bias": np.zeros(8)}
        params["bias"][2:4] = 20.0  # forget-gate slice saturates to 1
        x = rng.standard_normal(3)
        h0, c0 = rng.standard_normal(2), rng.standard_normal(2)
        _, c, cache = L.lstm_cell_step(x, h0, c0, params)
        np.testing.assert_allclose(c, c0 + cache["i"] * cache["g"], atol=1e-6)

    def test_forward_t1_equals_single_step(self):
        rng = np.random.default_rng(18)
        params = {k: v.astype(np.float64)
                  for k, v in L.init_lstm(4, 3, rng).items()}
        seq = rng.standard_normal((1, 4))
        h_seq = L.lstm_forward(seq, params)[0]
        h_step, _, _ = L.lstm_cell_step(seq[0], np.zeros(3), np.zeros(3), params)
        np.testing.assert_array_equal(h_seq, h_step)

    def test_zero_sequence_zero_params_gives_zero(self):
        params = {"w_input": np.zeros((4, 12)), "w_recurrent": np.zeros((3, 12)),
                  "bias": np.zeros(12)}
        out = L.lstm_forward(np.zeros((5, 4)), params)[0]
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_forward_matches_unrolled_reference(self):
        """Independent oracle: explicit per-step loop with its own gate math."""
        rng = np.random.default_rng(19)
        n_in, hidden = 3, 2
        params = {"w_input": rng.standard_normal((n_in, 4 * hidden)),
                  "w_recurrent": rng.standard_normal((hidden, 4 * hidden)),
                  "bias": rng.standard_normal(4 * hidden)}
        seq = rng.standard_normal((3, n_in))

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        h = np.zeros(hidden)
        c = np.zeros(hidden)
        for t in range(3):
            z = seq[t] @ params["w_input"] + h @ params["w_recurrent"] + params["bias"]
            i, f = sig(z[0:hidden]), sig(z[hidden:2 * hidden])
            g, o = np.tanh(z[2 * hidden:3 * hidden]), sig(z[3 * hidden:4 * hidden])
            c = f * c + i * g
            h = o * np.tanh(c)
        np.testing.assert_allclose(L.lstm_forward(seq, params)[0], h, atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_sequence_backward_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed + 100)
        params = {"w_input": rng.standard_normal((3, 8)) * 0.4,
                  "w_recurrent": rng.standard_normal((2, 8)) * 0.4,
                  "bias": rng.standard_normal(8) * 0.1}
        seq = rng.standard_normal((4, 3))
        target = rng.standard_normal(2)

        def loss():
            return float(np.sum((L.lstm_forward(seq, params)[0] - target) ** 2))

        h, caches = L.lstm_forward(seq, params)
        analytic = L.lstm_backward(caches, params, 2 * (h - target))
        assert_grads_close(analytic, fd_grads(loss, params))
        assert_grads_close({"seq": analytic["input"]}, fd_grads(loss, {"seq": seq}))

    def test_empty_sequence_rejected(self):
        params = L.init_lstm(3, 2, np.random.default_rng(0))
        with pytest.raises((ConfigError, ShapeError)):
            L.lstm_forward(np.zeros((0, 3)), params)


class TestInitialization:
    def test_lstm_forget_bias_starts_at_one(self):
        hidden = 4
        params = L.init_lstm(6, hidden, np.random.default_rng(0))
        bias = params["bias"]
        np.testing.assert_array_equal(bias[hidden:2 * hidden], np.ones(hidden))
        assert not bias[:hidden].any()
        assert not bias[2 * hidden:].any()

    def test_conv_he_uniform_bounds(self):
        params = L.init_conv(3, 3, 8, 4, np.random.default_rng(1))
        limit = np.sqrt(6.0 / (3 * 3 * 8))
        assert np.all(np.abs(params["kernels"]) <= limit)
        assert not params["bias"].any()

    def test_lstm_glorot_bounds(self):
        params = L.init_lstm(10, 5, np.random.default_rng(2))
        limit_w = np.sqrt(6.0 / (10 + 20))
        limit_u = np.sqrt(6.0 / (5 + 20))
        assert np.all(np.abs(params["w_input"]) <= limit_w)
        assert np.all(np.abs(params["w_recurrent"]) <= limit_u)

    def test_dtype_is_float32(self):
        rng = np.random.default_rng(3)
        for params in (L.init_conv(3, 3, 2, 2, rng), L.init_dense(4, 3, rng),
                       L.init_lstm(4, 3, rng)):
            assert all(p.dtype == np.float32 for p in params.values())


class TestParamCount:
    @pytest.mark.parametrize("cin,cout,expected", [
        (32, 32, 9_248),
        (256, 512, 1_180_160),
        (3, 32, 896),
    ])
    def test_conv_counts(self, cin, cout, expected):
        params = L.init_conv(3, 3, cin, cout, np.random.default_rng(0))
        assert L.param_count(params) == expected
        assert expected == 3 * 3 * cin * cout + cout

    def test_paramless_layers(self):
        assert L.param_count({}) == 0

    def test_lstm_closed_form(self):
        n_in, hidden = 7, 5
        params = L.init_lstm(n_in, hidden, np.random.default_rng(0))
        assert L.param_count(params) == 4 * (n_in * hidden + hidden * hidden + hidden)


class TestBatchedEquivalence:
    """A leading sample axis gives the stacked per-sample outputs and input
    gradients and the summed per-sample parameter gradients (float64)."""

    N = 5

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("per_chunk", [1, 2, 5], ids=lambda k: f"chunk{k}")
    def test_conv(self, monkeypatch, padding, per_chunk):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((self.N, 5, 7, 3))
        params = {"kernels": rng.standard_normal((3, 3, 3, 4)), "bias": rng.standard_normal(4)}
        oh, ow = L.conv_output_hw(5, 7, 3, 3, padding)
        wp = 9 if padding == "same" else 7
        # ROWS sized so a chunk holds per_chunk samples: 5 = 2 + 2 + 1 has a
        # chunk boundary and a short last chunk
        monkeypatch.setattr(L, "ROWS", per_chunk * oh * wp)
        up = rng.standard_normal((self.N, oh, ow, 4))
        out = L.conv2d_forward(x, params, padding)
        g = L.conv2d_backward(x, params, up, padding)
        singles = [L.conv2d_backward(x[k], params, up[k], padding) for k in range(self.N)]
        np.testing.assert_allclose(
            out, np.stack([L.conv2d_forward(xk, params, padding) for xk in x]), rtol=1e-12)
        np.testing.assert_allclose(g["input"], np.stack([s["input"] for s in singles]),
                                   rtol=1e-12, atol=1e-12)
        for key in ("kernels", "bias"):
            np.testing.assert_allclose(g[key], sum(s[key] for s in singles),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("need_input", [True, False])
    def test_conv_output_row_bands(self, monkeypatch, padding, need_input):
        """ROWS below one sample's rows: each sample is its own chunk, cut into
        bands of 2 output rows with a short last band (7 = 2+2+2+1 rows same,
        5 = 2+2+1 valid). Equal to the nested-loop reference."""
        rng = np.random.default_rng(37)
        x = rng.standard_normal((3, 7, 6, 3))
        params = {"kernels": rng.standard_normal((3, 3, 3, 4)), "bias": rng.standard_normal(4)}
        oh, ow = L.conv_output_hw(7, 6, 3, 3, padding)
        wp = 8 if padding == "same" else 6
        monkeypatch.setattr(L, "ROWS", 2 * wp)
        assert L._chunks(oh, wp)[-1][1] == 1 and len(L._chunks(oh, wp)) >= 3
        up = rng.standard_normal((3, oh, ow, 4))
        refs = [conv_reference(x[k], params["kernels"], params["bias"], up[k], padding)
                for k in range(3)]
        np.testing.assert_allclose(L.conv2d_forward(x, params, padding),
                                   np.stack([r[0] for r in refs]), rtol=1e-12, atol=1e-12)
        g = L.conv2d_backward(x, params, up, padding, need_input=need_input)
        np.testing.assert_allclose(g["kernels"], sum(r[1] for r in refs), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(g["bias"], up.sum(axis=(0, 1, 2)), rtol=1e-12, atol=1e-12)
        if need_input:
            np.testing.assert_allclose(g["input"], np.stack([r[2] for r in refs]),
                                       rtol=1e-12, atol=1e-12)
        else:
            assert "input" not in g

    def test_maxpool(self):
        rng = np.random.default_rng(31)
        x = rng.integers(0, 3, (self.N, 5, 7, 3)).astype(np.float64)  # tie-heavy
        out, idx = L.maxpool2d_forward(x)
        up = rng.standard_normal(out.shape)
        d_x = L.maxpool2d_backward(idx, up, x.shape)
        for k in range(self.N):
            out_k, idx_k = L.maxpool2d_forward(x[k])
            np.testing.assert_array_equal(out[k], out_k)
            np.testing.assert_array_equal(idx[k], idx_k)
            np.testing.assert_array_equal(d_x[k], L.maxpool2d_backward(idx_k, up[k], x[k].shape))

    def test_dense(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((self.N, 6))
        params = {"weights": rng.standard_normal((6, 4)), "bias": rng.standard_normal(4)}
        up = rng.standard_normal((self.N, 4))
        out = L.dense_forward(x, params)
        g = L.dense_backward(x, params, up)
        singles = [L.dense_backward(x[k], params, up[k]) for k in range(self.N)]
        np.testing.assert_allclose(out, np.stack([L.dense_forward(xk, params) for xk in x]),
                                   rtol=1e-12)
        np.testing.assert_allclose(g["input"], np.stack([s["input"] for s in singles]),
                                   rtol=1e-12)
        for key in ("weights", "bias"):
            np.testing.assert_allclose(g[key], sum(s[key] for s in singles), rtol=1e-12)

    def test_dropout_draws_like_consecutive_samples(self):
        x = np.random.default_rng(33).standard_normal((self.N, 5, 7, 3))
        up = np.random.default_rng(34).standard_normal(x.shape)
        out, mask = L.dropout_forward(x, 0.4, "train", np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for k in range(self.N):
            out_k, mask_k = L.dropout_forward(x[k], 0.4, "train", rng)
            np.testing.assert_array_equal(out[k], out_k)
            np.testing.assert_array_equal(L.dropout_backward(mask, up)[k],
                                          L.dropout_backward(mask_k, up[k]))

    def test_flatten_and_softmax(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((self.N, 5, 7, 3))
        np.testing.assert_array_equal(L.flatten(x), np.stack([L.flatten(xk) for xk in x]))
        logits = rng.standard_normal((self.N, 6))
        np.testing.assert_allclose(T.softmax(logits), np.stack([T.softmax(z) for z in logits]),
                                   rtol=1e-15)

    def test_lstm(self):
        rng = np.random.default_rng(36)
        params = {"w_input": rng.standard_normal((4, 12)) * 0.5,
                  "w_recurrent": rng.standard_normal((3, 12)) * 0.5,
                  "bias": rng.standard_normal(12) * 0.1}
        seq = rng.standard_normal((3, 5, 4))
        up = rng.standard_normal((3, 3))
        h, caches = L.lstm_forward(seq, params)
        g = L.lstm_backward(caches, params, up)
        singles = []
        for k in range(3):
            h_k, caches_k = L.lstm_forward(seq[k], params)
            np.testing.assert_allclose(h[k], h_k, rtol=1e-12)
            singles.append(L.lstm_backward(caches_k, params, up[k]))
        np.testing.assert_allclose(g["input"], np.stack([s["input"] for s in singles]),
                                   rtol=1e-12, atol=1e-15)
        for key in params:
            np.testing.assert_allclose(g[key], sum(s[key] for s in singles), rtol=1e-12)

    @pytest.mark.parametrize("kind", ["conv", "lstm"])
    def test_need_input_false_leaves_parameter_gradients(self, kind):
        """The kinds that can be a model's first layer skip its input gradient."""
        rng = np.random.default_rng(37)
        if kind == "conv":
            params = {"kernels": rng.standard_normal((3, 3, 2, 3)), "bias": np.zeros(3)}
            x, up = rng.standard_normal((2, 5, 7, 2)), rng.standard_normal((2, 5, 7, 3))
            run = lambda need: L.conv2d_backward(x, params, up, "same", need_input=need)
        else:
            params = {k: v.astype(np.float64) for k, v in L.init_lstm(4, 3, rng).items()}
            _, caches = L.lstm_forward(rng.standard_normal((2, 5, 4)), params)
            up = rng.standard_normal((2, 3))
            run = lambda need: L.lstm_backward(caches, params, up, need_input=need)
        full, skipped = run(True), run(False)
        assert "input" in full and "input" not in skipped
        for key in params:
            np.testing.assert_array_equal(skipped[key], full[key])
