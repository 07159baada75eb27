import numpy as np
import pytest

from helpers import flat_params, model_to_f64
from leafnet import models as M
from leafnet.errors import ConfigError, ModelStateError, ShapeError

CNN_LAYER_COUNTS = [896, 9248, 0, 18496, 36928, 0, 73856, 147584, 0, 295168,
                    590080, 0, 1180160, 2359808, 0, 0, 0, 3073500, 0, 57038]


def toy_cnn(classes=3, seed=1):
    cfg = M.CnnConfig(input_size=14, channels=3, filters=(2, 3), dense_units=5,
                      classes=classes, conv_dropout=0.0, dense_dropout=0.0)
    return M.build_cnn(cfg, seed=seed)


class TestBuildCnn:
    def test_default_total(self):
        assert M.build_cnn().total_params == 7_842_762

    def test_default_per_layer_counts(self):
        assert M.build_cnn().layer_param_counts() == CNN_LAYER_COUNTS

    def test_default_shape_chain(self):
        model = M.build_cnn()
        pools = [s.output_shape for s in model.spec.layers if s.kind == "maxpool"]
        assert pools == [(63, 63, 32), (30, 30, 64), (14, 14, 128),
                         (6, 6, 256), (2, 2, 512)]
        flat = next(s for s in model.spec.layers if s.kind == "flatten")
        assert flat.output_shape == (2048,)

    def test_reduced_config_constructs_with_closed_form_total(self):
        # 64x64 supports four same/valid/pool blocks (chain 31, 14, 6, 2)
        cfg = M.CnnConfig(input_size=64, channels=3, filters=(8, 16, 32, 64),
                          dense_units=128, classes=4)
        model = M.build_cnn(cfg)
        expected = 0
        cin = 3
        for f in cfg.filters:
            expected += (9 * cin * f + f) + (9 * f * f + f)
            cin = f
        flat = 2 * 2 * 64
        expected += flat * 128 + 128
        expected += 128 * 4 + 4
        assert model.total_params == expected

    def test_shape_chain_failure_names_layer(self):
        # a fifth block would give its valid conv a 2x2 input
        cfg = M.CnnConfig(input_size=64, channels=3, filters=(8, 16, 32, 64, 128),
                          dense_units=128, classes=4)
        with pytest.raises(ConfigError, match="conv2d_9"):
            M.build_cnn(cfg)

    def test_default_input_64_fails(self):
        with pytest.raises(ConfigError, match="conv2d_9"):
            M.build_cnn(M.CnnConfig(input_size=64))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            M.build_cnn(M.CnnConfig(filters=()))
        with pytest.raises(ConfigError):
            M.build_cnn(M.CnnConfig(classes=1))

    @pytest.mark.parametrize("rates", [{"conv_dropout": 1.5}, {"conv_dropout": 1.0},
                                       {"dense_dropout": -0.1},
                                       {"dense_dropout": float("nan")}])
    def test_dropout_rate_outside_unit_interval_rejected(self, rates):
        with pytest.raises(ConfigError, match="dropout"):
            M.build_cnn(M.CnnConfig(**rates))


class TestBuildLstm:
    def test_default_total(self):
        assert M.build_lstm().total_params == 742_822

    def test_default_per_layer(self):
        assert M.build_lstm().layer_param_counts() == [721_408, 16_512, 4_902]

    def test_toy_config_closed_form(self):
        cfg = M.LstmConfig(timesteps=2, features=4, hidden=2, dense_units=3, classes=2)
        model = M.build_lstm(cfg)
        assert model.total_params == 4 * (4 * 2 + 2 * 2 + 2) + (2 * 3 + 3) + (3 * 2 + 2)
        assert model.total_params == 73

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigError):
            M.build_lstm(M.LstmConfig(hidden=0))


class TestSummary:
    def test_cnn_rows_and_totals(self):
        model = M.build_cnn()
        rows = M.summary_rows(model)
        assert len(rows) == 20
        text = M.summary(model)
        assert "Total params: 7,842,762" in text
        assert "Trainable params: 7,842,762" in text
        assert "Non-trainable params: 0" in text

    def test_lstm_rows_and_totals(self):
        model = M.build_lstm()
        assert len(M.summary_rows(model)) == 3
        assert "Total params: 742,822" in M.summary(model)

    def test_flatten_row_rendering(self):
        text = M.summary(M.build_cnn())
        line = next(l for l in text.splitlines() if l.startswith("flatten"))
        assert "(2048)" in line
        assert line.rstrip().endswith("0")

    def test_layer_names_follow_convention(self):
        names = [r.name for r in M.summary_rows(M.build_cnn())]
        assert names[0] == "conv2d" and names[1] == "conv2d_1"
        assert "max_pooling2d_4" in names
        assert names[-1] == "dense_1" and names[-2] == "dropout_1"


class TestForward:
    def test_probs_sum_to_one(self):
        model = toy_cnn()
        x = np.random.default_rng(0).random(model.spec.input_shape, dtype=np.float32)
        probs = M.forward(model, x)
        assert probs.shape == (3,)
        assert abs(probs.sum() - 1.0) < 1e-6
        assert np.all(probs >= 0)

    def test_zero_weights_give_uniform(self):
        model = toy_cnn(classes=38)
        for p in model.params:
            for k in p:
                p[k][...] = 0.0
        x = np.random.default_rng(1).random(model.spec.input_shape, dtype=np.float32)
        probs = M.forward(model, x)
        np.testing.assert_allclose(probs, np.full(38, 1 / 38), atol=1e-7)

    def test_infer_mode_bit_identical(self):
        model = toy_cnn()
        x = np.random.default_rng(2).random(model.spec.input_shape, dtype=np.float32)
        assert np.array_equal(M.forward(model, x), M.forward(model, x))

    def test_train_mode_probs_normalized(self):
        cfg = M.CnnConfig(input_size=14, channels=3, filters=(2,), dense_units=4,
                          classes=3, conv_dropout=0.3, dense_dropout=0.3)
        model = M.build_cnn(cfg, seed=0)
        x = np.random.default_rng(3).random(model.spec.input_shape, dtype=np.float32)
        probs, caches = M.forward_train(model, x, np.random.default_rng(4))
        assert abs(probs.sum() - 1.0) < 1e-6
        assert len(caches) == len(model.spec.layers)

    def test_wrong_input_shape_names_both(self):
        model = toy_cnn()
        with pytest.raises(ShapeError, match=r"expected \(14, 14, 3\), got \(8, 8, 3\)"):
            M.forward(model, np.zeros((8, 8, 3), np.float32))

    @pytest.mark.parametrize("arch", ["lstm", "zero-rate-cnn"])
    def test_unknown_mode_rejected(self, arch):
        """The mode is checked for every model, not only by a dropout layer
        whose rate is above zero."""
        model = (M.build_lstm(M.LstmConfig(timesteps=3, features=4, hidden=3, dense_units=4,
                                           classes=5))
                 if arch == "lstm" else toy_cnn())
        with pytest.raises(ConfigError, match="bogus"):
            M.forward(model, np.zeros(model.spec.input_shape, np.float32), "bogus")

    def test_lstm_forward_shape(self):
        cfg = M.LstmConfig(timesteps=3, features=4, hidden=3, dense_units=4, classes=5)
        model = M.build_lstm(cfg)
        probs = M.forward(model, np.random.default_rng(5).random((3, 4), dtype=np.float32))
        assert probs.shape == (5,)
        assert abs(probs.sum() - 1.0) < 1e-6


class TestPredict:
    def test_forced_logit_wins(self):
        model = toy_cnn()
        model.label_map = ["a", "b", "c"]
        final = model.params[-1]
        final["weights"][...] = 0.0
        final["bias"][...] = 0.0
        final["bias"][2] = 20.0
        name, conf = M.predict(model, np.zeros(model.spec.input_shape, np.float32))
        assert name == "c"
        assert conf > 0.99

    def test_uniform_ties_to_first_class(self):
        model = toy_cnn()
        model.label_map = ["a", "b", "c"]
        for p in model.params:
            for k in p:
                p[k][...] = 0.0
        name, conf = M.predict(model, np.zeros(model.spec.input_shape, np.float32))
        assert name == "a"
        assert abs(conf - 1 / 3) < 1e-6

    def test_missing_label_map_rejected(self):
        model = toy_cnn()
        with pytest.raises(ModelStateError):
            M.predict(model, np.zeros(model.spec.input_shape, np.float32))

    def test_stacked_batch_rejected(self):
        """forward takes [N, ...] stacks; predict names one class for one input."""
        model = toy_cnn()
        model.label_map = ["a", "b", "c"]
        with pytest.raises(ShapeError):
            M.predict(model, np.zeros((2,) + model.spec.input_shape, np.float32))

    def test_wrong_length_label_map_rejected(self):
        model = toy_cnn()
        model.label_map = ["only", "two"]
        with pytest.raises(ModelStateError):
            M.predict(model, np.zeros(model.spec.input_shape, np.float32))


class TestShapeChainProperty:
    """Any config that builds can run forward without shape errors."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_configs(self, seed):
        rng = np.random.default_rng(seed)
        cfg = M.CnnConfig(
            input_size=int(rng.integers(6, 24)),
            channels=int(rng.integers(1, 4)),
            filters=tuple(int(f) for f in rng.integers(1, 5, size=rng.integers(1, 3))),
            dense_units=int(rng.integers(1, 9)),
            classes=int(rng.integers(2, 6)),
            conv_dropout=0.0, dense_dropout=0.0)
        try:
            model = M.build_cnn(cfg, seed=seed)
        except ConfigError:
            return  # rejected configs are allowed; accepted ones must run
        x = rng.random(model.spec.input_shape).astype(np.float32)
        probs = M.forward(model, x)
        assert probs.shape == (cfg.classes,)
        assert abs(probs.sum() - 1.0) < 1e-6

    def test_declared_shapes_match_execution(self):
        model = toy_cnn()
        model_to_f64(model)
        x = np.random.default_rng(9).standard_normal(model.spec.input_shape)
        out = x
        from leafnet import layers as L
        from leafnet import tensor as T
        for spec, params in zip(model.spec.layers, model.params):
            if spec.kind == "conv":
                out = L.conv2d_forward(out, params, spec.padding)
            elif spec.kind == "maxpool":
                out, _ = L.maxpool2d_forward(out)
            elif spec.kind == "flatten":
                out = L.flatten(out)
            elif spec.kind == "dense":
                out = L.dense_forward(out, params)
            elif spec.kind == "dropout":
                pass
            assert tuple(out.shape) == spec.output_shape, spec.name


def test_flat_params_helper_sees_every_tensor():
    model = toy_cnn()
    flat = flat_params(model)
    assert sum(v.size for v in flat.values()) == model.total_params


def test_param_shapes_match_initialized_params():
    """load_model expects the shapes param_shapes gives; they must be what
    the seeded initializers draw, in the same order."""
    for model in (M.build_cnn(), M.build_lstm()):
        for layer, params in zip(model.spec.layers, model.params):
            shapes = M.param_shapes(layer)
            assert list(shapes) == list(params)
            assert shapes == {key: p.shape for key, p in params.items()}
