import math

import numpy as np
import pytest

from leafnet import tensor as T
from leafnet.errors import NumericError, ShapeError


def f32(data):
    return np.asarray(data, dtype=np.float32)


class TestMatmul:
    def test_identity_leaves_operand_unchanged(self):
        b = f32([[1, 2, 3], [4, 5, 6]])
        out = T.matmul(f32(np.eye(2)), b)
        np.testing.assert_array_equal(out, b)

    def test_one_by_one(self):
        assert T.matmul(f32([[1.0]]), f32([[5.0]]))[0, 0] == 5.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, (4, 3))
        b = rng.uniform(-1, 1, (3, 5))
        expected = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                for t in range(3):
                    expected[i, j] += a[i, t] * b[t, j]
        np.testing.assert_allclose(T.matmul(a, b), expected, rtol=1e-4)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_sizes_against_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(1, 17, size=3)
        a = rng.uniform(-1, 1, (m, k)).astype(np.float32)
        b = rng.uniform(-1, 1, (k, n)).astype(np.float32)
        expected = np.zeros((m, n))
        for i in range(m):
            for j in range(n):
                expected[i, j] = sum(float(a[i, t]) * float(b[t, j]) for t in range(k))
        np.testing.assert_allclose(T.matmul(a, b), expected, rtol=1e-4, atol=1e-6)

    def test_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(np.zeros((2, 3)), np.zeros((2, 3)))


class TestRelu:
    def test_basic(self):
        np.testing.assert_array_equal(T.relu(f32([-1, 0, 2])), [0, 0, 2])

    def test_all_negative_gives_zeros(self):
        out = T.relu(f32([-5, -1, -0.5]))
        assert not out.any()

    def test_backward_gates_on_input_sign(self):
        out = T.relu_backward(f32([-1, 3]), f32([5, 7]))
        np.testing.assert_array_equal(out, [0, 7])

    def test_backward_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.relu_backward(np.zeros(2), np.zeros(3))


def _specials(dtype) -> np.ndarray:
    fi = np.finfo(dtype)
    neg_nan = np.copysign(np.array(np.nan, dtype), -1)
    return np.array([np.nan, neg_nan, 0.0, -0.0, np.inf, -np.inf, fi.smallest_subnormal,
                     -fi.smallest_subnormal, fi.max, fi.min, fi.tiny, 1.5, -2.25], dtype=dtype)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestGate:
    """T.gate is np.where(keep, x, 0) byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values_every_mask(self, dtype):
        x = _specials(dtype)
        for bits in range(0, 1 << 4):
            keep = np.resize([(bits >> k) & 1 == 1 for k in range(4)], x.shape)
            _same_bytes(T.gate(keep, x), np.where(keep, x, 0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_masks_with_specials(self, dtype, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 6, 5, 3)).astype(dtype)
        x.flat[rng.choice(x.size, 40, replace=False)] = np.resize(_specials(dtype), 40)
        keep = rng.random(x.shape) < 0.5
        _same_bytes(T.gate(keep, x), np.where(keep, x, 0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fill", [True, False])
    def test_constant_masks(self, dtype, fill):
        x = np.resize(_specials(dtype), (7, 5))
        keep = np.full(x.shape, fill)
        _same_bytes(T.gate(keep, x), np.where(keep, x, 0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_contiguous_input(self, dtype):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((6, 8, 4)).astype(dtype)
        base[0, 0, :] = _specials(dtype)[:4]
        before = base.copy()
        x = base[::2, ::-1].transpose(2, 0, 1)
        assert not x.flags.c_contiguous and not x.flags.f_contiguous
        keep = rng.random(x.shape) < 0.5
        _same_bytes(T.gate(keep, x), np.where(keep, x, 0))
        _same_bytes(base, before)  # the input is left as it was

    def test_relu_backward_matches_where(self):
        rng = np.random.default_rng(4)
        for dtype in (np.float32, np.float64):
            x = np.resize(_specials(dtype), (5, 13)) * rng.choice([-1, 1], (5, 13)).astype(dtype)
            up = np.resize(_specials(dtype)[::-1], x.shape)
            _same_bytes(T.relu_backward(x, up), np.where(x > 0, up, 0))


class TestSoftmax:
    def test_equal_logits_uniform(self):
        out = T.softmax(np.zeros(38, dtype=np.float32))
        np.testing.assert_allclose(out, np.full(38, 1 / 38), atol=1e-7)
        assert abs(out.sum() - 1.0) < 1e-6

    def test_shift_invariance_bit_identical(self):
        # dyadic-rational logits and an integer shift are exact in binary
        # floats, so max-subtraction cancels the shift bit-for-bit
        logits = f32([0.5, -1.25, 2.0, 0.0])
        shifted = logits + f32(3.0)
        assert np.array_equal(T.softmax(logits), T.softmax(shifted))

    def test_shift_invariance_random(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=10).astype(np.float32)
        np.testing.assert_allclose(T.softmax(logits), T.softmax(logits + 7.5),
                                   atol=1e-6)

    def test_spike_matches_hand_exp_normalize(self):
        # independent oracle: exp-normalize evaluated with math.exp
        logits = [10.0, 0.0, 0.0]
        exps = [math.exp(v - 10.0) for v in logits]
        expected = [e / sum(exps) for e in exps]
        np.testing.assert_allclose(T.softmax(f32(logits)), expected, atol=1e-5)
        np.testing.assert_allclose(T.softmax(f32(logits)),
                                   [0.99990, 0.0000454, 0.0000454], atol=1e-5)

    def test_large_logits_do_not_overflow(self):
        out = T.softmax(f32([1000.0, 999.0]))
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-6

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            T.softmax(f32([np.nan, 1.0]))
        with pytest.raises(NumericError):
            T.softmax(f32([np.inf, 1.0]))

    @pytest.mark.parametrize("n", [1, 2, 5, 38, 100])
    def test_normalized_and_nonnegative(self, n):
        rng = np.random.default_rng(n)
        out = T.softmax(rng.normal(size=n).astype(np.float32) * 3)
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-6


class TestStructuralOps:
    def test_reshape_preserves_row_major_order(self):
        x = f32([[1, 2, 3], [4, 5, 6]])
        np.testing.assert_array_equal(T.reshape(x, (6,)), [1, 2, 3, 4, 5, 6])

    def test_reshape_count_mismatch(self):
        with pytest.raises(ShapeError):
            T.reshape(np.zeros((2, 3)), (7,))

    def test_validate_shape(self):
        with pytest.raises(ShapeError):
            T.validate_shape(())
        with pytest.raises(ShapeError):
            T.validate_shape((3, 0))


class TestShapeIsFunctionOfShape:
    """Output shapes depend only on input shapes, not the data."""

    @pytest.mark.parametrize("seed", range(8))
    def test_ops_shape_stability(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = (int(v) for v in rng.integers(1, 9, size=3))
        for draw in range(2):
            a = rng.normal(size=(m, k)).astype(np.float32)
            b = rng.normal(size=(k, n)).astype(np.float32)
            assert T.matmul(a, b).shape == (m, n)
            assert T.relu(a).shape == a.shape
            assert T.softmax(a[0] if k > 0 else a.ravel()).shape == (k,)
            h, w, c = (int(v) for v in rng.integers(1, 6, size=3))
            img = rng.normal(size=(h, w, c)).astype(np.float32)
            assert T.reshape(img, (h * w * c,)).shape == (h * w * c,)
