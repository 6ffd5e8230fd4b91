import numpy as np
import pytest

from docnids import nn
from docnids.nn import Activation


def naive_forward(layers, activation_slope, x):
    """Triple-loop oracle, independent of the kernel implementations."""
    a = list(x)
    for li, w in enumerate(layers):
        out = []
        for row in w:
            s = 0.0
            for wij, aj in zip(row, a):
                s += wij * aj
            if li < len(layers) - 1 and s <= 0.0:
                s *= activation_slope
            out.append(s)
        a = out
    return np.array(a)


def composed_loss(params, x, c):
    z = nn.forward_batch(params, x[None])[0]
    return float(((z - c) ** 2).sum())


class TestInitParams:
    def test_deterministic_for_seed(self):
        a = nn.init_params([4, 2], seed=7)
        b = nn.init_params([4, 2], seed=7)
        for wa, wb in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb)

    def test_rejects_single_dim(self):
        with pytest.raises(ValueError, match="need at least two dims"):
            nn.init_params([4], seed=0)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            nn.init_params([4, 0, 2], seed=0)

    def test_weights_within_fan_in_bound(self):
        p = nn.init_params([4, 8, 2], seed=1)
        for w, fan_in in zip(p.layers, [4, 8]):
            assert np.all(np.abs(w) <= 1.0 / np.sqrt(fan_in))

    def test_no_biases_allocated(self):
        p = nn.init_params([4, 8, 2], seed=1)
        assert p.n_weights == 4 * 8 + 8 * 2


class TestForward:
    def test_rectifier_zeroes_negatives(self):
        p = nn.MlpParams(
            layers=[np.eye(2), np.eye(2)],
            activation=Activation.RECTIFIER,
            layer_dims=[2, 2, 2],
        )
        assert np.allclose(nn.forward_batch(p, np.array([[-1.0, 2.0]]))[0], [0.0, 2.0])

    def test_zero_weights_give_zero_output(self):
        p = nn.MlpParams(
            layers=[np.zeros((3, 2)), np.zeros((2, 3))],
            activation=Activation.LEAKY_RECTIFIER,
            layer_dims=[2, 3, 2],
        )
        assert np.array_equal(nn.forward_batch(p, np.array([[5.0, -3.0]]))[0], np.zeros(2))

    def test_matches_naive_oracle(self, rng):
        p = nn.init_params([5, 7, 3], seed=3)
        for _ in range(10):
            x = rng.normal(size=5)
            expected = naive_forward(p.layers, p.activation.slope, x)
            assert np.allclose(nn.forward_batch(p, x[None])[0], expected, atol=1e-12, rtol=0)

    def test_dimension_mismatch(self):
        p = nn.init_params([4, 2], seed=0)
        with pytest.raises(ValueError):
            nn.forward_batch(p, np.zeros((1, 3)))

    def test_deterministic(self, rng):
        p = nn.init_params([4, 6, 2], seed=9)
        x = rng.normal(size=4)
        assert np.array_equal(nn.forward_batch(p, x[None])[0], nn.forward_batch(p, x[None])[0])

    def test_batch_preserves_row_order(self, rng):
        p = nn.init_params([4, 6, 2], seed=9)
        xs = rng.normal(size=(8, 4))
        batch = nn.forward_batch(p, xs)
        for i in range(8):
            assert np.allclose(batch[i], nn.forward_batch(p, xs[i][None])[0], atol=1e-12)


class TestBackprop:
    def test_single_linear_layer_gradient_is_input(self):
        p = nn.MlpParams(
            layers=[np.array([[2.0, -1.0, 0.5]])],
            activation=Activation.IDENTITY,
            layer_dims=[3, 1],
        )
        x = np.array([1.0, 2.0, 3.0])
        g = nn.backprop_batch(p, x[None], np.array([[1.0]]))
        assert np.allclose(g.layers[0], x.reshape(1, -1))

    def test_saturated_rectifier_blocks_gradient(self):
        # all-negative pre-activations in the hidden layer
        p = nn.MlpParams(
            layers=[-np.ones((3, 2)), np.ones((1, 3))],
            activation=Activation.RECTIFIER,
            layer_dims=[2, 3, 1],
        )
        g = nn.backprop_batch(p, np.array([[1.0, 1.0]]), np.array([[1.0]]))
        assert np.allclose(g.layers[0], 0.0)

    def test_matches_finite_differences(self, rng):
        p = nn.init_params([5, 8, 6, 3], seed=11)
        x = rng.normal(size=5)
        c = rng.normal(size=3)
        z = nn.forward_batch(p, x[None])[0]
        analytic = nn.backprop_batch(p, x[None], (2.0 * (z - c))[None])
        h = 1e-5
        for li, w in enumerate(p.layers):
            for i in range(w.shape[0]):
                for j in range(w.shape[1]):
                    orig = w[i, j]
                    w[i, j] = orig + h
                    up = composed_loss(p, x, c)
                    w[i, j] = orig - h
                    down = composed_loss(p, x, c)
                    w[i, j] = orig
                    fd = (up - down) / (2 * h)
                    a = analytic.layers[li][i, j]
                    assert abs(a - fd) / max(abs(fd), 1e-6) < 1e-4

    def test_dimension_mismatch(self):
        p = nn.init_params([4, 2], seed=0)
        with pytest.raises(ValueError):
            nn.backprop_batch(p, np.zeros((1, 4)), np.zeros((1, 3)))


class TestSgdStep:
    def test_basic_update(self):
        p = nn.MlpParams(
            layers=[np.array([[1.0]])], activation=Activation.IDENTITY, layer_dims=[1, 1]
        )
        g = nn.Gradients(layers=[np.array([[0.5]])])
        updated = nn.sgd_step(p, g, 0.1)
        assert updated.layers[0][0, 0] == pytest.approx(0.95)

    def test_zero_gradient_leaves_params(self):
        p = nn.init_params([3, 2], seed=0)
        g = nn.Gradients(layers=[np.zeros((2, 3))])
        updated = nn.sgd_step(p, g, 0.1)
        assert np.array_equal(updated.layers[0], p.layers[0])

    def test_two_steps_accumulate(self):
        p = nn.MlpParams(
            layers=[np.array([[1.0]])], activation=Activation.IDENTITY, layer_dims=[1, 1]
        )
        g = nn.Gradients(layers=[np.array([[0.5]])])
        updated = nn.sgd_step(nn.sgd_step(p, g, 0.1), g, 0.1)
        assert updated.layers[0][0, 0] == pytest.approx(1.0 - 2 * 0.1 * 0.5)

    def test_does_not_mutate_input(self):
        p = nn.init_params([3, 2], seed=0)
        before = p.layers[0].copy()
        nn.sgd_step(p, nn.Gradients(layers=[np.ones((2, 3))]), 0.1)
        assert np.array_equal(p.layers[0], before)

    def test_rejects_shape_mismatch(self):
        p = nn.init_params([3, 2], seed=0)
        with pytest.raises(ValueError):
            nn.sgd_step(p, nn.Gradients(layers=[np.zeros((3, 3))]), 0.1)

    def test_rejects_nonfinite_gradients(self):
        p = nn.init_params([3, 2], seed=0)
        g = nn.Gradients(layers=[np.full((2, 3), np.nan)])
        with pytest.raises(ValueError, match="non-finite"):
            nn.sgd_step(p, g, 0.1)
