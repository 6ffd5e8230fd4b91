import tracemalloc

import numpy as np
import pytest

from docnids import backend, nn
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


def kernel_gradients(weights, x, delta, slope):
    """Weight gradients as svdd.train makes them: backend.forward_pass,
    then backend.backward_pass into a PassBuffers and caller-owned
    gradient arrays. ``x`` is (n, d) with (out, in) weights, or a (k, n, d)
    stack with (k, out, in) weights."""
    dims = [x.shape[-1]] + [w.shape[-2] for w in weights]
    buf = backend.PassBuffers(dims, x.shape[:-1])
    acts = backend.forward_pass(weights, x, slope, buf)
    grads = [np.empty_like(w) for w in weights]
    backend.backward_pass(weights, acts, delta, grads, buf)
    return grads


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
        assert sum(w.size for w in p.layers) == 4 * 8 + 8 * 2


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


B = nn.BLOCK_ROWS


class TestBlockedForward:
    """A whole-set pass runs in blocks of B rows, the last taking the
    remainder, and is bit-equal to one ``forward_pass`` over the whole
    input; BLAS may give a product of fewer rows other last bits."""

    @pytest.mark.parametrize("n", [1, B - 1, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B - 1, 4000])
    @pytest.mark.parametrize(
        "dims, lead",
        [([16, 32, 8], ()), ([16, 32, 8], (3,)), ([39, 32, 8], ()), ([39, 64, 16, 8], (2,))],
        ids=["16_features", "16_features_stacked", "39_features", "39_features_3_layers_stacked"],
    )
    def test_equals_one_pass(self, monkeypatch, n, dims, lead):
        p = nn.init_params(dims, seed=1)
        x = np.random.default_rng(n).uniform(-1.0, 1.0, size=(*lead, n, dims[0]))
        buf = backend.PassBuffers(dims, x.shape[:-1], backward=False)
        whole = backend.forward_pass(p.layers, x, p.activation.slope, buf)[-1].copy()
        blocks = []
        real = backend.forward_pass

        def forward_pass(weights, x, slope, buf):
            blocks.append(x.shape[-2])
            return real(weights, x, slope, buf)

        monkeypatch.setattr(backend, "forward_pass", forward_pass)
        got = nn.forward_batch(p, x)
        assert got.shape == whole.shape and got.tobytes() == whole.tobytes()
        assert blocks == ([B] * (n // B - 1) + [n - (n // B - 1) * B] if n >= 2 * B else [n])

    def test_allocates_its_output_and_a_few_blocks(self):
        p = nn.init_params([16, 32, 8], seed=0)
        x = np.random.default_rng(0).uniform(size=(100_000, 16))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            z = nn.forward_batch(p, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # one pass over every row would allocate its 32 + 8 outputs and
        # 32 activation factors a row, 57.6 MB; the largest block's
        # buffers hold 2B - 1 rows of them
        block = 2 * B * (32 + 8 + 32) * 8
        assert z.nbytes == 6_400_000 and peak < z.nbytes + 2 * block


SPECIAL_VALUES = np.array(
    [np.inf, -np.inf, 0.0, -0.0, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
     1.5, -1.5, 1e300, -1e300, 0.3, -7.0]
)


def special_value_net(k=None):
    """Weights whose first layer turns the one-column SPECIAL_VALUES input
    into pre-activations holding every special value (one product x * w
    each), unstacked, or stacked k deep with different weights per
    member; and that input, stacked k deep in different row orders."""
    w0 = np.array([[1.0], [-1.0], [0.5], [3.0]])
    w1 = np.ones((2, 4))
    x = SPECIAL_VALUES[:, None]
    if k is None:
        return [w0, w1], x
    order = np.random.default_rng(0).permutation
    return (
        [np.stack([w0 * (i + 1) for i in range(k)]), np.stack([w1] * k)],
        np.stack([x[order(len(x))] for _ in range(k)]),
    )


class TestKernelOracle:
    @pytest.mark.parametrize("activation", list(Activation))
    def test_forward_activation_is_bit_equal_to_where(self, activation):
        slope = activation.slope
        for k in (None, 3):
            weights, x = special_value_net(k)
            z = x @ weights[0].swapaxes(-1, -2)
            assert np.isnan(z).any() and np.isposinf(z).any() and np.isneginf(z).any()
            assert (z == 0.0).any() and (np.abs(z[np.isfinite(z) & (z != 0)]) < 1e-307).any()
            with np.errstate(invalid="ignore"):  # 0 * inf and inf - inf are NaN here
                expected = np.where(z > 0.0, z, slope * z)
                buf = backend.PassBuffers([1, 4, 2], x.shape[:-1])
                acts = backend.forward_pass(weights, x, slope, buf)
            assert acts[0] is x
            assert np.array_equal(acts[1].view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("activation", list(Activation))
    def test_backward_derivative_is_bit_equal_to_where(self, activation):
        slope = activation.slope
        for k in (None, 3):
            weights, x = special_value_net(k)
            buf = backend.PassBuffers([1, 4, 2], x.shape[:-1])
            with np.errstate(invalid="ignore"):
                acts = backend.forward_pass(weights, x, slope, buf)
                # halves and ones: every entry of delta @ w1 is exact
                delta = np.resize(np.array([0.5, -1.5, 2.0]), (*x.shape[:-1], 2))
                grads = [np.empty_like(w) for w in weights]
                backend.backward_pass(weights, acts, delta, grads, buf)
                expected_grad = delta.swapaxes(-1, -2) @ acts[1]
            a = acts[1]
            # the rectifier maps -inf to NaN (-inf * 0)
            assert np.isnan(a).any() and np.isposinf(a).any()
            assert np.isneginf(a).any() == (slope > 0.0)
            assert (a == 0.0).any() and (np.abs(a[np.isfinite(a) & (a != 0)]) < 1e-307).any()
            expected = (delta @ weights[1]) * np.where(a > 0.0, 1.0, slope)
            assert np.array_equal(buf.deltas[0].view(np.int64), expected.view(np.int64))
            assert np.array_equal(grads[1], expected_grad, equal_nan=True)

    def test_backward_into_reused_arrays_equals_fresh_arrays(self, rng):
        p = nn.init_params([5, 7, 4, 3], seed=8)
        slope = p.activation.slope
        reused = [np.full_like(w, np.nan) for w in p.layers]
        for n in (6, 2):
            x = rng.normal(size=(n, 5))
            delta = rng.normal(size=(n, 3))
            buf = backend.PassBuffers(p.layer_dims, (n,))
            acts = backend.forward_pass(p.layers, x, slope, buf)
            fresh = [np.empty_like(w) for w in p.layers]
            backend.backward_pass(p.layers, acts, delta, fresh, buf)
            backend.backward_pass(p.layers, acts, delta, reused, buf)
            assert all(np.array_equal(a, b) for a, b in zip(reused, fresh))


class TestBackprop:
    def test_single_linear_layer_gradient_is_input(self):
        x = np.array([[1.0, 2.0, 3.0]])
        (g,) = kernel_gradients([np.array([[2.0, -1.0, 0.5]])], x, np.array([[1.0]]), 1.0)
        assert np.allclose(g, x)

    def test_saturated_rectifier_blocks_gradient(self):
        # all-negative pre-activations in the hidden layer
        weights = [-np.ones((3, 2)), np.ones((1, 3))]
        g = kernel_gradients(weights, np.array([[1.0, 1.0]]), np.array([[1.0]]), 0.0)
        assert np.allclose(g[0], 0.0)

    def test_matches_finite_differences(self, rng):
        p = nn.init_params([5, 8, 6, 3], seed=11)
        x = rng.normal(size=5)
        c = rng.normal(size=3)
        z = nn.forward_batch(p, x[None])[0]
        analytic = kernel_gradients(p.layers, x[None], (2.0 * (z - c))[None], p.activation.slope)
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
                    a = analytic[li][i, j]
                    assert abs(a - fd) / max(abs(fd), 1e-6) < 1e-4

    def test_stack_matches_finite_differences_per_member(self, rng):
        # the (k, n, d) call svdd.train makes: each member's gradient is
        # that of its own summed loss over its own rows and weights
        k, n = 2, 3
        members = [nn.init_params([4, 6, 3], seed=s) for s in (21, 22)]
        weights = [np.stack(ws) for ws in zip(*(m.layers for m in members))]
        x = rng.normal(size=(k, n, 4))
        c = rng.normal(size=(k, 3))
        slope = members[0].activation.slope
        z = np.stack([nn.forward_batch(m, xm) for m, xm in zip(members, x)])
        analytic = kernel_gradients(weights, x, 2.0 * (z - c[:, None]), slope)
        h = 1e-5
        for m in range(k):
            # views into the stacked weights, so a nudge there moves member m
            p = nn.MlpParams([w[m] for w in weights], members[m].activation, [4, 6, 3])

            def loss():
                return float(((nn.forward_batch(p, x[m]) - c[m]) ** 2).sum())

            for li, w in enumerate(weights):
                for i in range(w.shape[1]):
                    for j in range(w.shape[2]):
                        orig = w[m, i, j]
                        w[m, i, j] = orig + h
                        up = loss()
                        w[m, i, j] = orig - h
                        down = loss()
                        w[m, i, j] = orig
                        fd = (up - down) / (2 * h)
                        a = analytic[li][m, i, j]
                        assert abs(a - fd) / max(abs(fd), 1e-6) < 1e-4
