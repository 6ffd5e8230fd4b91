import numpy as np
import pytest

from docnids import backend, nn, svdd
from docnids.errors import TrainingDivergedError
from docnids.nn import Activation, MlpParams
from docnids.svdd import SvddConfig


def identity_net(d):
    return MlpParams(layers=[np.eye(d)], activation=Activation.IDENTITY, layer_dims=[d, d])


class TestInitCenter:
    def test_mean_of_embeddings(self):
        c = svdd.init_center(identity_net(2), np.array([[1.0, 0.0], [0.0, 1.0]]), eps=1e-3)
        assert np.allclose(c, [0.5, 0.5])

    def test_eps_substitution_at_zero(self):
        p = MlpParams(
            layers=[np.zeros((3, 2))], activation=Activation.IDENTITY, layer_dims=[2, 3]
        )
        c = svdd.init_center(p, np.ones((4, 2)), eps=0.1)
        assert np.allclose(c, [0.1, 0.1, 0.1])

    def test_sign_preserving_eps(self):
        p = MlpParams(
            layers=[np.array([[0.001], [-0.001]])],
            activation=Activation.IDENTITY,
            layer_dims=[1, 2],
        )
        c = svdd.init_center(p, np.ones((3, 1)), eps=0.05)
        assert np.allclose(c, [0.05, -0.05])

    def test_matches_independent_column_means(self, rng):
        p = nn.init_params([4, 6, 3], seed=5)
        x = rng.uniform(size=(20, 4))
        z = np.stack([nn.forward_batch(p, row[None])[0] for row in x])
        expected = z.mean(axis=0)
        expected[np.abs(expected) < 0.01] = np.where(
            expected[np.abs(expected) < 0.01] >= 0, 0.01, -0.01
        )
        assert np.allclose(svdd.init_center(p, x, eps=0.01), expected)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            svdd.init_center(identity_net(2), np.empty((0, 2)))


class TestSvddLoss:
    def test_mean_of_unit_norms(self):
        loss = svdd.svdd_loss(
            identity_net(2), np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2), 0.0
        )
        assert loss == pytest.approx(1.0)

    def test_zero_at_center(self):
        p = identity_net(2)
        batch = np.array([[0.3, 0.7]])
        assert svdd.svdd_loss(p, batch, np.array([0.3, 0.7]), 0.0) == pytest.approx(0.0)

    def test_frobenius_term_hand_value(self):
        p = MlpParams(
            layers=[np.array([[1.0, 2.0], [3.0, 4.0]])],
            activation=Activation.IDENTITY,
            layer_dims=[2, 2],
        )
        batch = np.array([[0.0, 0.0]])
        # distance term 0, (2/2)*(1+4+9+16) = 30
        assert svdd.svdd_loss(p, batch, np.zeros(2), 2.0) == pytest.approx(30.0, abs=1e-10)

    def test_monotone_in_weight_decay(self, rng):
        p = nn.init_params([3, 4, 2], seed=2)
        batch = rng.uniform(size=(5, 3))
        c = rng.normal(size=2)
        losses = [svdd.svdd_loss(p, batch, c, lam) for lam in (0.0, 0.1, 1.0)]
        assert losses == sorted(losses)

    def test_linear_net_gradient_closed_form(self, rng):
        # single linear layer: grad of the distance term is 2 (Wx - c) x^T / n
        w = rng.normal(size=(2, 3))
        p = MlpParams(layers=[w.copy()], activation=Activation.IDENTITY, layer_dims=[3, 2])
        x = rng.normal(size=(4, 3))
        c = rng.normal(size=2)
        z = x @ w.T
        expected = 2.0 * (z - c).T @ x / len(x)
        g = nn.backprop_batch(p, x, 2.0 * (z - c) / len(x))
        assert np.allclose(g.layers[0], expected, atol=1e-10, rtol=0)


class TestTrain:
    def test_zero_epochs_returns_init(self):
        x = np.random.default_rng(0).uniform(size=(10, 4))
        cfg = SvddConfig(layer_dims=[4, 3, 2], epochs=0, seed=3)
        m = svdd.train(cfg, x)
        p0 = nn.init_params([4, 3, 2], seed=3)
        for a, b in zip(m.params.layers, p0.layers):
            assert np.array_equal(a, b)
        assert m.train_history == []

    def test_deterministic(self):
        x = np.random.default_rng(1).uniform(size=(50, 4))
        cfg = SvddConfig(layer_dims=[4, 8, 2], epochs=3, batch_size=16, seed=7)
        a = svdd.train(cfg, x)
        b = svdd.train(cfg, x)
        for wa, wb in zip(a.params.layers, b.params.layers):
            assert np.array_equal(wa, wb)
        assert a.train_history == b.train_history

    def test_center_frozen_through_training(self):
        x = np.random.default_rng(1).uniform(size=(50, 4))
        cfg = SvddConfig(layer_dims=[4, 8, 2], epochs=3, batch_size=16, seed=7)
        p0 = nn.init_params([4, 8, 2], seed=7)
        expected_c = svdd.init_center(p0, x, cfg.center_eps)
        m = svdd.train(cfg, x)
        assert np.array_equal(m.center, expected_c)

    def test_loss_decreases_on_fixture(self, fixture_scaled):
        scaled, _ = fixture_scaled
        m = svdd.train(SvddConfig(seed=0), scaled)
        assert m.train_history[-1][1] < m.train_history[0][1]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverged_loss_names_epoch_and_batch(self):
        x = np.full((8, 2), 1e150)
        cfg = SvddConfig(layer_dims=[2, 2], epochs=2, batch_size=4, lr=1e3, seed=0)
        with pytest.raises(TrainingDivergedError, match=r"epoch \d+, batch \d+"):
            svdd.train(cfg, x)

    def test_history_losses_finite(self, trained_svdd):
        assert all(np.isfinite(loss) for _, loss in trained_svdd.train_history)

    @pytest.mark.parametrize(
        "config",
        [
            SvddConfig(seed=0),
            SvddConfig(seed=4, weight_decay=0.0, activation=Activation.RECTIFIER),
            SvddConfig(layer_dims=[16, 8], epochs=5, seed=1),
            SvddConfig(layer_dims=[16, 32, 16, 8], epochs=5, seed=2),
            SvddConfig(epochs=3, batch_size=100, seed=3),
            SvddConfig(layer_dims=[16, 16, 8], epochs=1, batch_size=7, seed=5),
            SvddConfig(epochs=5, seed=6, activation=Activation.IDENTITY),
        ],
        ids=[
            "default",
            "no_decay_rectifier",
            "one_layer",
            "three_layers",
            "batch_100",
            "ragged_batch_7",
            "identity",
        ],
    )
    def test_in_place_step_matches_sgd_step(self, fixture_scaled, config):
        scaled, _ = fixture_scaled
        model = svdd.train(config, scaled)
        params, history = reference_train(config, scaled)
        assert all(np.array_equal(a, b) for a, b in zip(model.params.layers, params.layers))
        assert model.train_history == history

    def test_non_finite_gradient_is_rejected(self, monkeypatch):
        x = np.random.default_rng(1).uniform(size=(20, 4))
        cfg = SvddConfig(layer_dims=[4, 3, 2], epochs=1, batch_size=8, seed=2)

        def nan_gradients(weights, acts, delta, slope, grads):
            for g in grads:
                g.fill(np.nan)

        monkeypatch.setattr(backend, "backward_pass", nan_gradients)
        with pytest.raises(ValueError, match="non-finite gradient"):
            svdd.train(cfg, x)

    @pytest.mark.parametrize("layer", [0, -1], ids=["first", "last"])
    def test_non_finite_gradient_in_one_layer_is_rejected(self, monkeypatch, layer):
        x = np.random.default_rng(1).uniform(size=(20, 4))
        cfg = SvddConfig(layer_dims=[4, 3, 2], epochs=1, batch_size=8, seed=2)
        real_backward_pass = backend.backward_pass

        def one_nan_layer(weights, acts, delta, slope, grads):
            real_backward_pass(weights, acts, delta, slope, grads)
            grads[layer].fill(np.nan)

        monkeypatch.setattr(backend, "backward_pass", one_nan_layer)
        with pytest.raises(ValueError, match="non-finite gradient entries"):
            svdd.train(cfg, x)


def reference_train(config, x):
    """svdd.train's epochs, with each step taken by ``nn.sgd_step`` on a
    new ``nn.Gradients`` holding the weight-decay gradient."""
    params = nn.init_params(config.resolve_dims(x.shape[1]), config.seed, config.activation)
    c = svdd.init_center(params, x, config.center_eps)
    rng = np.random.default_rng(config.seed + 1)
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(x))
        epoch_loss = 0.0
        for start in range(0, len(x), config.batch_size):
            batch = x[order[start : start + config.batch_size]]
            z = nn.forward_batch(params, batch)
            loss = svdd.svdd_loss(params, batch, c, config.weight_decay)
            grads = nn.backprop_batch(params, batch, 2.0 * (z - c) / len(batch))
            decayed = nn.Gradients(
                layers=[g + config.weight_decay * w for g, w in zip(grads.layers, params.layers)]
            )
            params = nn.sgd_step(params, decayed, config.lr)
            epoch_loss += loss * len(batch)
        history.append((epoch, epoch_loss / len(x)))
    return params, history


class TestEmbedAndScore:
    def test_embed_equals_forward(self, trained_svdd, rng):
        x = rng.uniform(size=16)
        assert np.array_equal(
            svdd.embed_batch(trained_svdd, x[None])[0],
            nn.forward_batch(trained_svdd.params, x[None])[0],
        )

    def test_batch_preserves_order(self, trained_svdd, rng):
        xs = rng.uniform(size=(5, 16))
        batch = svdd.embed_batch(trained_svdd, xs)
        for i in range(5):
            assert np.allclose(batch[i], svdd.embed_batch(trained_svdd, xs[i][None])[0], atol=1e-12)

    def test_score_zero_at_center(self):
        p = identity_net(2)
        m = svdd.SvddModel(params=p, center=np.array([0.4, 0.6]))
        assert svdd.distance_score_batch(m, np.array([[0.4, 0.6]]))[0] == pytest.approx(0.0)

    def test_score_monotone_in_distance(self):
        p = identity_net(1)
        m = svdd.SvddModel(params=p, center=np.zeros(1))
        assert (
            svdd.distance_score_batch(m, np.array([[0.2]]))[0]
            < svdd.distance_score_batch(m, np.array([[0.5]]))[0]
        )

    def test_batch_score_independent_of_other_rows(self, trained_svdd, rng):
        xs = rng.uniform(size=(6, 16))
        full = svdd.distance_score_batch(trained_svdd, xs)
        shuffled = svdd.distance_score_batch(trained_svdd, xs[::-1])
        assert np.allclose(full, shuffled[::-1])
