import os
import signal
import time
import warnings

import numpy as np
import pytest

from docnids import backend, data, evaluation, nn, svdd, workers
from docnids.errors import TrainingDivergedError
from docnids.nn import Activation, MlpParams
from docnids.svdd import SvddConfig

from test_data import assert_reaped, count_forks, needs_fork, usable_cores
from test_nn import kernel_gradients


def identity_net(d):
    return MlpParams(layers=[np.eye(d)], activation=Activation.IDENTITY, layer_dims=[d, d])


def flat(layers):
    """The weights as svdd.train holds them: one flat vector."""
    return np.concatenate([w.ravel() for w in layers])


def objective(p, batch, c, weight_decay):
    """The loss svdd.train computes for one batch under the weights ``p``."""
    return float(svdd._loss(nn.forward_batch(p, batch) - c, flat(p.layers), weight_decay))


class TestInitCenter:
    def test_mean_of_embeddings(self):
        c = svdd.init_center(identity_net(2), np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(c, [0.5, 0.5])

    def test_eps_substitution_at_zero(self):
        p = MlpParams(
            layers=[np.zeros((3, 2))], activation=Activation.IDENTITY, layer_dims=[2, 3]
        )
        c = svdd.init_center(p, np.ones((4, 2)))
        assert np.allclose(c, [svdd.CENTER_EPS] * 3)

    def test_sign_preserving_eps(self):
        p = MlpParams(
            layers=[np.array([[0.001], [-0.001]])],
            activation=Activation.IDENTITY,
            layer_dims=[1, 2],
        )
        c = svdd.init_center(p, np.ones((3, 1)))
        assert np.allclose(c, [svdd.CENTER_EPS, -svdd.CENTER_EPS])

    def test_matches_independent_column_means(self, rng):
        p = nn.init_params([4, 6, 3], seed=5)
        x = rng.uniform(size=(20, 4))
        z = np.stack([nn.forward_batch(p, row[None])[0] for row in x])
        expected = z.mean(axis=0)
        eps = svdd.CENTER_EPS
        expected[np.abs(expected) < eps] = np.where(expected[np.abs(expected) < eps] >= 0, eps, -eps)
        assert np.allclose(svdd.init_center(p, x), expected)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            svdd.init_center(identity_net(2), np.empty((0, 2)))


class TestSvddLoss:
    def test_mean_of_unit_norms(self):
        loss = objective(identity_net(2), np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2), 0.0)
        assert loss == pytest.approx(1.0)

    def test_zero_at_center(self):
        p = identity_net(2)
        batch = np.array([[0.3, 0.7]])
        assert objective(p, batch, np.array([0.3, 0.7]), 0.0) == pytest.approx(0.0)

    def test_frobenius_term_hand_value(self):
        p = MlpParams(
            layers=[np.array([[1.0, 2.0], [3.0, 4.0]])],
            activation=Activation.IDENTITY,
            layer_dims=[2, 2],
        )
        batch = np.array([[0.0, 0.0]])
        # distance term 0, (2/2)*(1+4+9+16) = 30
        assert objective(p, batch, np.zeros(2), 2.0) == pytest.approx(30.0, abs=1e-10)

    def test_monotone_in_weight_decay(self, rng):
        p = nn.init_params([3, 4, 2], seed=2)
        batch = rng.uniform(size=(5, 3))
        c = rng.normal(size=2)
        losses = [objective(p, batch, c, lam) for lam in (0.0, 0.1, 1.0)]
        assert losses == sorted(losses)

    def test_linear_net_gradient_closed_form(self, rng):
        # single linear layer: grad of the distance term is 2 (Wx - c) x^T / n
        w = rng.normal(size=(2, 3))
        x = rng.normal(size=(4, 3))
        c = rng.normal(size=2)
        z = x @ w.T
        expected = 2.0 * (z - c).T @ x / len(x)
        (g,) = kernel_gradients([w], x, 2.0 * (z - c) / len(x), 1.0)
        assert np.allclose(g, expected, atol=1e-10, rtol=0)


class TestTrain:
    def test_zero_epochs_returns_init(self):
        x = np.random.default_rng(0).uniform(size=(10, 4))
        cfg = SvddConfig(layer_dims=[4, 3, 2], epochs=0, seed=3)
        (m,) = svdd.train(cfg, x[None])
        p0 = nn.init_params([4, 3, 2], seed=3)
        for a, b in zip(m.params.layers, p0.layers):
            assert np.array_equal(a, b)
        assert m.train_history == []

    def test_deterministic(self):
        x = np.random.default_rng(1).uniform(size=(50, 4))
        cfg = SvddConfig(layer_dims=[4, 8, 2], epochs=3, batch_size=16, seed=7)
        (a,) = svdd.train(cfg, x[None])
        (b,) = svdd.train(cfg, x[None])
        for wa, wb in zip(a.params.layers, b.params.layers):
            assert np.array_equal(wa, wb)
        assert a.train_history == b.train_history

    def test_center_frozen_through_training(self):
        x = np.random.default_rng(1).uniform(size=(50, 4))
        cfg = SvddConfig(layer_dims=[4, 8, 2], epochs=3, batch_size=16, seed=7)
        p0 = nn.init_params([4, 8, 2], seed=7)
        expected_c = svdd.init_center(p0, x)
        (m,) = svdd.train(cfg, x[None])
        assert np.array_equal(m.center, expected_c)

    def test_loss_decreases_on_fixture(self, fixture_scaled):
        scaled, _ = fixture_scaled
        (m,) = svdd.train(SvddConfig(seed=0), scaled[None])
        assert m.train_history[-1][1] < m.train_history[0][1]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverged_loss_names_epoch_and_batch(self):
        x = np.full((8, 2), 1e150)
        cfg = SvddConfig(layer_dims=[2, 2], epochs=2, batch_size=4, lr=1e3, seed=0)
        with pytest.raises(TrainingDivergedError, match=r"epoch \d+, batch \d+"):
            svdd.train(cfg, x[None])

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
        (model,) = svdd.train(config, scaled[None])
        params, history = reference_train(config, scaled)
        assert all(np.array_equal(a, b) for a, b in zip(model.params.layers, params.layers))
        assert model.train_history == history

    def test_non_finite_gradient_is_rejected(self, monkeypatch):
        x = np.random.default_rng(1).uniform(size=(20, 4))
        cfg = SvddConfig(layer_dims=[4, 3, 2], epochs=1, batch_size=8, seed=2)

        def nan_gradients(weights, acts, delta, grads, buf):
            for g in grads:
                g.fill(np.nan)

        monkeypatch.setattr(backend, "backward_pass", nan_gradients)
        with pytest.raises(ValueError, match="non-finite gradient"):
            svdd.train(cfg, x[None])

    @pytest.mark.parametrize("layer", [0, -1], ids=["first", "last"])
    def test_non_finite_gradient_in_one_layer_is_rejected(self, monkeypatch, layer):
        x = np.random.default_rng(1).uniform(size=(20, 4))
        cfg = SvddConfig(layer_dims=[4, 3, 2], epochs=1, batch_size=8, seed=2)
        real_backward_pass = backend.backward_pass

        def one_nan_layer(weights, acts, delta, grads, buf):
            real_backward_pass(weights, acts, delta, grads, buf)
            grads[layer].fill(np.nan)

        monkeypatch.setattr(backend, "backward_pass", one_nan_layer)
        with pytest.raises(ValueError, match="non-finite gradient entries"):
            svdd.train(cfg, x[None])

    def test_finite_gradient_whose_sum_overflows_trains_on(self, monkeypatch):
        x = np.random.default_rng(1).uniform(size=(20, 4))
        cfg = SvddConfig(layer_dims=[4, 3, 2], epochs=2, batch_size=8, lr=1e-300, seed=2)
        real_backward_pass = backend.backward_pass
        sums = []

        def huge_gradients(weights, acts, delta, grads, buf):
            real_backward_pass(weights, acts, delta, grads, buf)
            grads[0].flat[:2] = np.finfo(np.float64).max
            sums.append(sum(g.sum() for g in grads))

        monkeypatch.setattr(backend, "backward_pass", huge_gradients)
        (model,) = svdd.train(cfg, x[None])
        assert len(sums) == 6 and all(np.isinf(s) for s in sums)
        assert all(np.isfinite(w).all() for w in model.params.layers)
        assert all(np.isfinite(loss) for _, loss in model.train_history)


def reference_train(config, x):
    """svdd.train's epochs on one training set, with each layer stepped
    on its own to a new array, ``w - lr * (g + weight_decay * w)``, and the
    loss summed in its own code."""
    params = nn.init_params(config.resolve_dims(x.shape[1]), config.seed, config.activation)
    c = svdd.init_center(params, x)
    rng = np.random.default_rng(config.seed + 1)
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(x))
        epoch_loss = 0.0
        for start in range(0, len(x), config.batch_size):
            batch = x[order[start : start + config.batch_size]]
            z = nn.forward_batch(params, batch)
            # the loss of one 2-D batch as svdd._loss sums it: one
            # contraction over the residuals and one over the flat weights
            dist = np.einsum("ij,ij->", z - c, z - c) / len(batch)
            theta = flat(params.layers)
            loss = float(dist + 0.5 * config.weight_decay * np.einsum("p,p->", theta, theta))
            delta = 2.0 * (z - c) / len(batch)
            grads = kernel_gradients(params.layers, batch, delta, params.activation.slope)
            params.layers = [
                w - config.lr * (g + config.weight_decay * w)
                for w, g in zip(params.layers, grads)
            ]
            epoch_loss += loss * len(batch)
        history.append((epoch, epoch_loss / len(x)))
    return params, history


def assert_same_model(model, params, center, history):
    assert all(np.array_equal(a, b) for a, b in zip(model.params.layers, params.layers))
    assert np.array_equal(model.center, center)
    assert model.train_history == history


def assert_members_trained_alone(config, stack, models):
    """Each member of the stack comes out bit-equal, weights, center and
    loss history, to training it alone (k = 1) and to ``reference_train``."""
    assert len(models) == len(stack)
    for x, model in zip(stack, models):
        (alone,) = svdd.train(config, x[None])
        assert_same_model(model, alone.params, alone.center, alone.train_history)
        params, history = reference_train(config, x)
        initial = nn.init_params(config.resolve_dims(x.shape[1]), config.seed, config.activation)
        assert_same_model(model, params, svdd.init_center(initial, x), history)


class TestStackedTraining:
    """One ``svdd.train`` call on a (k, n, d) stack is k trainings side by
    side: it returns what the k trainings one after another return, and
    raises what they raise. This class trains with one usable core, and
    its subclasses with two and three, where ``svdd.train`` forks a
    worker for each range of members after the first."""

    cores = 1

    @pytest.fixture(autouse=True)
    def forks(self, monkeypatch):
        """The pids forked in the test, with ``cores`` usable cores."""
        usable_cores(monkeypatch, self.cores)
        return count_forks(monkeypatch) if hasattr(os, "fork") else []

    def assert_forked(self, forks, k):
        """One worker was forked per range of a k-stack after the first,
        and each is reaped."""
        assert len(forks) == min(self.cores, k) - 1
        assert_reaped(forks)

    @pytest.mark.parametrize("activation", list(Activation))
    def test_members_equal_trained_alone(self, fixture_scaled, forks, activation):
        scaled, _ = fixture_scaled
        config = SvddConfig(epochs=4, batch_size=64, seed=4, activation=activation)
        rng = np.random.default_rng(5)
        stack = np.stack([scaled[rng.permutation(len(scaled))[:700]] for _ in range(3)])
        models = svdd.train(config, stack)
        self.assert_forked(forks, 3)
        assert_members_trained_alone(config, stack, models)

    def test_three_layers_with_ragged_batches(self, forks):
        ds = data.synth_generate(600, 10, 6, 0.6, seed=2)
        rng = np.random.default_rng(6)
        stack = np.stack([ds.rows[rng.permutation(600)[:271]] for _ in range(3)])
        config = SvddConfig(layer_dims=[6, 16, 8, 4], epochs=2, batch_size=7, seed=3)
        assert 271 % 7
        models = svdd.train(config, stack)
        self.assert_forked(forks, 3)
        assert_members_trained_alone(config, stack, models)

    def test_evaluate_with_two_stack_sizes(self, monkeypatch, forks):
        ds = data.synth_generate(271, 30, 6, 0.6, seed=1)
        config = SvddConfig(layer_dims=[6, 16, 8, 4], epochs=2, batch_size=7, seed=0)
        trained = []
        real = svdd.train

        def train(config, stack):
            models = real(config, stack)
            trained.append((stack[:], models))
            return models

        monkeypatch.setattr(svdd, "train", train)
        evaluation.evaluate(ds, ["doc"], config, k=3, seed=0)
        monkeypatch.undo()
        # 271 benign rows in 3 folds: one fold of 91 and two of 90; only
        # the stack of two can fork
        assert sorted(stack.shape[:2] for stack, _ in trained) == [(1, 180), (2, 181)]
        self.assert_forked(forks, 2)
        for stack, models in trained:
            assert_members_trained_alone(config, stack, models)

    # lr 2 on this table: scale 1 trains, scale 4 diverges at epoch 2 and
    # scale 8 at epoch 1
    diverging = SvddConfig(layer_dims=[4, 6, 2], epochs=30, batch_size=8, lr=2.0, seed=1)

    @pytest.fixture
    def rows(self):
        return np.random.default_rng(3).uniform(size=(40, 4))

    def first_error(self, stack):
        """The error the members raise when trained one after another."""
        with np.errstate(over="ignore", invalid="ignore"):
            for x in stack:
                svdd.train(self.diverging, x[None])
        raise AssertionError("no member diverged")

    # With two cores this process trains members 0 and 1 of three and a
    # worker member 2; with three each member has its own process.
    @pytest.mark.parametrize(
        "scales, epoch",
        [
            ((1.0, 4.0, 8.0), 2),
            ((4.0, 8.0), 2),
            ((1.0, 8.0, 4.0), 1),
            ((1.0, 1.0, 4.0), 2),
        ],
        ids=["late_before_early", "first_diverges_last", "early_before_late", "only_the_last"],
    )
    def test_divergence_raises_the_lowest_member_error(self, rows, forks, scales, epoch):
        stack = np.stack([rows * s for s in scales])
        with pytest.raises(TrainingDivergedError) as alone:
            self.first_error(stack)
        assert f"epoch {epoch}," in str(alone.value)
        with pytest.raises(TrainingDivergedError) as stacked:
            svdd.train(self.diverging, stack)
        assert str(stacked.value) == str(alone.value)
        self.assert_forked(forks, len(scales))

    def test_rejects_unstacked_rows(self, rows):
        with pytest.raises(ValueError, match=r"\(k, n, d\) stack"):
            svdd.train(SvddConfig(layer_dims=[4, 2], epochs=1), rows)


@needs_fork
class TestStackedTrainingOnTwoCores(TestStackedTraining):
    cores = 2


@needs_fork
class TestStackedTrainingOnThreeCores(TestStackedTraining):
    cores = 3


@needs_fork
class TestTrainingWorkers:
    """With P usable cores, ``svdd.train`` trains its first range of
    members itself and forks one worker for each other range; the models
    must not depend on the workers, and no worker outlives the call."""

    config = SvddConfig(layer_dims=[4, 6, 2], epochs=3, batch_size=8, seed=2)

    @pytest.fixture
    def stack(self):
        rng = np.random.default_rng(4)
        return rng.uniform(size=(3, 40, 4)) * np.array([1.0, 2.0, 3.0])[:, None, None]

    @pytest.mark.parametrize("fail_from", [0, 1])
    def test_a_failed_fork_trains_its_range_here(self, stack, monkeypatch, fail_from):
        usable_cores(monkeypatch, 3)
        pids = count_forks(monkeypatch, fail_from)
        models = svdd.train(self.config, stack)
        assert len(pids) == fail_from
        assert_reaped(pids)
        assert_members_trained_alone(self.config, stack, models)

    def test_a_failing_worker_gives_the_same_models(self, stack, monkeypatch, failing_workers):
        usable_cores(monkeypatch, 3)
        pids = count_forks(monkeypatch)
        models = svdd.train(self.config, stack)
        assert len(pids) == 2
        assert_reaped(pids)
        assert_members_trained_alone(self.config, stack, models)

    def test_a_short_frame_trains_its_range_here(self, stack, monkeypatch):
        real = workers._write

        def write_half(fd, frame):
            real(fd, frame[: len(frame) // 2])

        monkeypatch.setattr(workers, "_write", write_half)
        usable_cores(monkeypatch, 3)
        pids = count_forks(monkeypatch)
        models = svdd.train(self.config, stack)
        assert len(pids) == 2
        assert_reaped(pids)
        assert_members_trained_alone(self.config, stack, models)

    def test_the_frame_of_a_failed_worker_is_not_used(self, stack, monkeypatch):
        # each worker writes a whole frame of wrong weights, then fails
        here, real_sgd, real_write = os.getpid(), svdd._sgd, workers._write

        def wrong_weights(*args):
            theta, history, error = real_sgd(*args)
            return theta + (os.getpid() != here), history, error

        def write_then_fail(fd, frame):
            real_write(fd, frame)
            raise RuntimeError("worker fails")

        monkeypatch.setattr(svdd, "_sgd", wrong_weights)
        monkeypatch.setattr(workers, "_write", write_then_fail)
        usable_cores(monkeypatch, 3)
        pids = count_forks(monkeypatch)
        models = svdd.train(self.config, stack)
        assert len(pids) == 2
        assert_reaped(pids)
        monkeypatch.undo()
        assert_members_trained_alone(self.config, stack, models)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("cores", [2, 3])
    def test_divergence_here_kills_the_workers(self, monkeypatch, cores):
        # member 0 diverges in its first epoch; the others would train for
        # 100,000 epochs of 5 batches, many seconds at any batch speed
        rows = np.random.default_rng(3).uniform(size=(40, 4))
        stack = np.stack([rows * 1e150, rows, rows])
        config = SvddConfig(layer_dims=[4, 6, 2], epochs=100_000, batch_size=8, seed=1)
        usable_cores(monkeypatch, cores)
        pids = count_forks(monkeypatch)
        killed, real_kill = [], os.kill

        def kill(pid, sig):
            killed.append((pid, sig))
            real_kill(pid, sig)

        monkeypatch.setattr(os, "kill", kill)
        start = time.perf_counter()
        with pytest.raises(TrainingDivergedError, match="at epoch 0,"):
            svdd.train(config, stack)
        assert time.perf_counter() - start < 5.0
        assert len(pids) == cores - 1
        assert killed == [(pid, signal.SIGKILL) for pid in pids]
        assert_reaped(pids)

    def test_an_interrupt_reaps_the_workers(self, stack, monkeypatch):
        here, real = os.getpid(), svdd._sgd

        def interrupted_here(*args):
            if os.getpid() == here:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(svdd, "_sgd", interrupted_here)
        usable_cores(monkeypatch, 3)
        pids = count_forks(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            svdd.train(self.config, stack)
        assert len(pids) == 2
        assert_reaped(pids)

    def test_one_member_forks_nothing(self, stack, monkeypatch):
        usable_cores(monkeypatch, 2)
        pids = count_forks(monkeypatch)
        svdd.train(self.config, stack[:1])
        assert pids == []

    def test_forking_warns_of_nothing(self, stack, monkeypatch):
        # as TestSaveCsvParts.test_forking_warns_of_nothing, after a BLAS
        # call has started the BLAS library's threads, if it has any
        usable_cores(monkeypatch, 2)
        pids = count_forks(monkeypatch)
        a = np.ones((64, 64))
        assert (a @ a)[0, 0] == 64.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            svdd.train(self.config, stack)
        assert [str(w.message) for w in caught] == []
        assert len(pids) == 1

    @pytest.mark.parametrize("protocol", ["kfold", "holdout"])
    def test_evaluate_reports_do_not_depend_on_the_cores(self, fixture_ds, monkeypatch, protocol):
        config = SvddConfig(epochs=3, seed=1)

        def reports(cores):
            usable_cores(monkeypatch, cores)
            out = evaluation.evaluate(
                fixture_ds, ["doc", "svdd", "hbos", "pca"], config, protocol=protocol, k=5
            )
            for r in out:
                del r["wall_seconds"]
            return out

        assert reports(2) == reports(1)


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
        z = svdd.embed_batch(m, np.array([[0.4, 0.6]]))
        assert svdd.distances_sq(z, m.center)[0] == pytest.approx(0.0)

    def test_score_monotone_in_distance(self):
        p = identity_net(1)
        m = svdd.SvddModel(params=p, center=np.zeros(1))
        near, far = svdd.distances_sq(svdd.embed_batch(m, np.array([[0.2], [0.5]])), m.center)
        assert near < far

    def test_batch_score_independent_of_other_rows(self, trained_svdd, rng):
        xs = rng.uniform(size=(6, 16))
        c = trained_svdd.center
        full = svdd.distances_sq(svdd.embed_batch(trained_svdd, xs), c)
        shuffled = svdd.distances_sq(svdd.embed_batch(trained_svdd, xs[::-1]), c)
        assert np.allclose(full, shuffled[::-1])
