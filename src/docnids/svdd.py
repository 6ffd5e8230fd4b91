"""One-class hypersphere training over the dense network.

Minimizes the mean squared distance of embeddings to a fixed center,
plus a weight-decay term, by mini-batch SGD. The center is the
eps-adjusted mean of the initial embeddings and is never trained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import backend, nn
from .errors import TrainingDivergedError
from .nn import Activation, MlpParams


@dataclass
class SvddConfig:
    layer_dims: list[int] | None = None  # None -> [d, 32, 8] from the data
    epochs: int = 50
    batch_size: int = 256
    lr: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0
    center_eps: float = 0.1
    activation: Activation = Activation.LEAKY_RECTIFIER

    def validate(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.center_eps <= 0:
            raise ValueError(f"center_eps must be positive, got {self.center_eps}")

    def resolve_dims(self, input_dim: int) -> list[int]:
        if self.layer_dims is None:
            return [input_dim, 32, 8]
        if self.layer_dims[0] != input_dim:
            raise ValueError(
                f"layer_dims[0]={self.layer_dims[0]} does not match data dim {input_dim}"
            )
        return list(self.layer_dims)


@dataclass
class SvddModel:
    params: MlpParams
    center: np.ndarray
    train_history: list[tuple[int, float]] = field(default_factory=list)


def init_center(params: MlpParams, train: np.ndarray, eps: float = 0.1) -> np.ndarray:
    """Mean of the initial embeddings, with near-zero coordinates pushed
    to +-eps (sign-preserving, +eps at exactly zero) so the network
    cannot trivially map everything onto the center."""
    train = np.asarray(train, dtype=np.float64)
    if train.size == 0:
        raise ValueError("training set is empty")
    c = nn.forward_batch(params, train).mean(axis=0)
    small = np.abs(c) < eps
    c[small] = np.where(c[small] >= 0.0, eps, -eps)
    return c


def svdd_loss(params: MlpParams, batch: np.ndarray, c: np.ndarray, weight_decay: float) -> float:
    """Mean squared embedding distance to the center plus the
    weight-decay term (weight_decay/2 times the sum of squared weights)."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.size == 0:
        raise ValueError("batch is empty")
    z = nn.forward_batch(params, batch)
    if len(c) != z.shape[1]:
        raise ValueError(f"center has length {len(c)}, expected {z.shape[1]}")
    return _loss(z - c, params.layers, weight_decay)


def _loss(diff: np.ndarray, layers: list[np.ndarray], weight_decay: float) -> float:
    """The objective of ``svdd_loss`` from the residuals ``diff = z - c``.

    ``.sum() / n`` is the same float as ``.mean()``, with fewer calls.
    """
    dist = (diff**2).sum(axis=1).sum() / diff.shape[0]
    reg = 0.5 * weight_decay * sum(float((w**2).sum()) for w in layers)
    return float(dist + reg)


def _layer_views(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive slices of ``flat`` reshaped to the shapes of ``like``."""
    views, start = [], 0
    for w in like:
        views.append(flat[start : start + w.size].reshape(w.shape))
        start += w.size
    return views


def train(config: SvddConfig, train_x: np.ndarray) -> SvddModel:
    """Run epochs of shuffled mini-batch SGD on the hypersphere objective.

    The weights live in one flat buffer ``theta``, with ``params.layers``
    as reshaped views of it, and every batch's gradient is written into
    one flat buffer ``grad`` with matching views. The weight decay, the
    finite-gradient check and the step are then one call each over all
    layers: elementwise the same arithmetic as ``nn.sgd_step`` on the
    gradient plus ``weight_decay * w``, so the weights come out bit-equal.

    Returns the weights, the center and the per-epoch loss; the weight
    decay only shapes training and is not kept.

    Deterministic for a fixed seed. Raises TrainingDivergedError if the
    loss goes non-finite, naming the epoch and batch.
    """
    config.validate()
    train_x = np.asarray(train_x, dtype=np.float64)
    if train_x.size == 0:
        raise ValueError("training set is empty")
    dims = config.resolve_dims(train_x.shape[1])
    params = nn.init_params(dims, config.seed, config.activation)
    c = init_center(params, train_x, config.center_eps)
    theta = np.concatenate([w.ravel() for w in params.layers])
    params.layers = _layer_views(theta, params.layers)
    grad = np.empty_like(theta)
    grads = _layer_views(grad, params.layers)

    slope = config.activation.slope
    rng = np.random.default_rng(config.seed + 1)
    n = train_x.shape[0]
    history: list[tuple[int, float]] = []
    # A diverging run overflows in the passes and the loss before the
    # non-finite loss check below stops it; that check is the one report.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for b, start in enumerate(range(0, n, config.batch_size)):
                # the same rows as train_x[idx], with less overhead per call
                batch = train_x.take(order[start : start + config.batch_size], axis=0)
                nb = batch.shape[0]
                acts = backend.forward_pass(params.layers, batch, slope)
                diff = acts[-1] - c
                delta = 2.0 * diff / nb
                backend.backward_pass(params.layers, acts, delta, slope, grads)
                loss = _loss(diff, params.layers, config.weight_decay)
                if not math.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, batch {b}"
                    )
                grad += config.weight_decay * theta
                if not np.isfinite(grad).all():
                    raise ValueError("non-finite gradient entries")
                theta -= config.lr * grad
                epoch_loss += loss * nb
            history.append((epoch, epoch_loss / n))
    return SvddModel(params=params, center=c, train_history=history)


def embed_batch(model: SvddModel, x: np.ndarray) -> np.ndarray:
    """Embeddings of a (n, d) batch under the trained network."""
    return nn.forward_batch(model.params, x)


def distances_sq(z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distance of each (n, m) embedding row to the center ``c``."""
    return ((z - c) ** 2).sum(axis=1)


def distance_score_batch(model: SvddModel, x: np.ndarray) -> np.ndarray:
    """Squared embedding distance to the center per row; higher = more anomalous."""
    return distances_sq(embed_batch(model, np.asarray(x, dtype=np.float64)), model.center)
