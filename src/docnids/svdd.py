"""One-class hypersphere training over the dense network.

Minimizes the mean squared distance of embeddings to a fixed center,
plus a weight-decay term, by mini-batch SGD. The center is the
eps-adjusted mean of the initial embeddings and is never trained.
"""

from __future__ import annotations

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
    weight_decay: float
    radius_proxy: float = 0.0
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
    return _loss(z, c, params.layers, weight_decay)


def _loss(z: np.ndarray, c: np.ndarray, layers: list[np.ndarray], weight_decay: float) -> float:
    """The objective of ``svdd_loss`` from embeddings ``z`` already computed."""
    dist = ((z - c) ** 2).sum(axis=1).mean()
    reg = 0.5 * weight_decay * sum(float((w**2).sum()) for w in layers)
    return float(dist + reg)


def _distances_sq(params: MlpParams, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    z = nn.forward_batch(params, x)
    return ((z - c) ** 2).sum(axis=1)


def train(config: SvddConfig, train_x: np.ndarray) -> SvddModel:
    """Run epochs of shuffled mini-batch SGD on the hypersphere objective.

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

    rng = np.random.default_rng(config.seed + 1)
    n = train_x.shape[0]
    history: list[tuple[int, float]] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for b, start in enumerate(range(0, n, config.batch_size)):
            batch = train_x[order[start : start + config.batch_size]]
            nb = batch.shape[0]
            acts = backend.forward_pass(params.layers, batch, config.activation.slope)
            z = acts[-1]
            delta = 2.0 * (z - c) / nb
            grads = backend.backward_pass(params.layers, acts, delta, config.activation.slope)
            loss = _loss(z, c, params.layers, config.weight_decay)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {b}"
                )
            full_grads = nn.Gradients(
                layers=[g + config.weight_decay * w for g, w in zip(grads, params.layers)]
            )
            params = nn.sgd_step(params, full_grads, config.lr)
            epoch_loss += loss * nb
        history.append((epoch, epoch_loss / n))

    dist = np.sqrt(_distances_sq(params, train_x, c))
    radius = float(np.quantile(dist, 0.99))
    return SvddModel(
        params=params,
        center=c,
        weight_decay=config.weight_decay,
        radius_proxy=radius,
        train_history=history,
    )


def embed_batch(model: SvddModel, x: np.ndarray) -> np.ndarray:
    """Embeddings of a (n, d) batch under the trained network."""
    return nn.forward_batch(model.params, x)


def distance_score_batch(model: SvddModel, x: np.ndarray) -> np.ndarray:
    """Squared embedding distance to the center per row; higher = more anomalous."""
    return _distances_sq(model.params, np.asarray(x, dtype=np.float64), model.center)
