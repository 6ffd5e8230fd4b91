"""Minimal dense feed-forward network with exact gradients and SGD.

Bias-free by design: with a fixed-center contraction objective a biased
network can collapse every input onto the center, so only weight
matrices exist. The activation is applied after every layer except the
last; the last layer is always linear.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import backend


class Activation(enum.Enum):
    RECTIFIER = "rectifier"
    LEAKY_RECTIFIER = "leaky-rectifier"
    IDENTITY = "identity"

    @property
    def slope(self) -> float:
        """Negative-side slope; 1.0 makes the activation the identity."""
        if self is Activation.RECTIFIER:
            return 0.0
        if self is Activation.LEAKY_RECTIFIER:
            return 0.01
        return 1.0


@dataclass
class MlpParams:
    """Weight matrices of the network, row = output unit, column = input unit."""

    layers: list[np.ndarray]
    activation: Activation
    layer_dims: list[int]

    @property
    def n_weights(self) -> int:
        return sum(w.size for w in self.layers)

    def copy(self) -> "MlpParams":
        return MlpParams(
            layers=[w.copy() for w in self.layers],
            activation=self.activation,
            layer_dims=list(self.layer_dims),
        )


@dataclass
class Gradients:
    """Per-layer loss gradients, shape-congruent with MlpParams.layers."""

    layers: list[np.ndarray] = field(default_factory=list)


def init_params(
    layer_dims: list[int],
    seed: int,
    activation: Activation = Activation.LEAKY_RECTIFIER,
) -> MlpParams:
    """Draw weights uniformly from [-1/sqrt(fan_in), 1/sqrt(fan_in)].

    Deterministic for a fixed seed. No bias vectors are allocated.
    """
    if len(layer_dims) < 2:
        raise ValueError("need at least two dims")
    if any(d < 1 for d in layer_dims):
        raise ValueError(f"all layer dims must be >= 1, got {layer_dims}")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        layers.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
    return MlpParams(layers=layers, activation=activation, layer_dims=list(layer_dims))


def _check_input(x: np.ndarray, name: str, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != dim:
        raise ValueError(f"{name} has length {x.shape[-1]}, expected {dim}")
    return x


def forward_batch(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Map a (n, d) batch, or a (k, n, d) stack of batches, through the
    network, preserving row order."""
    x = _check_input(x, "input batch", params.layer_dims[0])
    buf = backend.PassBuffers(params.layer_dims, x.shape[:-1], backward=False)
    return backend.forward_pass(params.layers, x, params.activation.slope, buf)[-1]


def backprop_batch(params: MlpParams, x: np.ndarray, dl_dz: np.ndarray) -> Gradients:
    """Exact weight gradients via reverse accumulation, summed over the
    batch (divide by n for the mean).

    ``dl_dz`` is the loss gradient with respect to the network output,
    one row per input row.
    """
    x = _check_input(x, "input batch", params.layer_dims[0])
    dl_dz = _check_input(dl_dz, "output gradient batch", params.layer_dims[-1])
    buf = backend.PassBuffers(params.layer_dims, x.shape[:-1])
    acts = backend.forward_pass(params.layers, x, params.activation.slope, buf)
    grads = [np.empty_like(w) for w in params.layers]
    backend.backward_pass(params.layers, acts, dl_dz, grads, buf)
    return Gradients(layers=grads)


def sgd_step(params: MlpParams, grads: Gradients, lr: float) -> MlpParams:
    """Return updated parameters W - lr * G; the input is not mutated."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if len(grads.layers) != len(params.layers):
        raise ValueError("gradient layer count does not match parameters")
    new_layers = []
    for w, g in zip(params.layers, grads.layers):
        if g.shape != w.shape:
            raise ValueError(f"gradient shape {g.shape} does not match weight shape {w.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient entries")
        new_layers.append(w - lr * g)
    return MlpParams(
        layers=new_layers,
        activation=params.activation,
        layer_dims=list(params.layer_dims),
    )
