"""Minimal dense feed-forward network: its weights, their seeded
initialisation and the forward map. ``svdd.train`` runs the backward
pass and the SGD step on the ``backend`` kernels.

Bias-free by design: with a fixed-center contraction objective a biased
network can collapse every input onto the center, so only weight
matrices exist. The activation is applied after every layer except the
last; the last layer is always linear.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


# Rows per block of a whole-set pass. BLAS may give a product of fewer
# rows other last bits than the same rows inside a larger product, so no
# block has fewer: the last one takes the remainder, BLOCK_ROWS to
# 2 * BLOCK_ROWS - 1 rows. A blocked pass is then bit-equal to one pass
# over the whole input, and allocates only its output and the buffers of
# a block of each of the two sizes.
BLOCK_ROWS = 256


def row_blocks(n: int) -> list[tuple[int, int]]:
    """The ``(start, stop)`` blocks a whole-set pass over ``n`` rows takes,
    in order: one below 2 * BLOCK_ROWS rows, and from there blocks of
    BLOCK_ROWS rows, the last taking the remainder. ``forward_batch`` and
    the histogram kernels take their rows so."""
    if n < 2 * BLOCK_ROWS:
        return [(0, n)]
    starts = range(0, n - BLOCK_ROWS + 1, BLOCK_ROWS)
    return list(zip(starts, [*starts[1:], n]))


def forward_batch(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Map a (n, d) batch, or a (k, n, d) stack of batches, through the
    network, preserving row order, in the ``row_blocks`` of its n rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.layer_dims[0]:
        raise ValueError(f"input batch has length {x.shape[-1]}, expected {params.layer_dims[0]}")
    dims, layers, slope = params.layer_dims, params.layers, params.activation.slope
    blocks = row_blocks(x.shape[-2] if x.ndim > 1 else 1)
    if len(blocks) == 1:
        buf = backend.PassBuffers(dims, x.shape[:-1], backward=False)
        return backend.forward_pass(layers, x, slope, buf)[-1]
    buffers = {
        rows: backend.PassBuffers(dims, (*x.shape[:-2], rows), backward=False)
        for rows in {stop - start for start, stop in blocks}
    }
    out = np.empty((*x.shape[:-1], dims[-1]))
    for start, stop in blocks:
        acts = backend.forward_pass(layers, x[..., start:stop, :], slope, buffers[stop - start])
        out[..., start:stop, :] = acts[-1]
    return out
