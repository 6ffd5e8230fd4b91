"""The hot kernels: dense forward and backward passes and histogram scoring.

Plain NumPy; the dense passes are BLAS matrix products.
"""

from __future__ import annotations

import numpy as np


def forward_pass(weights: list, x: np.ndarray, slope: float) -> list:
    """Run a batch through the dense layers.

    ``x`` has shape (n, d). The leaky-rectifier with the given negative
    slope is applied after every layer except the last (slope 0.0 gives a
    plain rectifier, slope 1.0 the identity). Returns the list of layer
    activations [x, a1, ..., z] with the final entry un-activated.
    """
    acts = [x]
    a = x
    last = len(weights) - 1
    for i, w in enumerate(weights):
        z = a @ w.T
        if i < last:
            # Bit-equal to np.where(z > 0.0, z, slope * z), z * 1.0 being z
            # at inf and NaN too; np.maximum(z, slope * z) is not (NaN at
            # z = +inf for slope 0).
            z *= np.where(z > 0.0, 1.0, slope)
        a = z
        acts.append(a)
    return acts


def backward_pass(weights: list, acts: list, delta: np.ndarray, slope: float, grads: list) -> None:
    """Reverse-accumulate weight gradients, summed over the batch, into
    ``grads``.

    ``grads`` holds one caller-owned array per weight matrix, of its
    shape, and each is overwritten by ``np.matmul(..., out=...)``, so a
    training loop can reuse the same arrays for every batch. ``delta`` is
    dL/dz for the final-layer output, shape (n, p). The activation
    derivative is taken as 1 where the stored activation is positive and
    ``slope`` elsewhere (subgradient ``slope`` at exactly 0).
    """
    d = delta
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(d.T, acts[i], out=grads[i])
        if i > 0:
            d = d @ weights[i]
            d *= np.where(acts[i] > 0.0, 1.0, slope)


def hbos_scores(
    lo: np.ndarray,
    width: np.ndarray,
    heights: np.ndarray,
    z: np.ndarray,
    floor: float,
) -> np.ndarray:
    """Sum of log-inverse normalized bin heights per row of ``z``.

    ``heights`` has shape (d, k). Out-of-range coordinates clamp to the
    edge bins; a zero ``width`` marks a degenerate dimension whose only
    bin is index 0. Heights below ``floor`` are floored before the log.
    """
    d, k = heights.shape
    safe_w = np.where(width > 0.0, width, 1.0)
    idx = np.floor((z - lo) / safe_w).astype(np.int64)
    idx = np.clip(idx, 0, k - 1)
    idx[:, width == 0.0] = 0
    h = heights[np.arange(d)[None, :], idx]
    return -np.log(np.maximum(h, floor)).sum(axis=1)
