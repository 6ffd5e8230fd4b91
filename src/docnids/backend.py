"""The hot kernels: dense forward and backward passes and histogram scoring.

Plain NumPy; the dense passes are BLAS matrix products. They take one
batch of shape (n, d) with weights of shape (out, in), or a stack of k
batches of shape (k, n, d) with a stack of k weight matrices per layer,
shape (k, out, in), and write every array they make into caller-owned
buffers, so a training loop allocates nothing per batch.
"""

from __future__ import annotations

import numpy as np


class PassBuffers:
    """The arrays ``forward_pass`` and ``backward_pass`` write into, for
    inputs of shape ``lead + (dims[0],)``: each layer's output, and per
    hidden layer the activation derivative and, if ``backward``, the
    back-propagated gradient."""

    def __init__(self, dims: list[int], lead: tuple[int, ...], backward: bool = True):
        self.acts = [np.empty((*lead, m)) for m in dims[1:]]
        self.factors = [np.empty((*lead, m)) for m in dims[1:-1]]
        self.deltas = [np.empty((*lead, m)) for m in dims[1:-1]] if backward else []


def forward_pass(weights: list, x: np.ndarray, slope: float, buf: PassBuffers) -> list:
    """Run a batch, or a stack of batches, through the dense layers.

    The leaky-rectifier with the given negative slope is applied after
    every layer except the last (slope 0.0 gives a plain rectifier, slope
    1.0 the identity). Returns the list of layer activations
    [x, a1, ..., z], the ones after ``x`` being ``buf.acts``, with the
    final entry un-activated. Each hidden layer's activation derivative,
    1.0 where its output is positive and ``slope`` elsewhere, is left in
    ``buf.factors`` for ``backward_pass``.
    """
    a = x
    last = len(weights) - 1
    for i, w in enumerate(weights):
        z = np.matmul(a, w.swapaxes(-1, -2), out=buf.acts[i])
        if i < last:
            # The factor is max(z > 0, slope): 1.0 or slope, exactly. So
            # this is bit-equal to np.where(z > 0.0, z, slope * z), z * 1.0
            # being z at inf and NaN too; np.maximum(z, slope * z) is not
            # (NaN at z = +inf for slope 0). The output is positive exactly
            # where z is, so the factor is also the derivative at it.
            factor = np.greater(z, 0.0, out=buf.factors[i])
            z *= np.maximum(factor, slope, out=factor)
        a = z
    return [x, *buf.acts]


def backward_pass(weights: list, acts: list, delta: np.ndarray, grads: list, buf: PassBuffers) -> None:
    """Reverse-accumulate weight gradients, summed over the batch, into
    ``grads``.

    ``acts`` and ``buf`` are those of the ``forward_pass`` call that made
    the output. ``grads`` holds one caller-owned array per weight matrix,
    of its shape, and each is overwritten by ``np.matmul(..., out=...)``,
    so a training loop can reuse the same arrays for every batch.
    ``delta`` is dL/dz for the final-layer output, shape (..., n, p). The
    activation derivative is the one ``forward_pass`` left in
    ``buf.factors``: 1 where the stored activation is positive and the
    slope elsewhere (subgradient slope at exactly 0).
    """
    d = delta
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(d.swapaxes(-1, -2), acts[i], out=grads[i])
        if i > 0:
            d = np.matmul(d, weights[i], out=buf.deltas[i - 1])
            d *= buf.factors[i - 1]


def bin_index(lo: np.ndarray, width: np.ndarray, k: int, z: np.ndarray) -> np.ndarray:
    """The int64 bin of each coordinate of a (n, d) ``z`` among ``k`` bins
    of ``width`` from ``lo``, half-open but the last; out-of-range values
    clamp to the edge bins, and a zero ``width`` puts all in bin 0."""
    safe_w = np.where(width > 0.0, width, 1.0)
    # one float array, scaled in place, and the int one made from it
    t = np.subtract(z, lo)
    t /= safe_w
    idx = np.floor(t, out=t).astype(np.int64)
    # in place: np.clip on an int array with int bounds builds two iinfo per call
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, k - 1, out=idx)
    idx[:, width == 0.0] = 0
    return idx


def hbos_scores(
    lo: np.ndarray,
    width: np.ndarray,
    heights: np.ndarray,
    z: np.ndarray,
    floor: float,
) -> np.ndarray:
    """Sum of log-inverse normalized bin heights per row of ``z``.

    ``heights`` has shape (d, k), and each coordinate's bin is its
    ``bin_index``. Heights below ``floor`` are floored before the log.
    """
    d, k = heights.shape
    idx = bin_index(lo, width, k, z)
    h = heights[np.arange(d)[None, :], idx]
    np.maximum(h, floor, out=h)
    # 0.0 - sum, not -sum: a row in every tallest bin scores +0.0
    return 0.0 - np.log(h, out=h).sum(axis=1)
