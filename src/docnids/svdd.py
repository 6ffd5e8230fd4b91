"""One-class hypersphere training over the dense network.

Minimizes the mean squared distance of embeddings to a fixed center,
plus a weight-decay term, by mini-batch SGD. The center is the
eps-adjusted mean of the initial embeddings and is never trained. The
members of a stack are trained in ranges through ``workers``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import backend, nn, workers
from .errors import TrainingDivergedError
from .nn import Activation, MlpParams

# How far ``init_center`` pushes a near-zero center coordinate from zero.
CENTER_EPS = 0.1


@dataclass
class SvddConfig:
    layer_dims: list[int] | None = None  # None -> [d, 32, 8] from the data
    epochs: int = 50
    batch_size: int = 256
    lr: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0
    activation: Activation = Activation.LEAKY_RECTIFIER

    def validate(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")

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


def init_center(params: MlpParams, train: np.ndarray) -> np.ndarray:
    """Mean of the initial embeddings, with near-zero coordinates pushed
    to +-CENTER_EPS (sign-preserving, +CENTER_EPS at exactly zero) so the
    network cannot trivially map everything onto the center."""
    train = np.asarray(train, dtype=np.float64)
    if train.size == 0:
        raise ValueError("training set is empty")
    c = nn.forward_batch(params, train).mean(axis=0)
    small = np.abs(c) < CENTER_EPS
    c[small] = np.where(c[small] >= 0.0, CENTER_EPS, -CENTER_EPS)
    return c


def _loss(diff: np.ndarray, theta: np.ndarray, weight_decay: float):
    """The training objective from the residuals ``diff = z - c`` of a
    batch's embeddings and the flat weights ``theta``: their mean squared
    distance to the center plus the weight-decay term, weight_decay/2
    times the sum of squared weights. One value per stack member when
    ``diff`` is (k, n, m) and ``theta`` (k, P); each sum is one
    contraction."""
    dist = np.einsum("...ij,...ij->...", diff, diff) / diff.shape[-2]
    return dist + 0.5 * weight_decay * np.einsum("...p,...p->...", theta, theta)


def _layer_views(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive slices of the last axis of ``flat`` reshaped to the
    shapes of ``like``, behind the leading axes of ``flat``."""
    views, start = [], 0
    for w in like:
        views.append(flat[..., start : start + w.size].reshape(*flat.shape[:-1], *w.shape))
        start += w.size
    return views


class _BatchBuffers:
    """Every batch-sized array one training step reads or writes, for
    batches of ``nb`` rows of a k-stack with (k, m) ``centers``."""

    def __init__(self, dims: list[int], centers: np.ndarray, nb: int):
        k = len(centers)
        self.x = np.empty((k, nb, dims[0]))
        self.passes = backend.PassBuffers(dims, (k, nb))
        # each member's center on every row, so the residual is a plain
        # elementwise subtraction
        self.centers = np.repeat(centers[:, None, :], nb, axis=1)


def train(config: SvddConfig, stack) -> list[SvddModel]:
    """Run epochs of shuffled mini-batch SGD on the hypersphere objective,
    once for each training set of a (k, n, d) stack. ``stack`` is an
    array, or an object with that ``shape`` whose ``stack[a:b]`` makes
    the array of members a to b. Its one caller, ``pipeline.fit``, passes
    such an object for its sets of each length: k = 1 for ``train``, one
    fold per member for ``evaluate``.

    Every member starts from the same weights (``config.seed``) and takes
    its batches in the same row order (``config.seed + 1``), and members
    never interact, so each member's weights, center and loss history are
    bit-equal to training it alone (see ``_sgd``).

    Every member's center is computed here first, from ``stack[i:i + 1]``
    one member at a time; then the members are trained in
    ``workers.ranges``, so nothing forks for k = 1. Each range takes
    ``stack[a:b]`` after the fork, so a process holds only its own
    members' rows.

    Returns one model per member: the weights, the center and the
    per-epoch loss; the weight decay only shapes training and is not kept.

    Deterministic for a fixed seed. If a member's loss goes non-finite,
    the error (TrainingDivergedError, naming the epoch and batch) is its
    own, and the error raised is that of the lowest-index member that
    failed, as training the members one after another would raise. Once
    a range has raised, the workers of later ranges are stopped.
    """
    config.validate()
    shape = np.shape(stack)
    if len(shape) != 3:
        raise ValueError(f"expected a (k, n, d) stack of training sets, got shape {shape}")
    if 0 in shape:
        raise ValueError("training set is empty")
    k, n, d = shape
    params = nn.init_params(config.resolve_dims(d), config.seed, config.activation)

    def members(a: int, b: int) -> np.ndarray:
        # contiguous, or every batch's take would copy the whole stack
        return np.ascontiguousarray(stack[a:b], dtype=np.float64)

    # Before any fork, a member at a time. OpenBLAS stops its threads at a
    # fork and starts them again at the next product large enough to run
    # threaded, so threads that init_center's products start end at the
    # fork; in a worker they would spin while both processes train. Its
    # products are blocks, which run on one thread unless the input or the
    # first layer is wide.
    centers = np.stack([init_center(params, members(i, i + 1)[0]) for i in range(k)])

    def train_range(a: int, b: int):
        return _sgd(config, params, members(a, b), centers[a:b])

    thetas, histories = [], []
    with contextlib.closing(workers.ranges(k, train_range)) as results:
        for theta, history, error in results:
            if error is not None:
                raise error
            thetas.append(theta)
            histories.append(history)
    theta = np.concatenate(thetas)
    history = np.concatenate(histories, axis=1)
    return [
        SvddModel(
            params=MlpParams(
                layers=_layer_views(theta[i], params.layers),
                activation=config.activation,
                layer_dims=params.layer_dims,
            ),
            center=centers[i],
            train_history=[(epoch, float(h[i])) for epoch, h in enumerate(history)],
        )
        for i in range(k)
    ]


def _sgd(config: SvddConfig, params: MlpParams, stack: np.ndarray, centers: np.ndarray):
    """The SGD epochs of ``train`` for the members of a (m, n, d) stack,
    all starting from ``params``, with their (m, e) ``centers``. Returns
    ``(theta, history, error)``: the (m, P) trained weights, the (epochs,
    m) per-epoch losses, and None or the error of the lowest-index member
    that failed.

    The weights are one (m, P) buffer ``theta``, each layer a (m, out,
    in) view of it, and each product is one batched matmul whose m
    products are the ones a member trained alone would make. The gradient
    is one (m, P) buffer ``grad`` with matching views; the weight decay
    and the step are one call each over all members and layers:
    elementwise each layer's ``w - lr * (g + weight_decay * w)``. The loss
    is one contraction over the residuals and one over ``theta``, and one
    sum of the gradient and the losses checks them all for finiteness;
    the members are checked one by one only when that sum is not finite.
    Every batch-sized array is a buffer allocated once per batch size
    (the last batch of an epoch may be shorter), and the residual and
    dL/dz are written into the output layer's, so a step allocates no
    batch-sized array. A diverged member's NaNs stay in its own slice
    while the others train on; training stops early only once member 0
    has failed, as no other member's error can then be the one raised.
    """
    m, n, _ = stack.shape
    dims = params.layer_dims
    theta = np.repeat(np.concatenate([w.ravel() for w in params.layers])[None], m, axis=0)
    weights = _layer_views(theta, params.layers)
    grad = np.empty_like(theta)
    grads = _layer_views(grad, params.layers)
    step = np.empty_like(theta)  # weight_decay * theta, then lr * grad

    bs = min(config.batch_size, n)
    buffers = {nb: _BatchBuffers(dims, centers, nb) for nb in {bs, n % bs or bs}}
    slope = config.activation.slope
    rng = np.random.default_rng(config.seed + 1)
    history: list[np.ndarray] = []
    errors: dict[int, Exception] = {}
    # A diverging run overflows in the passes and the loss before the
    # non-finite loss check below stops it; that check is the one report.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            epoch_loss = np.zeros(m)
            for b, start in enumerate(range(0, n, bs)):
                idx = order[start : start + bs]
                nb = len(idx)
                buf = buffers[nb]
                # the same rows as stack[:, idx], with less overhead per call
                batch = stack.take(idx, axis=1, out=buf.x, mode="clip")
                acts = backend.forward_pass(weights, batch, slope, buf.passes)
                # the residual, then dL/dz, in the output, which
                # backward_pass does not read
                diff = np.subtract(acts[-1], buf.centers, out=acts[-1])
                loss = _loss(diff, theta, config.weight_decay)
                diff *= 2.0
                diff /= nb
                backend.backward_pass(weights, acts, diff, grads, buf.passes)
                grad += np.multiply(theta, config.weight_decay, out=step)
                # any NaN or infinity makes the sum one; so may an overflow
                # of finite values, which the members' own checks clear
                if not math.isfinite(grad.sum() + loss.sum()):
                    grad_ok = np.isfinite(grad).all(axis=1)
                    loss_ok = np.isfinite(loss)
                    for i in np.flatnonzero(~(loss_ok & grad_ok)):
                        errors.setdefault(
                            int(i),
                            TrainingDivergedError(f"non-finite loss at epoch {epoch}, batch {b}")
                            if not loss_ok[i]
                            else ValueError("non-finite gradient entries"),
                        )
                    if 0 in errors:
                        return theta, None, errors[0]
                theta -= np.multiply(grad, config.lr, out=step)
                epoch_loss += loss * nb
            history.append(epoch_loss / n)
    return theta, np.array(history).reshape(-1, m), errors[min(errors)] if errors else None


def embed_batch(model: SvddModel, x: np.ndarray) -> np.ndarray:
    """Embeddings of a (n, d) batch under the trained network."""
    return nn.forward_batch(model.params, x)


def distances_sq(z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distance of each (n, m) embedding row to the center ``c``."""
    diff = z - c
    # in place, the same ufunc as diff**2
    return np.square(diff, out=diff).sum(axis=1)

