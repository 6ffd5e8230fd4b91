"""One-class hypersphere training over the dense network.

Minimizes the mean squared distance of embeddings to a fixed center,
plus a weight-decay term, by mini-batch SGD. The center is the
eps-adjusted mean of the initial embeddings and is never trained.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import pickle
import signal
import struct
from dataclasses import dataclass, field

import numpy as np

from . import backend, data, nn
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
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
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


def _loss(diff: np.ndarray, layers: list[np.ndarray], weight_decay: float, sq=None):
    """The training objective from the residuals ``diff = z - c`` of a
    batch's embeddings: their mean squared distance to the center plus
    the weight-decay term, weight_decay/2 times the sum of squared
    weights. One value per stack member when ``diff`` is (k, n, m) and
    each layer (k, out, in). ``sq``, if given, receives ``diff**2``.

    ``.sum() / n`` is the same float as ``.mean()``, with fewer calls.
    """
    sq = np.square(diff, out=sq)
    dist = sq.sum(axis=-1).sum(axis=-1) / diff.shape[-2]
    reg = sum((w**2).sum(axis=(-2, -1)) for w in layers)
    return dist + 0.5 * weight_decay * reg


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
        self.diff = np.empty_like(self.centers)
        self.delta = np.empty_like(self.centers)
        self.sq = np.empty_like(self.centers)


def train(config: SvddConfig, stack: np.ndarray) -> list[SvddModel]:
    """Run epochs of shuffled mini-batch SGD on the hypersphere objective,
    once for each training set of a (k, n, d) stack; ``pipeline.fit``
    passes k = 1, ``evaluation.evaluate`` one fold per member.

    Every member starts from the same weights (``config.seed``) and takes
    its batches in the same row order (``config.seed + 1``), and members
    never interact, so each member's weights, center and loss history are
    bit-equal to training it alone (see ``_sgd``).

    With P usable cores, the members are cut into min(P, k) contiguous
    ranges. Every member's center is computed here first; then one worker
    is forked for each range after the first, and each trains its range
    while this process trains the first one; the workers' results are
    then read in member order. A range whose worker cannot be forked, or
    exits with an error, or whose frame is missing or short, is trained
    here. Nothing forks for k = 1 or one usable core.

    Returns one model per member: the weights, the center and the
    per-epoch loss; the weight decay only shapes training and is not kept.

    Deterministic for a fixed seed. If a member's loss goes non-finite,
    the error (TrainingDivergedError, naming the epoch and batch) is its
    own, and the error raised is that of the lowest-index member that
    failed, as training the members one after another would raise. Once
    a range has raised, the workers of later ranges are killed, and every
    worker is reaped whichever way this call is left.
    """
    config.validate()
    # contiguous, or every batch's take would copy the whole stack
    stack = np.ascontiguousarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"expected a (k, n, d) stack of training sets, got shape {stack.shape}")
    if stack.size == 0:
        raise ValueError("training set is empty")
    k, n, d = stack.shape
    params = nn.init_params(config.resolve_dims(d), config.seed, config.activation)
    # Before any fork: a worker's first large BLAS product would start the
    # BLAS library's threads in it, to spin while both processes train.
    centers = np.stack([init_center(params, x, config.center_eps) for x in stack])
    parts = min(data._usable_cores(), k)
    # Rounded up, so that the first range, trained here, is the largest; on
    # two cores, that trained the 5-member fold stack faster than the
    # other way round.
    cuts = [(k * i + parts - 1) // parts for i in range(parts + 1)]
    ranges = list(itertools.pairwise(cuts))
    workers: dict[int, tuple[int, int]] = {}
    thetas, histories = [], []
    try:
        for a, b in ranges[1:]:
            work = functools.partial(_train_part, config, params, stack[a:b], centers[a:b])
            worker = data._fork_worker(work, [fd for _, fd in workers.values()])
            if worker is not None:
                workers[a] = worker
        for a, b in ranges:
            result = None
            if a in workers:
                pid, fd = workers[a]
                frame = _read_to_end(fd)
                os.close(fd)
                del workers[a]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code == 0 and len(frame) >= _LENGTH.size:
                    (size,) = _LENGTH.unpack_from(frame)
                    if size == len(frame) - _LENGTH.size:
                        result = pickle.loads(frame[_LENGTH.size :])
            if result is None:
                result = _sgd(config, params, stack[a:b], centers[a:b])
            theta, history, error = result
            if error is not None:
                raise error
            thetas.append(theta)
            histories.append(history)
    finally:
        # Only the workers of ranges after one that raised are left; their
        # results are not needed, so they are not waited for.
        for _, fd in workers.values():
            os.close(fd)
        for pid, _ in workers.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
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


# A training worker's frame: the byte length of what follows, then the
# pickled result of ``_sgd`` on its range.
_LENGTH = struct.Struct("<q")


def _train_part(config: SvddConfig, params: MlpParams, stack, centers, w: int) -> None:
    """A training worker: train the members of ``stack`` and write their
    result to ``w`` as one frame."""
    payload = pickle.dumps(_sgd(config, params, stack, centers))
    data._write_all(w, _LENGTH.pack(len(payload)) + payload)


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _sgd(config: SvddConfig, params: MlpParams, stack: np.ndarray, centers: np.ndarray):
    """The SGD epochs of ``train`` for the members of a (m, n, d) stack,
    all starting from ``params``, with their (m, e) ``centers``. Returns
    ``(theta, history, error)``: the (m, P) trained weights, the (epochs,
    m) per-epoch losses, and None or the error of the lowest-index member
    that failed.

    The weights are one (m, P) buffer ``theta``, each layer a (m, out,
    in) view of it, and each product is one batched matmul whose m
    products are the ones a member trained alone would make. The gradient
    is one (m, P) buffer ``grad`` with matching views; the weight decay,
    the finite-gradient check and the step are one call each over all
    members and layers: elementwise each layer's ``w - lr * (g +
    weight_decay * w)``. Every batch-sized array is a buffer allocated
    once per batch size (the last batch of an epoch may be shorter), so a
    step allocates none. A diverged member's NaNs stay in its own slice
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
    finite = np.empty(theta.shape, dtype=bool)

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
                diff = np.subtract(acts[-1], buf.centers, out=buf.diff)
                delta = np.multiply(diff, 2.0, out=buf.delta)
                delta /= nb
                backend.backward_pass(weights, acts, delta, grads, buf.passes)
                loss = _loss(diff, weights, config.weight_decay, buf.sq)
                grad += np.multiply(theta, config.weight_decay, out=step)
                grad_ok = np.isfinite(grad, out=finite).all(axis=1)
                loss_ok = np.isfinite(loss)
                if not (loss_ok.all() and grad_ok.all()):
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
    return ((z - c) ** 2).sum(axis=1)

