"""Metrics, ROC-AUC, the benign k-fold protocol, and baseline detectors.

Every detector is one function: fitted on a fold's benign-only training
rows, it returns the scores of those rows and of the test rows (higher =
more anomalous). The harness owns fold construction, per-fold scaling,
the per-fold network and thresholding, so every detector sees identical
data within a run. ``hbos`` and ``pca`` see the scaled rows; ``doc``
(``hbos`` of the pipeline) and ``svdd`` (distance to the center) see the
rows' embeddings under the fold's network, made once per fold. Each
report is the JSON-ready document that ``evaluate --out-json`` writes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import hbos, pipeline, svdd
from .data import (
    LabeledDataset,
    ScalerParams,
    SplitSpec,
    apply_scaler,
    fit_scaler,
    split_benign_indices,
)
from .errors import DataError
from .svdd import SvddConfig, SvddModel

METRIC_COLUMNS = ("accuracy", "f1", "auc", "dr", "far")


@dataclass
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(labels: np.ndarray, predictions: np.ndarray) -> ConfusionMatrix:
    """Counts with attack (label 1) as the positive class."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise ValueError("labels and predictions have different lengths")
    return ConfusionMatrix(
        tp=int(((labels == 1) & (predictions == 1)).sum()),
        fp=int(((labels == 0) & (predictions == 1)).sum()),
        tn=int(((labels == 0) & (predictions == 0)).sum()),
        fn=int(((labels == 1) & (predictions == 0)).sum()),
    )


def metrics(cm: ConfusionMatrix) -> dict:
    """Accuracy, detection rate, false alarm rate, precision, and F1,
    all as percentages. Zero denominators yield 0 plus a flag rather
    than an error."""

    def pct(num: int, den: int) -> tuple[float, bool]:
        return (100.0 * num / den, False) if den else (0.0, True)

    accuracy, acc_undef = pct(cm.tp + cm.tn, cm.total)
    dr, dr_undef = pct(cm.tp, cm.tp + cm.fn)
    far, far_undef = pct(cm.fp, cm.fp + cm.tn)
    precision, prec_undef = pct(cm.tp, cm.tp + cm.fp)
    if dr + precision > 0:
        f1, f1_undef = 2.0 * dr * precision / (dr + precision), False
    else:
        f1, f1_undef = 0.0, True
    return {
        "accuracy": accuracy,
        "dr": dr,
        "far": far,
        "precision": precision,
        "f1": f1,
        "undefined": sorted(
            name
            for name, undef in [
                ("accuracy", acc_undef),
                ("dr", dr_undef),
                ("far", far_undef),
                ("precision", prec_undef),
                ("f1", f1_undef),
            ]
            if undef
        ),
    }


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Rank-based AUC with midrank tie handling."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError("labels and scores have different lengths")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need at least one positive and one negative label")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # midranks over tied blocks; `!=` rather than a difference, so equal
    # infinities share a block
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], len(scores)]
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def fit_hbos(train, test, network, bins):
    """Histogram scores of the rows it is given: the scaled features for
    ``hbos``, the fold's embeddings for ``doc``."""
    hist = hbos.fit_histograms(train, bins)
    return hbos.hbos_score_batch(hist, train), hbos.hbos_score_batch(hist, test)


def fit_svdd(train, test, network, bins):
    """Squared distance of the fold's embeddings to the network's center."""
    return svdd.distances_sq(train, network.center), svdd.distances_sq(test, network.center)


PCA_VARIANCE_TARGET = 0.9


def fit_pca(train, test, network, bins):
    """Squared reconstruction error from the top principal components of
    the training rows explaining at least PCA_VARIANCE_TARGET of their
    variance."""
    train = np.asarray(train, dtype=np.float64)
    mean = train.mean(axis=0)
    centered = train - mean
    cov = centered.T @ centered / max(len(train) - 1, 1)
    evals, evecs = np.linalg.eigh(cov)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    evals = np.clip(evals, 0.0, None)
    total = evals.sum()
    rank = int((evals > 1e-12 * max(total, 1.0)).sum())
    if total <= 0:
        m = 1
    else:
        m = int(np.searchsorted(np.cumsum(evals) / total, PCA_VARIANCE_TARGET) + 1)
    components = evecs[:, : max(1, min(m, rank or 1))]  # (d, m), orthonormal columns

    def errors(centered):
        residual = centered - centered @ components @ components.T
        return (residual**2).sum(axis=1)

    return errors(centered), errors(np.asarray(test, dtype=np.float64) - mean)


# Each detector maps (train rows, test rows, the fold's trained network or
# None, histogram bin count) to (train scores, test scores).
DETECTORS: dict[str, Callable] = {
    "doc": fit_hbos, "svdd": fit_svdd, "hbos": fit_hbos, "pca": fit_pca,
}
# The detectors that see the fold's embeddings under the network, which
# is trained once per fold; the others see the scaled rows.
NETWORK_DETECTORS = frozenset({"doc", "svdd"})


def _summary(folds: list[dict]) -> dict:
    """Mean and standard deviation over the folds of each table metric,
    with AUC as a percentage."""
    summary = {}
    for name in METRIC_COLUMNS:
        values = [f["auc"] * 100.0 if name == "auc" else f[name] for f in folds]
        summary[name] = {"mean": float(np.mean(values)), "stddev": float(np.std(values))}
    return summary


def _evaluate_fold(
    fold: int,
    train_x: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    scaler: ScalerParams,
    network: SvddModel | None,
    seconds: tuple[float, float],
    detectors: list[str],
    bins: int,
    contamination: float,
) -> list[tuple[dict, float]]:
    """Scale the rows with the fold's scaler; if the fold has a network,
    embed the train and test rows once; then fit, threshold and score
    each detector on its rows.

    ``seconds`` is the time the fold took before this call: fitting its
    scaler, and its share of the training. Returns one (result, seconds)
    pair per detector, in order; a result is the fold's entry in the
    report document. A detector's seconds count the scaling, the training
    share and the embedding if it uses the network, and its own fit and
    scoring. The fold's arrays live only in this call."""
    scale_s, train_s = seconds
    start = time.perf_counter()
    scaled = (apply_scaler(scaler, train_x), apply_scaler(scaler, test_x))
    scaled_at = time.perf_counter()
    embedded = None
    if network is not None:
        embedded = tuple(svdd.embed_batch(network, x) for x in scaled)
    embedded_at = time.perf_counter()
    out = []
    for name in detectors:
        own_start = time.perf_counter()
        uses_network = name in NETWORK_DETECTORS
        train_in, test_in = embedded if uses_network else scaled
        train_scores, test_scores = DETECTORS[name](train_in, test_in, network, bins)
        threshold = pipeline.threshold_from_scores(train_scores, contamination)
        cm = confusion(test_y, (test_scores > threshold).astype(np.int64))
        result = {
            "fold": fold, "tp": cm.tp, "fp": cm.fp, "tn": cm.tn, "fn": cm.fn,
            "auc": roc_auc(test_y, test_scores), **metrics(cm),
        }
        shared = scale_s + scaled_at - start
        if uses_network:
            shared += train_s + embedded_at - scaled_at
        out.append((result, shared + time.perf_counter() - own_start))
    return out


def benign_folds(labels: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Seeded partition of the benign row indices into k folds."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    benign_idx = np.flatnonzero(np.asarray(labels) == 0)
    if benign_idx.size < k:
        raise DataError(f"need at least {k} benign rows for {k}-fold evaluation")
    rng = np.random.default_rng(seed)
    return np.array_split(rng.permutation(benign_idx), k)


def _scaled_stack(rows, splits, scalers, members) -> np.ndarray:
    """The (len(members), n, d) stack of the named folds' scaled training
    rows, all n long, each written straight into its slice."""
    n = len(splits[members[0]][0])
    stack = np.empty((len(members), n, rows.shape[1]))
    for x, i in zip(stack, members):
        apply_scaler(scalers[i], rows[splits[i][0]], out=x)
    return stack


def evaluate(
    ds: LabeledDataset,
    detectors: list[str],
    config: SvddConfig | None = None,
    bins: int = 10,
    protocol: str = "kfold",
    k: int = 5,
    train_fraction: float = 0.7,
    contamination: float = 0.1,
    seed: int = 0,
    config_echo: dict | None = None,
) -> list[dict]:
    """Evaluate the named detectors under one protocol; one report per
    name, in the order given. A report is the JSON-ready document that
    ``evaluate --out-json`` writes: the run's settings, a ``summary`` of
    each table metric's mean and stddev, and one entry per fold.

    ``kfold``: benign rows are partitioned into k seeded folds; each fold
    trains on the other k-1 benign folds and tests on its own benign fold
    plus every attack row. ``holdout``: a single seeded benign train/test
    split with every attack row in the test set. Per fold, the scaler is
    fitted, the network trained and the rows embedded once, and every
    detector uses them.

    If some detector uses the network, every fold's scaler is fitted
    first; then each fold's scaled training rows are written into a
    (folds, n, d) stack, one per training size (k folds have at most
    two), and ``svdd.train`` fits every fold of a stack at once, in
    ranges of folds spread over the usable cores. The stacks hold k
    copies of the training rows and are dropped before the detectors run
    fold by fold. A report's ``wall_seconds`` gives each fold an even
    share of its stack's training time: the stack's wall time divided by
    its members, however many cores trained them."""
    # checked before any fold, whichever detectors run
    pipeline.check_contamination(contamination)
    hbos.check_bins(bins)
    if ds.n_attack == 0:
        raise DataError("dataset contains no attack rows")
    config = config or SvddConfig()
    if protocol == "kfold":
        folds = benign_folds(ds.labels, k, seed)
        attack_idx = np.flatnonzero(ds.labels == 1)
        splits = []
        for i, test_benign in enumerate(folds):
            if test_benign.size == 0:
                raise DataError(f"fold {i} has zero benign test rows")
            train_idx = np.concatenate([f for j, f in enumerate(folds) if j != i])
            splits.append((train_idx, np.concatenate([test_benign, attack_idx])))
    elif protocol == "holdout":
        k = 1
        splits = [split_benign_indices(ds.labels, SplitSpec(train_fraction, seed))]
    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    scalers, seconds = [], []
    for train_idx, _ in splits:
        start = time.perf_counter()
        scalers.append(fit_scaler(ds.rows[train_idx]))
        seconds.append([time.perf_counter() - start, 0.0])
    networks: list[SvddModel | None] = [None] * len(splits)
    if NETWORK_DETECTORS.intersection(detectors):
        by_size: dict[int, list[int]] = {}
        for i, (train_idx, _) in enumerate(splits):
            by_size.setdefault(len(train_idx), []).append(i)
        for members in by_size.values():
            start = time.perf_counter()
            models = svdd.train(config, _scaled_stack(ds.rows, splits, scalers, members))
            share = (time.perf_counter() - start) / len(members)
            for model, i in zip(models, members):
                networks[i] = model
                seconds[i][1] = share
    per_fold = [
        _evaluate_fold(
            i, ds.rows[train_idx], ds.rows[test_idx], ds.labels[test_idx], scalers[i],
            networks[i], tuple(seconds[i]), detectors, bins, contamination,
        )
        for i, (train_idx, test_idx) in enumerate(splits)
    ]
    reports = []
    for j, name in enumerate(detectors):
        folds = [fold[j][0] for fold in per_fold]
        reports.append({
            "detector": name, "protocol": protocol, "k": k, "contamination": contamination,
            "seed": seed, "config": config_echo or {},
            "wall_seconds": sum(fold[j][1] for fold in per_fold),
            "summary": _summary(folds), "folds": folds,
        })
    return reports


def render_table(reports: list[dict]) -> str:
    """Fixed-width comparison table (Accuracy, F1 Score, AUC, DR, FAR) of
    report documents; a report of more than one fold shows mean±stddev."""
    headers = ["Detector", "Accuracy", "F1 Score", "AUC", "DR", "FAR"]
    lines = [
        "{:<10} {:>14} {:>14} {:>14} {:>14} {:>14}".format(*headers),
        "-" * 84,
    ]
    for r in reports:
        cells = [r["detector"]]
        for name in METRIC_COLUMNS:
            s = r["summary"][name]
            # a saved report without its folds renders as one fold
            if len(r.get("folds", ())) > 1:
                cells.append(f"{s['mean']:.2f}±{s['stddev']:.2f}")
            else:
                cells.append(f"{s['mean']:.2f}")
        lines.append("{:<10} {:>14} {:>14} {:>14} {:>14} {:>14}".format(*cells))
    return "\n".join(lines)
