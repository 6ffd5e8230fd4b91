"""Metrics, ROC-AUC, the benign k-fold protocol, and baseline detectors.

Every detector is one function: fitted on a fold's benign-only training
rows, it returns the scores of those rows and of the test rows (higher =
more anomalous). The harness owns fold construction, per-fold scaling,
the fold's ``pipeline.fit`` model and thresholding, so every detector
sees identical data within a run. ``hbos`` and ``pca`` see the scaled
rows; ``doc`` (the model's histograms) and ``svdd`` (distance to its
center) see the rows' embeddings under its network, made once per fold.
Each report is the JSON-ready document that ``evaluate --out-json`` writes.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from . import hbos, pipeline, svdd
from .data import LabeledDataset, apply_scaler, check_fraction, fit_scaler, split_benign_indices
from .errors import DataError
from .svdd import SvddConfig

METRIC_COLUMNS = ("accuracy", "f1", "auc", "dr", "far")


def confusion(labels: np.ndarray, predictions: np.ndarray) -> dict:
    """The counts ``tp``, ``fp``, ``tn`` and ``fn``, with attack (label 1)
    as the positive class."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise ValueError("labels and predictions have different lengths")
    return {
        "tp": int(((labels == 1) & (predictions == 1)).sum()),
        "fp": int(((labels == 0) & (predictions == 1)).sum()),
        "tn": int(((labels == 0) & (predictions == 0)).sum()),
        "fn": int(((labels == 1) & (predictions == 0)).sum()),
    }


def metrics(cm: dict) -> dict:
    """Accuracy, detection rate, false alarm rate, precision, and F1 of
    ``confusion``'s counts, all as percentages. A zero denominator yields
    0 and the metric's name in ``undefined`` rather than an error."""
    tp, fp, tn, fn = cm["tp"], cm["fp"], cm["tn"], cm["fn"]
    ratios = {  # name: (numerator, denominator)
        "accuracy": (tp + tn, tp + fp + tn + fn),
        "dr": (tp, tp + fn),
        "far": (fp, fp + tn),
        "precision": (tp, tp + fp),
    }
    out = {name: 100.0 * num / den if den else 0.0 for name, (num, den) in ratios.items()}
    undefined = [name for name, (_, den) in ratios.items() if not den]
    dr, precision = out["dr"], out["precision"]
    if dr + precision > 0:
        out["f1"] = 2.0 * dr * precision / (dr + precision)
    else:
        out["f1"] = 0.0
        undefined.append("f1")
    out["undefined"] = sorted(undefined)
    return out


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


def fit_hbos(train, test, model, bins):
    """Histogram scores under histograms fitted on the training rows."""
    hist = hbos.fit_histograms(train, bins)
    return hbos.hbos_score_batch(hist, train), hbos.hbos_score_batch(hist, test)


def fit_doc(train, test, model, bins):
    """Histogram scores under the histograms ``pipeline.fit`` fitted."""
    return hbos.hbos_score_batch(model.hist, train), hbos.hbos_score_batch(model.hist, test)


def fit_svdd(train, test, model, bins):
    """Squared distance of the fold's embeddings to the network's center."""
    c = model.svdd.center
    return svdd.distances_sq(train, c), svdd.distances_sq(test, c)


PCA_VARIANCE_TARGET = 0.9


def fit_pca(train, test, model, bins):
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
    # contiguous: with the transposed view as the right operand, OpenBLAS
    # runs a fold's product threaded, starting its thread pool for it
    components_t = np.ascontiguousarray(components.T)

    def errors(centered):
        # in place, the same ufuncs as centered - ... and residual**2
        residual = (centered @ components) @ components_t
        np.subtract(centered, residual, out=residual)
        return np.square(residual, out=residual).sum(axis=1)

    return errors(centered), errors(np.asarray(test, dtype=np.float64) - mean)


# Each detector maps (train rows, test rows, the fold's DocModel or None,
# histogram bin count) to (train scores, test scores).
DETECTORS: dict[str, Callable] = {
    "doc": fit_doc, "svdd": fit_svdd, "hbos": fit_hbos, "pca": fit_pca,
}
# The detectors that see the fold's embeddings under the network of its
# DocModel, which is fitted once per fold; the others see the scaled rows.
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
    model: pipeline.DocModel | None,
    fit_s: float,
    detectors: list[str],
    bins: int,
    contamination: float,
) -> list[tuple[dict, float]]:
    """Fit the fold's scaler (the same bits as ``model.scaler``: a min and
    a max are exact) and scale its rows in place, so ``train_x`` and
    ``test_x`` must be the fold's own copies; if the fold has a ``model``,
    embed the train and test rows once under its network; then fit,
    threshold and score each detector on its rows.

    Returns one (result, seconds) pair per detector, in order; a result
    is the fold's entry in the report document. A detector's seconds
    count the scaling, ``fit_s`` (the fold's share of ``pipeline.fit``)
    and the embedding if it uses the network, and its own fit and
    scoring. The fold's arrays live only in this call."""
    start = time.perf_counter()
    scaler = fit_scaler(train_x)
    scaled = tuple(apply_scaler(scaler, x, out=x) for x in (train_x, test_x))
    scaled_at = time.perf_counter()
    embedded = None
    if model is not None:
        embedded = tuple(svdd.embed_batch(model.svdd, x) for x in scaled)
    embedded_at = time.perf_counter()
    out = []
    for name in detectors:
        own_start = time.perf_counter()
        uses_network = name in NETWORK_DETECTORS
        train_in, test_in = embedded if uses_network else scaled
        train_scores, test_scores = DETECTORS[name](train_in, test_in, model, bins)
        threshold = pipeline.threshold_from_scores(train_scores, contamination)
        cm = confusion(test_y, (test_scores > threshold).astype(np.int64))
        result = {"fold": fold, **cm, "auc": roc_auc(test_y, test_scores), **metrics(cm)}
        shared = scaled_at - start
        if uses_network:
            shared += fit_s + embedded_at - scaled_at
        out.append((result, shared + time.perf_counter() - own_start))
    return out


def benign_folds(labels: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Seeded partition of the benign row indices into k >= 2 folds."""
    benign_idx = np.flatnonzero(np.asarray(labels) == 0)
    if benign_idx.size < k:
        raise DataError(f"need at least {k} benign rows for {k}-fold evaluation")
    rng = np.random.default_rng(seed)
    return np.array_split(rng.permutation(benign_idx), k)


def check_settings(
    detectors: list[str], protocol: str, k: int, train_fraction: float, contamination: float,
    bins: int,
) -> None:
    """The checks of ``evaluate``'s settings that need no data: one or
    more known detectors, none twice (named as ``--detectors``); k is
    read only for ``kfold`` and the train fraction only for ``holdout``."""
    if not detectors:
        raise ValueError(f"--detectors names no detector, got {detectors!r}")
    for i, name in enumerate(detectors):
        if name not in DETECTORS:
            raise ValueError(f"unknown detector {name!r}; choose from {sorted(DETECTORS)}")
        if name in detectors[:i]:
            raise ValueError(f"--detectors names {name!r} more than once")
    pipeline.check_contamination(contamination)
    hbos.check_bins(bins)
    if protocol == "kfold" and k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if protocol == "holdout":
        check_fraction(train_fraction)
    elif protocol != "kfold":
        raise ValueError(f"unknown protocol {protocol!r}")


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
) -> list[dict]:
    """Evaluate the named detectors under one protocol; one report per
    name, in the order given. A report is the JSON-ready document that
    ``evaluate --out-json`` writes, less the ``input`` path of its
    ``config``: the run's settings, a ``summary`` of each table metric's
    mean and stddev, and one entry per fold.

    ``kfold``: benign rows are partitioned into k seeded folds; each fold
    trains on the other k-1 benign folds and tests on its own benign fold
    plus every attack row. ``holdout``: a single seeded benign train/test
    split with every attack row in the test set. Per fold, the scaler is
    fitted and the rows scaled once, and every detector uses them. Rows
    that are not an (n, d) matrix with n labels are a DataError, raised
    after the settings' checks and before any fold.

    If some detector uses the network, one ``pipeline.fit`` call fits
    the model ``train`` would ship for each fold. A report's
    ``wall_seconds`` gives each fold an even share of that call's wall
    time, however many cores trained the folds."""
    # checked before any fold, whichever detectors run
    check_settings(detectors, protocol, k, train_fraction, contamination, bins)
    rows, labels = np.shape(ds.rows), np.shape(ds.labels)
    if len(rows) != 2 or labels != rows[:1]:
        raise DataError(
            f"rows must be an (n, d) matrix with n labels, got shape {rows}"
            f" with labels of shape {labels}"
        )
    if ds.n_attack == 0 or ds.n_benign == 0:
        raise DataError("evaluation needs both benign and attack rows")
    config = config or SvddConfig()
    echo = {
        # resolving the dims checks them against the data; rows that are
        # not finite fail in apply_scaler
        "layer_dims": config.resolve_dims(ds.rows.shape[-1]), "epochs": config.epochs,
        "batch_size": config.batch_size, "lr": config.lr, "weight_decay": config.weight_decay,
        "bins": bins, "contamination": contamination, "seed": seed, "protocol": protocol,
        "detectors": list(detectors),
    }
    if protocol == "kfold":
        folds = benign_folds(ds.labels, k, seed)
        attack_idx = np.flatnonzero(ds.labels == 1)
        # benign_folds gives each of its k >= 2 folds at least one row
        splits = [
            (np.concatenate(folds[:i] + folds[i + 1 :]), np.concatenate([test_benign, attack_idx]))
            for i, test_benign in enumerate(folds)
        ]
    else:
        k = 1
        splits = [split_benign_indices(ds.labels, train_fraction, seed)]
        if len(splits[0][0]) == ds.n_benign:
            raise DataError(
                f"train fraction {train_fraction} leaves none of the {ds.n_benign} benign"
                " rows for testing"
            )

    # each fold's model and its share of pipeline.fit's seconds
    models, share = [None] * len(splits), 0.0
    if NETWORK_DETECTORS.intersection(detectors):
        start = time.perf_counter()
        sets = [train_idx for train_idx, _ in splits]
        models = pipeline.fit(config, ds.rows, sets, ds.columns, bins, contamination)
        share = (time.perf_counter() - start) / len(splits)
    # float64, so that each fold's gathered rows are its own to scale in place
    rows = np.asarray(ds.rows, dtype=np.float64)
    per_fold = [
        _evaluate_fold(
            i, rows[train_idx], rows[test_idx], ds.labels[test_idx], model, share,
            detectors, bins, contamination,
        )
        for i, ((train_idx, test_idx), model) in enumerate(zip(splits, models))
    ]
    reports = []
    for j, name in enumerate(detectors):
        folds = [fold[j][0] for fold in per_fold]
        reports.append({
            "detector": name, "protocol": protocol, "k": k, "contamination": contamination,
            "seed": seed, "config": dict(echo),
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
