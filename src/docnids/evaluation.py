"""Metrics, ROC-AUC, the benign k-fold protocol, and baseline detectors.

All detectors share one interface: fit on a scaled benign-only matrix,
then score rows (higher = more anomalous). The harness owns fold
construction, per-fold scaling, and thresholding, so every detector
sees identical data within a run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from . import hbos, pipeline, svdd
from .data import LabeledDataset, SplitSpec, apply_scaler, fit_scaler, split_benign
from .errors import DataError
from .svdd import SvddConfig

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
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    # midranks over tied blocks
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class Detector(Protocol):
    name: str

    def fit(self, benign: np.ndarray) -> None: ...

    def scores(self, x: np.ndarray) -> np.ndarray: ...


class DocDetector:
    """Embedding contraction followed by histogram scoring."""

    name = "doc"

    def __init__(self, config: SvddConfig | None = None, bins: int = 10):
        self.config = config or SvddConfig()
        self.bins = bins
        self.model = None
        self.hist = None

    def fit(self, benign: np.ndarray) -> None:
        self.model, self.hist, _ = pipeline.fit_core(self.config, benign, self.bins)

    def scores(self, x: np.ndarray) -> np.ndarray:
        z = svdd.embed_batch(self.model, x)
        return hbos.hbos_score_batch(self.hist, z)


class SvddDetector:
    """Standalone embedding network scored by squared center distance."""

    name = "svdd"

    def __init__(self, config: SvddConfig | None = None):
        self.config = config or SvddConfig()
        self.model = None

    def fit(self, benign: np.ndarray) -> None:
        self.model = svdd.train(self.config, benign)

    def scores(self, x: np.ndarray) -> np.ndarray:
        return svdd.distance_score_batch(self.model, x)


class HbosRawDetector:
    """Histogram scoring directly on the scaled input features."""

    name = "hbos"

    def __init__(self, bins: int = 10):
        self.bins = bins
        self.hist = None

    def fit(self, benign: np.ndarray) -> None:
        self.hist = hbos.fit_histograms(benign, self.bins)

    def scores(self, x: np.ndarray) -> np.ndarray:
        return hbos.hbos_score_batch(self.hist, x)


class PcaDetector:
    """Squared reconstruction error from the top principal components
    explaining at least ``variance_target`` of the variance."""

    name = "pca"

    def __init__(self, variance_target: float = 0.9):
        self.variance_target = variance_target
        self.mean = None
        self.components = None  # (m, d), rows orthonormal

    def fit(self, benign: np.ndarray) -> None:
        benign = np.asarray(benign, dtype=np.float64)
        self.mean = benign.mean(axis=0)
        centered = benign - self.mean
        cov = centered.T @ centered / max(len(benign) - 1, 1)
        evals, evecs = np.linalg.eigh(cov)
        evals, evecs = evals[::-1], evecs[:, ::-1]
        evals = np.clip(evals, 0.0, None)
        total = evals.sum()
        rank = int((evals > 1e-12 * max(total, 1.0)).sum())
        if total <= 0:
            m = 1
        else:
            ratio = np.cumsum(evals) / total
            m = int(np.searchsorted(ratio, self.variance_target) + 1)
        m = max(1, min(m, rank if rank else 1))
        self.components = evecs[:, :m].T

    def scores(self, x: np.ndarray) -> np.ndarray:
        centered = np.asarray(x, dtype=np.float64) - self.mean
        proj = centered @ self.components.T
        residual = centered - proj @ self.components
        return (residual**2).sum(axis=1)


# Each detector built from the shared network config and histogram bin count.
DETECTOR_FACTORIES: dict[str, Callable[[SvddConfig, int], Detector]] = {
    "doc": lambda config, bins: DocDetector(config, bins=bins),
    "svdd": lambda config, bins: SvddDetector(config),
    "hbos": lambda config, bins: HbosRawDetector(bins=bins),
    "pca": lambda config, bins: PcaDetector(),
}


@dataclass
class FoldResult:
    fold: int
    cm: ConfusionMatrix
    metrics: dict
    auc: float


@dataclass
class EvalReport:
    detector: str
    protocol: str
    k: int
    contamination: float
    seed: int
    config: dict
    folds: list[FoldResult]
    wall_seconds: float = 0.0
    summary: dict = field(default_factory=dict)

    def finalize(self) -> None:
        self.summary = {}
        for name in METRIC_COLUMNS:
            values = [
                f.auc * 100.0 if name == "auc" else f.metrics[name] for f in self.folds
            ]
            self.summary[name] = {
                "mean": float(np.mean(values)),
                "stddev": float(np.std(values)),
            }

    def to_json(self) -> str:
        doc = {
            "detector": self.detector,
            "protocol": self.protocol,
            "k": self.k,
            "contamination": self.contamination,
            "seed": self.seed,
            "config": self.config,
            "wall_seconds": self.wall_seconds,
            "summary": self.summary,
            "folds": [
                {
                    "fold": f.fold,
                    "tp": f.cm.tp,
                    "fp": f.cm.fp,
                    "tn": f.cm.tn,
                    "fn": f.cm.fn,
                    "auc": f.auc,
                    **{k: v for k, v in f.metrics.items()},
                }
                for f in self.folds
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _evaluate_fold(
    detector: Detector,
    fold: int,
    train_x: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    contamination: float,
) -> FoldResult:
    scaler = fit_scaler(train_x)
    train_scaled = apply_scaler(scaler, train_x)
    test_scaled = apply_scaler(scaler, test_x)
    detector.fit(train_scaled)
    train_scores = detector.scores(train_scaled)
    threshold = pipeline.threshold_from_scores(train_scores, contamination)
    test_scores = detector.scores(test_scaled)
    preds = (test_scores > threshold).astype(np.int64)
    cm = confusion(test_y, preds)
    return FoldResult(fold=fold, cm=cm, metrics=metrics(cm), auc=roc_auc(test_y, test_scores))


def benign_folds(labels: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Seeded partition of the benign row indices into k folds."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    benign_idx = np.flatnonzero(np.asarray(labels) == 0)
    if benign_idx.size < k:
        raise DataError(f"need at least {k} benign rows for {k}-fold evaluation")
    rng = np.random.default_rng(seed)
    return np.array_split(rng.permutation(benign_idx), k)


def kfold_evaluate(
    ds: LabeledDataset,
    detector_factory: Callable[[], Detector],
    k: int = 5,
    contamination: float = 0.1,
    seed: int = 0,
    config_echo: dict | None = None,
) -> EvalReport:
    """Benign k-fold protocol: benign rows are partitioned into k seeded
    folds; each fold trains on the other k-1 benign folds and tests on
    its own benign fold plus every attack row."""
    if ds.n_attack == 0:
        raise DataError("dataset contains no attack rows")
    start = time.perf_counter()
    folds = benign_folds(ds.labels, k, seed)
    attack_idx = np.flatnonzero(ds.labels == 1)
    results = []
    for i, test_benign in enumerate(folds):
        if test_benign.size == 0:
            raise DataError(f"fold {i} has zero benign test rows")
        train_benign = np.concatenate([f for j, f in enumerate(folds) if j != i])
        test_idx = np.concatenate([test_benign, attack_idx])
        detector = detector_factory()
        results.append(
            _evaluate_fold(
                detector,
                i,
                ds.rows[train_benign],
                ds.rows[test_idx],
                ds.labels[test_idx],
                contamination,
            )
        )
    report = EvalReport(
        detector=detector_factory().name,
        protocol="kfold",
        k=k,
        contamination=contamination,
        seed=seed,
        config=config_echo or {},
        folds=results,
        wall_seconds=time.perf_counter() - start,
    )
    report.finalize()
    return report


def holdout_evaluate(
    ds: LabeledDataset,
    detector_factory: Callable[[], Detector],
    train_fraction: float = 0.7,
    contamination: float = 0.1,
    seed: int = 0,
    config_echo: dict | None = None,
) -> EvalReport:
    """Single benign train/test split with all attacks in the test set."""
    if ds.n_attack == 0:
        raise DataError("dataset contains no attack rows")
    start = time.perf_counter()
    train_x, test = split_benign(ds, SplitSpec(train_fraction, seed))
    detector = detector_factory()
    result = _evaluate_fold(detector, 0, train_x, test.rows, test.labels, contamination)
    report = EvalReport(
        detector=detector.name,
        protocol="holdout",
        k=1,
        contamination=contamination,
        seed=seed,
        config=config_echo or {},
        folds=[result],
        wall_seconds=time.perf_counter() - start,
    )
    report.finalize()
    return report


def render_table(reports: list[EvalReport]) -> str:
    """Fixed-width comparison table (Accuracy, F1 Score, AUC, DR, FAR)."""
    headers = ["Detector", "Accuracy", "F1 Score", "AUC", "DR", "FAR"]
    lines = [
        "{:<10} {:>14} {:>14} {:>14} {:>14} {:>14}".format(*headers),
        "-" * 84,
    ]
    for r in reports:
        cells = [r.detector]
        for name in METRIC_COLUMNS:
            s = r.summary[name]
            if len(r.folds) > 1:
                cells.append(f"{s['mean']:.2f}±{s['stddev']:.2f}")
            else:
                cells.append(f"{s['mean']:.2f}")
        lines.append("{:<10} {:>14} {:>14} {:>14} {:>14} {:>14}".format(*cells))
    return "\n".join(lines)
