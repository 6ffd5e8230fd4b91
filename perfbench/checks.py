"""Output checks for the timed CLI commands.

Each check returns (problems, auc): an empty problem list means the
output is correct, and auc is the detection quality read from that
output (0.0 when the output is unusable). Expected values come from
docnids' public API, called in-process on the same input table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The criterion-6 bar for the combined detector on the synthetic fixture.
MIN_DOC_AUC = 0.90
SCORE_RTOL = 1e-9


@dataclass
class Table:
    lines: list[str]  # raw CSV lines, header first
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) 0 benign / 1 attack


def read_table(path) -> Table:
    """Read a table written by ``docnids synth``."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    label_idx = header.index("Label")
    feature_idx = [i for i, name in enumerate(header) if name not in ("Label", "Attack")]
    values = np.loadtxt(lines[1:], delimiter=",", usecols=feature_idx + [label_idx], ndmin=2)
    return Table(lines=lines, features=values[:, :-1], labels=values[:, -1].astype(np.int64))


def auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Rank-based ROC-AUC with midranks for ties, attack (1) positive."""
    labels = np.asarray(labels)
    _, inverse, counts = np.unique(np.asarray(scores, dtype=np.float64), return_inverse=True,
                                   return_counts=True)
    upper = np.cumsum(counts)
    ranks = (upper - (counts - 1) / 2.0)[inverse]
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def check_score(out_path, table: Table, model_path, pipeline) -> tuple[list[str], float]:
    """``score`` stdout: the input rows in order, each followed by a score
    within SCORE_RTOL of ``score_batch`` and the verdict that score gives."""
    try:
        model = pipeline.load(model_path)
    except (OSError, ValueError) as e:
        return [f"model does not load: {e}"], 0.0
    expected = pipeline.score_batch(model, table.features)
    out = Path(out_path).read_text(encoding="utf-8").splitlines()
    problems = []
    if len(out) != len(table.lines):
        problems.append(f"output has {len(out)} lines, expected {len(table.lines)}")
    if not out or out[0] != table.lines[0] + ",score,verdict":
        problems.append("header is not the input header plus score,verdict")
    n = max(min(len(out), len(table.lines)) - 1, 0)
    scores = np.full(n, np.nan)
    verdicts = np.empty(n, dtype=object)
    malformed = 0
    for i in range(n):
        parts = out[i + 1].rsplit(",", 2)
        try:
            if len(parts) != 3 or parts[0] != table.lines[i + 1]:
                raise ValueError
            scores[i] = float(parts[1])
        except ValueError:
            malformed += 1
            continue
        verdicts[i] = parts[2]
    if malformed:
        problems.append(f"{malformed} rows are not the input row plus a score and a verdict")
    off = int((~np.isclose(scores, expected[:n], rtol=SCORE_RTOL, atol=0.0)).sum())
    if off:
        problems.append(f"{off} scores differ from score_batch by more than {SCORE_RTOL} relative")
    want = np.where(expected[:n] > model.threshold, "anomaly", "benign")
    flipped = int((verdicts != want).sum())
    if flipped:
        problems.append(f"{flipped} verdicts differ from score_batch > threshold")
    if problems:
        return problems, 0.0
    return problems, auc(table.labels, scores)


def check_evaluate(json_path, n_benign: int, n_attack: int, k: int,
                   detectors: list[str]) -> tuple[list[str], float]:
    """``evaluate --out-json``: one report per detector with k folds whose
    confusion counts add up to the fold's test size, and doc AUC at the bar."""
    try:
        reports = json.loads(Path(json_path).read_text(encoding="utf-8"))["reports"]
        names = [r["detector"] for r in reports]
        if names != detectors:
            return [f"reports are for {names}, expected {detectors}"], 0.0
        test_sizes = [len(f) + n_attack for f in np.array_split(np.arange(n_benign), k)]
        problems = []
        for r in reports:
            if len(r["folds"]) != k:
                problems.append(f"{r['detector']} has {len(r['folds'])} folds, expected {k}")
                continue
            for f in r["folds"]:
                total = f["tp"] + f["fp"] + f["tn"] + f["fn"]
                if total != test_sizes[f["fold"]]:
                    problems.append(f"{r['detector']} fold {f['fold']} counts {total} rows, "
                                    f"expected {test_sizes[f['fold']]}")
        doc_auc = float(np.mean([f["auc"] for f in reports[names.index("doc")]["folds"]]))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return [f"report is unreadable: {e!r}"], 0.0
    if doc_auc < MIN_DOC_AUC:
        problems.append(f"doc AUC {doc_auc:.4f} is below {MIN_DOC_AUC}")
    return problems, (0.0 if problems else doc_auc)
