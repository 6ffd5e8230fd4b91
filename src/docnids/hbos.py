"""Equal-width univariate histograms and the aggregated outlier score.

One histogram per dimension, k equal-width bins over the observed value
range, heights normalized so every dimension's tallest bin is 1.0. The
score of a sample is the sum over dimensions of log(1 / height) of the
bin the coordinate falls in; higher means more anomalous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend

# Applied inside the log for empty bins, which would otherwise score infinite.
EMPTY_BIN_FLOOR = 1e-6


@dataclass
class HistogramSet:
    lo: np.ndarray  # (d,) lower range endpoints
    hi: np.ndarray  # (d,) upper range endpoints
    k: int
    heights: np.ndarray  # (d, k), max per row is 1.0

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def widths(self) -> np.ndarray:
        """Bin width per dimension; 0 marks a degenerate (constant) column."""
        return (self.hi - self.lo) / self.k


def fit_histograms(z: np.ndarray, k: int) -> HistogramSet:
    """Fit per-dimension histograms over each column's [min, max] range.

    Bins are half-open with the last bin right-inclusive. A constant
    column degenerates to a single point-bin of height 1.0.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] == 0:
        raise ValueError("need a non-empty 2-D matrix")
    if k < 1:
        raise ValueError(f"bin count must be >= 1, got {k}")
    n, d = z.shape
    lo = z.min(axis=0)
    hi = z.max(axis=0)
    heights = np.zeros((d, k))
    for j in range(d):
        if lo[j] == hi[j]:
            heights[j, 0] = 1.0
            continue
        w = (hi[j] - lo[j]) / k
        idx = np.clip(np.floor((z[:, j] - lo[j]) / w).astype(np.int64), 0, k - 1)
        counts = np.bincount(idx, minlength=k)
        heights[j] = counts / counts.max()
    return HistogramSet(lo=lo, hi=hi, k=k, heights=heights)


def hbos_score_batch(h: HistogramSet, z: np.ndarray) -> np.ndarray:
    """Score each row of a (n, d) matrix. Out-of-range coordinates clamp
    to the nearest edge bin; empty bins are floored at EMPTY_BIN_FLOOR."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != h.dim:
        raise ValueError(f"matrix has {z.shape[-1]} columns, expected {h.dim}")
    return backend.hbos_scores(h.lo, h.widths, h.heights, z, EMPTY_BIN_FLOOR)
