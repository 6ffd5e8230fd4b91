"""One-class network anomaly detection toolkit.

Trains on benign flow records only: a dense network contracts benign
embeddings toward a fixed center, and per-dimension histograms of those
embeddings score how unusual new flows are.
"""

from .data import (
    LabeledDataset,
    ScalerParams,
    apply_scaler,
    fit_scaler,
    load_csv,
    synth_generate,
)
from .hbos import HistogramSet, fit_histograms, hbos_score_batch
from .nn import Activation, MlpParams, forward_batch, init_params
from .pipeline import DocModel, fit, load, save, score_batch
from .svdd import SvddConfig, SvddModel, embed_batch, init_center, train

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "DocModel",
    "HistogramSet",
    "LabeledDataset",
    "MlpParams",
    "ScalerParams",
    "SvddConfig",
    "SvddModel",
    "apply_scaler",
    "embed_batch",
    "fit",
    "fit_histograms",
    "fit_scaler",
    "forward_batch",
    "hbos_score_batch",
    "init_center",
    "init_params",
    "load",
    "load_csv",
    "save",
    "score_batch",
    "synth_generate",
    "train",
]
