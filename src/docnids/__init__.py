"""One-class network anomaly detection toolkit.

Trains on benign flow records only: a dense network contracts benign
embeddings toward a fixed center, and per-dimension histograms of those
embeddings score how unusual new flows are.
"""

from .data import (
    LabeledDataset,
    ScalerParams,
    SplitSpec,
    apply_scaler,
    fit_scaler,
    load_csv,
    split_benign,
    synth_generate,
)
from .hbos import HistogramSet, fit_histograms, hbos_score_batch
from .nn import (
    Activation,
    Gradients,
    MlpParams,
    backprop_batch,
    forward_batch,
    init_params,
    sgd_step,
)
from .pipeline import DocModel, Verdict, classify, fit, load, save, score_batch
from .svdd import (
    SvddConfig,
    SvddModel,
    distance_score_batch,
    embed_batch,
    init_center,
    svdd_loss,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "DocModel",
    "Gradients",
    "HistogramSet",
    "LabeledDataset",
    "MlpParams",
    "ScalerParams",
    "SplitSpec",
    "SvddConfig",
    "SvddModel",
    "Verdict",
    "apply_scaler",
    "backprop_batch",
    "classify",
    "distance_score_batch",
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
    "sgd_step",
    "split_benign",
    "svdd_loss",
    "synth_generate",
    "train",
]
