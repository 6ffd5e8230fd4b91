"""The two-stage detector: embedding contraction followed by histogram
scoring, plus the deployable model artifact and its binary file format.

The decision threshold is the (1 - contamination)-quantile of the
training rows' scores; ties classify benign.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import hbos, svdd
from .data import ScalerParams, apply_scaler
from .errors import ModelFormatError, SchemaMismatchError
from .hbos import HistogramSet
from .nn import Activation, MlpParams
from .svdd import SvddConfig, SvddModel

MAGIC = b"DOC1"
FORMAT_VERSION = 1

_ACTIVATION_CODES = {a: i for i, a in enumerate(Activation)}
_ACTIVATION_BY_CODE = {i: a for a, i in _ACTIVATION_CODES.items()}


@dataclass
class Verdict:
    score: float
    label: str  # "benign" or "anomaly"


@dataclass
class DocModel:
    svdd: SvddModel
    hist: HistogramSet
    threshold: float
    contamination: float
    scaler: ScalerParams
    schema_hash: bytes
    columns: list[str] | None = None


def schema_hash(columns: list[str]) -> bytes:
    return hashlib.sha256("\x1f".join(columns).encode("utf-8")).digest()


def fit_core(
    config: SvddConfig, benign_scaled: np.ndarray, bins: int
) -> tuple[SvddModel, HistogramSet, np.ndarray]:
    """Train the embedding network, fit histograms on the training
    embeddings, and return both plus the training scores."""
    model = svdd.train(config, benign_scaled)
    z = svdd.embed_batch(model, benign_scaled)
    hist = hbos.fit_histograms(z, bins)
    scores = hbos.hbos_score_batch(hist, z)
    return model, hist, scores


def threshold_from_scores(scores: np.ndarray, contamination: float) -> float:
    return float(np.quantile(scores, 1.0 - contamination, method="linear"))


def fit(
    config: SvddConfig,
    benign_scaled: np.ndarray,
    scaler: ScalerParams,
    columns: list[str],
    bins: int = 10,
    contamination: float = 0.1,
) -> DocModel:
    """Fit the full detector on scaled benign rows.

    ``benign_scaled`` must already be min-max scaled to [0, 1] with the
    supplied scaler, and must contain benign rows only.
    """
    if not 0.0 < contamination < 1.0:
        raise ValueError(f"contamination must be in (0, 1), got {contamination}")
    model, hist, scores = fit_core(config, benign_scaled, bins)
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite training scores")
    return DocModel(
        svdd=model,
        hist=hist,
        threshold=threshold_from_scores(scores, contamination),
        contamination=contamination,
        scaler=scaler,
        schema_hash=schema_hash(columns),
        columns=list(columns),
    )


def check_schema(model: DocModel, columns: list[str]) -> None:
    if schema_hash(columns) != model.schema_hash:
        raise SchemaMismatchError(
            "model was trained on a different feature schema; "
            f"got columns {columns[:8]}{'...' if len(columns) > 8 else ''}"
        )


def score_batch(model: DocModel, x: np.ndarray) -> np.ndarray:
    """Anomaly scores of a (n, d) matrix of raw feature rows (scaling
    applied here)."""
    scaled = apply_scaler(model.scaler, np.asarray(x, dtype=np.float64))
    z = svdd.embed_batch(model.svdd, scaled)
    return hbos.hbos_score_batch(model.hist, z)


def verdict_labels(model: DocModel, scores):
    """The decision rule: a score above the threshold is "anomaly", a
    score exactly equal to it is "benign". Takes one score or an array
    and returns one label or a list of labels."""
    return np.where(np.asarray(scores) > model.threshold, "anomaly", "benign").tolist()


def classify(model: DocModel, x: np.ndarray) -> Verdict:
    """Score one raw feature vector and label it by the decision rule."""
    s = float(score_batch(model, np.asarray(x)[None])[0])
    return Verdict(score=s, label=verdict_labels(model, s))


def _pack_f64(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save(model: DocModel, path) -> None:
    """Write the versioned binary model file with a trailing CRC32."""
    dims = model.svdd.params.layer_dims
    out = bytearray()
    out += MAGIC
    out += struct.pack("<H", FORMAT_VERSION)
    out += model.schema_hash
    out += struct.pack("<H", _ACTIVATION_CODES[model.svdd.params.activation])
    out += struct.pack("<I", len(dims))
    out += struct.pack(f"<{len(dims)}I", *dims)
    for w in model.svdd.params.layers:
        out += _pack_f64(w)
    out += struct.pack("<dd", model.svdd.weight_decay, model.svdd.radius_proxy)
    out += _pack_f64(model.svdd.center)
    nf = len(model.scaler.mins)
    out += struct.pack("<I", nf)
    out += _pack_f64(model.scaler.mins)
    out += _pack_f64(model.scaler.maxs)
    h = model.hist
    out += struct.pack("<II", h.dim, h.k)
    out += _pack_f64(h.lo)
    out += _pack_f64(h.hi)
    out += _pack_f64(h.heights)
    out += struct.pack("<dd", model.threshold, model.contamination)
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    with open(path, "wb") as f:
        f.write(bytes(out))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ModelFormatError("model file is truncated")
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def f64(self, shape) -> np.ndarray:
        count = int(np.prod(shape))
        arr = np.frombuffer(self.take(8 * count), dtype="<f8").astype(np.float64)
        return arr.reshape(shape)


def load(path) -> DocModel:
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < 10 or buf[:4] != MAGIC:
        raise ModelFormatError("not a DOC model file")
    (stored_crc,) = struct.unpack("<I", buf[-4:])
    if zlib.crc32(buf[:-4]) != stored_crc:
        raise ModelFormatError("model file checksum mismatch")
    r = _Reader(buf[:-4])
    r.take(4)  # magic
    (version,) = r.unpack("<H")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version}")
    sch = r.take(32)
    (act_code,) = r.unpack("<H")
    if act_code not in _ACTIVATION_BY_CODE:
        raise ModelFormatError(f"unknown activation code {act_code}")
    (ndims,) = r.unpack("<I")
    dims = list(r.unpack(f"<{ndims}I"))
    if ndims < 2 or min(dims) < 1:
        raise ModelFormatError(f"invalid layer dims {dims}: need at least two, each >= 1")
    layers = [r.f64((dims[i + 1], dims[i])) for i in range(ndims - 1)]
    weight_decay, radius = r.unpack("<dd")
    center = r.f64(dims[-1])
    (nf,) = r.unpack("<I")
    if nf != dims[0]:
        raise ModelFormatError(f"scaler has {nf} features, network input expects {dims[0]}")
    mins = r.f64(nf)
    maxs = r.f64(nf)
    d, k = r.unpack("<II")
    if d != dims[-1]:
        raise ModelFormatError(f"histograms have {d} dims, embedding has {dims[-1]}")
    if k < 1:
        raise ModelFormatError(f"histogram bin count must be >= 1, got {k}")
    lo = r.f64(d)
    hi = r.f64(d)
    heights = r.f64((d, k))
    threshold, contamination = r.unpack("<dd")
    if r.pos != len(r.buf):
        raise ModelFormatError("trailing bytes after model payload")
    params = MlpParams(
        layers=layers, activation=_ACTIVATION_BY_CODE[act_code], layer_dims=dims
    )
    return DocModel(
        svdd=SvddModel(
            params=params,
            center=center,
            weight_decay=weight_decay,
            radius_proxy=radius,
        ),
        hist=HistogramSet(lo=lo, hi=hi, k=k, heights=heights),
        threshold=threshold,
        contamination=contamination,
        scaler=ScalerParams(mins=mins, maxs=maxs),
        schema_hash=sch,
    )
