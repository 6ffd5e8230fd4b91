"""The two-stage detector: embedding contraction followed by histogram
scoring, plus the deployable model artifact and its binary file format.

The decision threshold is the (1 - contamination)-quantile of the
training rows' scores; ties classify benign.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

# CPython's builtin SHA-256, as the stdlib's random takes its SHA-512:
# hashlib would load OpenSSL's libcrypto (about 3.5 MB of RSS) through
# _hashlib for the one digest that score takes per run.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without it
        from hashlib import sha256

import numpy as np

from . import hbos, svdd
from .data import ScalerParams, apply_scaler, check_rows, fit_scaler
from .errors import ModelFormatError, SchemaMismatchError
from .hbos import HistogramSet
from .nn import Activation, MlpParams
from .svdd import SvddConfig, SvddModel

MAGIC = b"DOC1"
FORMAT_VERSION = 2

_ACTIVATION_CODES = {a: i for i, a in enumerate(Activation)}
_ACTIVATION_BY_CODE = {i: a for a, i in _ACTIVATION_CODES.items()}


@dataclass
class DocModel:
    svdd: SvddModel
    hist: HistogramSet
    threshold: float
    contamination: float
    scaler: ScalerParams
    schema_hash: bytes


def schema_hash(columns: list[str]) -> bytes:
    return sha256("\x1f".join(columns).encode("utf-8")).digest()


def check_contamination(contamination: float) -> None:
    if not 0.0 < contamination < 1.0:
        raise ValueError(f"contamination must be in (0, 1), got {contamination}")


def threshold_from_scores(scores: np.ndarray, contamination: float) -> float:
    """The (1 - contamination)-quantile of the scores, bit for bit as
    ``np.quantile(scores, 1 - contamination, method="linear")`` gives it,
    NaN if any score is NaN. It is taken here from ``np.partition``,
    because ``np.quantile`` calls ``np.unique``, which imports all of
    ``numpy.ma``."""
    scores = np.ravel(scores).astype(np.float64, copy=False)
    last = len(scores) - 1
    # numpy's neighbours of the virtual index: its floor and the next
    # index, or both -1 at or past the last index; the weight is the
    # virtual index less the lower neighbour, -1 included
    virtual = last * (1.0 - contamination)
    lo = math.floor(virtual) if virtual < last else -1
    hi = lo + 1 if lo >= 0 else -1
    # numpy's own partition points, so the same values land where it reads
    part = np.partition(scores, sorted({0, -1, lo, hi}))
    if np.isnan(part[-1]):
        return float(part[-1])
    a, b, t = float(part[lo]), float(part[hi]), virtual - lo
    # numpy's lerp: from the nearer end, exact at t = 0 and t = 1
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


class _ScaledStack:
    """The (k, n, d) stack of ``fit``'s training sets of one length, each
    set's rows min-max scaled by its own scaler, as ``svdd.train`` takes
    it: ``stack[a:b]`` gathers and scales members a to b only, so that
    each of its ranges holds only its own members."""

    def __init__(self, rows: np.ndarray, sets: list[np.ndarray], scalers: list[ScalerParams]):
        self.rows, self.sets, self.scalers = rows, sets, scalers
        self.shape = (len(sets), len(sets[0]), rows.shape[-1])

    def __getitem__(self, members: slice) -> np.ndarray:
        sets, scalers = self.sets[members], self.scalers[members]
        out = np.empty((len(sets), *self.shape[1:]))
        for x, idx, scaler in zip(out, sets, scalers):
            # "clip": fit has checked the indices, and "raise" would buffer
            self.rows.take(idx, axis=0, out=x, mode="clip")
            apply_scaler(scaler, x, out=x)
        return out


def fit(
    config: SvddConfig,
    rows: np.ndarray,
    train_sets: list[np.ndarray],
    columns: list[str],
    bins: int = 10,
    contamination: float = 0.1,
) -> list[DocModel]:
    """Fit one detector per training set, in the order of ``train_sets``:
    one or more index arrays, of any lengths, into the raw feature ``rows``,
    as ``score_batch`` takes them. Each set's rows are min-max scaled by a
    scaler fitted on them. The sets of each length are one (k, n, d)
    stack, which one ``svdd.train`` call trains, in the order the lengths
    first appear; each of its ranges of members gathers and scales its
    own members' rows (``_ScaledStack``). Each set's histograms and
    threshold are fitted on its rows scaled again and embedded.

    An empty set or an index outside [0, len(rows)) is a ValueError
    before any training; so are rows that are not a finite (n, d) matrix,
    a DataError from ``data.check_rows``."""
    check_contamination(contamination)
    hbos.check_bins(bins)
    if not train_sets:
        raise ValueError("need one or more training sets, got none")
    for k, idx in enumerate(map(np.asarray, train_sets)):
        if not (
            idx.ndim == 1 and idx.size and idx.dtype.kind in "iu"
            and 0 <= idx.min() and idx.max() < len(rows)
        ):
            raise ValueError(
                f"training set {k} must be a non-empty array of row indices in [0, {len(rows)})"
            )
    rows = np.asarray(rows, dtype=np.float64)
    scalers = []
    for idx in train_sets:
        raw = rows[idx]
        scalers.append(fit_scaler(raw))
        check_rows(raw, rows.shape[-1])
    del raw  # the last set's copy, not to be held while training
    networks = {}
    for n in dict.fromkeys(map(len, train_sets)):
        members = [i for i, idx in enumerate(train_sets) if len(idx) == n]
        stack = _ScaledStack(rows, [train_sets[i] for i in members], [scalers[i] for i in members])
        networks.update(zip(members, svdd.train(config, stack)))
    models = []
    for i, idx in enumerate(train_sets):
        x = rows[idx]
        z = svdd.embed_batch(networks[i], apply_scaler(scalers[i], x, out=x))
        del x
        hist = hbos.fit_histograms(z, bins)
        scores = hbos.hbos_score_batch(hist, z)
        if not np.all(np.isfinite(scores)):
            raise ValueError("non-finite training scores")
        models.append(DocModel(
            svdd=networks[i], hist=hist, threshold=threshold_from_scores(scores, contamination),
            contamination=contamination, scaler=scalers[i], schema_hash=schema_hash(columns),
        ))
    return models


def check_schema(model: DocModel, columns: list[str]) -> None:
    if schema_hash(columns) != model.schema_hash:
        raise SchemaMismatchError(
            "model was trained on a different feature schema; "
            f"got columns {columns[:8]}{'...' if len(columns) > 8 else ''}"
        )


def score_batch(model: DocModel, x: np.ndarray) -> np.ndarray:
    """Anomaly scores of a (n, d) matrix of raw feature rows: scale them,
    embed them, then sum the histogram scores of the embeddings."""
    scaled = apply_scaler(model.scaler, np.asarray(x, dtype=np.float64))
    return hbos.hbos_score_batch(model.hist, svdd.embed_batch(model.svdd, scaled))


def verdict_labels(model: DocModel, scores):
    """The decision rule: a score above the threshold is "anomaly", a
    score exactly equal to it is "benign". Takes one score or an array
    and returns one label or a list of labels."""
    return np.where(np.asarray(scores) > model.threshold, "anomaly", "benign").tolist()


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

    def f64(self, *shape: int) -> np.ndarray:
        # Python ints: a product of file sizes must not wrap around as int64 can
        count = math.prod(shape)
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
    layers = [r.f64(dims[i + 1], dims[i]) for i in range(ndims - 1)]
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
    heights = r.f64(d, k)
    threshold, contamination = r.unpack("<dd")
    if r.pos != len(r.buf):
        raise ModelFormatError("trailing bytes after model payload")
    # a checksum that matches does not make the values usable: NaN compares false
    values = [*layers, center, mins, maxs, lo, hi, heights, np.array([threshold, contamination])]
    if not all(np.isfinite(v).all() for v in values):
        raise ModelFormatError("model file holds a value that is not finite")
    params = MlpParams(
        layers=layers, activation=_ACTIVATION_BY_CODE[act_code], layer_dims=dims
    )
    return DocModel(
        svdd=SvddModel(params=params, center=center),
        hist=HistogramSet(lo=lo, hi=hi, k=k, heights=heights),
        threshold=threshold,
        contamination=contamination,
        scaler=ScalerParams(mins=mins, maxs=maxs),
        schema_hash=sch,
    )
