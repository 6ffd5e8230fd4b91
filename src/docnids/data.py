"""CSV ingestion, preprocessing, and synthetic fixture generation.

Preprocessing follows the benign-only protocol: flow identifier columns
are dropped, features are min-max scaled on the benign training rows
only, and attack rows appear exclusively in test sets. ``save_csv`` and
``read_chunks`` share their work with other cores through ``workers``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import math
import os
import stat
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import workers
from .errors import DataError

DEFAULT_DROP_COLUMNS = (
    "IPV4_SRC_ADDR",
    "IPV4_DST_ADDR",
    "L4_SRC_PORT",
    "L4_DST_PORT",
)

# Lines per ``read_chunks`` chunk. Each chunk pays a fixed cost in
# ``score`` (the scaler, forward pass and histogram calls). Scoring the
# 110k-row table to a file on a 2-vCPU host (12 child runs each) took a
# median 2.01 s wall at 34.10 MB peak RSS with 64 lines, 1.80 s at
# 34.14 MB with 256, and 1.77 s at 34.93 MB with 512: no clear gain past
# 256, for 0.8 MB. Into a pipe, the gain holds only if the pipe holds a
# chunk's output (``cli.STDOUT_PIPE_BYTES``). With P usable cores, chunk c
# (counted from the first data row) is parsed by process c mod P, round
# robin, where process 0 is the reader itself (``read_chunks``).
CHUNK_ROWS = 256


@dataclass
class LabeledDataset:
    columns: list[str]
    rows: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int, 0 benign / 1 attack
    categories: list[str] | None = None

    @property
    def n_benign(self) -> int:
        return int((self.labels == 0).sum())

    @property
    def n_attack(self) -> int:
        return int((self.labels == 1).sum())


@dataclass
class ScalerParams:
    mins: np.ndarray
    maxs: np.ndarray


def _parse_label(raw: str) -> int:
    s = raw.strip()
    if s in ("0", "1"):
        return int(s)
    return 0 if s.lower() == "benign" else 1


def feature_indices(
    header: list[str], label_column: str, category_column: str, drop
) -> list[int]:
    """Indices of the feature columns: every column except those named
    ``label_column`` or ``category_column`` and those named in ``drop``.
    Training and scoring both select columns by this rule, so a model's
    schema hash matches the columns the scorer reads. A header cell with
    no name, or a header that leaves no feature column, is a DataError."""
    if "" in header:
        raise DataError(f"header cell {header.index('')} (counting from 0) has no name")
    skip = {label_column, category_column, *drop}
    feature_idx = [i for i, name in enumerate(header) if name not in skip]
    if not feature_idx:
        raise DataError(
            "no feature column left: the header holds only label, category and dropped columns"
        )
    return feature_idx


def load_csv(
    path,
    label_column: str = "Label",
    drop_columns: list[str] | None = None,
    category_column: str = "Attack",
) -> LabeledDataset:
    """Load a labeled feature table, dropping identifier columns.

    Bad rows are rejected; the error names their indices (0-based,
    counting data rows). Rows are read by ``read_chunks``, so the bad-row
    rule is the one ``score`` applies. Each chunk's features and label
    codes are written into one growing buffer each, and the categories
    hold one ``str`` per distinct value, so the table is held about once.
    """
    drop = DEFAULT_DROP_COLUMNS if drop_columns is None else drop_columns
    with open_csv(path) as (header, rest):
        if label_column not in header:
            raise DataError(f"{path}: label column {label_column!r} not found")
        feature_idx = feature_indices(header, label_column, category_column, drop)
        # the label and category cells, counted from a row's end: a raw line
        # is split only from the first of them on
        tail = [header.index(label_column) - rest.width]
        if category_column in header:
            tail.append(header.index(category_column) - rest.width)
        rows = np.empty((0, len(feature_idx)))
        labels = np.empty(0, dtype=np.int64)
        n, codes, categories, shared, bad_rows = 0, {}, [], {}, []
        for start, lines, records, x, bad in read_chunks(rest, feature_idx):
            if records is None:
                # A raw line holds no quote or CR, so its cells are its commas' gaps.
                good = [line[:-1].rsplit(",", -min(tail)) for line in lines]
            else:
                good = [r for i, r in enumerate(records, start) if i not in bad]
            cells = [[r[j] for r in good] for j in tail]
            for s in set(cells[0]).difference(codes):
                codes[s] = _parse_label(s)
            if n + len(x) > len(rows):
                # grown by 1/32 or more: the buffer is at most about 3% too
                # large, and reallocations that copy (the C library may
                # remap a large block instead) copy 33 times its size at most
                size = max(n + len(x), len(rows) + len(rows) // 32)
                rows.resize((size, rows.shape[1]), refcheck=False)
                labels.resize(size, refcheck=False)
            rows[n : n + len(x)] = x
            labels[n : n + len(x)] = [codes[s] for s in cells[0]]
            n += len(x)
            if len(tail) > 1:
                categories += map(shared.setdefault, cells[1], cells[1])
            bad_rows += bad
    if bad_rows:
        shown = ", ".join(map(str, bad_rows[:20]))
        raise DataError(f"{path}: unparseable rows at indices {shown}")
    if not n:
        raise DataError(f"{path}: no data rows")
    rows.resize((n, rows.shape[1]), refcheck=False)
    labels.resize(n, refcheck=False)
    return LabeledDataset(
        [header[i] for i in feature_idx], rows, labels, categories if len(tail) > 1 else None
    )


@dataclass
class CsvRest:
    """The text of an open CSV file after its header record, for
    ``read_chunks``. ``width`` is the header's cell count, which every
    data row must have. ``line_num`` counts the lines of the header and of
    the raw-line chunks read so far, as ``csv.reader`` counts lines; after
    a ``csv`` error, it is the line that error is on. ``path`` names the
    file for the parse workers, which ``read_chunks`` starts only where it
    is set. Once they start, with P usable cores, ``parsers[c mod P]``
    parses chunk c, None being this process (at index 0, and wherever a
    worker could not be started); it is empty before and after."""

    file: Iterator[str]
    width: int = 0
    line_num: int = 0
    path: str | os.PathLike | None = None
    parsers: list = field(default_factory=list)


@contextlib.contextmanager
def open_csv(path):
    """Open the CSV at ``path`` as ``(header, rest)``: its first record,
    read by ``csv.reader``, and a ``CsvRest`` over the lines after it.
    A file that cannot be opened, bytes that are not UTF-8 and ``csv``
    errors (a cell over ``csv.field_size_limit()``, a NUL byte before
    Python 3.11) raise DataError here and in reads within the block.

    The parse workers ``read_chunks`` starts live inside the block: leaving
    it by any path (the end of the file, an error, a closed stdout, an
    interrupt) stops them (``workers.stop``)."""
    try:
        f = open(path, newline="", encoding="utf-8")
    except OSError as e:
        # a missing file, a directory or no permission: one line, no traceback
        raise DataError(str(e)) from None
    with f:
        # a worker's open of a file descriptor would share its offset
        rest = CsvRest(f, path=None if isinstance(path, int) else path)
        try:
            reader = csv.reader(f)
            try:
                header = next(reader, None)
            finally:
                rest.line_num = reader.line_num
            if header is None:
                raise DataError(f"{path}: file is empty")
            rest.width = len(header)
            yield header, rest
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None
        except csv.Error as e:
            raise DataError(f"{path}: line {rest.line_num}: {e}") from None
        finally:
            workers.stop(rest.parsers)


def read_chunks(rest: CsvRest, feature_idx: list[int]):
    """Yield ``(start, lines, records, x, bad)`` for each ``CHUNK_ROWS``
    rows of ``rest``: the data row index of the first, the rows, the
    float64 ``feature_idx`` cells of the good ones and the indices of the
    bad ones. A row is bad if it has other than ``rest.width`` cells or a
    feature that ``float`` rejects or that is not finite.

    Chunks are read as raw lines. While ``_raw_features`` vouches for a
    chunk, it comes as ``lines``, each one good row ending in ``\n``, and
    ``records`` is None. The first chunk it cannot vouch for, and every
    row after it, is read by ``csv.reader`` into ``records`` with
    ``lines`` None: that path alone names bad rows and ``csv`` errors.

    This process reads every line itself. If the first chunk is full and
    raw, ``rest`` names a regular file and more than one core is usable,
    ``_start_parsers`` starts a parse worker for each other core, which
    sends ``(lines, characters, features)`` for each chunk it owns. A
    chunk whose frame is not whole, is for other lines or is not vouched
    for is parsed here, the workers are stopped, and the rest is read as
    with one core; ``open_csv`` stops them whenever its block is left."""
    start = 0
    for c in itertools.count():
        lines = list(itertools.islice(rest.file, CHUNK_ROWS))
        if not lines:
            return
        worker = rest.parsers[c % len(rest.parsers)] if rest.parsers else None
        frame = None if worker is None else workers.receive(worker)
        x = frame[2] if frame and frame[:2] == (len(lines), sum(map(len, lines))) else None
        if x is None:
            x = _raw_features(lines, feature_idx, rest.width)
            # a worker's chunk parsed here, or one that needs csv: one core from here on
            if worker is not None or x is None:
                workers.stop(rest.parsers)
        if x is None:
            yield from _csv_chunks(rest, lines, start, feature_idx)
            return
        if not lines[-1].endswith("\n"):
            lines[-1] += "\n"
        rest.line_num += len(lines)
        if c == 0 and len(lines) == CHUNK_ROWS:
            _start_parsers(rest, feature_idx)
        yield start, lines, None, x, []
        start += len(lines)


def _start_parsers(rest: CsvRest, feature_idx: list[int]) -> None:
    """Start one parse worker for each usable core past the first, for the
    chunks after the ``rest.line_num`` lines read so far; none unless
    ``rest`` names a regular file."""
    parts = workers.usable_cores()
    if parts < 2 or rest.path is None:
        return
    try:
        st = os.fstat(rest.file.fileno())
    except (AttributeError, OSError, ValueError):
        return
    if not stat.S_ISREG(st.st_mode):
        return
    rest.parsers = [None]
    for part in range(1, parts):
        work = functools.partial(
            _parse_part, rest.path, (st.st_dev, st.st_ino), rest.line_num,
            part, parts, feature_idx, rest.width,
        )
        rest.parsers.append(workers.start(work))


def _parse_part(path, file_id, skip: int, part: int, parts: int, feature_idx, width, send):
    """A parse worker: open ``path`` afresh, and if it is still the file
    ``file_id`` names, skip ``skip`` lines and ``send`` ``(lines,
    characters, features)`` for each chunk c after them with c mod
    ``parts`` = ``part``, counting from 1, up to one it cannot vouch for."""
    with open(path, newline="", encoding="utf-8") as f:
        st = os.fstat(f.fileno())
        if (st.st_dev, st.st_ino) != file_id:
            return
        for _ in itertools.islice(f, skip):
            pass
        for c in itertools.count(1):
            lines = list(itertools.islice(f, CHUNK_ROWS))
            if not lines:
                return
            if c % parts != part:
                continue
            x = _raw_features(lines, feature_idx, width)
            send((len(lines), sum(map(len, lines)), x))
            if x is None:
                return


# A chunk holding any of these goes to csv.reader, which (with float) may
# read it otherwise than split(",") and loadtxt: csv's quote and line
# ends, NUL (a csv error before Python 3.11), and the ASCII separators,
# which loadtxt strips as whitespace but float rejects.
_CSV_ONLY = '"\r\0\x1c\x1d\x1e\x1f'


def _raw_features(lines: list[str], feature_idx: list[int], width: int):
    """The float64 ``feature_idx`` cells of raw lines, or None unless every
    line is one record of exactly ``width`` cells that ``csv.reader`` and
    ``float`` would read to the same finite values."""
    text = "".join(lines)
    if (
        not feature_idx
        or any(c in text for c in _CSV_ONLY)
        or max(map(len, lines)) > csv.field_size_limit()
        or set(map(str.count, lines, itertools.repeat(","))) != {width - 1}
    ):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = np.loadtxt(
                lines, dtype=np.float64, delimiter=",", usecols=feature_idx,
                comments=None, ndmin=2,
            )
    except (ValueError, Warning):
        return None
    # loadtxt skips blank lines, which csv reads as empty records.
    if len(x) != len(lines) or not np.isfinite(x).all():
        return None
    return x


def _csv_chunks(rest: CsvRest, lines: list[str], start: int, feature_idx):
    """``read_chunks``' ``csv.reader`` path over ``lines`` and the rest of
    the file."""
    reader = csv.reader(itertools.chain(lines, rest.file))
    base = rest.line_num
    try:
        while records := list(itertools.islice(reader, CHUNK_ROWS)):
            values, parsed, bad = [], [], []
            for i, rec in enumerate(records, start):
                try:
                    if len(rec) != rest.width:
                        raise ValueError
                    values.append([float(rec[j]) for j in feature_idx])
                    parsed.append(i)
                except ValueError:
                    bad.append(i)
            x = np.array(values, dtype=np.float64).reshape(len(values), len(feature_idx))
            finite = np.isfinite(x).all(axis=1)
            bad = sorted([*bad, *itertools.compress(parsed, ~finite)])
            yield start, None, records, x[finite], bad
            start += len(records)
    except csv.Error:
        rest.line_num = base + reader.line_num
        raise


def _csv_line(cells) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cells)
    return out.getvalue()


def _rows_text(rows: np.ndarray, tails: list[tuple], tail_text: dict) -> bytes:
    """The CSV lines of ``rows`` and their label (and category) ``tails``."""
    return "".join(
        [",".join([*map(repr, row), tail_text[tail]]) for row, tail in zip(rows.tolist(), tails)]
    ).encode("utf-8")


def save_csv(ds: LabeledDataset, path, label_column: str = "Label") -> None:
    """Write a dataset back out; floats use shortest round-trip formatting.

    Formatting the floats is nearly all the cost, so the rows are
    formatted in ``workers.ranges``, one contiguous range per usable core;
    the bytes do not depend on the number of ranges.
    """
    header = list(ds.columns) + [label_column]
    labels = [str(int(v)) for v in ds.labels.tolist()]
    if ds.categories is None:
        tails = [(label,) for label in labels]
    else:
        header.append("Attack")
        tails = list(zip(labels, ds.categories))
    # Only a category may need quoting, and the distinct tails are few.
    tail_text = {tail: _csv_line(tail) for tail in set(tails)}
    rows = np.asarray(ds.rows, dtype=np.float64)

    def text(a: int, b: int) -> bytes:
        return _rows_text(rows[a:b], tails[a:b], tail_text)

    with open(path, "wb") as f, contextlib.closing(workers.ranges(len(rows), text)) as texts:
        f.write(_csv_line(header).encode("utf-8"))
        f.writelines(texts)


def fit_scaler(train: np.ndarray) -> ScalerParams:
    """Per-feature min/max, fitted on benign training rows only. A feature
    whose range (max - min) is past the float64 limit cannot be scaled:
    DataError."""
    train = np.asarray(train, dtype=np.float64)
    if train.size == 0:
        raise DataError("cannot fit scaler on empty data")
    mins, maxs = train.min(axis=0), train.max(axis=0)
    # finite ends only: a NaN or an infinity in the rows is apply_scaler's to reject
    with np.errstate(over="ignore", invalid="ignore"):
        over = np.isinf(maxs - mins) & np.isfinite(mins) & np.isfinite(maxs)
    if over.any():
        j = np.flatnonzero(over)[0]
        raise DataError(
            f"feature {j} ranges from {float(mins.flat[j])!r} to {float(maxs.flat[j])!r},"
            " further than a float64 holds"
        )
    return ScalerParams(mins=mins, maxs=maxs)


def check_rows(data, width: int) -> np.ndarray:
    """``data`` as float64, or DataError unless it is a finite (n,
    ``width``) matrix: the rows ``apply_scaler`` takes, which
    ``pipeline.fit`` also checks before it trains."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DataError(f"rows must be an (n, d) matrix, got shape {data.shape}")
    if data.shape[1] != width:
        raise DataError(f"data has {data.shape[1]} features, scaler expects {width}")
    if not np.isfinite(data).all():
        raise DataError("rows hold a value that is not finite (NaN or infinity)")
    return data


def apply_scaler(p: ScalerParams, data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Affine map to [0, 1] with clamping; constant features map to 0.

    ``data`` must be a finite (n, d) matrix, or DataError (``check_rows``):
    ``pipeline.fit``, ``pipeline.score_batch`` and ``evaluation.evaluate``
    scale every row here before they use it. The result goes into ``out``
    if given, and is scaled there in place: one array, ``data`` never
    written unless it is ``out``.
    """
    data = check_rows(data, len(p.mins))
    span = p.maxs - p.mins
    safe = np.where(span > 0.0, span, 1.0)
    # a value near the float64 limit overflows to +-inf, which the clip
    # below maps to 1 or 0; nothing to warn about
    with np.errstate(over="ignore"):
        scaled = np.subtract(data, p.mins, out=out)
        scaled /= safe
    scaled[..., span == 0.0] = 0.0
    return np.clip(scaled, 0.0, 1.0, out=scaled)


def check_fraction(fraction: float) -> None:
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"benign_train_fraction must be in (0, 1), got {fraction}")


def split_benign_indices(
    labels: np.ndarray, fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded split of the benign row indices: the training side, holding
    ``fraction`` of them (rounded; none is a DataError), and the test
    side, which also holds every attack row."""
    check_fraction(fraction)
    benign_idx = np.flatnonzero(labels == 0)
    n_train = int(round(fraction * benign_idx.size))
    if n_train == 0:
        raise DataError(
            f"train fraction {fraction} leaves none of the {benign_idx.size} benign rows"
            " for training"
        )
    order = np.random.default_rng(seed).permutation(benign_idx)
    return order[:n_train], np.concatenate([order[n_train:], np.flatnonzero(labels == 1)])


def synth_generate(
    n_benign: int, n_attack: int, dims: int, shift: float, seed: int
) -> LabeledDataset:
    """Generate a benign cluster pair and shifted/widened attack rows.

    Benign rows come from a two-component isotropic Gaussian mixture
    clamped to [0, 1]; attack rows come from the same mixture translated
    by ``shift`` along a fixed random direction with the component
    spread inflated by (1 + 4 * shift), so shift=0 reproduces the benign
    distribution exactly.
    """
    if n_benign < 1 or n_attack < 1:
        raise ValueError("row counts must be positive")
    if dims < 1:
        raise ValueError("dims must be positive")
    if not (math.isfinite(shift) and shift >= 0):
        raise ValueError(f"shift must be finite and >= 0, got {shift}")
    rng = np.random.default_rng(seed)
    mu = np.stack([rng.uniform(0.42, 0.48, dims), rng.uniform(0.52, 0.58, dims)])
    direction = rng.normal(size=dims)
    direction /= np.linalg.norm(direction)
    sigma = 0.08

    def sample(n: int, offset: np.ndarray, scale: float) -> np.ndarray:
        comp = rng.integers(0, 2, size=n)
        x = mu[comp] + offset + rng.normal(size=(n, dims)) * sigma * scale
        return np.clip(x, 0.0, 1.0)

    benign = sample(n_benign, np.zeros(dims), 1.0)
    attack = sample(n_attack, shift * direction, 1.0 + 4.0 * shift)
    rows = np.vstack([benign, attack])
    labels = np.concatenate([np.zeros(n_benign, np.int64), np.ones(n_attack, np.int64)])
    columns = [f"f{j}" for j in range(dims)]
    categories = ["Benign"] * n_benign + ["Synthetic"] * n_attack
    return LabeledDataset(columns=columns, rows=rows, labels=labels, categories=categories)
