"""The error contract, checked on generated input.

Every command, given bad flag values, CSV bytes, report files or damaged
model files, exits 0, 2, 3 or 4 with no traceback and no warning: stderr
is empty on exit 0 and holds at most one ``error:`` line otherwise. The
library's entry points raise only ValueError (DataError and
ModelFormatError among them) or TrainingDivergedError on bad input.

Everything runs in this process. Each test draws a fixed number of
examples (its ``settings``), the same ones on every run
(``derandomize``). The flag values are small or far past what any
machine can allocate, never sizes that would run long or fill memory.
"""

import contextlib
import io
import json
import re
import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docnids import cli, data, evaluation, pipeline
from docnids.errors import DataError, TrainingDivergedError
from docnids.svdd import SvddConfig

# The errors a library entry point may raise on bad input.
CONTRACT_ERRORS = (ValueError, TrainingDivergedError)

# Far past any address space: an allocation this size fails at once.
HUGE = str(10**15)

# Each flag's good values and bad ones.
FLAG_VALUES = {
    "--epochs": (["0", "1", "2"], ["-1", "x", "1.5", ""]),
    "--batch-size": (["1", "7", HUGE], ["0", "-1", "x"]),
    "--lr": (["0.01", "1e6"], ["0", "-1", "nan", "inf", "x"]),
    "--weight-decay": (["0", "0.001"], ["-1", "nan", "inf"]),
    "--layer-dims": (["3,4,2", "3,2"], ["3", "3,0", "4,2", "x", ",", "", f"3,{HUGE}"]),
    "--activation": (["rectifier", "identity", "leaky-rectifier"], ["tanh"]),
    "--bins": (["1", "3"], ["0", "-1", "x", HUGE]),
    "--contamination": (["0.1", "0.5"], ["0", "1", "nan", "-0.1", "x"]),
    "--seed": (["0", "7", str(2**64 + 1)], ["-1", "x"]),
    "--train-fraction": (["0.5", "0.9"], ["0", "1", "nan", "x"]),
    "--k": (["2", "3"], ["1", "0", "x", HUGE]),
    "--protocol": (["kfold", "holdout"], ["x"]),
    "--detectors": (
        ["hbos", "pca", "doc", "svdd", "doc,svdd,hbos,pca"], [",", "", "x", "hbos,hbos"]
    ),
    "--label-column": (["Label"], ["Attack", "f0", "", "missing"]),
    "--category-column": (["Attack"], ["Label", "", "missing"]),
    "--drop-columns": (["", "f0"], ["f0,f1,f2", "Label", ","]),
    "--benign": (["2", "30"], ["0", "-1", "x", HUGE]),
    "--attack": (["1", "5"], ["0", "x", HUGE]),
    "--dims": (["1", "3"], ["0", "-2", "x", HUGE]),
    "--shift": (["0", "0.6"], ["-1", "nan", "inf", "x"]),
}


def flag_value(flag):
    """A value for ``flag``, good more often than not."""
    good, bad = FLAG_VALUES[flag]
    return st.sampled_from(good) | st.sampled_from(good + bad)


CSV_FLAGS = ["--label-column", "--category-column", "--drop-columns"]
MODEL_FLAGS = [
    "--epochs", "--batch-size", "--lr", "--weight-decay", "--layer-dims", "--activation",
    "--bins", "--contamination",
]
# Each command's optional flags; its required ones are drawn apart.
COMMAND_FLAGS = {
    "synth": ["--dims", "--shift", "--seed"],
    "train": ["--seed", "--train-fraction", *CSV_FLAGS, *MODEL_FLAGS],
    "score": CSV_FLAGS,
    "evaluate": [
        "--detectors", "--k", "--protocol", "--train-fraction", "--seed", *CSV_FLAGS,
        *MODEL_FLAGS,
    ],
    "report": [],
}

HEADER_CELLS = ["f0", "f1", "f2", "Label", "Attack", "", "IPV4_SRC_ADDR", '"f0"', "f0"]
NUMBERS = ["0.5", "1", "0", "-2.5e3", "0.25", "7", "1e308", "-1e308"]
LABELS = ["0", "0", "1", "Benign", "DoS", "benign"]
CATEGORIES = ["Benign", "DoS", '"Port, scan"']
# Cells that float, csv.reader and np.loadtxt might each read otherwise.
ODD_CELLS = ["nan", "inf", "-inf", "", "abc", '"0.5"', "\x1c1", "\x00", "1_0", " 3 ", '"a\nb"']


@st.composite
def csv_bytes(draw):
    """A small table, with the good table's header or any other, of rows
    of the header's width with a few odd cells, short or long rows; or
    bytes that may not be UTF-8 or CSV at all."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.binary(max_size=300))
    header = draw(
        st.just(["f0", "f1", "f2", "Label", "Attack"])
        | st.lists(st.sampled_from(HEADER_CELLS), min_size=1, max_size=6)
    )
    pools = {"Label": LABELS, "Attack": CATEGORIES}
    rows = [
        [draw(st.sampled_from(pools.get(name, NUMBERS))) for name in header]
        for _ in range(draw(st.integers(0, 30)))
    ]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["cell", "short", "long"]))
        if kind == "cell" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
        elif kind == "short" and row:
            del row[draw(st.integers(0, len(row) - 1)):]
        else:
            row.append(draw(st.sampled_from(NUMBERS)))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = end.join(",".join(cells) for cells in [header, *rows])
    return (text + draw(st.sampled_from([end, ""]))).encode("utf-8")


@st.composite
def damaged(draw, good: bytes):
    """``good`` cut short, or with one byte flipped, and then perhaps its
    checksum made to match again, so the structural checks see it."""
    raw = bytearray(good)
    how = draw(st.sampled_from(["truncate", "flip", "flip_and_checksum"]))
    if how == "truncate":
        return bytes(raw[: draw(st.integers(0, len(raw) - 1))])
    at = draw(st.integers(0, len(raw) - 1 - 4 * (how == "flip_and_checksum")))
    raw[at] ^= draw(st.integers(1, 255))
    if how == "flip_and_checksum":
        raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[:-4])))
    return bytes(raw)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3)
    ),
    max_leaves=8,
)


@st.composite
def report_bytes(draw, good: dict):
    """A saved report with one value replaced, any JSON value, JSON nested
    past the parser's recursion limit, or bytes."""
    kind = draw(st.sampled_from(["edited", "edited", "json", "deep", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    if kind == "deep":
        return b"[" * draw(st.integers(10_000, 200_000))
    if kind == "json":
        return json.dumps(draw(JSON_VALUES)).encode("utf-8")
    doc = json.loads(json.dumps(good))
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        if not isinstance(node[key], (dict, list)) or not node[key] or draw(st.booleans()):
            node[key] = draw(JSON_VALUES)
            break
        node = node[key]
    return json.dumps(doc).encode("utf-8")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A good table of 3 features, a model and a report made from it, and
    a folder for the files each example writes."""
    d = tmp_path_factory.mktemp("contract")
    table, model, report = d / "flows.csv", d / "m.doc", d / "report.json"
    data.save_csv(data.synth_generate(40, 8, 3, 0.6, seed=1), table)
    assert cli.main(["train", "--input", str(table), "--out", str(model), "--epochs", "1"]) == 0
    argv = ["evaluate", "--input", str(table), "--k", "2", "--epochs", "1", "--out-json"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + [str(report)]) == 0
    (d / "folder").mkdir()
    return d


def run_cli(argv):
    """``cli.main(argv)`` in this process: its exit code and stderr, and
    the message of every warning it raised, which would print to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


def path_to(draw, files, name, content):
    """A path for a file the command reads: the good one, one holding
    ``content``, a folder, or one that does not exist."""
    kind = draw(st.sampled_from(["good", "good", "drawn", "drawn", "folder", "missing"]))
    if kind == "drawn":
        (files / f"drawn-{name}").write_bytes(draw(content))
        return str(files / f"drawn-{name}")
    return str({"good": files / name, "folder": files / "folder"}.get(kind, files / "missing"))


def out_path(draw, files):
    """A path for a file the command writes."""
    return draw(st.sampled_from(
        [str(files / "out"), str(files / "folder"), str(files / "missing" / "out"), "/dev/full"]
    ))


class TestCommands:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(draw=st.data(), command=st.sampled_from(sorted(COMMAND_FLAGS)))
    def test_every_exit_keeps_the_contract(self, files, draw, command):
        draw = draw.draw
        argv = [command]
        for flag in COMMAND_FLAGS[command]:
            if draw(st.integers(0, 3)) == 0:  # about one flag in four
                argv += [flag, draw(flag_value(flag))]
        if command == "report":
            good = json.loads((files / "report.json").read_text())
            argv += ["--json", path_to(draw, files, "report.json", report_bytes(good))]
        elif command == "synth":
            for flag in ["--benign", "--attack"]:
                argv += [flag, draw(flag_value(flag))]
            argv += ["--out", out_path(draw, files)]
        else:
            argv += ["--input", path_to(draw, files, "flows.csv", csv_bytes())]
            if command == "score":
                good = (files / "m.doc").read_bytes()
                argv += ["--model", path_to(draw, files, "m.doc", damaged(good))]
            elif command == "train":
                argv += ["--out", out_path(draw, files)]
            else:
                argv += draw(st.sampled_from([[], ["--out-json", out_path(draw, files)]]))
        code, err, caught = run_cli(argv)
        assert code in (0, 2, 3, 4), (argv, err)
        assert caught == [], argv
        assert "Traceback" not in err
        if code == 0:
            assert err == "", argv
        else:
            # argparse's own errors come after its usage line
            lines = err.splitlines()
            assert [line for line in lines if "error: " in line] == lines[-1:], (argv, err)


# Rows of a shape and values drawn for the library entry points.
VALUES = st.sampled_from([0.0, 0.5, 1.0, -3.0, 1e308, -1e308, np.nan, np.inf, -np.inf])


@st.composite
def row_arrays(draw, d):
    """A (n, d) float array, mostly finite, or one of another shape."""
    n = draw(st.integers(0, 12))
    shape = draw(st.sampled_from([(n, d), (n, d), (n, d), (n,), (n, 1, d)]))
    rows = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(size=shape)
    for _ in range(draw(st.integers(0, 2))):
        if rows.size:
            rows.flat[draw(st.integers(0, rows.size - 1))] = draw(VALUES)
    return rows


CONFIGS = st.builds(
    SvddConfig,
    layer_dims=st.sampled_from([None, [3, 2], [3, 4, 2], [2, 2], [3, 0]]),
    epochs=st.sampled_from([0, 1, 2, -1]),
    batch_size=st.sampled_from([1, 4, 256, 0]),
    lr=st.sampled_from([0.01, 1e6, 0.0, np.nan]),
    weight_decay=st.sampled_from([0.0, 1e-3, -1.0, np.inf]),
    seed=st.sampled_from([0, 3]),
)
BINS = st.sampled_from([1, 3, 10, 0, -1])
CONTAMINATIONS = st.sampled_from([0.1, 0.5, 0.0, 1.0, np.nan])
LIBRARY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


class TestLibrary:
    @LIBRARY_SETTINGS
    @given(text=csv_bytes(), drop=st.sampled_from([None, [], ["f0"], ["f0", "f1", "f2"]]))
    def test_load_csv(self, files, text, drop):
        p = files / "library.csv"
        p.write_bytes(text)
        with contextlib.suppress(*CONTRACT_ERRORS):
            ds = data.load_csv(p, drop_columns=drop)
            assert ds.rows.ndim == 2 and np.isfinite(ds.rows).all()
            assert len(ds.rows) == len(ds.labels) > 0

    @LIBRARY_SETTINGS
    @given(draw=st.data(), config=CONFIGS, bins=BINS, contamination=CONTAMINATIONS)
    def test_fit(self, draw, config, bins, contamination):
        draw = draw.draw
        rows = draw(row_arrays(d=3))
        n = len(rows)
        sets = draw(st.lists(
            st.lists(st.integers(-2, n + 1), max_size=8).map(np.array)
            | st.sampled_from([np.arange(n), np.array([0.0, 1.0]), np.ones(n, dtype=bool)]),
            max_size=3,
        ))
        with contextlib.suppress(*CONTRACT_ERRORS):
            models = pipeline.fit(config, rows, sets, ["f0", "f1", "f2"], bins, contamination)
            assert len(models) == len(sets)

    @LIBRARY_SETTINGS
    @given(draw=st.data())
    def test_load(self, files, draw):
        p = files / "library.doc"
        p.write_bytes(draw.draw(damaged((files / "m.doc").read_bytes())))
        with contextlib.suppress(*CONTRACT_ERRORS):
            pipeline.load(p)

    @LIBRARY_SETTINGS
    @given(draw=st.data())
    def test_score_batch(self, files, draw):
        model = pipeline.load(files / "m.doc")
        rows = draw.draw(row_arrays(d=draw.draw(st.sampled_from([3, 3, 2, 4]))))
        with contextlib.suppress(*CONTRACT_ERRORS):
            scores = pipeline.score_batch(model, rows)
            # no error: every row scored, finite
            assert scores.shape == (len(rows),) and np.isfinite(scores).all()

    @LIBRARY_SETTINGS
    @given(
        draw=st.data(), config=CONFIGS, bins=BINS, contamination=CONTAMINATIONS,
        detectors=st.sampled_from([["hbos"], ["pca"], ["doc", "svdd"], [], ["x"], ["doc", "doc"]]),
        protocol=st.sampled_from(["kfold", "holdout", "x"]),
        k=st.sampled_from([2, 3, 1, 10**15]),
        train_fraction=st.sampled_from([0.5, 0.0, 1.0, 0.01]),
    )
    def test_evaluate(
        self, draw, config, bins, contamination, detectors, protocol, k, train_fraction
    ):
        draw = draw.draw
        rows = draw(row_arrays(d=3))
        labels = np.array(draw(st.lists(st.sampled_from([0, 0, 1]), min_size=len(rows),
                                        max_size=len(rows))), dtype=np.int64)
        ds = data.LabeledDataset(["f0", "f1", "f2"], rows, labels)
        with contextlib.suppress(*CONTRACT_ERRORS):
            reports = evaluation.evaluate(
                ds, detectors, config, bins=bins, protocol=protocol, k=k,
                train_fraction=train_fraction, contamination=contamination, seed=0,
            )
            assert [r["detector"] for r in reports] == detectors

    @pytest.mark.parametrize(
        "rows_shape, labels_shape",
        [((1, 70, 4), (70,)), ((450,), (450,)), ((70, 4), (69,)), ((70, 4), (70, 1))],
        ids=["stacked_rows", "one_dim_rows", "a_label_short", "labels_in_a_column"],
    )
    def test_evaluate_names_shapes_it_cannot_pair(self, rows_shape, labels_shape):
        rows = np.random.default_rng(0).uniform(size=rows_shape)
        labels = np.arange(np.prod(labels_shape)).reshape(labels_shape) % 2
        ds = data.LabeledDataset(["f0", "f1", "f2", "f3"], rows, labels)
        shapes = f"got shape {rows_shape} with labels of shape {labels_shape}"
        with pytest.raises(DataError, match=re.escape(shapes) + "$"):
            evaluation.evaluate(ds, ["doc", "pca"], SvddConfig(layer_dims=[4, 2], epochs=1), k=2)
