import importlib.util
import io
import json
import os
import re
import struct
import subprocess
import sys
import warnings
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from docnids import cli, data, evaluation, hbos, nn, pipeline
from docnids.errors import DataError
from docnids.hbos import HistogramSet
from docnids.nn import MlpParams
from docnids.svdd import SvddConfig

from test_data import assert_reaped, count_forks, usable_cores


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "fixture.csv"
    code = run(
        "synth --benign 400 --attack 60 --dims 6 --seed 5 --out".split() + [str(path)]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def model_file(dataset_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m.doc"
    code = run(
        [
            "train",
            "--input", str(dataset_csv),
            "--out", str(path),
            "--epochs", "8",
            "--layer-dims", "6,10,4",
            "--seed", "1",
        ]
    )
    assert code == 0
    return path


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")

# Runs ``body``, which sets ``code``, in a child Python that sees two usable
# cores, so that save_csv forks a worker even on a one-core machine. It exits
# with ``code``, or 99 if any child process of its own is left, reaped or not.
TWO_CORES = """
import os, sys
os.sched_getaffinity = lambda pid: {{0, 1}}
from docnids import cli, data
{body}
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(99)
"""


def run_with_two_cores(body, argv):
    # block-buffered stdout, so that a worker that flushed it would repeat it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", TWO_CORES.format(body=body), *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestSynth:
    def test_row_count(self, dataset_csv):
        lines = dataset_csv.read_text().splitlines()
        assert len(lines) == 1 + 460

    def test_byte_identical_for_same_flags(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            assert run(
                "synth --benign 50 --attack 5 --dims 3 --seed 2 --out".split() + [str(p)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_benign_exits_2(self, tmp_path, capsys):
        code = run(
            "synth --benign 0 --attack 5 --dims 3 --seed 2 --out".split()
            + [str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "--benign" in capsys.readouterr().err

    def test_out_of_memory_exits_2_and_writes_no_file(self, tmp_path, monkeypatch, capsys):
        def synth_generate(*args):
            raise MemoryError

        monkeypatch.setattr(data, "synth_generate", synth_generate)
        out = tmp_path / "x.csv"
        code = run(["synth", "--benign", "100000000000", "--attack", "5", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            "error: not enough memory for 100000000000 + 5 rows of 16 features"
            " (--benign/--attack/--dims)\n"
        )
        assert not out.exists()

    def test_missing_required_flag_exits_2(self, tmp_path):
        assert run(["synth", "--benign", "10"]) == 2

    @pytest.mark.parametrize("shift", ["nan", "inf"])
    def test_non_finite_shift_exits_2(self, tmp_path, capsys, shift):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["synth", "--benign", "20", "--attack", "5", "--shift", shift,
                        "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "--shift" in err
        assert caught == []
        assert not out.exists()

    @needs_fork
    def test_a_failed_worker_changes_nothing(self, tmp_path, monkeypatch, capsys, failing_workers):
        # the range of the failed worker is formatted here
        argv = "synth --benign 50 --attack 5 --dims 3 --out".split()
        usable_cores(monkeypatch, 1)
        assert run(argv + [str(tmp_path / "one_core.csv")]) == 0
        capsys.readouterr()
        usable_cores(monkeypatch, 2)
        pids = count_forks(monkeypatch)
        out = tmp_path / "x.csv"
        code = run(argv + [str(out)])
        assert (code, capsys.readouterr().err) == (0, "")
        assert out.read_bytes() == (tmp_path / "one_core.csv").read_bytes()
        assert len(pids) == 1
        assert_reaped(pids)

    @needs_fork
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_unwritable_out_exits_2_and_leaves_no_worker(self):
        # the parent's own write fails while its worker is blocked on a full pipe
        child = run_with_two_cores(
            "code = cli.main(sys.argv[1:])",
            "synth --benign 20000 --attack 100 --out /dev/full".split(),
        )
        assert child.returncode == 2, child.stderr
        assert child.stderr.startswith("error: cannot write /dev/full: ")
        assert child.stderr.count("\n") == 1
        assert child.stdout == ""

    @needs_fork
    def test_workers_flush_none_of_the_parent_buffers(self, tmp_path):
        child = run_with_two_cores(
            "sys.stdout.write('x')\n"
            "data.save_csv(data.synth_generate(400, 40, 4, 0.6, 1), sys.argv[1])\n"
            "code = 0",
            [str(tmp_path / "x.csv")],
        )
        assert (child.returncode, child.stdout, child.stderr) == (0, "x", "")


# Flags checked before the CSV is read, with the message each gives.
EARLY_FLAG_ERRORS = {
    "train --train-fraction 2": "benign_train_fraction must be in (0, 1), got 2.0",
    "train --bins 0": "bin count must be >= 1, got 0",
    "train --contamination 1": "contamination must be in (0, 1), got 1.0",
    "evaluate --k 1": "k must be >= 2, got 1",
    "evaluate --protocol holdout --train-fraction 0": (
        "benign_train_fraction must be in (0, 1), got 0.0"
    ),
    "evaluate --bins 0": "bin count must be >= 1, got 0",
    "evaluate --contamination 1": "contamination must be in (0, 1), got 1.0",
    "train --layer-dims 6,0,4": "--layer-dims needs two or more dims, each >= 1, got '6,0,4'",
    "train --layer-dims 6": "--layer-dims needs two or more dims, each >= 1, got '6'",
    "evaluate --detectors hbos --layer-dims 6,0,4": (
        "--layer-dims needs two or more dims, each >= 1, got '6,0,4'"
    ),
    "evaluate --layer-dims 6": "--layer-dims needs two or more dims, each >= 1, got '6'",
    "train --seed -1": "--seed (or DOC_SEED) must be >= 0, got -1",
    "evaluate --seed -1": "--seed (or DOC_SEED) must be >= 0, got -1",
}


class TestTrain:
    def test_epochs_zero_still_scores(self, dataset_csv, tmp_path):
        model_path = tmp_path / "m0.doc"
        code = run(
            [
                "train", "--input", str(dataset_csv), "--out", str(model_path),
                "--epochs", "0", "--layer-dims", "6,10,4",
            ]
        )
        assert code == 0
        model = pipeline.load(model_path)
        assert np.isfinite(pipeline.score_batch(model, np.full((1, 6), 0.5))[0])

    def test_missing_input_exits_2(self, tmp_path):
        assert run(["train", "--out", str(tmp_path / "m.doc")]) == 2

    def test_nonexistent_input_exits_3(self, tmp_path):
        code = run(
            ["train", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m")]
        )
        assert code == 3

    def test_flagged_fraction_near_contamination(self, dataset_csv, model_file, capsys):
        code = run(["score", "--model", str(model_file), "--input", str(dataset_csv)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        header = out[0].split(",")
        vi = header.index("verdict")
        li = header.index("Label")
        benign_rows = [r.split(",") for r in out[1:] if r.split(",")[li] == "0"]
        frac = np.mean([r[vi] == "anomaly" for r in benign_rows])
        assert 0.05 <= frac <= 0.15  # contamination default 0.1

    def test_train_fraction_fits_the_rows_split_benign_indices_picks(
        self, dataset_csv, tmp_path, capsys
    ):
        model_path = tmp_path / "m.doc"
        argv = [
            "train", "--input", str(dataset_csv), "--out", str(model_path), "--epochs", "3",
            "--layer-dims", "6,10,4", "--seed", "4", "--train-fraction", "0.6",
        ]
        assert run(argv) == 0
        ds = data.load_csv(dataset_csv)
        train_idx, _ = data.split_benign_indices(ds.labels, 0.6, 4)
        assert f"trained on {len(train_idx)} benign rows" in capsys.readouterr().out
        config = SvddConfig(layer_dims=[6, 10, 4], epochs=3, seed=4)
        expected = tmp_path / "expected.doc"
        (model,) = pipeline.fit(config, ds.rows, [train_idx], ds.columns)
        pipeline.save(model, expected)
        assert model_path.read_bytes() == expected.read_bytes()

    def test_train_fraction_that_trains_on_nothing_exits_3(self, tmp_path, capsys):
        # 0.001 of the pinned table's 270 benign rows rounds to none
        flows = Path(__file__).parent / "pinned" / "flows.csv"
        model_path = tmp_path / "m.doc"
        argv = ["train", "--input", str(flows), "--out", str(model_path), "--epochs", "1",
                "--train-fraction", "0.001"]
        assert run(argv) == 3
        assert capsys.readouterr() == (
            "", "error: train fraction 0.001 leaves none of the 270 benign rows for training\n"
        )
        assert not model_path.exists()

    @pytest.mark.parametrize("fraction", ["0", "1.5"])
    def test_train_fraction_out_of_range_exits_2(self, dataset_csv, tmp_path, capsys, fraction):
        model_path = tmp_path / "m.doc"
        argv = [
            "train", "--input", str(dataset_csv), "--out", str(model_path),
            "--train-fraction", fraction,
        ]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not model_path.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--lr", "nan"), ("--lr", "inf"), ("--weight-decay", "nan"), ("--weight-decay", "inf")],
    )
    def test_non_finite_lr_or_weight_decay_exits_2_before_reading(
        self, dataset_csv, tmp_path, monkeypatch, capsys, command, flag, value
    ):
        def load_csv(*args):
            raise AssertionError("the CSV was read")

        monkeypatch.setattr(data, "load_csv", load_csv)
        model_path = tmp_path / "m.doc"
        argv = ["--input", str(dataset_csv), flag, value]
        argv += ["--out", str(model_path)] if command == "train" else ["--detectors", "hbos"]
        assert run([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err and flag[2:].replace("-", "_") + " must be finite" in err
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "argv", EARLY_FLAG_ERRORS, ids=lambda a: a.replace(" --", "-").replace(" ", "=")
    )
    def test_flags_that_need_no_data_exit_2_before_reading(
        self, dataset_csv, tmp_path, monkeypatch, capsys, argv
    ):
        def load_csv(*args):
            raise AssertionError("the CSV was read")

        monkeypatch.setattr(data, "load_csv", load_csv)
        model_path = tmp_path / "m.doc"
        command, *flags = argv.split()
        flags += ["--input", str(dataset_csv)]
        flags += ["--out", str(model_path)] if command == "train" else []
        assert run([command, *flags]) == 2
        assert capsys.readouterr().err == f"error: {EARLY_FLAG_ERRORS[argv]}\n"
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "flags", ["--train-fraction 0", "--protocol holdout --k 1"], ids=["kfold", "holdout"]
    )
    def test_a_flag_of_the_other_protocol_is_ignored(self, dataset_csv, capsys, flags):
        argv = ["evaluate", "--input", str(dataset_csv), "--k", "3", *flags.split()]
        assert run([*argv, "--epochs", "1", "--detectors", "hbos"]) == 0
        assert capsys.readouterr().err == ""


def _drop_last_hist_dim(m):
    h = m.hist
    m.hist = HistogramSet(lo=h.lo[:-1], hi=h.hi[:-1], k=h.k, heights=h.heights[:-1])


def _drop_last_scaler_feature(m):
    m.scaler = data.ScalerParams(mins=m.scaler.mins[:-1], maxs=m.scaler.maxs[:-1])


def _zero_bins(m):
    h = m.hist
    m.hist = HistogramSet(lo=h.lo, hi=h.hi, k=0, heights=h.heights[:, :0])


def _set_dims(m, dims):
    layers = [np.zeros((o, i)) for i, o in zip(dims[:-1], dims[1:])]
    m.svdd.params = MlpParams(layers=layers, activation=m.svdd.params.activation, layer_dims=dims)


# Each edit leaves a model that `pipeline.save` writes with a valid CRC
# but whose sections disagree with each other, or that holds a NaN.
INCONSISTENT_MODELS = {
    "hist_dim_ne_embedding": _drop_last_hist_dim,
    "scaler_width_ne_input": _drop_last_scaler_feature,
    "zero_bins": _zero_bins,
    "one_dim": lambda m: _set_dims(m, [6]),
    "zero_width_layer": lambda m: _set_dims(m, [6, 0, 4]),
    "nan_threshold": lambda m: setattr(m, "threshold", float("nan")),
}


class TestScore:
    def test_verdicts_match_classify(self, dataset_csv, model_file, capsys):
        assert run(["score", "--model", str(model_file), "--input", str(dataset_csv)]) == 0
        out = capsys.readouterr().out.splitlines()
        model = pipeline.load(model_file)
        ds = data.load_csv(dataset_csv, drop_columns=[])
        header = out[0].split(",")
        si, vi = header.index("score"), header.index("verdict")
        # 460 rows span several chunks and end in a partial one
        assert len(out) == 1 + 460 and 460 % data.CHUNK_ROWS != 0
        for row_text, x in zip(out[1:], ds.rows):
            parts = row_text.split(",")
            # each row scored alone equals the row in its chunk
            score = pipeline.score_batch(model, x[None])[0]
            assert float(parts[si]) == score
            assert parts[vi] == pipeline.verdict_labels(model, score)

    @pytest.mark.parametrize("bad", ["abc", "nan", "inf", "-inf", "missing"])
    @pytest.mark.parametrize(
        "index",
        [0, data.CHUNK_ROWS - 1, data.CHUNK_ROWS, 459],
        ids=["first", "chunk_end", "chunk_start", "last"],
    )
    def test_bad_row_exits_3_after_good_prefix(
        self, dataset_csv, model_file, tmp_path, capsys, index, bad
    ):
        assert run(["score", "--model", str(model_file), "--input", str(dataset_csv)]) == 0
        good_out = capsys.readouterr().out.splitlines(keepends=True)
        lines = dataset_csv.read_text().splitlines(keepends=True)
        fields = lines[1 + index].split(",")
        # "missing" cuts the row short, so a feature column is absent
        lines[1 + index] = "0.5\n" if bad == "missing" else ",".join([bad] + fields[1:])
        corrupt = tmp_path / "corrupt.csv"
        corrupt.write_text("".join(lines))
        code = run(["score", "--model", str(model_file), "--input", str(corrupt)])
        captured = capsys.readouterr()
        assert code == 3
        assert f"unparseable row at index {index}" in captured.err
        assert captured.out == "".join(good_out[: 1 + index])

    # "\x1c1": float rejects it, where np.loadtxt strips the separator
    @pytest.mark.parametrize("bad", ["abc", "nan", "inf", "-inf", "empty", "short", "\x1c1"])
    # the last and first rows of a chunk, and rows 63 and 64 inside one
    @pytest.mark.parametrize(
        "index", sorted({0, 63, 64, data.CHUNK_ROWS - 1, data.CHUNK_ROWS, 459})
    )
    def test_load_csv_and_score_name_the_same_bad_row(
        self, dataset_csv, model_file, tmp_path, capsys, index, bad
    ):
        lines = dataset_csv.read_text().splitlines(keepends=True)
        fields = lines[1 + index].split(",")
        cell = "" if bad == "empty" else bad
        lines[1 + index] = "0.5\n" if bad == "short" else ",".join([cell] + fields[1:])
        corrupt = tmp_path / "corrupt.csv"
        corrupt.write_text("".join(lines))
        with pytest.raises(DataError) as loaded:
            data.load_csv(corrupt)
        first = int(re.search(r"unparseable rows at indices (\d+)", str(loaded.value)).group(1))
        assert run(["score", "--model", str(model_file), "--input", str(corrupt)]) == 3
        assert capsys.readouterr().err == f"error: {corrupt}: unparseable row at index {first}\n"
        assert first == index

    @pytest.mark.parametrize("variant", ["lf", "crlf", "quoted_row_3", "bad_row_300"])
    def test_chunk_size_does_not_change_the_output(
        self, dataset_csv, model_file, tmp_path, capsys, variant
    ):
        lines = dataset_csv.read_text().splitlines(keepends=True)
        if variant == "crlf":
            lines = [line[:-1] + "\r\n" for line in lines]
        elif variant == "quoted_row_3":
            first, rest = lines[1 + 3].split(",", 1)
            lines[1 + 3] = f'"{first}",{rest}'
        elif variant == "bad_row_300":
            lines[1 + 300] = "abc," + lines[1 + 300].split(",", 1)[1]
        flows = tmp_path / "flows.csv"
        flows.write_bytes("".join(lines).encode("utf-8"))
        results = {}
        for chunk in [1, 3, 64, 256, 1000]:
            with mock.patch.object(data, "CHUNK_ROWS", chunk):
                code = run(["score", "--model", str(model_file), "--input", str(flows)])
                out, err = capsys.readouterr()
                try:
                    ds = data.load_csv(flows)
                    loaded = (ds.columns, ds.rows.tobytes(), ds.labels.tolist(), ds.categories)
                except DataError as e:
                    loaded = str(e)
            results[chunk] = (out, err, code, loaded)
        assert all(result == results[1] for result in results.values())
        assert results[1][2] == (3 if variant == "bad_row_300" else 0)
        if variant in ("crlf", "quoted_row_3"):
            assert run(["score", "--model", str(model_file), "--input", str(dataset_csv)]) == 0
            assert results[1][:3] == (capsys.readouterr().out, "", 0)

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_scores_a_pipe(self, dataset_csv, model_file, capsys):
        # A pipe can be read only once: the header and the rows must come
        # from one open, or the rows the header read buffered are lost.
        assert run(["score", "--model", str(model_file), "--input", str(dataset_csv)]) == 0
        expected = capsys.readouterr().out
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        argv = ["score", "--model", str(model_file), "--input", "/dev/stdin"]
        child = subprocess.run(
            [sys.executable, "-m", "docnids.cli", *argv], input=dataset_csv.read_bytes(),
            capture_output=True, env=env, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.decode() == expected

    def test_grows_its_stdout_pipe_and_writes_the_same_bytes(
        self, dataset_csv, model_file, capsys
    ):
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_GETPIPE_SZ"):
            pytest.skip("needs Linux pipe sizes")
        assert run(["score", "--model", str(model_file), "--input", str(dataset_csv)]) == 0
        expected = capsys.readouterr().out
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        argv = ["score", "--model", str(model_file), "--input", str(dataset_csv)]
        child = subprocess.Popen(
            [sys.executable, "-m", "docnids.cli", *argv], stdout=subprocess.PIPE, env=env
        )
        with child.stdout:
            out = child.stdout.read()
            size = fcntl.fcntl(child.stdout.fileno(), fcntl.F_GETPIPE_SZ)
        assert child.wait(timeout=120) == 0
        assert out.decode() == expected
        assert size == cli.STDOUT_PIPE_BYTES

    def test_grow_pipe_never_shrinks_a_pipe_and_leaves_other_outputs(
        self, tmp_path, monkeypatch
    ):
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_GETPIPE_SZ"):
            pytest.skip("needs Linux pipe sizes")
        grown = cli.STDOUT_PIPE_BYTES
        r, w = os.pipe()
        with open(r, "rb"), open(w, "wb") as writer:
            cli._grow_pipe(writer)
            assert fcntl.fcntl(w, fcntl.F_GETPIPE_SZ) == grown
            monkeypatch.setattr(cli, "STDOUT_PIPE_BYTES", grown // 8)
            cli._grow_pipe(writer)
            assert fcntl.fcntl(w, fcntl.F_GETPIPE_SZ) == grown
        with open(tmp_path / "out.csv", "w") as f:
            cli._grow_pipe(f)  # a file has no pipe size
        cli._grow_pipe(io.StringIO())  # nor a descriptor

    def test_values_near_the_float64_limit_score_silently(self, dataset_csv, model_file, tmp_path):
        header, row = dataset_csv.read_text().splitlines()[:2]
        tail = row.split(",")[6:]  # the label and category cells
        rows = [
            ",".join([value] * 6 + tail)
            for value in ("1.7976931348623157e+308", "-1.7976931348623157e+308")
        ]
        flows = tmp_path / "extreme.csv"
        flows.write_text("\n".join([header, *rows]) + "\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        argv = ["score", "--model", str(model_file), "--input", str(flows)]
        child = subprocess.run(
            [sys.executable, "-m", "docnids.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (child.returncode, child.stderr) == (0, "")
        assert len(child.stdout.splitlines()) == 3

    def test_a_row_in_every_tallest_bin_prints_positive_zero(self, dataset_csv, tmp_path, capsys):
        # With one bin per dimension every row lands in the tallest bin,
        # so its score is a sum of log(1 / 1.0) terms.
        model_path = tmp_path / "one_bin.doc"
        argv = [
            "train", "--input", str(dataset_csv), "--out", str(model_path), "--epochs", "1",
            "--layer-dims", "6,10,4", "--bins", "1",
        ]
        assert run(argv) == 0
        capsys.readouterr()
        assert run(["score", "--model", str(model_path), "--input", str(dataset_csv)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 460
        assert all(row.endswith(",0.0,benign") for row in rows)

    def test_empty_input_header_only(self, model_file, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("f0,f1,f2,f3,f4,f5,Label\n")
        assert run(["score", "--model", str(model_file), "--input", str(empty)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert out[0].endswith("score,verdict")

    @pytest.mark.parametrize(
        "header",
        [
            ["f0", "IPV4_SRC_ADDR", "f1", "Attack", "f2", "Label"],
            ["Attack", "f0", "f1", "L4_DST_PORT", "Label", "f2", "Attack"],
        ],
        ids=["dropped_and_attack", "repeated_attack"],
    )
    def test_train_and_score_select_the_same_columns(self, tmp_path, capsys, header):
        r = np.random.default_rng(4)
        text_cells = {"Attack": "Benign", "IPV4_SRC_ADDR": "10.0.0.1", "L4_DST_PORT": "80"}
        lines = [",".join(header)]
        for i in range(120):
            cells = {**text_cells, "Label": str(int(i % 10 == 0))}
            lines.append(",".join(cells.get(h, repr(float(r.random()))) for h in header))
        flows = tmp_path / "flows.csv"
        flows.write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "m.doc"
        train = ["train", "--input", str(flows), "--out", str(model_path), "--epochs", "1"]
        assert run(train) == 0
        columns = data.load_csv(flows).columns
        assert columns == ["f0", "f1", "f2"]
        assert pipeline.load(model_path).schema_hash == pipeline.schema_hash(columns)
        capsys.readouterr()
        assert run(["score", "--model", str(model_path), "--input", str(flows)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 120

    def test_corrupted_model_exits_4(self, dataset_csv, model_file, tmp_path, capsys):
        # a format-1 file: a current one with its version field set to 1
        # and its checksum fixed
        raw = model_file.read_bytes()[:-4]
        version_1 = raw[:4] + struct.pack("<H", 1) + raw[6:]
        version_1 += struct.pack("<I", zlib.crc32(version_1))
        # two layer dims whose product wraps around in int64
        huge = raw[:40] + struct.pack("<3I", 2, 4_000_000_000, 4_000_000_000) + bytes(64)
        huge += struct.pack("<I", zlib.crc32(huge))
        cases = {
            b"garbage here": "not a DOC model file",
            version_1: "unsupported model format version 1",
            huge: "model file is truncated",
        }
        bad = tmp_path / "bad.doc"
        for content, message in cases.items():
            bad.write_bytes(content)
            code = run(["score", "--model", str(bad), "--input", str(dataset_csv)])
            captured = capsys.readouterr()
            assert code == 4
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_schema_mismatch_exits_4(self, model_file, tmp_path):
        other = tmp_path / "other.csv"
        other.write_text("a,b,Label\n1,2,0\n")
        assert run(["score", "--model", str(model_file), "--input", str(other)]) == 4

    @pytest.mark.parametrize("tamper", sorted(INCONSISTENT_MODELS))
    def test_inconsistent_model_exits_4(self, dataset_csv, model_file, tmp_path, capsys, tamper):
        model = pipeline.load(model_file)
        INCONSISTENT_MODELS[tamper](model)
        bad = tmp_path / "bad.doc"
        pipeline.save(model, bad)  # valid checksum over inconsistent sections
        code = run(["score", "--model", str(bad), "--input", str(dataset_csv)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


class TestEvaluate:
    def test_table_and_reports(self, dataset_csv, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        code = run(
            [
                "evaluate", "--input", str(dataset_csv),
                "--detectors", "doc,hbos,pca",
                "--k", "3", "--epochs", "5", "--layer-dims", "6,10,4",
                "--seed", "3", "--out-json", str(out_json),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Accuracy" in stdout and "FAR" in stdout
        assert "seed: 3" in stdout
        payload = json.loads(out_json.read_text())
        assert [r["detector"] for r in payload["reports"]] == ["doc", "hbos", "pca"]
        assert all(len(r["folds"]) == 3 for r in payload["reports"])

    def test_holdout_protocol(self, dataset_csv, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        code = run(
            [
                "evaluate", "--input", str(dataset_csv), "--detectors", "hbos",
                "--protocol", "holdout", "--seed", "2", "--out-json", str(out_json),
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "±" not in table
        # without --layer-dims, the echo names the default dims for 6 features
        (report,) = json.loads(out_json.read_text())["reports"]
        assert report["config"]["layer_dims"] == [6, 32, 8]

    @pytest.mark.parametrize("fraction, side", [("0.999", "testing"), ("0.001", "training")])
    def test_holdout_that_leaves_a_side_empty_exits_3_before_training(
        self, tmp_path, monkeypatch, capsys, fraction, side
    ):
        # the pinned table holds 270 benign rows: 0.999 of them rounds to
        # all 270, and 0.001 to none
        def no_training(*args):
            raise AssertionError("trained before checking the split")

        monkeypatch.setattr(pipeline, "fit", no_training)
        flows = Path(__file__).parent / "pinned" / "flows.csv"
        out_json = tmp_path / "r.json"
        code = run(["evaluate", "--input", str(flows), "--protocol", "holdout",
                    "--train-fraction", fraction, "--out-json", str(out_json)])
        assert code == 3
        assert capsys.readouterr() == (
            "", f"error: train fraction {fraction} leaves none of the 270 benign rows for {side}\n"
        )
        assert not out_json.exists()

    def test_unknown_detector_exits_2(self, dataset_csv):
        assert run(["evaluate", "--input", str(dataset_csv), "--detectors", "bogus"]) == 2

    @pytest.mark.parametrize(
        "detectors, message",
        [
            (",", "names no detector"),
            ("", "names no detector"),
            ("doc,doc", "'doc' more than once"),
            ("hbos,pca,hbos", "'hbos' more than once"),
        ],
        ids=["comma", "empty", "doc_twice", "hbos_twice"],
    )
    def test_empty_or_repeated_detectors_exit_2(self, dataset_csv, capsys, detectors, message):
        assert run(["evaluate", "--input", str(dataset_csv), "--detectors", detectors]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize("detectors", ["hbos", "pca", "doc", "svdd,hbos"])
    def test_layer_dims_not_matching_the_data_exit_2(self, dataset_csv, capsys, detectors):
        # checked before any fold, also when no detector trains a network
        argv = ["evaluate", "--input", str(dataset_csv), "--detectors", detectors]
        assert run(argv + ["--layer-dims", "5,4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: layer_dims[0]=5 does not match data dim 6\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--contamination", "0"], "contamination must be in (0, 1), got 0.0"),
            (["--contamination", "1"], "contamination must be in (0, 1), got 1.0"),
            (["--contamination", "1.5"], "contamination must be in (0, 1), got 1.5"),
            (["--contamination", "-0.2"], "contamination must be in (0, 1), got -0.2"),
            (["--bins", "0", "--detectors", "pca"], "bin count must be >= 1, got 0"),
        ],
        ids=["contamination_0", "contamination_1", "contamination_1.5",
             "contamination_-0.2", "bins_0_pca"],
    )
    def test_out_of_range_contamination_or_bins_exits_2(
        self, dataset_csv, capsys, monkeypatch, flags, message
    ):
        # checked before any fold, also when no detector uses the value
        def no_fold(rows):
            raise AssertionError("a fold started")

        monkeypatch.setattr(evaluation, "fit_scaler", no_fold)
        assert run(["evaluate", "--input", str(dataset_csv)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--lr", "0"], "lr must be finite and positive, got 0.0"),
            (["--epochs", "-1"], "epochs must be >= 0, got -1"),
            (["--batch-size", "0"], "batch_size must be >= 1, got 0"),
            (["--weight-decay", "-1"], "weight_decay must be finite and >= 0, got -1.0"),
        ],
        ids=["lr_0", "epochs_-1", "batch_size_0", "weight_decay_-1"],
    )
    @pytest.mark.parametrize("detectors", ["hbos", "pca"])
    def test_training_flags_exit_2_when_no_detector_trains(
        self, dataset_csv, capsys, flags, message, detectors
    ):
        # the training flags are checked for every detector list
        argv = ["evaluate", "--input", str(dataset_csv), "--detectors", detectors]
        assert run(argv + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        flag_names = "--epochs/--batch-size/--lr/--weight-decay"
        assert captured.err == f"error: invalid training flags ({flag_names}): {message}\n"

    @pytest.mark.parametrize("protocol", ["kfold", "holdout"])
    def test_reports_hold_the_config_evaluate_builds(self, dataset_csv, tmp_path, protocol):
        out_json = tmp_path / "report.json"
        argv = [
            "evaluate", "--input", str(dataset_csv), "--detectors", "svdd,pca",
            "--k", "3", "--epochs", "2", "--lr", "0.01", "--bins", "7",
            "--contamination", "0.2", "--seed", "3", "--protocol", protocol,
            "--out-json", str(out_json),
        ]
        assert run(argv) == 0
        config = SvddConfig(epochs=2, lr=0.01, seed=3)
        reports = evaluation.evaluate(
            data.load_csv(dataset_csv), ["svdd", "pca"], config, bins=7, protocol=protocol,
            k=3, contamination=0.2, seed=3,
        )
        for written, built in zip(json.loads(out_json.read_text())["reports"], reports):
            assert written["config"] == {**built["config"], "input": str(dataset_csv)}

    def test_single_class_exits_3(self, tmp_path):
        only_benign = tmp_path / "benign.csv"
        only_benign.write_text("x,Label\n" + "".join(f"{v},0\n" for v in range(20)))
        assert run(["evaluate", "--input", str(only_benign), "--detectors", "hbos"]) == 3


class TestReport:
    def test_renders_saved_json(self, dataset_csv, tmp_path, capsys):
        out_json = tmp_path / "r.json"
        run(
            [
                "evaluate", "--input", str(dataset_csv), "--detectors", "hbos",
                "--k", "3", "--seed", "1", "--out-json", str(out_json),
            ]
        )
        capsys.readouterr()
        assert run(["report", "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "hbos" in out and "Accuracy" in out

    @pytest.mark.parametrize("protocol", ["kfold", "holdout"])
    def test_rerenders_the_evaluate_table(self, dataset_csv, tmp_path, capsys, protocol):
        out_json, out_table = tmp_path / "r.json", tmp_path / "r.txt"
        argv = [
            "evaluate", "--input", str(dataset_csv), "--detectors", "doc,svdd,hbos,pca",
            "--protocol", protocol, "--k", "3", "--epochs", "2", "--layer-dims", "6,10,4",
            "--out-json", str(out_json), "--out-table", str(out_table),
        ]
        assert run(argv) == 0
        capsys.readouterr()
        assert run(["report", "--json", str(out_json)]) == 0
        assert capsys.readouterr().out == out_table.read_text(encoding="utf-8")

    def test_bad_json_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["report", "--json", str(bad)]) == 3

    @pytest.mark.parametrize("bracket", ["[", '{"reports": ['])
    def test_json_nested_past_the_parsers_limit_exits_3(self, tmp_path, capsys, bracket):
        deep = tmp_path / "deep.json"
        deep.write_text(bracket * 100_000)
        assert run(["report", "--json", str(deep)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {deep}: not a valid report file: maximum recursion depth")

    @pytest.mark.parametrize(
        "case", ["missing_key", "top_level_list", "reports_not_a_list", "summary_missing_metric"]
    )
    def test_malformed_report_exits_3(self, dataset_csv, tmp_path, capsys, case):
        out_json = tmp_path / "r.json"
        run(
            [
                "evaluate", "--input", str(dataset_csv), "--detectors", "hbos",
                "--k", "3", "--seed", "1", "--out-json", str(out_json),
            ]
        )
        capsys.readouterr()
        payload = json.loads(out_json.read_text())
        entry = payload["reports"][0]
        if case == "missing_key":
            del entry["protocol"]
        elif case == "summary_missing_metric":
            del entry["summary"]["auc"]
        elif case == "top_level_list":
            payload = payload["reports"]
        else:
            payload = {"reports": entry}
        out_json.write_text(json.dumps(payload))
        code = run(["report", "--json", str(out_json)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


class TestErrorExits:
    def test_bad_doc_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DOC_SEED", "abc")
        code = run(
            "synth --benign 5 --attack 1 --dims 3 --out".split() + [str(tmp_path / "x.csv")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "DOC_SEED" in err and "Traceback" not in err

    def test_diverged_training_exits_2(self, dataset_csv, tmp_path, capsys):
        # pytest would capture NumPy's overflow warnings away from capsys,
        # so record them here: the error line must be the only report.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(
                [
                    "train", "--input", str(dataset_csv), "--out", str(tmp_path / "m.doc"),
                    "--epochs", "5", "--layer-dims", "6,10,4", "--lr", "1e6",
                ]
            )
        err = capsys.readouterr().err
        assert code == 2
        assert "--lr" in err and "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert not (tmp_path / "m.doc").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_missing_category_cell_exits_3(self, tmp_path, capsys, command):
        flows = tmp_path / "flows.csv"
        flows.write_text("f0,f1,Label,Attack\n0.1,0.2,0,Benign\n0.4,0.3,0\n")
        code = run(_argv(command, flows, tmp_path))
        assert code == 3
        assert capsys.readouterr().err == f"error: {flows}: unparseable rows at indices 1\n"

    # Each row has fewer or more cells than the header. On two cores, row 9
    # is in the reader's chunk, and rows 299 and 499 are in a worker's.
    RAGGED_ROWS = {
        "no_category": (9, lambda cells: cells[:-1]),
        "no_label_or_category": (299, lambda cells: cells[:-2]),
        "one_more_cell": (499, lambda cells: cells + ["x"]),
    }

    @needs_fork
    @pytest.mark.parametrize("row", sorted(RAGGED_ROWS))
    @pytest.mark.parametrize("command", ["train", "evaluate", "score"])
    def test_a_row_of_another_cell_count_exits_3(
        self, model_file, tmp_path, monkeypatch, capsys, command, row
    ):
        flows = tmp_path / "flows.csv"
        assert run(
            "synth --benign 540 --attack 60 --dims 6 --seed 1 --out".split() + [str(flows)]
        ) == 0
        capsys.readouterr()
        assert run(["score", "--model", str(model_file), "--input", str(flows)]) == 0
        good_out = capsys.readouterr().out.splitlines(keepends=True)
        index, edit = self.RAGGED_ROWS[row]
        lines = flows.read_text().splitlines(keepends=True)
        lines[1 + index] = ",".join(edit(lines[1 + index][:-1].split(","))) + "\n"
        flows.write_text("".join(lines))
        results = []
        for cores in [1, 2]:
            usable_cores(monkeypatch, cores)
            code = run(_argv(command, flows, tmp_path, model_file))
            results.append((code, *capsys.readouterr()))
        assert results[1] == results[0]
        code, out, err = results[0]
        assert code == 3
        if command == "score":
            assert err == f"error: {flows}: unparseable row at index {index}\n"
            assert out == "".join(good_out[: 1 + index])
        else:
            assert err == f"error: {flows}: unparseable rows at indices {index}\n"

    # How each line i of the pinned table is edited, the --drop-columns
    # flag, and the one line every command that reads the table exits 3 with.
    HEADERS = {
        # every line ends in a comma
        "empty_last_cell": (
            lambda i, line: line[:-1] + ",\n", None,
            "header cell 8 (counting from 0) has no name",
        ),
        # pandas.DataFrame.to_csv writes its row index in an unnamed column
        "row_index": (
            lambda i, line: f"{i - 1 if i else ''},{line}", None,
            "header cell 0 (counting from 0) has no name",
        ),
        "every_feature_dropped": (
            lambda i, line: line, "f0,f1,f2,f3,f4,f5",
            "no feature column left: the header holds only label, category and dropped columns",
        ),
    }

    @pytest.mark.parametrize("case", sorted(HEADERS))
    @pytest.mark.parametrize("command", ["train", "evaluate", "score"])
    def test_a_header_without_a_usable_feature_exits_3(
        self, model_file, tmp_path, capsys, command, case
    ):
        edit, drop, message = self.HEADERS[case]
        lines = (Path(__file__).parent / "pinned" / "flows.csv").read_text().splitlines(True)
        flows = tmp_path / "flows.csv"
        flows.write_text("".join(edit(i, line) for i, line in enumerate(lines)))
        argv = _argv(command, flows, tmp_path, model_file)
        assert run(argv + (["--drop-columns", drop] if drop else [])) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "m.doc").exists()

    @pytest.mark.parametrize("where", ["header", "late_row"])
    @pytest.mark.parametrize("command", ["train", "evaluate", "score", "report"])
    def test_non_utf8_input_exits_3(
        self, dataset_csv, model_file, tmp_path, capsys, command, where
    ):
        raw = bytearray(dataset_csv.read_bytes())
        # a late row lies past the first 8 KiB, which the header read decodes
        at = raw.index(b"Attack") if where == "header" else raw.index(b"\n", 20_000) + 1
        assert where == "header" or at > 8192
        raw[at] = 0xFF
        flows = tmp_path / "flows.csv"
        flows.write_bytes(bytes(raw))
        code = run(_argv(command, flows, tmp_path, model_file))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: {flows}: not UTF-8 text")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "evaluate", "score"])
    def test_oversized_cell_exits_3(self, dataset_csv, model_file, tmp_path, capsys, command):
        lines = dataset_csv.read_text().splitlines(keepends=True)
        lines[1 + 5] = lines[1 + 5].rsplit(",", 1)[0] + "," + "x" * 140_000 + "\n"
        # a bad row sends load_csv from the whole-table parse to the row reader
        lines[1 + 2] = "abc," + lines[1 + 2].split(",", 1)[1]
        flows = tmp_path / "flows.csv"
        flows.write_text("".join(lines))
        code = run(_argv(command, flows, tmp_path, model_file))
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"error: {flows}: line 7: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_oversized_cell_in_a_clean_table_exits_3(
        self, dataset_csv, tmp_path, capsys, command
    ):
        lines = dataset_csv.read_text().splitlines(keepends=True)
        lines[1 + 5] = lines[1 + 5].rsplit(",", 1)[0] + "," + "x" * 140_000 + "\n"
        flows = tmp_path / "flows.csv"
        flows.write_text("".join(lines))
        code = run(_argv(command, flows, tmp_path))
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"error: {flows}: line 7: field larger than field limit (131072)\n"
        assert not (tmp_path / "m.doc").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "score"])
    def test_a_directory_as_input_exits_3(self, model_file, tmp_path, capsys, command):
        folder = tmp_path / "flows.csv"
        folder.mkdir()
        code = run(_argv(command, folder, tmp_path, model_file))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and str(folder) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_a_model_that_cannot_be_read_exits_3(self, dataset_csv, tmp_path, capsys, kind):
        model = tmp_path / "m.doc"
        if kind == "directory":
            model.mkdir()
        code = run(["score", "--model", str(model), "--input", str(dataset_csv)])
        out, err = capsys.readouterr()
        assert code == 3
        assert err.startswith(f"error: cannot read model {model}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command", ["synth", "evaluate"])
    def test_an_interrupt_exits_130(self, dataset_csv, tmp_path, monkeypatch, capsys, command):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, f"cmd_{command}", interrupted)
        argv = {
            "synth": ["synth", "--benign", "5", "--attack", "1", "--out", str(tmp_path / "x.csv")],
            "evaluate": _argv("evaluate", dataset_csv, tmp_path),
        }[command]
        assert run(argv) == 130
        assert capsys.readouterr().err == "error: interrupted\n"

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "module, name, message",
        [
            (hbos, "fit_histograms", "Unable to allocate 56.8 PiB for an array"),
            (nn, "init_params", "Unable to allocate 42.6 PiB for an array"),
            (nn, "init_params", ""),
        ],
        ids=["histograms", "network", "no_message"],
    )
    def test_running_out_of_memory_exits_2(
        self, dataset_csv, tmp_path, monkeypatch, capsys, command, module, name, message
    ):
        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(module, name, out_of_memory)
        argv = _argv(command, dataset_csv, tmp_path)
        if command == "evaluate":
            argv += ["--detectors", "doc"]  # the network and the histograms
        assert run(argv) == 2
        detail = message or "allocation failed"
        assert capsys.readouterr() == ("", f"error: not enough memory ({detail})\n")
        assert not (tmp_path / "m.doc").exists()

    @pytest.mark.parametrize(
        "command, flag", [("train", "--out"), ("evaluate", "--out-json"), ("evaluate", "--out-table")]
    )
    def test_a_directory_as_output_exits_2(self, dataset_csv, tmp_path, capsys, command, flag):
        folder = tmp_path / "out"
        folder.mkdir()
        code = run([*_argv(command, dataset_csv, tmp_path), flag, str(folder)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot write {folder}: ") and err.count("\n") == 1
        assert list(folder.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_a_feature_range_past_the_float64_limit_exits_3(self, tmp_path, capsys, command):
        # each value is finite, but max - min of feature a overflows
        flows = tmp_path / "flows.csv"
        rows = [f"{a},{i / 10},{int(i >= 8)}\n" for i, a in enumerate(["1e308", "-1e308"] * 5)]
        flows.write_text("a,b,Label\n" + "".join(rows))
        flags = {"train": ["--out", str(tmp_path / "m.doc")], "evaluate": ["--detectors", "hbos"]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run([command, "--input", str(flows), "--epochs", "1", *flags[command]])
        assert code == 3
        assert capsys.readouterr() == (
            "", "error: feature 0 ranges from -1e+308 to 1e+308, further than a float64 holds\n"
        )
        assert [str(w.message) for w in caught] == []

    def test_a_bin_count_past_the_address_space_exits_2(self, dataset_csv, tmp_path, capsys):
        # not patched: 10**15 bins for each of 8 embedding dims is more
        # than a 64-bit address space holds, so the allocation fails at once
        model = tmp_path / "m.doc"
        argv = ["train", "--input", str(dataset_csv), "--out", str(model), "--epochs", "1"]
        assert run(argv + ["--bins", "1000000000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory (") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not model.exists()


FLAG_ERROR_SITES = [
    "doc_seed", "negative_doc_seed", "negative_seed", "layer_dims_text", "training_flags",
    "synth_flags", "synth_memory", "synth_out", "train_out", "evaluate_out_json",
    "evaluate_out_table", "no_detector", "unknown_detector", "repeated_detector", "report_read",
]


def _flag_error(site, csv_path, tmp_path, monkeypatch):
    """The argv of one flag error site and the exact line it prints."""
    missing = tmp_path / "no_such_dir" / "out"
    enoent = f"[Errno 2] No such file or directory: {str(missing)!r}"
    synth = ["synth", "--benign", "20", "--attack", "5", "--dims", "3"]
    train = ["train", "--input", str(csv_path), "--epochs", "1"]
    evaluate = ["evaluate", "--input", str(csv_path), "--k", "2"]
    if site == "doc_seed":
        monkeypatch.setenv("DOC_SEED", "abc")
        return synth + ["--out", str(missing)], "DOC_SEED must be an integer, got 'abc'"
    if site == "negative_doc_seed":
        monkeypatch.setenv("DOC_SEED", "-1")
        return train + ["--out", str(missing)], "--seed (or DOC_SEED) must be >= 0, got -1"
    if site == "synth_memory":
        def synth_generate(*args):
            raise MemoryError

        monkeypatch.setattr(data, "synth_generate", synth_generate)
        return synth + ["--out", str(missing)], (
            "not enough memory for 20 + 5 rows of 3 features (--benign/--attack/--dims)"
        )
    return {
        "layer_dims_text": (
            train + ["--out", str(missing), "--layer-dims", "6,x"],
            "--layer-dims must be comma-separated ints, got '6,x'",
        ),
        "training_flags": (
            train + ["--out", str(missing), "--lr", "0"],
            "invalid training flags (--epochs/--batch-size/--lr/--weight-decay):"
            " lr must be finite and positive, got 0.0",
        ),
        "synth_flags": (
            ["synth", "--benign", "0", "--attack", "5", "--out", str(missing)],
            "invalid synth flags (--benign/--attack/--dims/--shift): row counts must be positive",
        ),
        "negative_seed": (
            synth + ["--seed", "-1", "--out", str(missing)],
            "--seed (or DOC_SEED) must be >= 0, got -1",
        ),
        "synth_out": (synth + ["--out", str(missing)], f"cannot write {missing}: {enoent}"),
        "train_out": (train + ["--out", str(missing)], f"cannot write {missing}: {enoent}"),
        "evaluate_out_json": (
            evaluate + ["--detectors", "hbos", "--out-json", str(missing)],
            f"cannot write {missing}: {enoent}",
        ),
        "evaluate_out_table": (
            evaluate + ["--detectors", "hbos", "--out-table", str(missing)],
            f"cannot write {missing}: {enoent}",
        ),
        "no_detector": (evaluate + ["--detectors", ","], "--detectors names no detector, got ','"),
        "unknown_detector": (
            evaluate + ["--detectors", "hbos,bogus"],
            "unknown detector 'bogus'; choose from ['doc', 'hbos', 'pca', 'svdd']",
        ),
        "repeated_detector": (
            evaluate + ["--detectors", "pca,hbos,pca"], "--detectors names 'pca' more than once"
        ),
        "report_read": (["report", "--json", str(missing)], f"cannot read {missing}: {enoent}"),
    }[site]


class TestFlagErrorLines:
    @pytest.mark.parametrize("site", FLAG_ERROR_SITES)
    def test_each_site_exits_2_with_its_exact_line(
        self, dataset_csv, tmp_path, monkeypatch, capsys, site
    ):
        argv, line = _flag_error(site, dataset_csv, tmp_path, monkeypatch)
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")
        assert not (tmp_path / "no_such_dir").exists()


class TestClosedStdout:
    """A reader that stops reading, as ``| head -1`` does, ends the
    command normally: exit 0, and nothing on stderr."""

    def _run_and_close_stdout(self, argv, read_first_line):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        child = subprocess.Popen(
            [sys.executable, "-m", "docnids.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = child.stdout.readline() if read_first_line else b""
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        return first, child.wait(timeout=120), err.decode()

    def test_score_into_a_closed_pipe_exits_0(self, dataset_csv, model_file, tmp_path):
        # far more output than a pipe holds, so writes go on after the close
        lines = dataset_csv.read_text().splitlines(keepends=True)
        flows = tmp_path / "flows.csv"
        flows.write_text(lines[0] + "".join(lines[1:]) * 20)
        argv = ["score", "--model", str(model_file), "--input", str(flows)]
        first, code, err = self._run_and_close_stdout(argv, read_first_line=True)
        assert first.decode().endswith(",score,verdict\n")
        assert (code, err) == (0, "")

    def test_report_into_a_closed_pipe_exits_0(self, dataset_csv, tmp_path, capsys):
        out_json = tmp_path / "r.json"
        argv = ["evaluate", "--input", str(dataset_csv), "--detectors", "hbos"]
        assert run([*argv, "--k", "3", "--out-json", str(out_json)]) == 0
        capsys.readouterr()
        # the table is one short write, so close before it is written
        argv = ["report", "--json", str(out_json)]
        assert self._run_and_close_stdout(argv, read_first_line=False) == (b"", 0, "")


def _argv(command, flows, tmp_path, model_file=None):
    """``command`` run on ``flows`` with the fewest flags it needs."""
    if command == "report":
        return ["report", "--json", str(flows)]
    extra = {
        "train": ["--out", str(tmp_path / "m.doc"), "--epochs", "1", "--layer-dims", "6,10,4"],
        "evaluate": ["--detectors", "hbos", "--k", "2"],
        "score": ["--model", str(model_file)],
    }[command]
    return [command, "--input", str(flows), *extra]


class TestSeedEnv:
    def test_commands_without_a_seed_ignore_doc_seed(
        self, dataset_csv, model_file, tmp_path, monkeypatch, capsys
    ):
        out_json = tmp_path / "r.json"
        argv = ["evaluate", "--input", str(dataset_csv), "--detectors", "hbos", "--k", "2"]
        assert run([*argv, "--out-json", str(out_json)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("DOC_SEED", "abc")
        assert run(["score", "--model", str(model_file), "--input", str(dataset_csv)]) == 0
        assert run(["report", "--json", str(out_json)]) == 0
        assert capsys.readouterr().err == ""

    def test_doc_seed_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DOC_SEED", "77")
        parser = cli.build_parser()
        args = parser.parse_args(
            ["synth", "--benign", "1", "--attack", "1", "--out", "x"]
        )
        # the seed's default is read from DOC_SEED when the command runs
        assert args.seed == 77 or cli._default_seed() == 77


def run_child(argv, python_flags=(), one_cpu=False):
    """``python -m docnids.cli`` on ``argv`` in a child process, as the
    installed ``docnids`` script runs it. With ``one_cpu``, its affinity
    mask holds one CPU only, as under ``taskset -c 0``."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    cpu = min(os.sched_getaffinity(0))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "docnids.cli", *argv],
        capture_output=True, env=env, timeout=120,
        preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if one_cpu else None,
    )


# Runs ``train`` and ``evaluate`` on the table argv[1] in a fresh
# interpreter and prints their exit codes, and whether numpy.ma was
# imported after numpy alone and after the runs.
TRAIN_AND_EVALUATE = """
import contextlib, io, sys
import numpy
with_numpy = "numpy.ma" in sys.modules
from docnids import cli
with contextlib.redirect_stdout(io.StringIO()):
    train = cli.main(["train", "--input", sys.argv[1], "--out", sys.argv[2], "--epochs", "2"])
    evaluate = cli.main(["evaluate", "--input", sys.argv[1], "--k", "3", "--epochs", "2"])
print(train, evaluate, with_numpy, "numpy.ma" in sys.modules)
"""


def test_train_and_evaluate_import_no_masked_arrays(dataset_csv, tmp_path):
    """``np.quantile`` calls ``np.unique``, which imports all of
    ``numpy.ma``; the threshold is taken without it. (numpy 1.x imports
    ``numpy.ma`` with numpy itself.)"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", TRAIN_AND_EVALUATE, str(dataset_csv), str(tmp_path / "m.doc")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.stderr == ""
    code_train, code_evaluate, with_numpy, after_runs = child.stdout.split()
    assert (code_train, code_evaluate, after_runs) == ("0", "0", with_numpy)


# Runs score (the pinned model on the pinned table) and report (the pinned
# k-fold report) through cli.main in a fresh interpreter and prints their
# exit codes, and whether OpenSSL's _hashlib was imported after numpy
# alone and after the runs.
SCORE_AND_REPORT = """
import contextlib, io, sys
import numpy
with_numpy = "_hashlib" in sys.modules
from docnids import cli
with contextlib.redirect_stdout(io.StringIO()):
    score = cli.main(["score", "--model", sys.argv[1], "--input", sys.argv[2]])
    report = cli.main(["report", "--json", sys.argv[3]])
print(score, report, with_numpy, "_hashlib" in sys.modules)
"""


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this interpreter has no builtin SHA-256 module",
)
def test_score_and_report_import_no_openssl():
    """``hashlib`` loads OpenSSL's libcrypto through ``_hashlib``; the
    schema hash is taken from CPython's builtin SHA-256 instead."""
    pinned = Path(__file__).parent / "pinned"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", SCORE_AND_REPORT,
         *(str(pinned / name) for name in ("model.doc", "flows.csv", "evaluate-kfold.json"))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.stderr == ""
    code_score, code_report, with_numpy, after_runs = child.stdout.split()
    assert (code_score, code_report, after_runs) == ("0", "0", with_numpy)


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity")
class TestChildProcesses:
    """The commands as child processes on the machine's real cores. On two
    or more usable cores, ``synth`` (save_csv), ``score`` (read_chunks on
    a table past one chunk) and ``evaluate`` (svdd.train on a fold stack)
    fork workers here."""

    @pytest.fixture(scope="class")
    def runs(self, model_file, tmp_path_factory):
        """The commands on a 300-row table on every usable core, with the
        DeprecationWarning that Python 3.12 and later give when a process
        with threads forks always shown (not made an error: that warning
        is issued from C, which may drop an error). Row 278 of
        ``flows_bad.csv`` is in a worker's chunk and has no float in its
        first cell."""
        d = tmp_path_factory.mktemp("children")
        flows, bad = d / "flows.csv", d / "flows_bad.csv"
        synth = ["synth", "--benign", "270", "--attack", "30", "--dims", "6", "--seed", "1"]
        warn = ["-W", "always::DeprecationWarning"]
        runs = {"synth": run_child([*synth, "--out", str(flows)], warn)}
        assert runs["synth"].returncode == 0, runs["synth"].stderr.decode()
        lines = flows.read_text().splitlines(keepends=True)
        assert len(lines) == 301 and 1 + 278 > data.CHUNK_ROWS
        lines[1 + 278] = "abc," + lines[1 + 278].split(",", 1)[1]
        bad.write_text("".join(lines))
        for name, table in [("score", flows), ("score_bad", bad)]:
            argv = ["score", "--model", str(model_file), "--input", str(table)]
            runs[name] = run_child(argv, warn)
        evaluate = ["evaluate", "--input", str(flows), "--k", "3", "--epochs", "2"]
        runs["evaluate"] = run_child(evaluate, warn)
        return d, synth, runs

    def test_forking_warns_of_nothing(self, runs):
        d, _, runs = runs
        bad_row = f"error: {d / 'flows_bad.csv'}: unparseable row at index 278\n"
        assert {name: (r.returncode, r.stderr.decode()) for name, r in runs.items()} == {
            "synth": (0, ""), "score": (0, ""), "score_bad": (3, bad_row), "evaluate": (0, ""),
        }

    def test_one_cpu_writes_the_same_bytes(self, runs, model_file):
        d, synth, runs = runs
        one_cpu = d / "flows_one_cpu.csv"
        assert run_child([*synth, "--out", str(one_cpu)], one_cpu=True).returncode == 0
        assert one_cpu.read_bytes() == (d / "flows.csv").read_bytes()
        for name, table in [("score", "flows.csv"), ("score_bad", "flows_bad.csv")]:
            argv = ["score", "--model", str(model_file), "--input", str(d / table)]
            child = run_child(argv, one_cpu=True)
            assert (child.returncode, child.stdout, child.stderr) == (
                runs[name].returncode, runs[name].stdout, runs[name].stderr
            )
