import json

import numpy as np
import pytest

from docnids import cli, data, pipeline
from docnids.hbos import HistogramSet
from docnids.nn import MlpParams


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

    def test_missing_required_flag_exits_2(self, tmp_path):
        assert run(["synth", "--benign", "10"]) == 2


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
# but whose sections disagree with each other.
INCONSISTENT_MODELS = {
    "hist_dim_ne_embedding": _drop_last_hist_dim,
    "scaler_width_ne_input": _drop_last_scaler_feature,
    "zero_bins": _zero_bins,
    "one_dim": lambda m: _set_dims(m, [6]),
    "zero_width_layer": lambda m: _set_dims(m, [6, 0, 4]),
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
        assert len(out) == 1 + 460 and 460 % cli.SCORE_CHUNK_ROWS != 0
        for row_text, x in zip(out[1:], ds.rows):
            parts = row_text.split(",")
            verdict = pipeline.classify(model, x)
            assert float(parts[si]) == verdict.score
            assert parts[vi] == verdict.label

    @pytest.mark.parametrize("bad", ["abc", "nan", "inf", "-inf", "missing"])
    @pytest.mark.parametrize(
        "index",
        [0, cli.SCORE_CHUNK_ROWS - 1, cli.SCORE_CHUNK_ROWS, 459],
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

    def test_empty_input_header_only(self, model_file, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("f0,f1,f2,f3,f4,f5,Label\n")
        assert run(["score", "--model", str(model_file), "--input", str(empty)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert out[0].endswith("score,verdict")

    def test_corrupted_model_exits_4(self, dataset_csv, tmp_path, capsys):
        bad = tmp_path / "bad.doc"
        bad.write_bytes(b"garbage here")
        code = run(["score", "--model", str(bad), "--input", str(dataset_csv)])
        assert code == 4
        assert "not a DOC model file" in capsys.readouterr().err

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

    def test_holdout_protocol(self, dataset_csv, capsys):
        code = run(
            [
                "evaluate", "--input", str(dataset_csv), "--detectors", "hbos",
                "--protocol", "holdout", "--seed", "2",
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "±" not in table

    def test_unknown_detector_exits_2(self, dataset_csv):
        assert run(["evaluate", "--input", str(dataset_csv), "--detectors", "bogus"]) == 2

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

    def test_bad_json_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["report", "--json", str(bad)]) == 3

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
        code = run(
            [
                "train", "--input", str(dataset_csv), "--out", str(tmp_path / "m.doc"),
                "--epochs", "5", "--layer-dims", "6,10,4", "--lr", "1e6",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "--lr" in err and "Traceback" not in err
        assert not (tmp_path / "m.doc").exists()


class TestSeedEnv:
    def test_doc_seed_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DOC_SEED", "77")
        parser = cli.build_parser()
        args = parser.parse_args(
            ["synth", "--benign", "1", "--attack", "1", "--out", "x"]
        )
        # parser defaults are bound at build time; rebuild under the env var
        assert args.seed == 77 or cli._default_seed() == 77
