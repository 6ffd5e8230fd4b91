"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantity (run with ``pytest -s`` to see them
inline)."""

import time

import numpy as np
import pytest

from docnids import cli, data, evaluation, hbos, nn, pipeline, svdd
from docnids.svdd import SvddConfig

from test_evaluation import pairwise_auc, trapezoid_auc
from test_hbos import oracle_fit_and_score
from test_nn import kernel_gradients
from test_svdd import objective


def report(line):
    print(f"ACCEPTANCE {line}")


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    h = 1e-5
    lam = 0.01
    worst = 0.0
    for trial in range(20):
        r = np.random.default_rng(1000 + trial)
        params = nn.init_params([8, 16, 4], seed=int(r.integers(1 << 30)))
        x = r.uniform(size=(1, 8))
        c = r.normal(size=4)
        z = nn.forward_batch(params, x)
        analytic = kernel_gradients(params.layers, x, 2.0 * (z - c), params.activation.slope)
        for li, w in enumerate(params.layers):
            for i in range(w.shape[0]):
                for j in range(w.shape[1]):
                    orig = w[i, j]
                    w[i, j] = orig + h
                    up = objective(params, x, c, lam)
                    w[i, j] = orig - h
                    down = objective(params, x, c, lam)
                    w[i, j] = orig
                    fd = (up - down) / (2 * h)
                    a = analytic[li][i, j] + lam * orig
                    worst = max(worst, abs(a - fd) / max(abs(fd), 1e-6))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 5.0
    report(f"1 PASS gradient oracle: max rel err {worst:.2e} in {elapsed:.2f}s")


def test_criterion_2_loss_closed_forms():
    from docnids.nn import Activation, MlpParams

    ident = MlpParams(
        layers=[np.eye(2)], activation=Activation.IDENTITY, layer_dims=[2, 2]
    )
    got1 = objective(ident, np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2), 0.0)
    assert abs(got1 - 1.0) < 1e-10

    got2 = objective(ident, np.array([[0.3, 0.7]]), np.array([0.3, 0.7]), 0.0)
    assert abs(got2) < 1e-10

    frob = MlpParams(
        layers=[np.array([[1.0, 2.0], [3.0, 4.0]])],
        activation=Activation.IDENTITY,
        layer_dims=[2, 2],
    )
    got3 = objective(frob, np.array([[0.0, 0.0]]), np.zeros(2), 2.0)
    assert abs(got3 - 30.0) < 1e-10
    report("2 PASS loss closed forms reproduced to 1e-10")


def test_criterion_3_hbos_oracle_equivalence():
    worst = 0.0
    for trial in range(50):
        r = np.random.default_rng(2000 + trial)
        n = int(r.integers(1, 101))
        d = int(r.integers(1, 5))
        k = int(r.integers(1, 13))
        train = r.uniform(-2, 2, size=(n, d))
        if trial % 5 == 0:
            train[:, 0] = 0.7  # degenerate column
        queries = r.uniform(-4, 4, size=(25, d))  # exercises edge clamping
        h = hbos.fit_histograms(train, k)
        got = hbos.hbos_score_batch(h, queries)
        want = oracle_fit_and_score(train, queries, k)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-12
    report(f"3 PASS hbos oracle equivalence: max abs dev {worst:.2e}")


def test_criterion_4_training_contraction(fixture_scaled):
    scaled, _ = fixture_scaled
    start = time.perf_counter()
    cfg = SvddConfig(seed=0)
    initial_params = nn.init_params(cfg.resolve_dims(scaled.shape[1]), cfg.seed, cfg.activation)
    center = svdd.init_center(initial_params, scaled)
    d_init = svdd.distances_sq(nn.forward_batch(initial_params, scaled), center).mean()
    (model,) = svdd.train(cfg, scaled[None])
    d_final = svdd.distances_sq(nn.forward_batch(model.params, scaled), model.center).mean()
    elapsed = time.perf_counter() - start
    assert d_final <= 0.5 * d_init
    assert elapsed < 60.0
    report(
        f"4 PASS contraction: mean sq distance {d_init:.4f} -> {d_final:.4f} "
        f"(ratio {d_final / d_init:.3f}) in {elapsed:.1f}s"
    )


@pytest.mark.parametrize("gamma", [0.05, 0.1, 0.2])
def test_criterion_5_threshold_property(fixture_ds, gamma):
    benign = fixture_ds.rows[fixture_ds.labels == 0]
    (model,) = pipeline.fit(
        SvddConfig(seed=0), benign, [np.arange(len(benign))], fixture_ds.columns,
        contamination=gamma,
    )
    scores = pipeline.score_batch(model, benign)
    frac = (scores > model.threshold).mean()
    n = len(benign)
    assert gamma - 1.0 / n <= frac <= gamma
    report(f"5 PASS threshold: gamma={gamma} flagged fraction {frac:.4f}")


def test_criterion_6_end_to_end_detection(fixture_ds):
    start = time.perf_counter()
    doc, raw = evaluation.evaluate(
        fixture_ds, ["doc", "hbos"], SvddConfig(seed=0), k=5, contamination=0.1, seed=0
    )
    elapsed = time.perf_counter() - start
    doc_auc = doc["summary"]["auc"]["mean"] / 100.0
    doc_far = doc["summary"]["far"]["mean"]
    raw_far = raw["summary"]["far"]["mean"]
    assert doc_auc >= 0.90
    assert doc_far <= raw_far
    assert elapsed < 300.0
    report(
        f"6 PASS end-to-end: doc AUC {doc_auc:.4f}, doc FAR {doc_far:.2f}% "
        f"<= hbos FAR {raw_far:.2f}%, in {elapsed:.1f}s"
    )


def test_criterion_7_metric_oracles():
    cm = evaluation.confusion(np.array([1, 1, 0, 0]), np.array([1, 0, 0, 1]))
    assert (cm["tp"], cm["fn"], cm["tn"], cm["fp"]) == (1, 1, 1, 1)
    m = evaluation.metrics({"tp": 50, "fp": 50, "tn": 0, "fn": 0})
    assert m["f1"] == pytest.approx(2 * 100 * 50 / 150)
    assert evaluation.metrics({"tp": 90, "fp": 0, "tn": 0, "fn": 10})["dr"] == 90.0
    assert evaluation.metrics({"tp": 0, "fp": 2, "tn": 98, "fn": 0})["far"] == 2.0
    assert evaluation.roc_auc(
        np.array([1, 0, 1, 0]), np.array([0.9, 0.8, 0.7, 0.1])
    ) == pytest.approx(0.75)

    worst = 0.0
    for trial in range(100):
        r = np.random.default_rng(3000 + trial)
        n = int(r.integers(4, 60))
        labels = r.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(r.normal(size=n), 1)
        auc = evaluation.roc_auc(labels, scores)
        worst = max(worst, abs(auc - trapezoid_auc(labels, scores)))
        assert auc == pytest.approx(pairwise_auc(labels, scores), abs=1e-12)
    assert worst < 1e-9
    report(f"7 PASS metric oracles: rank vs trapezoid max dev {worst:.2e}")


def test_criterion_8_protocol_guarantees(fixture_ds):
    k, seed = 5, 0
    folds = evaluation.benign_folds(fixture_ds.labels, k, seed)
    joined = np.sort(np.concatenate(folds))
    assert np.array_equal(joined, np.flatnonzero(fixture_ds.labels == 0))
    for i in range(k):
        train_idx = np.concatenate([f for j, f in enumerate(folds) if j != i])
        assert np.all(fixture_ds.labels[train_idx] == 0)

    (a,) = evaluation.evaluate(fixture_ds, ["hbos"], k=k, seed=seed)
    (b,) = evaluation.evaluate(fixture_ds, ["hbos"], k=k, seed=seed)
    a.pop("wall_seconds"), b.pop("wall_seconds")
    assert a == b
    report("8 PASS protocol: benign-only folds partition; reports reproducible")


def test_criterion_9_serialization(fixture_ds, tmp_path, capsys):
    cfg = SvddConfig(epochs=5, seed=0)
    benign = np.flatnonzero(fixture_ds.labels == 0)
    (model,) = pipeline.fit(cfg, fixture_ds.rows, [benign], fixture_ds.columns)
    path = tmp_path / "model.doc"
    pipeline.save(model, path)
    loaded = pipeline.load(path)
    xs = np.random.default_rng(99).uniform(size=(1000, 16))
    assert np.array_equal(
        pipeline.score_batch(model, xs), pipeline.score_batch(loaded, xs)
    )

    corrupt = tmp_path / "corrupt.doc"
    corrupt.write_bytes(b"NOPE" + path.read_bytes()[4:])
    some_csv = tmp_path / "probe.csv"
    data.save_csv(fixture_ds, some_csv)
    code = cli.main(["score", "--model", str(corrupt), "--input", str(some_csv)])
    capsys.readouterr()
    assert code == 4
    report("9 PASS serialization: bit-identical round trip; corrupt file exits 4")


def test_criterion_10_full_scale_format(tmp_path, capsys):
    # stands in for a user-supplied NetFlow CSV: only the run and the
    # report format are asserted, never any particular metric values
    csv_path = tmp_path / "flows.csv"
    ds = data.synth_generate(600, 80, 8, 0.6, seed=7)
    data.save_csv(ds, csv_path)
    code = cli.main(
        [
            "evaluate", "--input", str(csv_path), "--detectors", "doc,svdd,hbos,pca",
            "--k", "3", "--epochs", "5", "--seed", "0",
            "--out-json", str(tmp_path / "r.json"),
            "--out-table", str(tmp_path / "r.txt"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    header = (tmp_path / "r.txt").read_text().splitlines()[0]
    for col in ["Accuracy", "F1 Score", "AUC", "DR", "FAR"]:
        assert col in header
    assert "not tuned" in out  # caveat printed
    report("10 PASS evaluate completes and emits the reference column format")
