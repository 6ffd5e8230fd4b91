import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docnids import data, evaluation, nn, pipeline, svdd
from docnids.errors import DataError
from docnids.evaluation import (
    DETECTORS,
    benign_folds,
    confusion,
    evaluate,
    metrics,
    roc_auc,
)
from docnids.svdd import SvddConfig


def pairwise_auc(labels, scores):
    """Brute force over all positive/negative pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


def trapezoid_auc(labels, scores):
    """Trapezoidal integration of the ROC curve."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    thresholds = np.unique(scores)[::-1]
    n_pos = (labels == 1).sum()
    n_neg = (labels == 0).sum()
    tpr = [0.0]
    fpr = [0.0]
    for t in thresholds:
        preds = scores >= t
        tpr.append(((labels == 1) & preds).sum() / n_pos)
        fpr.append(((labels == 0) & preds).sum() / n_neg)
    # numpy >= 2.0 has np.trapezoid and 2.4 dropped np.trapz, so only
    # look up the old name when the new one is missing.
    integrate = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    return float(integrate(tpr, fpr))


class TestConfusion:
    def test_enumeration(self):
        cm = confusion(np.array([1, 1, 0, 0]), np.array([1, 0, 0, 1]))
        assert (cm["tp"], cm["fn"], cm["tn"], cm["fp"]) == (1, 1, 1, 1)

    def test_all_correct(self):
        cm = confusion(np.array([1, 0]), np.array([1, 0]))
        assert cm["fp"] == 0 and cm["fn"] == 0

    def test_all_predicted_positive(self):
        cm = confusion(np.array([1, 0, 0]), np.array([1, 1, 1]))
        assert cm["tn"] == 0 and cm["fp"] == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.array([1]), np.array([1, 0]))


class TestMetrics:
    def test_dr(self):
        m = metrics({"tp": 90, "fp": 0, "tn": 0, "fn": 10})
        assert m["dr"] == pytest.approx(90.0)

    def test_far(self):
        m = metrics({"tp": 0, "fp": 2, "tn": 98, "fn": 0})
        assert m["far"] == pytest.approx(2.0)

    def test_f1_hand_value(self):
        m = metrics({"tp": 50, "fp": 50, "tn": 0, "fn": 0})
        assert m["precision"] == pytest.approx(50.0)
        assert m["dr"] == pytest.approx(100.0)
        assert m["f1"] == pytest.approx(2 * 100 * 50 / 150)

    def test_zero_denominators_flagged_not_crashing(self):
        m = metrics({"tp": 0, "fp": 0, "tn": 5, "fn": 0})
        assert m["dr"] == 0.0
        assert "dr" in m["undefined"]

    def test_accuracy_consistency(self, rng):
        labels = rng.integers(0, 2, size=50)
        preds = rng.integers(0, 2, size=50)
        m = metrics(confusion(labels, preds))
        assert m["accuracy"] == pytest.approx(100.0 * (labels == preds).mean())


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc(np.array([0, 0, 1, 1]), np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_all_tied_is_half(self):
        assert roc_auc(np.array([0, 1, 0, 1]), np.ones(4)) == 0.5

    def test_hand_value(self):
        auc = roc_auc(np.array([1, 0, 1, 0]), np.array([0.9, 0.8, 0.7, 0.1]))
        assert auc == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc(np.zeros(4), np.arange(4.0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_pairwise_and_trapezoid(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 40))
        labels = r.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(r.normal(size=n), 2)  # rounding forces ties
        auc = roc_auc(labels, scores)
        assert auc == pytest.approx(pairwise_auc(labels, scores), abs=1e-12)
        assert auc == pytest.approx(trapezoid_auc(labels, scores), abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_heavy_ties_match_pairwise_and_trapezoid(self, seed):
        r = np.random.default_rng(seed)
        labels = r.integers(0, 2, size=300)
        scores = r.integers(0, 5, size=300).astype(float)  # five tied blocks
        auc = roc_auc(labels, scores)
        assert auc == pytest.approx(pairwise_auc(labels, scores), abs=1e-12)
        assert auc == pytest.approx(trapezoid_auc(labels, scores), abs=1e-9)

    def test_infinite_scores_tie_like_finite_ones(self):
        labels = np.array([0, 1, 0, 1, 1, 0])
        scores = np.array([-np.inf, -np.inf, 1.0, np.inf, np.inf, np.inf])
        assert roc_auc(labels, scores) == pytest.approx(pairwise_auc(labels, scores), abs=1e-12)

    def test_complement_under_negation(self, rng):
        labels = np.array([0, 1] * 10)
        scores = rng.normal(size=20)
        assert roc_auc(labels, scores) == pytest.approx(1 - roc_auc(labels, -scores))

    def test_invariant_under_monotone_transform(self, rng):
        labels = np.array([0, 1] * 10)
        scores = rng.uniform(size=20)
        assert roc_auc(labels, scores) == pytest.approx(
            roc_auc(labels, np.exp(3 * scores))
        )


@pytest.fixture(scope="module")
def small_ds():
    return data.synth_generate(300, 60, 6, 0.6, seed=8)


class TestKfold:
    def test_benign_folds_partition(self, small_ds):
        folds = benign_folds(small_ds.labels, 5, seed=3)
        joined = np.sort(np.concatenate(folds))
        assert np.array_equal(joined, np.flatnonzero(small_ds.labels == 0))

    def test_folds_are_benign_only(self, small_ds):
        for fold in benign_folds(small_ds.labels, 5, seed=3):
            assert np.all(small_ds.labels[fold] == 0)

    def test_deterministic_reports(self, small_ds):
        (a,) = evaluate(small_ds, ["hbos"], bins=8, k=5, seed=7)
        (b,) = evaluate(small_ds, ["hbos"], bins=8, k=5, seed=7)
        a.pop("wall_seconds"), b.pop("wall_seconds")
        assert a == b

    def test_fold_count_and_percentages(self, small_ds):
        (r,) = evaluate(small_ds, ["hbos"], bins=8, k=5, seed=7)
        assert len(r["folds"]) == 5
        for name, s in r["summary"].items():
            assert 0.0 <= s["mean"] <= 100.0

    def test_rejects_single_class(self):
        ds = data.LabeledDataset(["a"], np.zeros((10, 1)), np.zeros(10, dtype=int))
        with pytest.raises(DataError):
            evaluate(ds, ["hbos"], bins=8, k=2)

    @pytest.mark.parametrize("label", [0, 1], ids=["benign_only", "attack_only"])
    def test_rejects_a_table_of_one_class(self, label):
        ds = data.LabeledDataset(["a"], np.zeros((10, 1)), np.full(10, label))
        with pytest.raises(DataError, match="^evaluation needs both benign and attack rows$"):
            evaluate(ds, ["hbos"], bins=8, k=2)

    @pytest.mark.parametrize("detectors", [["hbos"], ["pca"], ["doc", "svdd"]])
    def test_rejects_layer_dims_that_do_not_fit_the_data(self, small_ds, detectors):
        # checked before any fold, also when no detector trains a network
        with pytest.raises(ValueError, match=r"^layer_dims\[0\]=5 does not match data dim 6$"):
            evaluate(small_ds, detectors, SvddConfig(layer_dims=[5, 4]), k=2)

    def test_each_report_echoes_the_arguments(self, small_ds):
        config = SvddConfig(epochs=1, batch_size=32, lr=0.01, weight_decay=0.0, seed=5)
        reports = evaluate(
            small_ds, ["pca", "hbos"], config, bins=7, protocol="holdout",
            train_fraction=0.6, contamination=0.2, seed=4,
        )
        expected = {
            "layer_dims": [6, 32, 8], "epochs": 1, "batch_size": 32, "lr": 0.01,
            "weight_decay": 0.0, "bins": 7, "contamination": 0.2, "seed": 4,
            "protocol": "holdout", "detectors": ["pca", "hbos"],
        }
        assert [r["config"] for r in reports] == [expected, expected]
        assert reports[0]["config"] is not reports[1]["config"]

    @pytest.mark.parametrize(
        "detectors, message",
        [
            ([], "names no detector"),
            (["hbos", "bogus"], "unknown detector 'bogus'"),
            (["hbos", "hbos"], "'hbos' more than once"),
        ],
        ids=["none", "unknown", "repeated"],
    )
    def test_bad_detector_lists_are_rejected_before_any_fold(
        self, small_ds, monkeypatch, detectors, message
    ):
        def no_fold(*args):
            raise AssertionError("a fold started")

        monkeypatch.setattr(svdd, "train", no_fold)
        monkeypatch.setattr(evaluation, "fit_scaler", no_fold)
        with pytest.raises(ValueError, match=message):
            evaluate(small_ds, detectors, k=2)

    def test_rejects_small_k(self, small_ds):
        with pytest.raises(ValueError):
            evaluate(small_ds, ["hbos"], bins=8, k=1)

    def test_fold_auc_stability_on_fixture(self, fixture_ds):
        (r,) = evaluate(fixture_ds, ["doc"], SvddConfig(seed=0), k=5, seed=0)
        aucs = np.array([f["auc"] for f in r["folds"]])
        assert np.all(np.abs(aucs - aucs.mean()) <= 0.05)

    def test_holdout_single_fold(self, small_ds):
        (r,) = evaluate(
            small_ds, ["hbos"], bins=8, protocol="holdout", train_fraction=0.7, seed=2
        )
        assert r["protocol"] == "holdout"
        assert len(r["folds"]) == 1


PROTOCOLS = {"kfold": {"k": 4}, "holdout": {"protocol": "holdout", "train_fraction": 0.7}}


class TestSharedNetwork:
    """Per fold, one network serves every detector that uses it."""

    config = SvddConfig(epochs=3, seed=1)

    def counted_train(self, monkeypatch):
        calls = []
        real = svdd.train

        def train(config, stack):
            calls.append(stack.shape[:2])
            return real(config, stack)

        monkeypatch.setattr(svdd, "train", train)
        return calls

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_doc_and_svdd_train_once_per_fold(self, small_ds, monkeypatch, protocol):
        calls = self.counted_train(monkeypatch)
        reports = evaluate(small_ds, ["doc", "svdd"], self.config, seed=3, **PROTOCOLS[protocol])
        assert [r["detector"] for r in reports] == ["doc", "svdd"]
        # one stack per training size, holding each fold once
        n_folds = len(reports[0]["folds"])
        assert sum(k for k, _ in calls) == n_folds == (4 if protocol == "kfold" else 1)
        assert len({n for _, n in calls}) == len(calls)

    def test_folds_of_two_training_sizes_score_with_their_own_fits(self, monkeypatch):
        # the pinned table's 270 benign rows in 4 folds train on 202 or 203
        ds = data.load_csv(Path(__file__).parent / "pinned" / "flows.csv")
        folds = benign_folds(ds.labels, 4, 0)
        assert [ds.n_benign - len(f) for f in folds] == [202, 202, 203, 203]
        recorded = []

        def doc(*args):
            recorded.append(evaluation.fit_doc(*args))
            return recorded[-1]

        monkeypatch.setitem(evaluation.DETECTORS, "doc", doc)
        evaluate(ds, ["doc"], self.config, k=4, seed=0)
        monkeypatch.undo()
        attack = np.flatnonzero(ds.labels == 1)
        assert len(recorded) == 4
        for i, (train_scores, test_scores) in enumerate(recorded):
            train_idx = np.concatenate(folds[:i] + folds[i + 1 :])
            (model,) = pipeline.fit(self.config, ds.rows, [train_idx], ds.columns)
            test_rows = ds.rows[np.concatenate([folds[i], attack])]
            assert np.array_equal(train_scores, pipeline.score_batch(model, ds.rows[train_idx]))
            assert np.array_equal(test_scores, pipeline.score_batch(model, test_rows))

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_doc_and_svdd_embed_each_row_set_once_per_fold(
        self, small_ds, monkeypatch, protocol
    ):
        calls = []
        real = nn.forward_batch

        def forward_batch(params, x):
            calls.append(len(x))
            return real(params, x)

        monkeypatch.setattr(nn, "forward_batch", forward_batch)
        reports = evaluate(small_ds, ["doc", "svdd"], self.config, seed=3, **PROTOCOLS[protocol])
        # the center, pipeline.fit's histogram rows, and the fold's
        # training rows and test rows
        assert len(calls) == 4 * len(reports[0]["folds"])

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_no_training_without_a_network_detector(self, small_ds, monkeypatch, protocol):
        calls = self.counted_train(monkeypatch)
        evaluate(small_ds, ["hbos", "pca"], self.config, seed=3, **PROTOCOLS[protocol])
        assert calls == []

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_joint_reports_equal_the_single_detector_ones(self, small_ds, protocol):
        # in either order, so the reports do not depend on the order
        orders = [["doc", "svdd", "hbos", "pca"], ["pca", "hbos", "svdd", "doc"]]

        def report_json(report):
            doc = dict(report, config=dict(report["config"]))
            doc.pop("wall_seconds"), doc["config"].pop("detectors")
            return doc

        kwargs = dict(bins=6, seed=3, **PROTOCOLS[protocol])
        alone = {name: evaluate(small_ds, [name], self.config, **kwargs)[0] for name in orders[0]}
        for names in orders:
            joint = evaluate(small_ds, names, self.config, **kwargs)
            assert [r["detector"] for r in joint] == names
            for name, report in zip(names, joint):
                assert report_json(report) == report_json(alone[name])


class TestNetworkDetectorsMatchTheirScorers:
    """The evaluated ``doc`` and ``svdd`` are the shipped scorers: one
    holdout fold gives the counts and AUC those scorers give on the same
    split."""

    config = SvddConfig(epochs=3, seed=1)
    kwargs = dict(bins=6, contamination=0.1, protocol="holdout", train_fraction=0.7, seed=3)

    @pytest.fixture(scope="class")
    def split(self, small_ds):
        train_idx, test_idx = data.split_benign_indices(small_ds.labels, 0.7, 3)
        train_x = small_ds.rows[train_idx]
        scaler = data.fit_scaler(train_x)
        test = data.LabeledDataset(small_ds.columns, small_ds.rows[test_idx], small_ds.labels[test_idx])
        return train_x, data.apply_scaler(scaler, train_x), scaler, test

    def assert_fold_matches(self, small_ds, name, scores, threshold, test):
        (report,) = evaluate(small_ds, [name], self.config, **self.kwargs)
        (fold,) = report["folds"]
        cm = confusion(test.labels, (scores > threshold).astype(np.int64))
        assert (fold["tp"], fold["fp"], fold["tn"], fold["fn"]) == (
            cm["tp"], cm["fp"], cm["tn"], cm["fn"]
        )
        assert fold["auc"] == roc_auc(test.labels, scores)

    def test_doc_is_pipeline_fit_and_score_batch(self, small_ds, split):
        train_x, _, _, test = split
        (model,) = pipeline.fit(
            self.config, train_x, [np.arange(len(train_x))], small_ds.columns, bins=6,
            contamination=0.1,
        )
        scores = pipeline.score_batch(model, test.rows)
        self.assert_fold_matches(small_ds, "doc", scores, model.threshold, test)

    def test_svdd_is_distance_score_batch(self, small_ds, split):
        _, scaled, scaler, test = split
        (network,) = svdd.train(self.config, scaled[None])

        def distances(x):
            return svdd.distances_sq(svdd.embed_batch(network, x), network.center)

        threshold = pipeline.threshold_from_scores(distances(scaled), 0.1)
        scores = distances(data.apply_scaler(scaler, test.rows))
        self.assert_fold_matches(small_ds, "svdd", scores, threshold, test)


class TestPcaBaseline:
    def test_zero_error_in_exact_subspace(self, rng):
        basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        coeffs = rng.normal(size=(50, 2))
        x = coeffs @ basis
        _, scores = DETECTORS["pca"](x, x, None, 10)
        assert np.allclose(scores, 0.0, atol=1e-18)

    def test_orthogonal_displacement_scores_delta_squared(self, rng):
        basis = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        x = rng.normal(size=(50, 2)) @ basis
        delta = 0.7
        probe = x[0] + np.array([0.0, 0.0, delta])
        _, scores = DETECTORS["pca"](x, probe.reshape(1, -1), None, 10)
        assert scores[0] == pytest.approx(delta**2, abs=1e-10)

    def test_many_components_match_the_projection(self, rng):
        """On a 39-feature table whose variance needs 16 or more components,
        the scores are the residual of projecting on them, to a relative
        1e-12 (another BLAS may give other last bits)."""
        train = rng.normal(size=(4000, 39)) * np.linspace(2.0, 0.5, 39)
        test = rng.normal(size=(500, 39))
        mean = train.mean(axis=0)
        centered = train - mean
        evals, evecs = np.linalg.eigh(centered.T @ centered / (len(train) - 1))
        evals, evecs = evals[::-1], evecs[:, ::-1]
        m = int(np.searchsorted(np.cumsum(evals) / evals.sum(), 0.9) + 1)
        comp = evecs[:, :m]
        assert m >= 16
        for got, x in zip(DETECTORS["pca"](train, test, None, 10), (train, test), strict=True):
            c = x - mean
            want = ((c - c @ comp @ comp.T) ** 2).sum(axis=1)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1, 255, 256, 511, 512, 513, 767, 4000])
    @pytest.mark.parametrize(
        "d, latent", [(16, 3), (39, 3), (39, None)], ids=["16_few", "39_few", "39_many"]
    )
    def test_errors_equal_the_one_pass_formulas(self, n, d, latent):
        """The train and test errors are bit-equal to one pass of the
        formulas ``(c - (c @ comp) @ comp_t) ** 2`` summed per row, with
        fewer than 16 components and with 16 or more."""
        rng = np.random.default_rng(n + d)
        if latent is None:
            train = rng.uniform(size=(n, d))
        else:
            train = rng.normal(size=(n, latent)) @ rng.normal(size=(latent, d))
            train += 0.05 * rng.normal(size=(n, d))
        test = rng.uniform(size=(n + 7, d))
        mean = train.mean(axis=0)
        centered = train - mean
        evals, evecs = np.linalg.eigh(centered.T @ centered / max(n - 1, 1))
        evals, evecs = np.clip(evals[::-1], 0.0, None), evecs[:, ::-1]
        rank = int((evals > 1e-12 * max(evals.sum(), 1.0)).sum())
        m = int(np.searchsorted(np.cumsum(evals) / evals.sum(), 0.9) + 1) if evals.sum() > 0 else 1
        comp = evecs[:, : max(1, min(m, rank or 1))]
        comp_t = np.ascontiguousarray(comp.T)
        assert (comp.shape[1] >= 16) == (latent is None and n > 1)
        got = DETECTORS["pca"](train, test, None, 10)
        for errors, c in zip(got, (centered, test - mean), strict=True):
            want = ((c - (c @ comp) @ comp_t) ** 2).sum(axis=1)
            assert errors.tobytes() == want.tobytes()

    def test_eigenvalues_match_characteristic_polynomial(self):
        # 3x3 case solved independently through the characteristic polynomial
        x = np.array(
            [[1.0, 2.0, 0.5], [0.3, -1.0, 1.5], [2.0, 0.1, -0.7], [-1.2, 0.8, 0.9]]
        )
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (len(x) - 1)
        got = np.sort(np.linalg.eigvalsh(cov))
        coeffs = np.poly(cov)  # characteristic polynomial coefficients
        roots = np.sort(np.roots(coeffs).real)
        assert np.allclose(got, roots, atol=1e-9)


class TestRenderTable:
    def test_columns_in_expected_order(self, rng):
        ds = data.synth_generate(120, 30, 4, 0.6, seed=4)
        (r,) = evaluate(ds, ["hbos"], k=3, seed=0)
        table = evaluation.render_table([r])
        head = table.splitlines()[0]
        assert head.index("Accuracy") < head.index("F1 Score") < head.index("AUC")
        assert head.index("AUC") < head.index("DR") < head.index("FAR")

    def test_json_roundtrip(self, rng):
        ds = data.synth_generate(120, 30, 4, 0.6, seed=4)
        (r,) = evaluate(ds, ["hbos"], k=3, seed=0)
        doc = json.loads(json.dumps(r))
        assert doc == r
        assert doc["detector"] == "hbos"
        assert len(doc["folds"]) == 3
        assert "summary" in doc
