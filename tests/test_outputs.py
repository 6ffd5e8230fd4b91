"""The CLI's outputs on the pinned 300-row table equal the committed ones.

Text that no matrix product touches (headers, the copied input cells,
report keys, verdicts, tp/fp/tn/fn, model dims and the schema hash)
must match exactly. Floats match to 1e-9 relative, as another CPU's BLAS
may sum in another order; no score lies that close to its threshold, so
no verdict or count can flip. ``regenerate_outputs.py`` rewrites the
pinned files after a change that alters an output on purpose.
"""

import csv
import json
import math
import shutil

import numpy as np
import pytest

from docnids import evaluation, pipeline

from regenerate_outputs import PINNED, RUNS, TABLE, produce

RTOL = 1e-9


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    """The outputs of every run, made in a fresh directory, and the
    (train, test) scores of each detector of each fold ``evaluate`` ran."""
    work = tmp_path_factory.mktemp("outputs")
    shutil.copy(PINNED / TABLE, work / TABLE)
    fold_scores = []
    with pytest.MonkeyPatch.context() as mp:
        for name, detector in evaluation.DETECTORS.items():
            def recorded(*args, detector=detector):
                scores = detector(*args)
                fold_scores.append(scores)
                return scores

            mp.setitem(evaluation.DETECTORS, name, recorded)
        produce(work)
    return work, fold_scores


def assert_close(actual, expected, where="$"):
    """``actual`` equals ``expected``, a float only to RTOL relative."""
    if isinstance(expected, float):
        assert isinstance(actual, float), where
        assert math.isclose(actual, expected, rel_tol=RTOL, abs_tol=0.0), where
    elif isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, where


def test_the_pinned_runs_are_the_ones_produce_makes():
    assert sorted(p.name for p in PINNED.iterdir()) == sorted([TABLE, *RUNS])


@pytest.mark.parametrize("name", ["model.doc", "model-fraction.doc"])
def test_model_file(produced, name):
    work, _ = produced
    got, want = pipeline.load(work / name), pipeline.load(PINNED / name)
    assert got.schema_hash == want.schema_hash
    assert got.svdd.params.layer_dims == want.svdd.params.layer_dims
    assert got.svdd.params.activation == want.svdd.params.activation
    assert (got.hist.k, got.contamination) == (want.hist.k, want.contamination)
    pairs = [
        *zip(got.svdd.params.layers, want.svdd.params.layers),
        (got.svdd.center, want.svdd.center),
        (got.scaler.mins, want.scaler.mins),
        (got.scaler.maxs, want.scaler.maxs),
        (got.hist.lo, want.hist.lo),
        (got.hist.hi, want.hist.hi),
        (got.hist.heights, want.hist.heights),
        (got.threshold, want.threshold),
    ]
    for a, e in pairs:
        np.testing.assert_allclose(a, e, rtol=RTOL, atol=0.0)


def test_score_stdout(produced):
    work, _ = produced
    threshold = pipeline.load(PINNED / "model.doc").threshold
    got = list(csv.reader((work / "scored.csv").read_text().splitlines()))
    want = list(csv.reader((PINNED / "scored.csv").read_text().splitlines()))
    assert got[0] == want[0] and want[0][-2:] == ["score", "verdict"]
    assert len(got) == len(want) == 301
    for a, e in zip(got[1:], want[1:]):
        assert a[:-2] == e[:-2] and a[-1] == e[-1]
        # a score is written as the shortest text that reads back as it
        assert a[-2] == repr(float(a[-2]))
        assert math.isclose(float(a[-2]), float(e[-2]), rel_tol=RTOL, abs_tol=0.0)
        assert not math.isclose(float(e[-2]), threshold, rel_tol=RTOL)


@pytest.mark.parametrize("protocol", ["kfold", "holdout"])
def test_evaluate_report(produced, protocol):
    work, _ = produced
    name = f"evaluate-{protocol}.json"
    got = json.loads((work / name).read_text())
    want = json.loads((PINNED / name).read_text())
    assert [r["config"]["input"] for r in want["reports"]] == [TABLE] * 4
    assert_close(got, want)


def test_no_evaluate_score_lies_at_its_threshold(produced):
    _, fold_scores = produced
    # 3 kfold folds and 1 holdout fold, 4 detectors each
    assert len(fold_scores) == (3 + 1) * 4
    for train_scores, test_scores in fold_scores:
        threshold = pipeline.threshold_from_scores(train_scores, 0.1)
        assert not np.isclose(test_scores, threshold, rtol=RTOL, atol=0.0).any()
