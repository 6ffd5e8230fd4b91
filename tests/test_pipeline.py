import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from docnids import data, evaluation, hbos, pipeline, svdd
from docnids.errors import DataError, ModelFormatError, SchemaMismatchError
from docnids.svdd import SvddConfig


@pytest.fixture(scope="module")
def small_model():
    ds = data.synth_generate(400, 50, 6, 0.6, seed=5)
    benign = np.flatnonzero(ds.labels == 0)
    cfg = SvddConfig(layer_dims=[6, 12, 4], epochs=10, batch_size=64, seed=2)
    (model,) = pipeline.fit(cfg, ds.rows, [benign], ds.columns, bins=8, contamination=0.1)
    return model, ds


class TestFit:
    def test_threshold_flags_about_contamination(self, small_model):
        model, ds = small_model
        benign = ds.rows[ds.labels == 0]
        scores = pipeline.score_batch(model, benign)
        frac = (scores > model.threshold).mean()
        n = len(benign)
        assert 0.1 - 1.0 / n <= frac <= 0.1

    def test_same_seed_identical_serialized(self, tmp_path):
        ds = data.synth_generate(100, 10, 4, 0.6, seed=1)
        benign = np.flatnonzero(ds.labels == 0)
        cfg = SvddConfig(layer_dims=[4, 6, 2], epochs=5, batch_size=32, seed=9)
        for name in ("a", "b"):
            (m,) = pipeline.fit(cfg, ds.rows, [benign], ds.columns, bins=5)
            pipeline.save(m, tmp_path / name)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_rejects_bad_contamination(self, small_model):
        _, ds = small_model
        with pytest.raises(ValueError):
            pipeline.fit(
                SvddConfig(epochs=0), np.zeros((4, 6)), [np.arange(4)], ds.columns,
                contamination=0.0,
            )

    def test_rejects_zero_bins_before_training(self, small_model, monkeypatch):
        _, ds = small_model

        def no_training(config, stack):
            raise AssertionError("trained before checking the bin count")

        monkeypatch.setattr(svdd, "train", no_training)
        with pytest.raises(ValueError, match="bin count must be >= 1, got 0"):
            pipeline.fit(
                SvddConfig(epochs=0), np.zeros((4, 6)), [np.arange(4)], ds.columns, bins=0
            )

    def test_hist_dimension_matches_embedding(self, small_model):
        model, _ = small_model
        assert model.hist.dim == model.svdd.params.layer_dims[-1]


class TestSchemaHash:
    """The schema hash is SHA-256 over the column names joined by ``\\x1f``,
    taken from CPython's builtin module; ``hashlib`` is the oracle."""

    @pytest.mark.parametrize("columns", [
        ["Label"],
        ["Dur", "TotBytes", "SrcPort", "Label"],
        ["durée", "bytes→", "标签", "😀"],
        [f"feature_{i}" for i in range(5_000)],
    ], ids=["one", "several", "non-ascii", "long"])
    def test_equals_hashlib(self, columns):
        expected = hashlib.sha256("\x1f".join(columns).encode("utf-8")).digest()
        assert pipeline.schema_hash(columns) == expected

    def test_falls_back_to_hashlib_without_the_builtin_module(self):
        """A child interpreter in which neither builtin module imports."""
        columns = ["durée", "bytes", "Label"]
        script = (
            "import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from docnids import pipeline\n"
            "print(pipeline.schema_hash(sys.argv[1:]).hex(), '_hashlib' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
        child = subprocess.run(
            [sys.executable, "-c", script, *columns],
            capture_output=True, text=True, env=env, timeout=60,
        )
        expected = hashlib.sha256("\x1f".join(columns).encode("utf-8")).hexdigest()
        assert child.stderr == ""
        assert child.stdout.split() == [expected, "True"]


class TestThresholdFromScores:
    """The threshold is ``np.quantile``'s "linear" (1 - contamination)-
    quantile bit for bit, on the numpy this runs on: a numpy that
    interpolates otherwise fails here rather than moving thresholds."""

    @pytest.mark.parametrize("kind", ["distinct", "ties", "infinities", "nan"])
    def test_equals_numpy_quantile(self, kind):
        rng = np.random.default_rng(len(kind))
        for trial in range(400):
            n = int(rng.integers(1, 12 if trial % 2 else 3000))
            if kind == "ties":
                scores = rng.integers(0, 4, size=n).astype(np.float64)
            else:
                scores = rng.normal(size=n)
            if kind in ("infinities", "nan"):
                hit = rng.random(n) < 0.2
                special = [np.inf, -np.inf, np.nan][: 2 + (kind == "nan")]
                scores[hit] = rng.choice(special, size=hit.sum())
            # 1e-17 leaves 1 - contamination at 1.0: the last index
            contamination = float(rng.choice([0.1, 0.05, 0.5, 0.999, 1e-17, rng.random()]))
            with np.errstate(invalid="ignore"):  # numpy's lerp of inf and inf
                want = float(np.quantile(scores, 1.0 - contamination, method="linear"))
            got = pipeline.threshold_from_scores(scores, contamination)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (scores, contamination)


class TestStackedFit:
    """``fit`` trains the training sets of each length in one stack; each
    model is the one that fitting its set alone gives."""

    cfg = SvddConfig(layer_dims=[6, 12, 4], epochs=4, batch_size=32, seed=3)

    def test_each_model_equals_its_set_fitted_alone(self, small_model, tmp_path):
        _, ds = small_model
        benign = np.random.default_rng(7).permutation(np.flatnonzero(ds.labels == 0))
        sets = [benign[:150], benign[200:350]]
        kwargs = dict(bins=7, contamination=0.2)
        stacked = pipeline.fit(self.cfg, ds.rows, sets, ds.columns, **kwargs)
        assert len(stacked) == 2
        for i, (model, idx) in enumerate(zip(stacked, sets)):
            (alone,) = pipeline.fit(self.cfg, ds.rows, [idx], ds.columns, **kwargs)
            pipeline.save(model, tmp_path / f"stacked{i}")
            pipeline.save(alone, tmp_path / f"alone{i}")
            assert (tmp_path / f"stacked{i}").read_bytes() == (tmp_path / f"alone{i}").read_bytes()

    def test_sets_of_any_lengths_give_each_set_fitted_alone(
        self, small_model, tmp_path, monkeypatch
    ):
        _, ds = small_model
        benign = np.random.default_rng(8).permutation(np.flatnonzero(ds.labels == 0))
        sets = [benign[:5], benign[5:9], benign[9:14]]
        shapes, train = [], svdd.train

        def recorded(config, stack):
            shapes.append(stack.shape)
            return train(config, stack)

        monkeypatch.setattr(svdd, "train", recorded)
        stacked = pipeline.fit(self.cfg, ds.rows, sets, ds.columns, bins=3)
        # one stack per length, in the order the lengths first appear
        assert shapes == [(2, 5, 6), (1, 4, 6)]
        assert len(stacked) == 3
        for i, (model, idx) in enumerate(zip(stacked, sets)):
            (alone,) = pipeline.fit(self.cfg, ds.rows, [idx], ds.columns, bins=3)
            pipeline.save(model, tmp_path / f"stacked{i}")
            pipeline.save(alone, tmp_path / f"alone{i}")
            assert (tmp_path / f"stacked{i}").read_bytes() == (tmp_path / f"alone{i}").read_bytes()

    @pytest.mark.parametrize(
        "sets, message",
        [
            ([], "need one or more training sets, got none"),
            ([np.arange(5), np.array([0, 450])], r"training set 1 must be .* in \[0, 450\)"),
            ([np.array([-1, 3])], r"training set 0 must be .* in \[0, 450\)"),
            ([np.array([], dtype=np.int64)], "training set 0 must be a non-empty array"),
            ([np.array([0.0, 1.0])], "training set 0 must be a non-empty array of row indices"),
        ],
        ids=["empty", "past_the_rows", "negative", "empty_set", "not_integers"],
    )
    def test_bad_training_sets_are_rejected_before_training(
        self, small_model, monkeypatch, sets, message
    ):
        _, ds = small_model

        def no_training(config, stack):
            raise AssertionError("trained before checking the training sets")

        monkeypatch.setattr(svdd, "train", no_training)
        with pytest.raises(ValueError, match=message):
            pipeline.fit(self.cfg, ds.rows, sets, ds.columns)


class TestRowsThatAreNotAFiniteMatrix:
    """``fit``, ``score_batch`` and ``evaluate`` reject rows that hold NaN
    or an infinity, or that are not an (n, d) matrix, as DataError: each
    scales its rows with ``data.apply_scaler`` first. The CLI never gets
    here, because ``read_chunks`` rejects such rows as it reads them."""

    cfg = SvddConfig(epochs=2, batch_size=64, seed=2)
    VALUES = {"nan": np.nan, "inf": np.inf, "minus_inf": -np.inf}
    CASES = [*VALUES, "one_row_as_a_vector", "stacked"]

    def bad_rows(self, rows, case, where):
        """``rows`` made bad as ``case`` says (a value goes into the rows
        ``where`` selects), and the text of the error they raise."""
        if case == "one_row_as_a_vector":
            return rows[..., 0], r"got shape \(\d+,\)"
        if case == "stacked":
            return rows[:, None, :], r"got shape \(\d+, 1, 6\)"
        rows = rows.copy()
        rows[where, 2] = self.VALUES[case]
        return rows, "not finite"

    @pytest.mark.parametrize("case", CASES)
    def test_score_batch(self, small_model, case):
        model, ds = small_model
        rows, message = self.bad_rows(ds.rows[:10], case, [3])
        with pytest.raises(DataError, match=message):
            pipeline.score_batch(model, rows)

    @pytest.mark.parametrize("case", CASES)
    def test_fit_before_training(self, small_model, monkeypatch, case):
        _, ds = small_model

        def no_training(config, stack):
            raise AssertionError("trained on bad rows")

        monkeypatch.setattr(svdd, "train", no_training)
        rows, message = self.bad_rows(ds.rows, case, [7])
        with pytest.raises(DataError, match=message):
            pipeline.fit(self.cfg, rows, [np.arange(20)], ds.columns)

    # a bad value in the benign rows is met in a fold's training rows, and
    # one in the attack rows in its test rows
    @pytest.mark.parametrize("detectors", [["hbos"], ["doc"]])
    @pytest.mark.parametrize(
        "case, label",
        [("nan", 0), ("inf", 1), ("minus_inf", 0), ("one_row_as_a_vector", 0), ("stacked", 0)],
    )
    def test_evaluate(self, small_model, case, label, detectors):
        _, ds = small_model
        rows, message = self.bad_rows(ds.rows, case, ds.labels == label)
        with pytest.raises(DataError, match=message):
            evaluation.evaluate(
                dataclasses.replace(ds, rows=rows), detectors, self.cfg, k=2
            )


class TestScoreAndClassify:
    def test_composition_exactness(self, small_model, rng):
        model, _ = small_model
        x = rng.uniform(size=6)
        scaled = data.apply_scaler(model.scaler, x[None])[0]
        z = svdd.embed_batch(model.svdd, scaled[None])[0]
        assert (
            pipeline.score_batch(model, x[None])[0]
            == hbos.hbos_score_batch(model.hist, z[None])[0]
        )

    def test_single_equals_batch(self, small_model, rng):
        model, _ = small_model
        xs = rng.uniform(size=(10, 6))
        batch = pipeline.score_batch(model, xs)
        singles = [pipeline.score_batch(model, x[None])[0] for x in xs]
        assert np.allclose(batch, singles, atol=0, rtol=0)

    def test_tie_classifies_benign(self, small_model, rng):
        model, _ = small_model
        assert pipeline.verdict_labels(model, model.threshold) == "benign"
        assert pipeline.verdict_labels(model, np.nextafter(model.threshold, np.inf)) == "anomaly"
        # a model whose threshold is exactly one row's score
        scores = pipeline.score_batch(model, rng.uniform(size=(5, 6)))
        tied = dataclasses.replace(model, threshold=float(scores[2]))
        labels = pipeline.verdict_labels(tied, scores)
        assert labels[2] == "benign"
        assert labels == ["anomaly" if s > scores[2] else "benign" for s in scores]

    def test_anomalies_score_above_benign_mean(self, small_model):
        model, ds = small_model
        benign_scores = pipeline.score_batch(model, ds.rows[ds.labels == 0])
        attack_scores = pipeline.score_batch(model, ds.rows[ds.labels == 1])
        assert attack_scores.mean() > benign_scores.mean()

    def test_scoring_does_not_mutate_model(self, small_model, tmp_path, rng):
        model, _ = small_model
        pipeline.save(model, tmp_path / "before")
        pipeline.verdict_labels(model, pipeline.score_batch(model, rng.uniform(size=(50, 6))))
        pipeline.save(model, tmp_path / "after")
        assert (tmp_path / "before").read_bytes() == (tmp_path / "after").read_bytes()


class TestSerialization:
    def test_roundtrip_scores_bit_identical(self, small_model, tmp_path, rng):
        model, _ = small_model
        path = tmp_path / "m.doc"
        pipeline.save(model, path)
        loaded = pipeline.load(path)
        xs = rng.uniform(size=(1000, 6))
        assert np.array_equal(
            pipeline.score_batch(model, xs), pipeline.score_batch(loaded, xs)
        )

    def test_roundtrip_preserves_fields(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.doc"
        pipeline.save(model, path)
        loaded = pipeline.load(path)
        assert loaded.threshold == model.threshold
        assert loaded.contamination == model.contamination
        assert loaded.schema_hash == model.schema_hash
        assert loaded.svdd.params.activation == model.svdd.params.activation
        assert loaded.svdd.params.layer_dims == model.svdd.params.layer_dims
        for a, b in zip(loaded.svdd.params.layers, model.svdd.params.layers, strict=True):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.svdd.center, model.svdd.center)
        assert loaded.hist.k == model.hist.k
        assert np.array_equal(loaded.hist.lo, model.hist.lo)
        assert np.array_equal(loaded.hist.hi, model.hist.hi)
        assert np.array_equal(loaded.hist.heights, model.hist.heights)
        assert np.array_equal(loaded.scaler.mins, model.scaler.mins)
        assert np.array_equal(loaded.scaler.maxs, model.scaler.maxs)

    def test_corrupted_magic(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.doc"
        pipeline.save(model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="not a DOC model file"):
            pipeline.load(path)

    def test_corrupted_payload_fails_checksum(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.doc"
        pipeline.save(model, path)
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="checksum"):
            pipeline.load(path)

    def test_truncated_file(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.doc"
        pipeline.save(model, path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(ModelFormatError):
            pipeline.load(path)

    def test_sizes_past_int64_are_truncated(self, small_model, tmp_path):
        import struct
        import zlib

        model, _ = small_model
        path = tmp_path / "m.doc"
        pipeline.save(model, path)
        # magic, version, schema hash and activation, then two dims whose
        # product of 1.6e19 weights wraps around in int64
        raw = path.read_bytes()[:40] + struct.pack("<3I", 2, 4_000_000_000, 4_000_000_000)
        raw += bytes(64)
        path.write_bytes(raw + struct.pack("<I", zlib.crc32(raw)))
        with pytest.raises(ModelFormatError, match="^model file is truncated$"):
            pipeline.load(path)

    @pytest.mark.parametrize("version", [1, 99])
    def test_version_mismatch(self, small_model, tmp_path, version):
        import struct
        import zlib

        model, _ = small_model
        path = tmp_path / "m.doc"
        pipeline.save(model, path)
        raw = bytearray(path.read_bytes())[:-4]
        raw[4:6] = struct.pack("<H", version)
        raw += struct.pack("<I", zlib.crc32(bytes(raw)))
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match=f"unsupported model format version {version}$"):
            pipeline.load(path)

    @pytest.mark.parametrize("field", ["threshold", "scaler_min", "weight", "heights"])
    def test_a_value_that_is_not_finite_is_refused(self, small_model, tmp_path, field):
        # the checksum is written over the bad value, so it matches
        model, _ = small_model
        nan = float("nan")
        if field == "threshold":
            model = dataclasses.replace(model, threshold=nan)
        elif field == "scaler_min":
            mins = model.scaler.mins.copy()
            mins[2] = nan
            model = dataclasses.replace(model, scaler=dataclasses.replace(model.scaler, mins=mins))
        elif field == "weight":
            layers = [w.copy() for w in model.svdd.params.layers]
            layers[0][0, 0] = np.inf
            params = dataclasses.replace(model.svdd.params, layers=layers)
            model = dataclasses.replace(model, svdd=dataclasses.replace(model.svdd, params=params))
        else:
            heights = model.hist.heights.copy()
            heights[0, 0] = -np.inf
            model = dataclasses.replace(model, hist=dataclasses.replace(model.hist, heights=heights))
        path = tmp_path / "m.doc"
        pipeline.save(model, path)
        with pytest.raises(ModelFormatError, match="^model file holds a value that is not finite$"):
            pipeline.load(path)

    def test_schema_mismatch_refused(self, small_model):
        model, ds = small_model
        with pytest.raises(SchemaMismatchError):
            pipeline.check_schema(model, ["other"] * len(ds.columns))
        pipeline.check_schema(model, ds.columns)  # does not raise
