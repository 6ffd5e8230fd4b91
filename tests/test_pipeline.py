import numpy as np
import pytest

from docnids import data, hbos, pipeline, svdd
from docnids.errors import ModelFormatError, SchemaMismatchError
from docnids.svdd import SvddConfig


@pytest.fixture(scope="module")
def small_model():
    ds = data.synth_generate(400, 50, 6, 0.6, seed=5)
    benign = ds.rows[ds.labels == 0]
    scaler = data.fit_scaler(benign)
    scaled = data.apply_scaler(scaler, benign)
    cfg = SvddConfig(layer_dims=[6, 12, 4], epochs=10, batch_size=64, seed=2)
    return pipeline.fit(cfg, scaled, scaler, ds.columns, bins=8, contamination=0.1), ds


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
        benign = ds.rows[ds.labels == 0]
        scaler = data.fit_scaler(benign)
        scaled = data.apply_scaler(scaler, benign)
        cfg = SvddConfig(layer_dims=[4, 6, 2], epochs=5, batch_size=32, seed=9)
        for name in ("a", "b"):
            m = pipeline.fit(cfg, scaled, scaler, ds.columns, bins=5)
            pipeline.save(m, tmp_path / name)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_rejects_bad_contamination(self, small_model):
        _, ds = small_model
        with pytest.raises(ValueError):
            pipeline.fit(SvddConfig(epochs=0), np.zeros((4, 6)), None, ds.columns, contamination=0.0)

    def test_hist_dimension_matches_embedding(self, small_model):
        model, _ = small_model
        assert model.hist.dim == model.svdd.params.layer_dims[-1]


class TestScoreAndClassify:
    def test_composition_exactness(self, small_model, rng):
        model, _ = small_model
        x = rng.uniform(size=6)
        scaled = data.apply_scaler(model.scaler, x)
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
        v = pipeline.Verdict(score=model.threshold, label="")
        # classify goes through score_batch; check the decision rule directly
        assert ("anomaly" if v.score > model.threshold else "benign") == "benign"
        x = rng.uniform(size=6)
        verdict = pipeline.classify(model, x)
        assert verdict.label == ("anomaly" if verdict.score > model.threshold else "benign")

    def test_anomalies_score_above_benign_mean(self, small_model):
        model, ds = small_model
        benign_scores = pipeline.score_batch(model, ds.rows[ds.labels == 0])
        attack_scores = pipeline.score_batch(model, ds.rows[ds.labels == 1])
        assert attack_scores.mean() > benign_scores.mean()

    def test_scoring_does_not_mutate_model(self, small_model, tmp_path, rng):
        model, _ = small_model
        pipeline.save(model, tmp_path / "before")
        pipeline.score_batch(model, rng.uniform(size=(50, 6)))
        pipeline.classify(model, rng.uniform(size=6))
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
        assert loaded.svdd.radius_proxy == model.svdd.radius_proxy
        for a, b in zip(loaded.svdd.params.layers, model.svdd.params.layers):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.hist.heights, model.hist.heights)
        assert np.array_equal(loaded.scaler.mins, model.scaler.mins)

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

    def test_version_mismatch(self, small_model, tmp_path):
        import struct
        import zlib

        model, _ = small_model
        path = tmp_path / "m.doc"
        pipeline.save(model, path)
        raw = bytearray(path.read_bytes())[:-4]
        raw[4:6] = struct.pack("<H", 99)
        raw += struct.pack("<I", zlib.crc32(bytes(raw)))
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="version"):
            pipeline.load(path)

    def test_schema_mismatch_refused(self, small_model):
        model, ds = small_model
        with pytest.raises(SchemaMismatchError):
            pipeline.check_schema(model, ["other"] * len(ds.columns))
        pipeline.check_schema(model, ds.columns)  # does not raise
