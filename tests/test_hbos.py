import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docnids import backend, hbos, nn
from docnids.hbos import EMPTY_BIN_FLOOR


def oracle_fit_and_score(train, queries, k, floor=EMPTY_BIN_FLOOR):
    """Brute-force reference: recount bins and evaluate term by term."""
    train = np.asarray(train, dtype=float)
    queries = np.asarray(queries, dtype=float)
    n, d = train.shape
    scores = np.zeros(len(queries))
    for j in range(d):
        lo, hi = train[:, j].min(), train[:, j].max()
        if lo == hi:
            heights = [1.0] + [0.0] * (k - 1)
            width = 0.0
        else:
            width = (hi - lo) / k
            counts = [0] * k
            for v in train[:, j]:
                b = int(math.floor((v - lo) / width))
                b = min(max(b, 0), k - 1)
                counts[b] += 1
            m = max(counts)
            heights = [c / m for c in counts]
        for qi, q in enumerate(queries):
            if width == 0.0:
                b = 0
            else:
                b = int(math.floor((q[j] - lo) / width))
                b = min(max(b, 0), k - 1)
            scores[qi] += math.log(1.0 / max(heights[b], floor))
    return scores


class TestFitHistograms:
    def test_hand_counted_two_bins(self):
        # 0.5 is the left edge of bin 2, 1.0 is right-inclusive in bin 2
        h = hbos.fit_histograms(np.array([[0.0], [0.5], [0.5], [1.0]]), k=2)
        assert np.allclose(h.heights[0], [1 / 3, 1.0])

    def test_uniform_fill_equal_heights(self):
        h = hbos.fit_histograms(np.array([[0.0], [0.25], [0.5], [0.75]]), k=2)
        assert np.allclose(h.heights[0], [1.0, 1.0])

    def test_constant_column_degenerates(self):
        h = hbos.fit_histograms(np.full((5, 1), 3.0), k=4)
        assert h.heights[0, 0] == 1.0
        assert np.all(h.heights[0, 1:] == 0.0)
        assert h.widths[0] == 0.0

    def test_max_height_is_one_per_dimension(self, rng):
        h = hbos.fit_histograms(rng.normal(size=(50, 3)), k=7)
        assert np.allclose(h.heights.max(axis=1), 1.0)
        assert np.all((h.heights >= 0.0) & (h.heights <= 1.0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            hbos.fit_histograms(np.empty((0, 2)), k=3)

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            hbos.fit_histograms(np.zeros((3, 2)), k=0)

    def test_permutation_invariant(self, rng):
        z = rng.normal(size=(40, 3))
        a = hbos.fit_histograms(z, k=5)
        b = hbos.fit_histograms(z[rng.permutation(40)], k=5)
        assert np.array_equal(a.heights, b.heights)
        assert np.array_equal(a.lo, b.lo)


class TestHbosScore:
    def test_modal_bins_score_zero(self):
        h = hbos.fit_histograms(np.array([[0.0], [0.1]]), k=1)
        assert hbos.hbos_score_batch(h, np.array([[0.05]]))[0] == pytest.approx(0.0)

    def test_a_row_in_every_tallest_bin_scores_positive_zero(self):
        h = hbos.fit_histograms(np.array([[0.0, 5.0], [0.0, 5.0], [1.0, 6.0]]), k=2)
        (score,) = hbos.hbos_score_batch(h, np.array([[0.2, 5.1]]))
        assert score == 0.0 and not np.signbit(score)

    def test_two_dims_hand_value(self):
        h = hbos.HistogramSet(
            lo=np.zeros(2), hi=np.ones(2), k=1, heights=np.array([[1.0], [0.5]])
        )
        assert hbos.hbos_score_batch(h, np.array([[0.5, 0.5]]))[0] == pytest.approx(math.log(2))

    def test_empty_bin_uses_floor(self):
        h = hbos.HistogramSet(
            lo=np.zeros(1), hi=np.ones(1), k=2, heights=np.array([[1.0, 0.0]])
        )
        assert hbos.hbos_score_batch(h, np.array([[0.9]]))[0] == pytest.approx(math.log(1e6))

    def test_out_of_range_clamps_to_edges(self):
        h = hbos.fit_histograms(np.array([[0.0], [0.0], [1.0]]), k=2)
        assert hbos.hbos_score_batch(h, np.array([[-5.0]]))[0] == pytest.approx(
            hbos.hbos_score_batch(h, np.array([[0.1]]))[0]
        )
        assert hbos.hbos_score_batch(h, np.array([[99.0]]))[0] == pytest.approx(
            hbos.hbos_score_batch(h, np.array([[0.9]]))[0]
        )

    def test_additivity_over_dimensions(self, rng):
        z = rng.normal(size=(30, 3))
        h = hbos.fit_histograms(z, k=4)
        q = rng.normal(size=3)
        total = hbos.hbos_score_batch(h, q[None])[0]
        parts = 0.0
        for j in range(3):
            hj = hbos.HistogramSet(
                lo=h.lo[j : j + 1], hi=h.hi[j : j + 1], k=h.k, heights=h.heights[j : j + 1]
            )
            parts += hbos.hbos_score_batch(hj, q[None, j : j + 1])[0]
        assert total == pytest.approx(parts, abs=1e-12)

    def test_nonnegative(self, rng):
        z = rng.uniform(size=(60, 4))
        h = hbos.fit_histograms(z, k=6)
        assert np.all(hbos.hbos_score_batch(h, rng.uniform(-1, 2, size=(100, 4))) >= 0)

    def test_lower_height_never_lowers_score(self):
        base = hbos.HistogramSet(
            lo=np.zeros(1), hi=np.ones(1), k=2, heights=np.array([[1.0, 0.8]])
        )
        lowered = hbos.HistogramSet(
            lo=np.zeros(1), hi=np.ones(1), k=2, heights=np.array([[1.0, 0.4]])
        )
        q = np.array([0.9])
        assert hbos.hbos_score_batch(lowered, q[None])[0] >= hbos.hbos_score_batch(base, q[None])[0]

    def test_dimension_mismatch(self):
        h = hbos.fit_histograms(np.zeros((3, 2)), k=2)
        with pytest.raises(ValueError):
            hbos.hbos_score_batch(h, np.zeros((1, 3)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12))
    def test_matches_bruteforce_oracle(self, seed, k):
        r = np.random.default_rng(seed)
        n = r.integers(1, 100)
        d = r.integers(1, 4)
        train = r.uniform(-3, 3, size=(int(n), int(d)))
        if r.random() < 0.3:
            train[:, 0] = 1.5  # exercise the degenerate-column path
        queries = r.uniform(-5, 5, size=(20, int(d)))
        h = hbos.fit_histograms(train, k)
        got = hbos.hbos_score_batch(h, queries)
        want = oracle_fit_and_score(train, queries, k)
        assert np.allclose(got, want, atol=1e-12, rtol=0)


B = nn.BLOCK_ROWS
SIZES = [1, B - 1, B, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B - 1, 4000]


def one_pass_fit(z, k):
    """``fit_histograms``' ``lo``, ``hi`` and ``heights`` by its formulas
    over all rows at once."""
    d = z.shape[1]
    lo, hi = z.min(axis=0), z.max(axis=0)
    idx = backend.bin_index(lo, (hi - lo) / k, k, z)
    counts = np.bincount((idx + k * np.arange(d)).ravel(), minlength=d * k).reshape(d, k)
    return lo, hi, counts / counts.max(axis=1, keepdims=True)


class TestBlockedKernels:
    """``fit_histograms`` and ``hbos_score_batch`` take their rows in
    ``nn.row_blocks`` and are bit-equal to one pass over all of them: a
    count is exact, and a row's score is its own."""

    @pytest.mark.parametrize("d", [16, 39])
    @pytest.mark.parametrize("n", SIZES)
    def test_equal_one_pass(self, monkeypatch, n, d):
        rng = np.random.default_rng(n + d)
        z = rng.normal(size=(n, d))
        z[:, 1] = 0.5  # a constant column
        queries = rng.normal(scale=2.0, size=(n, d))  # some out of range
        lo, hi, heights = one_pass_fit(z, 10)
        blocks = []
        real = backend.bin_index

        def bin_index(lo, width, k, z):
            blocks.append(len(z))
            return real(lo, width, k, z)

        monkeypatch.setattr(backend, "bin_index", bin_index)
        h = hbos.fit_histograms(z, 10)
        expected = [B] * (n // B - 1) + [n - (n // B - 1) * B] if n >= 2 * B else [n]
        assert blocks == expected
        for got, want in [(h.lo, lo), (h.hi, hi), (h.heights, heights)]:
            assert got.tobytes() == want.tobytes()
        blocks.clear()
        scores = hbos.hbos_score_batch(h, queries)
        assert blocks == expected
        monkeypatch.undo()
        want = backend.hbos_scores(h.lo, h.widths, h.heights, queries, EMPTY_BIN_FLOOR)
        assert scores.tobytes() == want.tobytes()

    def test_allocate_their_output_and_two_blocks(self):
        z = np.random.default_rng(0).uniform(size=(100_000, 16))
        h = hbos.fit_histograms(z, 10)
        peaks = {}
        tracemalloc.start()
        try:
            for name, f in [("fit", lambda: hbos.fit_histograms(z, 10)),
                            ("score", lambda: hbos.hbos_score_batch(h, z))]:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = f()
                peaks[name] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # one pass over every row would hold an index array and two float
        # arrays of the rows' shape, 38.4 MB; the largest block's hold 2B - 1
        # rows of them
        block = 3 * 2 * B * 16 * 8
        assert out.nbytes == 800_000
        assert peaks["fit"] < 2 * block
        assert peaks["score"] < out.nbytes + 2 * block

