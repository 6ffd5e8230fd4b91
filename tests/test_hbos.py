import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docnids import hbos
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
