"""Tests for batch means and the time-batch accumulator."""

import numpy as np
import pytest

from repro.sim.measurement import BatchMeans, TimeBatchAccumulator, batch_means


class TestBatchMeans:
    def test_pooled_mean(self):
        sums = np.array([10.0, 20.0])
        weights = np.array([5.0, 5.0])
        bm = batch_means(sums, weights)
        assert bm.mean == pytest.approx(3.0)
        assert bm.batches == 2

    def test_empty_batches_skipped(self):
        bm = batch_means(np.array([10.0, 0.0, 20.0]), np.array([5.0, 0.0, 5.0]))
        assert bm.batches == 2

    def test_all_empty_gives_nan(self):
        bm = batch_means(np.zeros(3), np.zeros(3))
        assert np.isnan(bm.mean) and bm.batches == 0

    def test_single_batch_no_halfwidth(self):
        bm = batch_means(np.array([4.0]), np.array([2.0]))
        assert bm.mean == 2.0
        assert np.isnan(bm.half_width)

    def test_halfwidth_shrinks_with_consistency(self):
        tight = batch_means(np.array([1.0, 1.01, 0.99, 1.0]), np.ones(4))
        loose = batch_means(np.array([0.1, 2.0, 0.5, 1.5]), np.ones(4))
        assert tight.half_width < loose.half_width

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            batch_means(np.zeros(2), np.zeros(3))

    def test_known_halfwidth(self):
        """Half-width is 1.96 * sd(batch means)/sqrt(k)."""
        per_batch = np.array([1.0, 2.0, 3.0, 4.0])
        bm = batch_means(per_batch, np.ones(4))
        se = per_batch.std(ddof=1) / 2.0
        assert bm.half_width == pytest.approx(1.96 * se)


class TestTimeBatchAccumulator:
    def test_events_fall_in_correct_batches(self):
        acc = TimeBatchAccumulator(0.0, 10.0, num_batches=2)
        acc.add(1.0, 5.0)
        acc.add(7.0, 11.0)
        assert acc.sums.tolist() == [5.0, 11.0]
        assert acc.weights.tolist() == [1.0, 1.0]

    def test_out_of_window_ignored(self):
        acc = TimeBatchAccumulator(5.0, 10.0)
        acc.add(4.0, 1.0)
        acc.add(10.0, 1.0)
        assert acc.weights.sum() == 0.0

    def test_boundary_inclusion(self):
        acc = TimeBatchAccumulator(0.0, 10.0, num_batches=2)
        acc.add(0.0, 1.0)  # start included
        assert acc.weights[0] == 1.0

    def test_summary_matches_overall_mean(self):
        acc = TimeBatchAccumulator(0.0, 4.0, num_batches=4)
        values = [1.0, 2.0, 3.0, 4.0]
        for t, v in zip([0.5, 1.5, 2.5, 3.5], values):
            acc.add(t, v)
        assert acc.summary().mean == pytest.approx(np.mean(values))

    def test_weighted_add(self):
        acc = TimeBatchAccumulator(0.0, 2.0, num_batches=1)
        acc.add(0.5, 6.0, weight=2.0)
        acc.add(1.5, 2.0, weight=1.0)
        assert acc.summary().mean == pytest.approx(8.0 / 3.0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            TimeBatchAccumulator(5.0, 5.0)

    def test_invalid_batches(self):
        with pytest.raises(ValueError):
            TimeBatchAccumulator(0.0, 1.0, num_batches=0)

    def test_fold_matches_add_in_order(self):
        """Folding pending pairs in chunks gives the bit-identical sums
        of one add() per pair in the same order; out-of-window times are
        dropped, kept values are not, and the buffers end empty."""
        rng = np.random.default_rng(5)
        ts = rng.uniform(-1.0, 11.0, size=500).tolist()
        vs = rng.exponential(3.0, size=500).tolist()
        ref = TimeBatchAccumulator(0.0, 10.0, num_batches=7)
        for t, v in zip(ts, vs):
            ref.add(t, v)
        acc = TimeBatchAccumulator(0.0, 10.0, num_batches=7, keep_values=True)
        for i, (t, v) in enumerate(zip(ts, vs)):
            acc.pending_times.append(t)
            acc.pending_values.append(v)
            if i % 13 == 12:
                acc.fold()
        acc.fold()
        assert acc.sums.tobytes() == ref.sums.tobytes()
        assert acc.weights.tobytes() == ref.weights.tobytes()
        assert acc.kept.tolist() == vs
        assert len(acc.pending_times) == len(acc.pending_values) == 0

    def test_fold_without_pending_pairs(self):
        acc = TimeBatchAccumulator(0.0, 1.0)
        acc.fold()
        assert acc.kept is None
        assert acc.weights.sum() == 0.0
