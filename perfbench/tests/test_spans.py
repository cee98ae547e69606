"""Span arithmetic on synthetic spans: self time, idle share, error rate."""

import pytest

from perfbench.spans import (
    Span,
    covered,
    error_rate,
    idle_frac,
    self_times,
    total_self,
)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert covered([(1.0, 2.0), (1.0, 2.0)], 0.0, 10.0) == 1.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, None, "run_sweep", 0.0, 10.0),
        Span(1, 0, "run_many", 1.0, 8.0),
        Span(2, 1, "wait", 2.0, 5.0),
        Span(3, 1, "checkpoint", 5.0, 6.0),
        Span(4, 0, "write", 8.5, 9.0),
    ]
    own = self_times(spans)
    assert own == {0: 10.0 - 7.0 - 0.5, 1: 7.0 - 4.0, 2: 3.0, 3: 1.0, 4: 0.5}
    # The self times of a tree add up to the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_totals_sum_every_span_of_a_name():
    spans = [
        Span(0, None, "run_many", 0.0, 4.0),
        Span(1, 0, "wait", 1.0, 2.0),
        Span(2, None, "run_many", 5.0, 6.0),
    ]
    assert total_self(spans, "run_many") == 4.0
    assert total_self(spans, "absent") == 0.0


def test_idle_frac():
    assert idle_frac(busy_s=3.0, workers=2, window_s=2.0) == pytest.approx(0.25)
    assert idle_frac(busy_s=4.0, workers=2, window_s=2.0) == 0.0
    # Clock skew between processes never yields a negative share.
    assert idle_frac(busy_s=4.1, workers=2, window_s=2.0) == 0.0
    assert idle_frac(busy_s=0.0, workers=0, window_s=0.0) == 0.0


def test_error_rate():
    assert error_rate(26, 0) == 0.0
    assert error_rate(16, 4) == 0.25
    with pytest.raises(ValueError):
        error_rate(0, 0)
    with pytest.raises(ValueError):
        error_rate(4, 5)
