"""Tests for the Section 4.2 M/D/1 estimate — including the digit-exact
reproduction of every printed Table I estimate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.md1_approx import (
    delay_md1_estimate,
    lemma9_ratio,
    md1_network_number,
)
from repro.core.rates import lambda_for_load
from repro.core.upper_bound import delay_upper_bound
from repro.queueing.md1 import MD1Queue

#: Every T(Est.) value printed in the paper's Table I.
PAPER_TABLE1_EST = {
    (5, 0.2): 3.256, (5, 0.5): 3.722, (5, 0.8): 5.984,
    (5, 0.9): 8.970, (5, 0.95): 12.877, (5, 0.99): 21.384,
    (10, 0.2): 6.711, (10, 0.5): 7.641, (10, 0.8): 12.183,
    (10, 0.9): 18.444, (10, 0.95): 28.014, (10, 0.99): 77.309,
    (15, 0.2): 10.123, (15, 0.5): 11.518, (15, 0.8): 18.329,
    (15, 0.9): 27.718, (15, 0.95): 41.990, (15, 0.99): 103.312,
    (20, 0.2): 13.523, (20, 0.5): 15.383, (20, 0.8): 24.465,
    (20, 0.9): 36.983, (20, 0.95): 56.015, (20, 0.99): 141.127,
}


class TestPaperTableExact:
    @pytest.mark.parametrize(("n", "rho"), sorted(PAPER_TABLE1_EST))
    def test_reproduces_printed_estimate(self, n, rho):
        """The 'paper' variant with the table1 load convention reproduces
        the journal's printed estimate to the printed precision."""
        lam = lambda_for_load(n, rho, "table1")
        est = delay_md1_estimate(n, lam, variant="paper")
        assert est == pytest.approx(PAPER_TABLE1_EST[(n, rho)], abs=5e-4)
        # The residual-service term the display drops costs the paper
        # variant between 0 and 25% of the textbook estimate.
        pk = delay_md1_estimate(n, lam, variant="pk")
        assert 0.0 < pk / est - 1.0 < 0.25

    def test_paper_display_formula_identity(self):
        """The per-edge 'paper' term equals the journal's display
        a[(n-a)^2 + n^2] / (2 n^2 (n-a)) summed form."""
        n, rho = 7, 0.6
        lam = 4 * rho / n
        displayed = (4.0 / (lam * n)) * sum(
            (lam * i * (n - i))
            * ((n - lam * i * (n - i)) ** 2 + n * n)
            / (2 * n * n * (n - lam * i * (n - i)))
            for i in range(1, n)
        )
        assert delay_md1_estimate(n, lam, variant="paper") == pytest.approx(
            displayed
        )


class TestVariants:
    @given(st.integers(3, 20), st.floats(0.05, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_pk_above_paper_variant(self, n, rho):
        """The textbook estimate includes the residual-service term the
        paper's display drops, so it is strictly larger at positive load."""
        lam = lambda_for_load(n, rho, "table1")
        pk = delay_md1_estimate(n, lam, variant="pk")
        paper = delay_md1_estimate(n, lam, variant="paper")
        assert pk > paper

    @given(st.integers(3, 15), st.floats(0.05, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_estimate_below_upper_bound(self, n, rho):
        """Both estimate variants sit below the Theorem 7 (M/M/1) bound."""
        lam = lambda_for_load(n, rho, "table1")
        ub = delay_upper_bound(n, lam)
        assert delay_md1_estimate(n, lam, variant="pk") <= ub + 1e-12
        assert delay_md1_estimate(n, lam, variant="paper") <= ub + 1e-12

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            delay_md1_estimate(5, 0.1, variant="nope")

    def test_unstable_rate(self):
        with pytest.raises(ValueError, match="unstable"):
            delay_md1_estimate(6, 4.0 / 6, variant="pk")


class TestNetworkNumber:
    def test_pk_sums_md1_queues(self):
        rates = np.array([0.2, 0.5, 0.7])
        expected = sum(MD1Queue(r).mean_number() for r in rates)
        assert md1_network_number(rates, variant="pk") == pytest.approx(expected)

    def test_zero_rates_contribute_nothing(self):
        assert md1_network_number(np.array([0.0, 0.0])) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            md1_network_number(np.array([-0.1]))


class TestLemma9:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=0.97), min_size=1, max_size=10)
    )
    @settings(max_examples=50, deadline=None)
    def test_ratio_between_one_and_two(self, rates):
        ratio = lemma9_ratio(np.asarray(rates))
        assert 1.0 - 1e-12 <= ratio <= 2.0 + 1e-12

    def test_light_limit(self):
        assert lemma9_ratio(np.array([1e-9])) == pytest.approx(1.0, abs=1e-6)

    def test_heavy_limit(self):
        assert lemma9_ratio(np.array([0.99999])) == pytest.approx(2.0, abs=1e-3)

    def test_no_traffic(self):
        assert lemma9_ratio(np.array([0.0])) == 1.0
