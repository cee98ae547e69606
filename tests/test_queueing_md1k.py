"""Tests for the M/D/1/K loss queue (repro.queueing.md1k)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.queueing.md1 import MD1Queue, departure_chain
from repro.queueing.md1k import MD1KQueue
from repro.queueing.mm1k import MM1KQueue

loads = st.floats(min_value=0.05, max_value=3.0)
capacities = st.integers(min_value=1, max_value=30)


class TestConstruction:
    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            MD1KQueue(lam=0.0, capacity=2)
        with pytest.raises(ValueError):
            MD1KQueue(lam=0.5, service=-1.0, capacity=2)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            MD1KQueue(lam=0.5, capacity=0)
        with pytest.raises(ValueError, match="capacity"):
            MD1KQueue(lam=0.5, capacity=1.5)

    def test_from_buffer_translation(self):
        assert MD1KQueue.from_buffer(0.8, 2).capacity == 3


class TestClosedForms:
    def test_pure_loss_is_erlang(self):
        # buffer_size=0: an arrival is lost iff the server is busy, and
        # the loss law is insensitive to the service distribution.
        for rho in (0.3, 0.8, 2.0):
            q = MD1KQueue.from_buffer(rho, 0)
            assert q.blocking_probability() == pytest.approx(rho / (1 + rho))

    def test_hand_value(self):
        # rho=0.8, capacity 3: pi_1 = (1-a0)/a0, pi_2 = (pi_1 - a1 -
        # pi_1 a1)/a0 with a_j = e^-0.8 0.8^j / j!, pi_0 = 1 unnormalised.
        a0, a1 = math.exp(-0.8), 0.8 * math.exp(-0.8)
        pi1 = (1 - a0) / a0
        pi2 = (pi1 - a1 - pi1 * a1) / a0
        pi0 = 1 / (1 + pi1 + pi2)
        q = MD1KQueue.from_buffer(0.8, 2)
        assert q.blocking_probability() == pytest.approx(1 - 1 / (pi0 + 0.8))
        assert q.blocking_probability() == pytest.approx(0.1033, abs=5e-5)

    def test_large_buffer_is_md1(self):
        q = MD1KQueue.from_buffer(0.5, 60)
        assert q.blocking_probability() == pytest.approx(0.0, abs=1e-12)
        assert q.mean_number() == pytest.approx(MD1Queue(0.5).mean_number())

    def test_departure_chain_seeds_the_md1_pmf(self):
        np.testing.assert_array_equal(
            departure_chain(0.6, 8, 0.4), MD1Queue(0.6).number_pmf(8)
        )

    @given(lam=loads, capacity=capacities)
    def test_pmf_is_a_distribution(self, lam, capacity):
        pmf = MD1KQueue(lam=lam, capacity=capacity).number_pmf()
        assert pmf.size == capacity + 1
        assert np.all(pmf >= -1e-12)
        assert pmf.sum() == pytest.approx(1.0)

    @given(lam=loads, capacity=capacities)
    def test_flow_balance(self, lam, capacity):
        # Accepted rate x service time = busy fraction.
        q = MD1KQueue(lam=lam, capacity=capacity)
        assert q.throughput() * q.service == pytest.approx(q.utilization())
        assert q.mean_delay() >= q.service * (1 - 1e-9)

    @given(lam=loads, capacity=capacities)
    def test_blocks_no_more_than_mm1k(self, lam, capacity):
        # Deterministic service is the less variable one: it never loses
        # more than exponential service at the same load and capacity.
        d = MD1KQueue(lam=lam, capacity=capacity).blocking_probability()
        m = MM1KQueue(lam=lam, capacity=capacity).blocking_probability()
        assert d <= m + 1e-12
