"""Tests for the main event-driven FIFO simulator.

Strategy: validate against closed-form queueing theory on tiny networks
(fast, tight tolerances), then check structural invariants (conservation,
determinism, Little's-Law consistency) on the array.
"""

import numpy as np
import pytest

from repro.core.rates import array_edge_rates, lambda_for_load
from repro.core.saturation import saturated_edge_mask
from repro.core.upper_bound import delay_upper_bound
from repro.queueing.md1 import MD1Queue
from repro.queueing.mm1 import MM1Queue
from repro.routing.base import TabulatedRouter
from repro.routing.destinations import UniformDestinations
from repro.routing.greedy import GreedyArrayRouter
from repro.sim.fifo_network import NetworkSimulation
from repro.topology.array_mesh import ArrayMesh
from repro.topology.linear import LinearArray

from _helpers import NON_FINITE_WINDOWS, AlwaysNodeZero, BoundaryRNG


class AcrossOnly:
    """2-node destination law: always the other node (one M/D/1 per edge)."""

    num_nodes = 2

    def sample(self, src, rng):
        return 1 - src

    def pmf(self, src):
        v = np.zeros(2)
        v[1 - src] = 1.0
        return v


def two_node_router():
    line = LinearArray(2)
    return TabulatedRouter(
        line, {(0, 1): [0], (1, 0): [1], (0, 0): [], (1, 1): []}
    )


class TestSingleQueueTheory:
    def test_md1_delay(self):
        lam = 0.6
        sim = NetworkSimulation(two_node_router(), AcrossOnly(), lam, seed=1)
        res = sim.run(200, 15000)
        assert res.mean_delay == pytest.approx(MD1Queue(lam).mean_delay(), rel=0.03)

    def test_mm1_delay(self):
        lam = 0.6
        sim = NetworkSimulation(
            two_node_router(), AcrossOnly(), lam, service="exponential", seed=2
        )
        res = sim.run(200, 15000)
        assert res.mean_delay == pytest.approx(MM1Queue(lam).mean_delay(), rel=0.05)

    def test_md1_number(self):
        lam = 0.5
        sim = NetworkSimulation(two_node_router(), AcrossOnly(), lam, seed=3)
        res = sim.run(200, 15000)
        # Two independent M/D/1 queues at rate lam each.
        assert res.mean_number == pytest.approx(
            2 * MD1Queue(lam).mean_number(), rel=0.05
        )

    def test_service_rate_scaling(self):
        """Doubling every phi at fixed lam behaves like a M/D/1 with
        service 0.5."""
        lam = 0.6
        sim = NetworkSimulation(
            two_node_router(), AcrossOnly(), lam, service_rates=2.0, seed=4
        )
        res = sim.run(200, 10000)
        assert res.mean_delay == pytest.approx(
            MD1Queue(lam, service=0.5).mean_delay(), rel=0.05
        )


class TestArrayInvariants:
    @pytest.fixture(scope="class")
    def array_run(self):
        n, rho = 4, 0.7
        lam = lambda_for_load(n, rho)
        mesh = ArrayMesh(n)
        mask = saturated_edge_mask(array_edge_rates(mesh, lam))
        sim = NetworkSimulation(
            GreedyArrayRouter(mesh),
            UniformDestinations(mesh.num_nodes),
            lam,
            saturated_mask=mask,
            seed=7,
        )
        return sim.run(200, 4000, track_utilization=True), lam, n, mesh

    def test_conservation(self, array_run):
        res, _, _, _ = array_run
        # Drain guarantees every measured packet completed.
        assert res.generated == res.completed

    def test_littles_law(self, array_run):
        res, _, _, _ = array_run
        assert res.littles_law_gap < 0.06

    def test_below_upper_bound(self, array_run):
        res, lam, n, _ = array_run
        assert res.mean_delay <= delay_upper_bound(n, lam) * 1.05

    def test_above_trivial_bound(self, array_run):
        res, _, n, _ = array_run
        from repro.core.distances import mean_distance

        assert res.mean_delay >= mean_distance(n) * 0.98

    def test_utilization_matches_theorem6(self, array_run):
        res, lam, _, mesh = array_run
        rates = array_edge_rates(mesh, lam)
        assert np.abs(res.utilization - rates).max() < 0.05

    def test_remaining_services_band(self, array_run):
        """1 <= r <= max route length; and r < nbar2 (Table II's claim)."""
        res, _, n, _ = array_run
        assert 1.0 <= res.r <= 2 * (n - 1)
        assert res.r < 2 * n / 3

    def test_saturated_remaining_band(self, array_run):
        res, _, n, _ = array_run
        from repro.core.saturation import s_bar

        assert 0.0 < res.r_saturated < s_bar(n)

    def test_zero_hop_fraction(self, array_run):
        """P(dst == src) = 1/n^2."""
        res, _, n, _ = array_run
        frac = res.zero_hop / res.generated
        assert frac == pytest.approx(1.0 / (n * n), rel=0.35)


class TestSourceDrawBoundary:
    """node_rate=[0.0, 1.0]: a boundary draw must never pick the dead source."""

    def test_zero_rate_source_never_generates(self, monkeypatch):
        real = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed=None: BoundaryRNG(real(seed))
        )
        sim = NetworkSimulation(
            two_node_router(), AlwaysNodeZero(), [0.0, 1.0], seed=11
        )
        res = sim.run(0, 300)
        # Packets from source 0 would be zero-hop (dst == 0); with the
        # boundary draw fixed, every packet originates at source 1.
        assert res.generated > 0
        assert res.zero_hop == 0

    def test_dead_source_edge_stays_idle(self):
        sim = NetworkSimulation(
            two_node_router(), AcrossOnly(), [0.0, 1.0], seed=12
        )
        res = sim.run(0, 500, track_utilization=True)
        assert res.generated > 0
        assert res.utilization[0] == 0.0  # edge 0 -> 1 never used
        assert res.utilization[1] > 0.0


class TestMaximaWindow:
    """Maxima must cover only the measurement window, not the warmup.

    The trick: warmup affects measurement only, never dynamics, so runs
    with the same seed and the same total time share one trajectory. A
    seed whose congestion peak lands in the first half must therefore
    report strictly smaller maxima when that half is declared warmup.
    """

    @staticmethod
    def _run(warmup, horizon):
        mesh = ArrayMesh(4)
        sim = NetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(16), 0.5, seed=11
        )
        return sim.run(warmup, horizon, track_maxima=True)

    def test_warmup_peak_excluded(self):
        full = self._run(0, 1000)
        windowed = self._run(500, 500)
        assert windowed.max_queue_length < full.max_queue_length
        assert windowed.max_delay < full.max_delay

    def test_window_maxima_bounded_by_full_run(self):
        full = self._run(0, 1000)
        for warmup in (200, 400, 800):
            w = self._run(warmup, 1000 - warmup)
            assert w.max_queue_length <= full.max_queue_length
            assert w.max_delay <= full.max_delay

    def test_standing_backlog_at_warmup_counts(self):
        """A queue built during warmup that still stands when the window
        opens was observed in the window: it must seed max_queue even if
        no packet joins it before the horizon."""
        # Critical load (rho = 1 per edge) builds a deep backlog over the
        # warmup; the window is too short for appends to rebuild it.
        res = NetworkSimulation(
            two_node_router(), AcrossOnly(), 1.0, seed=5
        ).run(100, 0.4, track_maxima=True)
        assert res.max_queue_length >= 10


class TestDeterminismAndOptions:
    def test_same_seed_same_result(self):
        mesh = ArrayMesh(3)
        args = (
            GreedyArrayRouter(mesh),
            UniformDestinations(9),
            0.3,
        )
        r1 = NetworkSimulation(*args, seed=42).run(50, 500)
        r2 = NetworkSimulation(*args, seed=42).run(50, 500)
        assert r1.mean_delay == r2.mean_delay
        assert r1.mean_number == r2.mean_number
        assert r1.generated == r2.generated

    def test_different_seed_different_result(self):
        mesh = ArrayMesh(3)
        args = (GreedyArrayRouter(mesh), UniformDestinations(9), 0.3)
        r1 = NetworkSimulation(*args, seed=1).run(50, 500)
        r2 = NetworkSimulation(*args, seed=2).run(50, 500)
        assert r1.mean_delay != r2.mean_delay

    def test_collect_delays(self):
        mesh = ArrayMesh(3)
        sim = NetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(9), 0.2, seed=5
        )
        res = sim.run(20, 300, collect_delays=True)
        assert res.delays is not None
        assert len(res.delays) == res.completed
        assert np.isclose(res.delays.mean(), res.mean_delay, rtol=1e-9)

    def test_number_distribution(self):
        mesh = ArrayMesh(3)
        sim = NetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(9), 0.2, seed=5
        )
        res = sim.run(20, 300, track_number_distribution=True)
        dist = res.number_distribution
        assert dist is not None
        assert sum(dist.values()) == pytest.approx(1.0)
        mean_from_dist = sum(k * w for k, w in dist.items())
        assert mean_from_dist == pytest.approx(res.mean_number, rel=1e-6)

    def test_no_saturated_mask_gives_nan(self):
        mesh = ArrayMesh(3)
        sim = NetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(9), 0.2, seed=5
        )
        res = sim.run(20, 200)
        assert np.isnan(res.mean_remaining_saturated)
        assert np.isnan(res.r_saturated)

    def test_source_subset(self):
        """Only listed sources generate packets."""
        mesh = ArrayMesh(3)
        sim = NetworkSimulation(
            GreedyArrayRouter(mesh),
            UniformDestinations(9),
            1.0,
            source_nodes=[0],
            seed=6,
        )
        res = sim.run(10, 200, track_utilization=True)
        # Left/up edges never used from the corner source.
        for e in range(mesh.num_edges):
            if mesh.edge_direction(e) in ("left", "up"):
                assert res.utilization[e] == 0.0

    def test_invalid_args(self):
        mesh = ArrayMesh(3)
        router = GreedyArrayRouter(mesh)
        dests = UniformDestinations(9)
        with pytest.raises(ValueError):
            NetworkSimulation(router, dests, 0.2, service="gaussian")
        with pytest.raises(ValueError):
            NetworkSimulation(router, dests, -0.2)
        with pytest.raises(ValueError):
            NetworkSimulation(router, dests, 0.2, service_rates=np.zeros(3))
        sim = NetworkSimulation(router, dests, 0.2)
        with pytest.raises(ValueError):
            sim.run(-1.0, 100)
        with pytest.raises(ValueError):
            sim.run(10, 0)
        for warmup, horizon, field in NON_FINITE_WINDOWS:
            with pytest.raises(ValueError, match=field):
                sim.run(warmup, horizon)
