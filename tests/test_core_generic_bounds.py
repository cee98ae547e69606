"""Tests for the topology-generic bound assembly."""

from collections import Counter

import numpy as np
import pytest

from repro.core.distances import max_route_length, mean_route_length
from repro.core.generic_bounds import generic_bounds
from repro.core.lower_bounds import bound_summary
from repro.core.rates import edge_rates_from_routing, lambda_for_load
from repro.core.remaining_distance import expected_remaining_distances
from repro.core.saturation import (
    max_saturated_on_route,
    saturated_edge_mask,
    saturated_remaining_expectations,
)
from repro.routing.destinations import (
    PBiasedHypercubeDestinations,
    UniformDestinations,
)
from repro.routing.greedy import GreedyArrayRouter, GreedyKDRouter
from repro.routing.hypercube_greedy import GreedyHypercubeRouter
from repro.routing.torus_greedy import GreedyTorusRouter
from repro.topology.array_mesh import ArrayMesh, KDArray
from repro.topology.hypercube import Hypercube
from repro.topology.torus import Torus


class TestAgainstArrayClosedForms:
    @pytest.mark.parametrize(("n", "rho"), [(4, 0.5), (5, 0.8), (6, 0.9)])
    def test_matches_array_bound_summary(self, n, rho):
        """The generic machinery must reproduce the array closed forms."""
        lam = lambda_for_load(n, rho, "exact")
        mesh = ArrayMesh(n)
        gb = generic_bounds(
            GreedyArrayRouter(mesh), UniformDestinations(mesh.num_nodes), lam
        )
        b = bound_summary(n, lam)
        assert gb.upper == pytest.approx(b.upper)
        assert gb.lower_copy == pytest.approx(b.lower_copy)
        assert gb.lower_markov == pytest.approx(b.lower_markov)
        assert gb.lower_saturated == pytest.approx(b.lower_saturated)
        assert gb.lower_trivial == pytest.approx(b.lower_trivial)
        assert gb.d_max == 2 * (n - 1)
        assert gb.d_bar == pytest.approx(n - 0.5)
        assert gb.network_load == pytest.approx(rho)

    def test_consistency_flag(self):
        mesh = ArrayMesh(4)
        gb = generic_bounds(
            GreedyArrayRouter(mesh), UniformDestinations(16), 0.3
        )
        assert gb.is_consistent()
        assert gb.lower_best <= gb.upper


class TestTorus:
    def test_no_upper_bound_when_not_layered(self):
        torus = Torus(4)
        router = GreedyTorusRouter(torus)
        dests = UniformDestinations(torus.num_nodes)
        gb = generic_bounds(
            router, dests, 0.1, layered=False, markovian=False
        )
        assert gb.upper is None
        assert gb.lower_markov is None
        assert gb.lower_copy > 0
        assert gb.lower_saturated > 0
        assert gb.is_consistent()  # vacuous without an upper bound

    def test_torus_mean_distance_halved(self):
        """Wraparound halves per-axis distances vs the open array."""
        torus = Torus(6)
        gb = generic_bounds(
            GreedyTorusRouter(torus),
            UniformDestinations(torus.num_nodes),
            0.05,
            layered=False,
            markovian=False,
        )
        # mean ring distance on a 6-ring = (0+1+1+2+2+3)/6 = 1.5 per axis.
        assert gb.mean_distance == pytest.approx(3.0)


class TestHypercube:
    def test_matches_section_45_closed_forms(self):
        from repro.core.hypercube_bounds import (
            hypercube_delay_upper_bound,
            hypercube_markov_lower_bound,
        )

        d, p, rho = 4, 0.5, 0.6
        lam = rho / p
        cube = Hypercube(d)
        gb = generic_bounds(
            GreedyHypercubeRouter(cube),
            PBiasedHypercubeDestinations(cube, p),
            lam,
        )
        assert gb.upper == pytest.approx(hypercube_delay_upper_bound(d, lam, p))
        assert gb.lower_markov == pytest.approx(
            hypercube_markov_lower_bound(d, lam, p)
        )
        assert gb.d_bar == pytest.approx(1 + p * (d - 1))
        assert gb.mean_distance == pytest.approx(d * p)
        # Every hypercube edge is saturated by symmetry.
        assert gb.s_max == gb.d_max == d


class TestValidation:
    def test_unstable_raises(self):
        mesh = ArrayMesh(4)
        with pytest.raises(ValueError, match="unstable"):
            generic_bounds(
                GreedyArrayRouter(mesh), UniformDestinations(16), 1.0
            )

    def test_rate_sequence_mismatch(self):
        mesh = ArrayMesh(4)
        with pytest.raises(ValueError):
            generic_bounds(
                GreedyArrayRouter(mesh),
                UniformDestinations(16),
                [0.1, 0.1],
                source_nodes=[0, 1, 2],
            )

    def test_zero_rate_rejected(self):
        mesh = ArrayMesh(4)
        with pytest.raises(ValueError):
            generic_bounds(
                GreedyArrayRouter(mesh),
                UniformDestinations(16),
                [0.0],
                source_nodes=[0],
            )


class TestRoutesEachPairOnce:
    """generic_bounds routes each pair once, into one route table."""

    class CountingRouter:
        def __init__(self, router):
            self.topology = router.topology
            self._router = router
            self.calls = Counter()

        def path(self, src, dst):
            self.calls[src, dst] += 1
            return self._router.path(src, dst)

        def sample_path(self, src, dst, rng):
            return self.path(src, dst)

    def test_each_pair_routed_once_bounds_unchanged(self):
        array = KDArray((3, 3, 3))
        dests = UniformDestinations(array.num_nodes)
        lam = 0.05
        counting = self.CountingRouter(GreedyKDRouter(array))
        gb = generic_bounds(counting, dests, lam)
        assert counting.calls and max(counting.calls.values()) == 1

        # The same ingredients from each helper on the bare router.
        router = GreedyKDRouter(array)
        rates = edge_rates_from_routing(router, dests, lam)
        mask = saturated_edge_mask(rates)
        assert gb.network_load == pytest.approx(rates.max())
        assert gb.mean_distance == pytest.approx(
            mean_route_length(router, dests)
        )
        assert gb.d_max == max_route_length(router)
        assert gb.d_bar == pytest.approx(
            np.nanmax(expected_remaining_distances(router, dests))
        )
        assert gb.s_max == max_saturated_on_route(router, mask)
        s_e = saturated_remaining_expectations(router, dests, mask)
        assert gb.s_bar == pytest.approx(s_e[np.isfinite(s_e)].max())
