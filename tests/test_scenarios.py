"""Tests for the scenario registry and its load calibration."""

import numpy as np
import pytest

from repro.core.layering import layering_from_follows
from repro.core.rates import edge_rates_from_routing, lambda_for_load
from repro.routing.pathcache import path_cache_for
from repro.scenarios import (
    Scenario,
    available_scenarios,
    build_network,
    cell_edge_rates,
    get_scenario,
    register,
    resolve_cell,
)
from repro.sim.replication import CellSpec, replicate


class TestRegistry:
    def test_builtins_present(self):
        names = {s.name for s in available_scenarios()}
        assert {
            "uniform",
            "randomized",
            "hotspot",
            "transpose",
            "bitreversal",
            "geometric",
            "torus",
        } <= names

    def test_unknown_scenario_names_known_ones(self):
        with pytest.raises(ValueError, match="uniform"):
            get_scenario("frobnicate")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register(Scenario("uniform", "dup", lambda n: None))

    def test_listing_is_sorted(self):
        names = [s.name for s in available_scenarios()]
        assert names == sorted(names)


class TestBuildNetwork:
    @pytest.mark.parametrize(
        "name,n,nodes",
        [
            ("uniform", 4, 16),
            ("randomized", 4, 16),
            ("hotspot", 4, 16),
            ("transpose", 4, 16),
            ("geometric", 4, 16),
            ("torus", 4, 16),
            ("bitreversal", 3, 8),  # n is the hypercube dimension
        ],
    )
    def test_destinations_cover_topology(self, name, n, nodes):
        net = build_network(name, n)
        assert net.destinations.num_nodes == nodes
        assert net.router.topology.num_nodes == nodes
        pmf = net.destinations.pmf(0)
        assert pmf.shape == (nodes,)
        assert np.isclose(pmf.sum(), 1.0)

    def test_hotspot_params_forwarded(self):
        net = build_network("hotspot", 4, h=0.5, hot_node=3)
        assert net.destinations.h == 0.5
        assert net.destinations.hot_node == 3

    def test_hotspot_defaults_to_center(self):
        net = build_network("hotspot", 5)
        assert net.destinations.hot_node == 12  # (2, 2) on the 5x5 mesh


class TestCalibration:
    def test_uniform_honours_conventions(self):
        for convention in ("exact", "table1"):
            spec = CellSpec(
                scenario="uniform", n=5, rho=0.8, convention=convention
            )
            rate, mask = resolve_cell(spec)
            assert rate == lambda_for_load(5, 0.8, convention)
            assert mask is None

    def test_generic_calibration_hits_target_load(self):
        """Non-standard workloads: max edge load equals rho exactly."""
        for name in ("hotspot", "transpose", "geometric", "torus"):
            spec = CellSpec(scenario=name, n=4, rho=0.7)
            rate, _ = resolve_cell(spec)
            net = build_network(name, 4)
            rates = edge_rates_from_routing(net.router, net.destinations, rate)
            assert rates.max() == pytest.approx(0.7, rel=1e-12), name

    def test_explicit_node_rate_wins(self):
        spec = CellSpec(scenario="uniform", n=4, rho=0.9, node_rate=0.01)
        rate, _ = resolve_cell(spec)
        assert rate == 0.01

    def test_saturated_mask_matches_closed_form(self):
        from repro.core.rates import array_edge_rates
        from repro.core.saturation import saturated_edge_mask
        from repro.topology.array_mesh import ArrayMesh

        spec = CellSpec(
            scenario="uniform", n=5, rho=0.9, convention="table1",
            track_saturated=True,
        )
        rate, mask = resolve_cell(spec)
        expect = saturated_edge_mask(array_edge_rates(ArrayMesh(5), rate))
        assert np.array_equal(mask, expect)

    def test_hotspot_saturates_near_hot_node(self):
        spec = CellSpec(
            scenario="hotspot", n=4, rho=0.7, track_saturated=True,
            params=(("h", 0.6),),
        )
        _, mask = resolve_cell(spec)
        net = build_network("hotspot", 4, h=0.6)
        hot = net.destinations.hot_node
        # Every saturated edge points at the hot node (its in-edges are
        # the bottleneck under heavy hot-spot mass).
        heads = {net.router.topology.edge_endpoints(e)[1] for e in np.where(mask)[0]}
        assert hot in heads

    def test_cell_edge_rates_peak_at_the_target_load(self):
        for name in ("uniform", "hotspot", "torus"):
            spec = CellSpec(scenario=name, n=4, rho=0.7)
            assert cell_edge_rates(spec).max() == pytest.approx(0.7)


class TestLayered:
    """A scenario's router alone says whether its cells run on the numpy
    max-plus kernel (closed-form edge levels, which the report's
    scenario sweep asks too): every layered scenario must run a tiny
    numpy cell, every other one must be refused with the pointer back
    to the python backend."""

    @pytest.mark.parametrize(
        "name", [s.name for s in available_scenarios()]
    )
    def test_router_levels_match_the_numpy_kernel(self, name):
        n = {"single": 2, "bitreversal": 3}.get(name, 4)
        router = build_network(name, n).router
        layered = router.edge_levels() is not None
        # Cross-check against an independent witness: a topological sort
        # of the follows relation over the canonical routes, which are
        # the routes taken when the router draws no coins.
        assert layered == (
            layering_from_follows(router) is not None
            and not path_cache_for(router).consumes_rng
        )
        spec = CellSpec(
            scenario=name, n=n, rho=0.5, warmup=10.0, horizon=200.0,
            seeds=(1,), engine_params=(("backend", "numpy"),),
        )
        if layered:
            res = replicate(spec, processes=1)
            assert res.generated > 0
            assert res.replications[0].completed == res.generated
        else:
            with pytest.raises(ValueError, match="backend='python'"):
                replicate(spec, processes=1)

