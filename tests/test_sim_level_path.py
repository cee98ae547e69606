"""The python FIFO kernel's level path against its event loops.

The merge loop stays in production for cyclic routes, RNG-drawing path
caches, ``collect_delays`` and runs over the visit budget, and it is the
oracle here: on layered cells the level path (``_run_levels``) must
reproduce every integer field of ``_run_events`` on the same seed, and
every float to rounding.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.routing.butterfly_routing import ButterflyRouter
from repro.routing.destinations import (
    GeometricStopDestinations,
    HotSpotDestinations,
    MatrixDestinations,
    PermutationDestinations,
    UniformDestinations,
)
from repro.routing.greedy import GreedyArrayRouter
from repro.routing.hypercube_greedy import GreedyHypercubeRouter
from repro.routing.torus_greedy import GreedyTorusRouter
from repro.core.rates import lambda_for_load
from repro.experiments import configs, grid
from repro.scenarios import build_network, resolve_cell
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.finite_buffer import FiniteBufferNetworkSimulation
from repro.sim import kernels
from repro.sim.kernels import fits_level_sweep, python_backend
from repro.sim.replication import CellSpec
from repro.topology.array_mesh import ArrayMesh
from repro.topology.butterfly import Butterfly
from repro.topology.hypercube import Hypercube
from repro.topology.torus import Torus

INT_FIELDS = ("generated", "completed", "zero_hop", "in_flight_at_end", "dropped")
FLOAT_FIELDS = (
    "mean_number",
    "mean_remaining",
    "mean_delay",
    "delay_half_width",
    "mean_delay_littles",
)
#: Fields both paths leave at their untracked values.
UNTRACKED = (
    "utilization",
    "delays",
    "number_distribution",
    "node_drops",
    "max_queue_length",
)


def _mesh(n, dests=UniformDestinations, rate=0.15, seed=3, cls=NetworkSimulation, **kw):
    mesh = ArrayMesh(n)
    law = dests(mesh) if dests is not UniformDestinations else dests(mesh.num_nodes)
    return cls(GreedyArrayRouter(mesh), law, rate, seed=seed, **kw)


def _single(rate):
    net = build_network("single", 2)
    return NetworkSimulation(
        net.router, net.destinations, rate, source_nodes=net.source_nodes, seed=5
    )


def _butterfly(d, rate, seed):
    """Level-0 sources sending uniformly to the level-d outputs."""
    b = Butterfly(d)
    p = np.zeros((b.num_nodes, b.num_nodes))
    p[:, [b.node_id(d, r) for r in range(b.rows)]] = 1.0 / b.rows
    sources = [b.node_id(0, r) for r in range(b.rows)]
    return NetworkSimulation(
        ButterflyRouter(b), MatrixDestinations(p), rate,
        source_nodes=sources, seed=seed,
    )


#: name -> (simulator, warmup, horizon)
CELLS = {
    "uniform-fast-ids": (_mesh(5), 10.0, 200.0),
    "hotspot": (
        _mesh(5, lambda m: HotSpotDestinations(25, hot_node=12, h=0.3), 0.1),
        10.0,
        200.0,
    ),
    "transpose": (_mesh(4, PermutationDestinations.transpose, 0.2), 10.0, 200.0),
    "geometric": (
        _mesh(4, lambda m: GeometricStopDestinations(m, stop=0.5), 0.25),
        10.0,
        200.0,
    ),
    "hypercube": (
        NetworkSimulation(
            GreedyHypercubeRouter(Hypercube(4)),
            PermutationDestinations.bit_reversal(16),
            0.3,
            seed=8,
        ),
        10.0,
        200.0,
    ),
    "butterfly": (_butterfly(3, 1.4, 17), 10.0, 200.0),
    "single": (_single(0.8), 20.0, 500.0),
    "finite-unbounded": (
        _mesh(5, cls=FiniteBufferNetworkSimulation, buffer_size=None),
        10.0,
        200.0,
    ),
    "warmup-zero": (_mesh(5, seed=4), 0.0, 150.0),
    # About 20k arrivals: three exponential blocks and three id blocks.
    "multi-block": (_mesh(8, rate=0.3, seed=6), 50.0, 1000.0),
    # Every packet targets its own source: nothing is routed.
    "nothing-routed": (
        NetworkSimulation(
            GreedyArrayRouter(ArrayMesh(2)),
            PermutationDestinations([0, 1, 2, 3]),
            0.5,
            seed=2,
        ),
        5.0,
        50.0,
    ),
}


def _assert_close(level, loop):
    for field in INT_FIELDS:
        assert getattr(level, field) == getattr(loop, field), field
    for field in FLOAT_FIELDS:
        a, b = getattr(level, field), getattr(loop, field)
        if math.isnan(b):
            assert math.isnan(a), field
        else:
            assert a == pytest.approx(b, rel=1e-12, abs=0.0), field
    for field in UNTRACKED:
        assert getattr(level, field) == getattr(loop, field) or (
            getattr(level, field) is None and getattr(loop, field) is None
        ), field
    assert math.isnan(level.max_delay) and math.isnan(loop.max_delay)
    assert math.isnan(level.mean_remaining_saturated)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_level_path_matches_the_loop(name):
    sim, warmup, horizon = CELLS[name]
    assert python_backend.takes_level_path(sim, warmup, horizon)
    level = python_backend._run_levels(sim, warmup, horizon)
    assert level is not None
    loop = python_backend._run_events(sim, warmup, horizon)
    _assert_close(level, loop)
    # run_fifo takes the level path on this cell.
    _identical(python_backend.run_fifo(sim, warmup, horizon), level)


def test_multi_block_cell_crosses_both_refills():
    sim, warmup, horizon = CELLS["multi-block"]
    res = python_backend._run_levels(sim, warmup, horizon)
    assert res.generated > 2 * python_backend._BLOCK


def test_nothing_routed_cell_counts_zero_hops_only():
    sim, warmup, horizon = CELLS["nothing-routed"]
    res = python_backend.run_fifo(sim, warmup, horizon)
    assert res.generated == res.zero_hop == res.completed > 0
    assert res.mean_number == 0.0 and res.mean_delay == 0.0


def _identical(a, b):
    """Every field of two results is equal (NaN equals NaN)."""
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, float) and math.isnan(va):
            assert isinstance(vb, float) and math.isnan(vb), field.name
        else:
            assert va == vb, field.name


def test_over_budget_run_is_the_loops(monkeypatch):
    sim, warmup, horizon = CELLS["uniform-fast-ids"]
    loop = python_backend._run_events(sim, warmup, horizon)
    monkeypatch.setattr(kernels, "NUMPY_VISIT_BUDGET", 1000)
    assert not python_backend.takes_level_path(sim, warmup, horizon)
    _identical(python_backend.run_fifo(sim, warmup, horizon), loop)


def test_torus_run_is_the_loops():
    """The torus router has no closed-form levels (its routes have a
    precedence cycle), so its runs go straight to the event loops."""
    torus = Torus(5)
    sim = NetworkSimulation(
        GreedyTorusRouter(torus), UniformDestinations(25), 0.15, seed=11
    )
    assert not python_backend.takes_level_path(sim, 15.0, 150.0)
    _identical(
        python_backend.run_fifo(sim, 15.0, 150.0),
        python_backend._run_events(sim, 15.0, 150.0),
    )


@pytest.mark.parametrize(
    "run_kw",
    [
        dict(collect_delays=True),
        dict(track_maxima=True),
        dict(track_utilization=True),
        dict(track_number_distribution=True),
    ],
    ids=["delays", "maxima", "utilization", "ndist"],
)
def test_tracked_runs_stay_on_the_loops(run_kw):
    sim, warmup, horizon = CELLS["uniform-fast-ids"]
    assert not python_backend.takes_level_path(sim, warmup, horizon, **run_kw)


def test_results_do_not_depend_on_earlier_runs():
    """The levels are the router's closed form: a router that served
    other seeds and laws first gives the same result as a fresh one."""
    mesh = ArrayMesh(5)
    router = GreedyArrayRouter(mesh)
    NetworkSimulation(
        router, HotSpotDestinations(25, hot_node=3, h=0.9), 0.1, seed=1
    ).run(0.0, 100.0)
    used = NetworkSimulation(router, UniformDestinations(25), 0.2, seed=4)
    fresh = NetworkSimulation(
        GreedyArrayRouter(mesh), UniformDestinations(25), 0.2, seed=4
    )
    _identical(used.run(10.0, 300.0), fresh.run(10.0, 300.0))


def test_level_path_does_not_grow_the_path_cache():
    sim, warmup, horizon = CELLS["hotspot"]
    cache = sim.path_cache
    before = len(cache)
    python_backend._run_levels(sim, warmup, horizon)
    assert len(cache) == before


def _cell_sim(spec):
    """A python fifo simulator on ``spec``'s network at its resolved rate."""
    rate, _ = resolve_cell(spec)
    net = build_network(spec.scenario, spec.n)
    return NetworkSimulation(net.router, net.destinations, rate)


class TestLevelSweepAdmission:
    """``fits_level_sweep`` bounds a run's visits by total rate x window x
    the router's number of levels, which bounds every path's hops."""

    def test_mesh32_python_cell_is_admitted(self):
        """The 32x32 python fifo cell that perfbench's ``mesh32`` runs."""
        spec = CellSpec(
            scenario="uniform", n=32, rho=0.6, warmup=100.0, horizon=200.0
        )
        sim = _cell_sim(spec)
        assert fits_level_sweep(sim, spec.warmup, spec.horizon)
        assert python_backend.takes_level_path(sim, spec.warmup, spec.horizon)

    def test_bench_32x32_event_cell_is_admitted(self):
        """The 32x32 event cell of ``benchmarks/bench_engine_hotpath.py``
        (rho 0.8 under the Table I convention, window 20 + 120)."""
        mesh = ArrayMesh(32)
        sim = NetworkSimulation(
            GreedyArrayRouter(mesh),
            UniformDestinations(mesh.num_nodes),
            lambda_for_load(32, 0.8, "table1"),
        )
        assert fits_level_sweep(sim, 20.0, 120.0)

    def test_full_table1_heavy_cell_is_not(self):
        """FULL Table I at n=20, rho=0.99 stays on the loop, whose memory
        does not grow with the run."""
        spec = next(
            s for s in grid.grid_specs(configs.FULL) if s.n == 20 and s.rho == 0.99
        )
        sim = _cell_sim(spec)
        assert not fits_level_sweep(sim, spec.warmup, spec.horizon)

    def test_hypercube_bound_is_its_dimension(self, monkeypatch):
        """Total rate 4 over a window of 100 on the 4-cube: at most
        400 x 4 visits, admitted at exactly that budget and not below."""
        sim = NetworkSimulation(
            GreedyHypercubeRouter(Hypercube(4)), UniformDestinations(16), 0.25
        )
        monkeypatch.setattr(kernels, "NUMPY_VISIT_BUDGET", 1600)
        assert fits_level_sweep(sim, 10.0, 90.0)
        monkeypatch.setattr(kernels, "NUMPY_VISIT_BUDGET", 1599)
        assert not fits_level_sweep(sim, 10.0, 90.0)

    def test_router_without_edges_needs_no_visits(self):
        sim = SimpleNamespace(
            router=SimpleNamespace(edge_levels=lambda: np.empty(0, np.int16)),
            path_cache=SimpleNamespace(consumes_rng=False),
            total_rate=1e9,
        )
        assert fits_level_sweep(sim, 0.0, 1e9)
