"""The PS engine's level path against its heap loop.

The heap loop stays in production for cyclic routes, RNG-drawing path
caches and runs over the visit budget, and it is the oracle here: on
layered cells the level path (``ps_network._run_levels``) must reproduce
every integer field of ``ps_network._run_heap`` on the same seed, and
every float to rounding.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.routing.butterfly_routing import ButterflyRouter
from repro.routing.destinations import (
    HotSpotDestinations,
    MatrixDestinations,
    UniformDestinations,
)
from repro.routing.greedy import GreedyArrayRouter
from repro.routing.randomized_greedy import RandomizedGreedyArrayRouter
from repro.routing.torus_greedy import GreedyTorusRouter
from repro.scenarios import build_network, resolve_cell
from repro.sim import kernels, ps_network
from repro.sim.kernels import fits_level_sweep
from repro.sim.ps_network import PSNetworkSimulation
from repro.sim.replication import CellSpec
from repro.topology.array_mesh import ArrayMesh
from repro.topology.butterfly import Butterfly
from repro.topology.torus import Torus

INT_FIELDS = ("generated", "completed", "zero_hop", "in_flight_at_end", "dropped")
FLOAT_FIELDS = (
    "mean_number",
    "mean_remaining",
    "mean_delay",
    "delay_half_width",
    "mean_delay_littles",
)
BOTH = dict(collect_delays=True, track_number_distribution=True)
NEITHER = dict(collect_delays=False, track_number_distribution=False)


def _mesh(n, rate, seed, dests=None, **kw):
    mesh = ArrayMesh(n)
    law = UniformDestinations(mesh.num_nodes) if dests is None else dests
    return PSNetworkSimulation(GreedyArrayRouter(mesh), law, rate, seed=seed, **kw)


def _at_load(n, rho, seed):
    spec = CellSpec(scenario="uniform", n=n, rho=rho, engine="ps")
    rate, _ = resolve_cell(spec)
    net = build_network("uniform", n)
    return PSNetworkSimulation(net.router, net.destinations, rate, seed=seed)


def _per_edge_phi(n):
    return 1.0 + 0.5 * (np.arange(ArrayMesh(n).num_edges) % 4 == 0)


def _butterfly(d, rate, seed):
    """Level-0 sources sending uniformly to the level-d outputs."""
    b = Butterfly(d)
    p = np.zeros((b.num_nodes, b.num_nodes))
    p[:, [b.node_id(d, r) for r in range(b.rows)]] = 1.0 / b.rows
    sources = [b.node_id(0, r) for r in range(b.rows)]
    return PSNetworkSimulation(
        ButterflyRouter(b), MatrixDestinations(p), rate,
        source_nodes=sources, seed=seed,
    )


#: name -> (simulator, warmup, horizon)
CELLS = {
    "uniform-fast-ids": (_mesh(5, 0.12, 3), 10.0, 300.0),
    "hotspot": (
        _mesh(5, 0.1, 4, HotSpotDestinations(25, hot_node=12, h=0.3)),
        10.0,
        300.0,
    ),
    # Queues regularly hold several customers; per-edge service rates.
    "loaded-per-edge-phi": (
        _mesh(4, 0.8, 28, service_rates=_per_edge_phi(4)),
        15.0,
        150.0,
    ),
    "butterfly": (_butterfly(3, 1.4, 17), 10.0, 200.0),
    "warmup-zero": (_mesh(5, 0.12, 5), 0.0, 200.0),
    # About 19k arrivals: three exponential blocks and three id blocks.
    "multi-block": (_mesh(8, 0.3, 6), 20.0, 1000.0),
    # Long busy periods.
    "rho-0.95": (_at_load(4, 0.95, 7), 50.0, 600.0),
}


def _assert_close(level, loop, t_end):
    for field in INT_FIELDS:
        assert getattr(level, field) == getattr(loop, field), field
    for field in FLOAT_FIELDS:
        a, b = getattr(level, field), getattr(loop, field)
        assert a == pytest.approx(b, rel=1e-12, abs=0.0), field
    assert math.isnan(level.mean_remaining_saturated)
    assert level.utilization is None and level.node_drops is None
    if loop.number_distribution is None:
        assert level.number_distribution is None
    else:
        # The same counts, each held for the same fraction of the window.
        assert list(level.number_distribution) == list(loop.number_distribution)
        for k, v in loop.number_distribution.items():
            assert level.number_distribution[k] == pytest.approx(
                v, rel=1e-12, abs=1e-12
            ), k
    if loop.delays is None:
        assert level.delays is None
    else:
        # The same delays in the same (completion) order. PS delays are
        # sums over long chains of shared-service steps that the two
        # paths round differently, so each agrees to 1e-12 of the run's
        # time scale rather than of its own size.
        assert level.delays.shape == loop.delays.shape
        np.testing.assert_allclose(
            level.delays, loop.delays, rtol=1e-12, atol=1e-12 * t_end
        )


@pytest.mark.parametrize("flags", [NEITHER, BOTH], ids=["plain", "tracked"])
@pytest.mark.parametrize("name", sorted(CELLS))
def test_level_path_matches_the_heap_loop(name, flags):
    sim, warmup, horizon = CELLS[name]
    assert fits_level_sweep(sim, warmup, horizon)
    level = ps_network._run_levels(sim, warmup, horizon, **flags)
    assert level is not None
    loop = ps_network._run_heap(sim, warmup, horizon, **flags)
    _assert_close(level, loop, warmup + horizon)
    # run takes the level path on this cell.
    _identical(sim.run(warmup, horizon, **flags), level)


def test_multi_block_cell_crosses_both_refills():
    sim, warmup, horizon = CELLS["multi-block"]
    res = ps_network._run_levels(sim, warmup, horizon, **NEITHER)
    assert res.generated > 2 * ps_network._BLOCK


def test_loaded_cells_share_servers():
    """The loaded and rho 0.95 cells exercise PS proper: the network
    holds many packets at a time."""
    for name in ("loaded-per-edge-phi", "rho-0.95"):
        sim, warmup, horizon = CELLS[name]
        res = ps_network._run_levels(sim, warmup, horizon, **BOTH)
        assert max(res.number_distribution) >= 20, name


def test_nothing_routed_run_counts_zero_hops_only():
    """Every packet targets its own source: no visit is solved."""
    from repro.routing.destinations import PermutationDestinations

    sim = PSNetworkSimulation(
        GreedyArrayRouter(ArrayMesh(2)),
        PermutationDestinations([0, 1, 2, 3]),
        0.5,
        seed=2,
    )
    level = ps_network._run_levels(sim, 5.0, 50.0, **BOTH)
    assert level.generated == level.zero_hop == level.completed > 0
    assert level.mean_number == 0.0 and level.mean_delay == 0.0
    assert level.number_distribution == {0: 1.0}
    _assert_close(level, ps_network._run_heap(sim, 5.0, 50.0, **BOTH), 55.0)


def _identical(a, b):
    """Every field of two results is equal (NaN equals NaN)."""
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, float) and math.isnan(va):
            assert isinstance(vb, float) and math.isnan(vb), field.name
        elif isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), field.name
        else:
            assert va == vb, field.name


def test_over_budget_run_is_the_loops(monkeypatch):
    sim, warmup, horizon = CELLS["uniform-fast-ids"]
    loop = ps_network._run_heap(sim, warmup, horizon, **BOTH)
    monkeypatch.setattr(kernels, "NUMPY_VISIT_BUDGET", 1000)
    assert not fits_level_sweep(sim, warmup, horizon)
    _identical(sim.run(warmup, horizon, **BOTH), loop)


def test_torus_run_is_the_loops():
    """The torus router has no closed-form levels (its routes have a
    precedence cycle), so its runs go straight to the heap loop."""
    sim = PSNetworkSimulation(
        GreedyTorusRouter(Torus(5)), UniformDestinations(25), 0.15, seed=11
    )
    assert not fits_level_sweep(sim, 15.0, 150.0)
    _identical(
        sim.run(15.0, 150.0, **BOTH),
        ps_network._run_heap(sim, 15.0, 150.0, **BOTH),
    )


def test_randomized_run_is_the_loops():
    """A randomized router's path cache draws from the run's generator,
    so those runs stay on the heap loop."""
    sim = PSNetworkSimulation(
        RandomizedGreedyArrayRouter(ArrayMesh(5)),
        UniformDestinations(25),
        0.12,
        seed=12,
    )
    assert not fits_level_sweep(sim, 15.0, 150.0)
    _identical(
        sim.run(15.0, 150.0, **BOTH),
        ps_network._run_heap(sim, 15.0, 150.0, **BOTH),
    )


def test_results_do_not_depend_on_earlier_runs():
    """Each run's levels come from its own routes: a router that served
    other seeds and laws first gives the same result as a fresh one."""
    mesh = ArrayMesh(5)
    router = GreedyArrayRouter(mesh)
    PSNetworkSimulation(
        router, HotSpotDestinations(25, hot_node=3, h=0.9), 0.1, seed=1
    ).run(0.0, 100.0)
    used = PSNetworkSimulation(router, UniformDestinations(25), 0.15, seed=4)
    fresh = PSNetworkSimulation(
        GreedyArrayRouter(mesh), UniformDestinations(25), 0.15, seed=4
    )
    _identical(used.run(10.0, 300.0, **BOTH), fresh.run(10.0, 300.0, **BOTH))


def test_level_path_does_not_grow_the_path_cache():
    sim, warmup, horizon = CELLS["hotspot"]
    cache = sim.path_cache
    before = len(cache)
    ps_network._run_levels(sim, warmup, horizon, **NEITHER)
    assert len(cache) == before


def test_busy_periods_merge_where_they_overlap(monkeypatch):
    """Where a period's last departure comes after the next period's
    first arrival on its edge, the two are merged and solved as one.
    With the FIFO cut replaced by one that opens a period at every
    arrival, the merges alone must rebuild the true busy periods."""
    from repro.sim.kernels import levels

    rng = np.random.default_rng(0)
    e = rng.integers(0, 3, size=400).astype(np.int16)
    x = np.sort(rng.exponential(0.4, size=400).cumsum())
    phi = np.array([1.0, 1.5, 2.0])
    want = x.copy()
    levels._ps_departures(e, want, phi, 3)
    monkeypatch.setattr(levels, "_solve_runs", lambda e_o, x_o, c, lag: x_o)
    got = x.copy()
    levels._ps_departures(e, got, phi, 3)
    np.testing.assert_array_equal(got, want)
    assert np.all(want > x)


def test_a_period_that_empties_idles_until_its_next_arrival():
    """Rounding can leave a FIFO busy period that PS empties before its
    next arrival; the lockstep then holds until that arrival."""
    from repro.sim.kernels import levels

    a = np.array([0.0, 0.5, 5.0, 5.0])
    d = levels._ps_periods(a, np.array([0]), 1.0)
    # Two customers share [0.5, 1.5], then the server idles until 5.
    np.testing.assert_allclose(d, [1.5, 2.0, 7.0, 7.0])
