"""Exponential-service FIFO runs on the python kernel's level path.

Exponential service has a stream of its own: every routed packet takes
its hops' unit exponentials from it when it is generated, so the heap
loop and the level path consume the same values in the same order, and
the arrival stream is the deterministic runs'. The heap loop
(``_run_events``) stays in production for capped, ``track_maxima``,
cyclic and over-budget runs, and it is the oracle here: on layered cells
the level path (``_run_levels``) must reproduce every integer field,
every float to 1e-12 relative, and the collected delays in the same
order.
"""

import math

import numpy as np
import pytest

from repro.analysis import rngsan
from repro.routing.butterfly_routing import ButterflyRouter
from repro.routing.destinations import (
    HotSpotDestinations,
    MatrixDestinations,
    PermutationDestinations,
    UniformDestinations,
)
from repro.routing.greedy import GreedyArrayRouter
from repro.routing.hypercube_greedy import GreedyHypercubeRouter
from repro.routing.torus_greedy import GreedyTorusRouter
from repro.scenarios import build_network
from repro.sim import rng as simrng
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.finite_buffer import FiniteBufferNetworkSimulation
from repro.sim.kernels import levels, python_backend
from repro.topology.array_mesh import ArrayMesh
from repro.topology.butterfly import Butterfly
from repro.topology.hypercube import Hypercube
from repro.topology.torus import Torus

EXP = "exponential"
INT_FIELDS = ("generated", "completed", "zero_hop", "in_flight_at_end", "dropped")
FLOAT_FIELDS = (
    "mean_number",
    "mean_remaining",
    "mean_delay",
    "delay_half_width",
    "mean_delay_littles",
)


def _mesh(n, dests=None, rate=0.15, seed=3, service=EXP, **kw):
    mesh = ArrayMesh(n)
    law = dests(mesh) if dests else UniformDestinations(mesh.num_nodes)
    return NetworkSimulation(
        GreedyArrayRouter(mesh), law, rate, service=service, seed=seed, **kw
    )


def _per_edge_rates(num_edges):
    return 1.0 + 0.5 * (np.arange(num_edges) % 4 == 0)


def _single(rho, seed=5, service=EXP):
    """The one-queue M/M/1 cell (one source, one edge)."""
    net = build_network("single", 2)
    return NetworkSimulation(
        net.router, net.destinations, rho, source_nodes=net.source_nodes,
        service=service, seed=seed,
    )


def _butterfly(d, rate, seed):
    """Level-0 sources sending uniformly to the level-d outputs."""
    b = Butterfly(d)
    p = np.zeros((b.num_nodes, b.num_nodes))
    p[:, [b.node_id(d, r) for r in range(b.rows)]] = 1.0 / b.rows
    sources = [b.node_id(0, r) for r in range(b.rows)]
    return NetworkSimulation(
        ButterflyRouter(b), MatrixDestinations(p), rate,
        source_nodes=sources, service=EXP, seed=seed,
    )


#: name -> (simulator, warmup, horizon)
CELLS = {
    "uniform-fast-ids": (_mesh(5), 10.0, 200.0),
    "hotspot": (
        _mesh(5, lambda m: HotSpotDestinations(25, hot_node=12, h=0.3), 0.1),
        10.0,
        200.0,
    ),
    "per-edge-rates": (
        _mesh(5, rate=0.12, service_rates=_per_edge_rates(ArrayMesh(5).num_edges)),
        10.0,
        200.0,
    ),
    "warmup-zero": (_mesh(5, seed=4), 0.0, 150.0),
    # About 20k arrivals and 90k service values: three arrival blocks,
    # three id blocks and a dozen service blocks.
    "multi-block": (_mesh(8, rate=0.3, seed=6), 50.0, 1000.0),
    # M/M/1 at load 0.95: long busy periods on the one edge.
    "single-high-load": (_single(0.95), 20.0, 3000.0),
    "hypercube": (
        NetworkSimulation(
            GreedyHypercubeRouter(Hypercube(4)),
            PermutationDestinations.bit_reversal(16),
            0.3,
            service=EXP,
            seed=8,
        ),
        10.0,
        200.0,
    ),
    "butterfly": (_butterfly(3, 1.4, 17), 10.0, 200.0),
    "finite-unbounded": (
        FiniteBufferNetworkSimulation(
            GreedyArrayRouter(ArrayMesh(5)), UniformDestinations(25), 0.15,
            buffer_size=None, service=EXP, seed=9,
        ),
        10.0,
        200.0,
    ),
}


def _assert_close(level, loop):
    for field in INT_FIELDS:
        assert getattr(level, field) == getattr(loop, field), field
    for field in FLOAT_FIELDS + ("mean_remaining_saturated",):
        a, b = getattr(level, field), getattr(loop, field)
        if math.isnan(b):
            assert math.isnan(a), field
        else:
            assert a == pytest.approx(b, rel=1e-12, abs=0.0), field
    if loop.delays is None:
        assert level.delays is None
    else:
        # Departures are the loop's bit for bit and completions never
        # tie, so the collected delays are the loop's, in its order.
        assert level.delays.tobytes() == loop.delays.tobytes()
    if loop.utilization is None:
        assert level.utilization is None
    else:
        np.testing.assert_allclose(
            level.utilization, loop.utilization, rtol=1e-12, atol=1e-15
        )
    if loop.number_distribution is None:
        assert level.number_distribution is None
    else:
        assert list(level.number_distribution) == list(loop.number_distribution)
        for k, p in loop.number_distribution.items():
            assert level.number_distribution[k] == pytest.approx(
                p, rel=1e-12, abs=1e-15
            ), k


@pytest.mark.parametrize("name", sorted(CELLS))
def test_level_path_matches_the_heap_loop(name):
    sim, warmup, horizon = CELLS[name]
    flags = dict(collect_delays=True)
    assert python_backend.takes_level_path(sim, warmup, horizon, **flags)
    level = python_backend._run_levels(sim, warmup, horizon, **flags)
    loop = python_backend._run_events(sim, warmup, horizon, **flags)
    _assert_close(level, loop)
    assert level.delays.size == level.completed > 0
    # run() takes the level path on this cell.
    assert sim.run(warmup, horizon, **flags).delays.tobytes() == level.delays.tobytes()


@pytest.mark.parametrize(
    "sim_kw, run_kw",
    [
        (
            dict(saturated_mask=np.arange(ArrayMesh(5).num_edges) % 3 == 0),
            dict(track_utilization=True),
        ),
        ({}, dict(track_number_distribution=True)),
        ({}, {}),
    ],
    ids=["sat-util", "ndist", "plain"],
)
def test_tracked_options_match_the_heap_loop(sim_kw, run_kw):
    sim = _mesh(5, rate=0.12, seed=20, **sim_kw)
    assert python_backend.takes_level_path(sim, 10.0, 150.0, **run_kw)
    _assert_close(
        python_backend._run_levels(sim, 10.0, 150.0, **run_kw),
        python_backend._run_events(sim, 10.0, 150.0, **run_kw),
    )


def test_multi_block_cell_crosses_the_service_refills():
    sim, warmup, horizon = CELLS["multi-block"]
    res = []
    draws = _stream_draws(
        lambda: res.append(python_backend._run_levels(sim, warmup, horizon))
    )
    assert res[0].generated > 2 * python_backend._BLOCK
    assert len(draws["service"]) > 3


class TestAdmission:
    """Exponential runs take the level path unless capped, tracking
    maxima, cyclic or over the visit budget."""

    def test_collect_delays_is_admitted(self):
        sim, warmup, horizon = CELLS["uniform-fast-ids"]
        assert python_backend.takes_level_path(
            sim, warmup, horizon, collect_delays=True,
            track_utilization=True, track_number_distribution=True,
        )

    def test_maxima_stay_on_the_heap_loop(self):
        sim, warmup, horizon = CELLS["uniform-fast-ids"]
        assert not python_backend.takes_level_path(
            sim, warmup, horizon, track_maxima=True
        )

    def test_capped_run_stays_on_the_heap_loop(self):
        sim = FiniteBufferNetworkSimulation(
            GreedyArrayRouter(ArrayMesh(5)), UniformDestinations(25), 0.15,
            buffer_size=2, service=EXP, seed=9,
        )
        assert not python_backend.takes_level_path(sim, 10.0, 200.0)

    def test_torus_run_is_the_heap_loops(self):
        sim = NetworkSimulation(
            GreedyTorusRouter(Torus(5)), UniformDestinations(25), 0.15,
            service=EXP, seed=11,
        )
        assert not python_backend.takes_level_path(sim, 15.0, 150.0)
        a = python_backend.run_fifo(sim, 15.0, 150.0)
        b = python_backend._run_events(sim, 15.0, 150.0)
        assert (a.generated, a.mean_delay.hex()) == (b.generated, b.mean_delay.hex())

    def test_over_budget_run_is_the_heap_loops(self, monkeypatch):
        from repro.sim import kernels

        sim, warmup, horizon = CELLS["uniform-fast-ids"]
        loop = python_backend._run_events(sim, warmup, horizon)
        monkeypatch.setattr(kernels, "NUMPY_VISIT_BUDGET", 1000)
        assert not python_backend.takes_level_path(sim, warmup, horizon)
        res = python_backend.run_fifo(sim, warmup, horizon)
        assert (res.completed, res.mean_number.hex()) == (
            loop.completed,
            loop.mean_number.hex(),
        )


def _stream_draws(run):
    """``{stream: [(method, size), ...]}`` of every generator ``run``
    builds, each stream's draws in its own list."""
    streams: dict = {}

    def factory(seed, **meta):
        draws = streams.setdefault(meta.get("stream", "arrivals"), [])
        return rngsan.TracingGenerator(
            np.random.default_rng(seed), lambda d: draws.append(tuple(d[:2]))
        )

    previous = simrng._FACTORY
    simrng.install_factory(factory)
    try:
        run()
    finally:
        if previous is None:
            simrng.uninstall_factory()
        else:
            simrng.install_factory(previous)
    return streams


@pytest.mark.parametrize("block", [5, 16, 64])
@pytest.mark.parametrize("law", ["fast-ids", "hotspot"])
def test_both_paths_draw_the_same_streams(monkeypatch, block, law):
    """The level path makes the heap loop's ``(method, size)`` draws on
    the arrival stream and on the service stream, across many refills."""
    monkeypatch.setattr(python_backend, "_BLOCK", block)
    hot = lambda m: HotSpotDestinations(25, hot_node=12, h=0.3)
    sim = _mesh(5, hot if law == "hotspot" else None, rate=0.12, seed=7)
    level = _stream_draws(lambda: python_backend._run_levels(sim, 5.0, 60.0))
    loop = _stream_draws(lambda: python_backend._run_events(sim, 5.0, 60.0))
    assert set(loop) == {"arrivals", "service"}
    assert level == loop
    assert set(loop["service"]) == {("exponential", block)}
    assert len(loop["service"]) > 1


@pytest.mark.parametrize(
    "build",
    [
        lambda service: _mesh(5, seed=12, service=service),
        lambda service: _mesh(
            5,
            lambda m: HotSpotDestinations(25, hot_node=12, h=0.3),
            0.1,
            seed=13,
            service=service,
        ),
        lambda service: _single(0.7, seed=14, service=service),
    ],
    ids=["uniform", "hotspot", "single"],
)
def test_exponential_and_deterministic_runs_share_arrivals(build):
    """Common random numbers: at one seed an exponential run and a
    deterministic run generate the same packets (service draws nothing
    from the arrival stream), on either path."""
    exp, det = build(EXP), build("deterministic")
    for run in (python_backend._run_levels, python_backend._run_events):
        a, b = run(exp, 10.0, 300.0), run(det, 10.0, 300.0)
        assert (a.generated, a.zero_hop) == (b.generated, b.zero_hop)
        assert a.generated > 0


class TestFifoServiceDepartures:
    """The per-visit service solve is the Lindley recursion summed in the
    loop's order, ``d_k = max(x_k, d_{k-1}) + s_k``, bit for bit."""

    @staticmethod
    def _lindley(e, x, s):
        d = np.empty_like(x)
        last: dict = {}
        for i in sorted(range(x.size), key=lambda i: (e[i], x[i])):
            t = max(x[i], last.get(e[i], -math.inf)) + s[i]
            d[i] = t
            last[e[i]] = t
        return d

    @pytest.mark.parametrize("seed", range(5))
    def test_random_level_is_the_recursion(self, seed):
        rng = np.random.default_rng(seed)
        n = 400
        e = rng.integers(0, 7, n).astype(np.int16)
        x = rng.random(n) * 150.0
        s = rng.exponential(size=n)
        got = x.copy()
        levels._fifo_service_departures(e, got, s, 7)
        assert got.tobytes() == self._lindley(e, x, s).tobytes()

    @staticmethod
    def _near_ties(seed):
        """One edge whose cumulative service sits just below 2**27 while
        its departures sit above it, so the closed form rounds on a finer
        grid than the departures; every later arrival lands one ulp
        before or after the previous exact departure."""
        rng = np.random.default_rng(seed)
        n = 12
        s = rng.random(n)
        s[0] = 2.0**27 - 1000.0
        x = np.zeros(n)
        last = 0.0
        for k in range(n):
            if k == 1:
                x[k] = s[0] + 2000.0
            elif k > 1:
                x[k] = np.nextafter(last, -math.inf if rng.random() < 0.5 else math.inf)
            last = max(x[k], last) + s[k]
        return x, s

    def test_wrong_cuts_are_merged(self, monkeypatch):
        """Where the closed form cuts a busy period the exact sums keep
        busy, the two periods are merged and the level solved again."""
        solves = []
        periods = levels._fifo_periods

        def counting(x, s, starts):
            solves.append(starts.size)
            return periods(x, s, starts)

        monkeypatch.setattr(levels, "_fifo_periods", counting)
        merged = 0
        for seed in range(20):
            x, s = self._near_ties(seed)
            e = np.zeros(x.size, dtype=np.int16)
            got = x.copy()
            solves.clear()
            levels._fifo_service_departures(e, got, s, 1)
            assert got.tobytes() == self._lindley(e, x, s).tobytes(), seed
            merged += len(solves) > 1
        assert merged > 0
