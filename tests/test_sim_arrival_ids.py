"""The shared arrival-id draw, :func:`repro.sim.enginecommon.draw_ids`.

Every kernel draws its ``(src, dst)`` ids through this one blocked
helper. Outside the fast-id case (non-uniform destination laws,
weighted or partial source sets) its block order differs from any
per-packet draw, so the golden cells pin the stream and these tests pin
the law.

* Helper level: the pooled ``(src, dst)`` frequencies of several
  8192-pair blocks match the rate-weighted pmf (chi-square), and no pair
  falls outside the law's support.
* Engine level: the per-edge traffic each interpreted engine measures
  matches the exact solver :func:`repro.core.rates.edge_rates_from_routing`
  (through :func:`repro.scenarios.cell_edge_rates`). The PS and rushed
  cells are slow-marked: those engines draw the fifo kernel's ids exactly
  (``test_sim_replication``'s shared-arrival-path pin), so the fast lane
  keeps the law covered through the fifo cells.
* A law that implements only the scalar ``sample`` still runs on every
  event engine and keeps its pmf.

Thresholds. Every check holds its family-wise false-alarm rate at
``ALPHA`` = 1e-3, Bonferroni-split over the quantities it compares: a
normal quantile where the standard error is analytic, a Student-t
quantile with ``R - 1`` degrees of freedom where it comes from ``R``
seeds. The fifo utilization of edge ``e`` over a horizon ``H`` is, up to
the window's boundary, the count of its unit-work visits divided by
``H``; those visits are a thinned Poisson stream of rate ``lam_e``, so
``se = sqrt(lam_e / (R H))``. Clean 8x8 cells give a mean ``z**2`` of
1.0 over 224 edges, and the largest ``|z|`` stays near 3 against a
threshold of 4.6.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from repro.analysis import rngsan
from repro.queueing.md1 import MD1Queue
from repro.routing.destinations import GeometricStopDestinations
from repro.routing.greedy import GreedyArrayRouter
from repro.scenarios import build_network, cell_edge_rates, resolve_cell
from repro.sim.enginecommon import draw_ids
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.ps_network import PSNetworkSimulation
from repro.sim.replication import CellSpec, replicate
from repro.sim.rushed_network import RushedNetworkSimulation
from repro.topology.array_mesh import ArrayMesh

BLOCK = 8192
ALPHA = 1e-3


def _threshold(k, df=None):
    """Two-sided ``ALPHA`` quantile, Bonferroni-split over ``k`` tests."""
    q = 1.0 - ALPHA / (2 * k)
    return float(stats.norm.ppf(q) if df is None else stats.t.ppf(q, df))


class ScalarOnly:
    """Wrap a law behind the bare scalar protocol: no ``sample_batch``."""

    def __init__(self, law):
        self._law = law
        self.num_nodes = law.num_nodes

    def sample(self, src, rng):
        return self._law.sample(src, rng)

    def pmf(self, src):
        return self._law.pmf(src)


def _weighted_sim():
    """A 4x4 mesh whose sources have unequal rates, a zero-rate source
    included, under the hot-spot law."""
    net = build_network("hotspot", 4, h=0.25)
    rates = np.linspace(0.0, 1.5, 16)
    return NetworkSimulation(net.router, net.destinations, rates.tolist())


def _scenario_sim(name, **params):
    net = build_network(name, 4, **params)
    return NetworkSimulation(
        net.router, net.destinations, 0.1, source_nodes=net.source_nodes
    )


def _scalar_only_sim():
    mesh = ArrayMesh(4)
    law = ScalarOnly(GeometricStopDestinations(mesh, stop=0.5))
    return NetworkSimulation(GreedyArrayRouter(mesh), law, 0.1)


HELPER_CELLS = {
    "hotspot": lambda: _scenario_sim("hotspot", h=0.25),
    "geometric": lambda: _scenario_sim("geometric"),
    "transpose": lambda: _scenario_sim("transpose"),
    "bitreversal": lambda: _scenario_sim("bitreversal"),
    "weighted-sources": _weighted_sim,
    "scalar-only": _scalar_only_sim,
}


def _joint_pmf(sim):
    """Exact ``P(src, dst)``: source rate share times the law's pmf."""
    n = sim.topology.num_nodes
    joint = np.zeros((n, n))
    for s, rate in zip(sim.source_nodes, sim.node_rates):
        joint[s] += rate / sim.total_rate * sim.destinations.pmf(s)
    return joint


@pytest.mark.parametrize("name", sorted(HELPER_CELLS))
def test_helper_pairs_match_weighted_pmf(name):
    sim = HELPER_CELLS[name]()
    assert not sim._fast_ids
    rng = np.random.default_rng(2024)
    n = sim.topology.num_nodes
    counts = np.zeros(n * n, dtype=np.int64)
    for _ in range(6):
        srcs, dsts = draw_ids(sim, BLOCK, rng)
        assert srcs.shape == dsts.shape == (BLOCK,)
        counts += np.bincount(srcs * n + dsts, minlength=n * n)
    expected = _joint_pmf(sim).reshape(-1) * counts.sum()
    support = expected > 0
    assert counts[~support].sum() == 0  # no pair outside the law
    chi2 = float(((counts[support] - expected[support]) ** 2
                  / expected[support]).sum())
    df = int(support.sum()) - 1
    if df == 0:
        return
    assert stats.chi2.sf(chi2, df) > ALPHA, (chi2, df)


EVENT_ENGINES = {
    "fifo": NetworkSimulation,
    "ps": PSNetworkSimulation,
    "rushed": RushedNetworkSimulation,
}


@pytest.mark.parametrize("engine", sorted(EVENT_ENGINES))
def test_non_uniform_law_makes_only_block_draws(engine):
    """A hot-spot run draws no per-arrival scalar: every draw has a size
    and the call count grows with the number of 8192-arrival blocks."""
    net = build_network("hotspot", 4, h=0.25)
    sim = EVENT_ENGINES[engine](net.router, net.destinations, 0.5, seed=3)
    assert not sim._fast_ids
    with rngsan.trace() as tracer:
        res = sim.run(0.0, 1500.0)
    assert res.generated > BLOCK  # the id block is refilled
    sizes = [size for _kind, size, _site in tracer.draws]
    assert None not in sizes
    # Per block: one exponential refill plus at most three id draws
    # (sources, the hot coins, the cold destinations).
    assert len(sizes) <= 4 * (math.ceil(res.generated / BLOCK) + 1)


# ---------------------------------------------------------------- engines

ENGINE_CELLS = {
    "hotspot": dict(scenario="hotspot", params=(("h", 0.25),), rho=0.6,
                    horizon=2000.0),
    "geometric": dict(scenario="geometric", params=(), rho=0.3,
                      horizon=500.0),
}
WARMUP = 100.0
SEEDS = range(8)


def _cell(name):
    cell = ENGINE_CELLS[name]
    spec = CellSpec(scenario=cell["scenario"], n=8, rho=cell["rho"],
                    params=cell["params"], warmup=WARMUP,
                    horizon=cell["horizon"])
    node_rate, _ = resolve_cell(spec)
    net = build_network(cell["scenario"], 8, **dict(cell["params"]))
    return net, node_rate, cell_edge_rates(spec), cell["horizon"]


def _t_stats(samples, expected):
    """Across-seed t statistic per column (0 where nothing varies)."""
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    gap = samples.mean(axis=0) - expected
    return np.divide(gap, se, out=np.zeros_like(gap), where=se > 0)


@pytest.mark.parametrize("name", sorted(ENGINE_CELLS))
def test_fifo_utilization_matches_edge_rates(name):
    net, node_rate, lam, horizon = _cell(name)
    seeds = SEEDS[:4]
    util = np.mean([
        NetworkSimulation(net.router, net.destinations, node_rate, seed=s)
        .run(WARMUP, horizon, track_utilization=True).utilization
        for s in seeds
    ], axis=0)
    se = np.sqrt(lam / (len(seeds) * horizon))
    z = np.divide(util - lam, se, out=np.zeros_like(lam), where=lam > 0)
    assert np.abs(z).max() <= _threshold(int((lam > 0).sum()))
    assert np.all(util[lam == 0] == 0.0)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(ENGINE_CELLS))
def test_rushed_occupancy_matches_md1_edge_laws(name):
    """Each rushed queue is M/D/1 at its solver rate ``lam_e``."""
    net, node_rate, lam, horizon = _cell(name)
    copies = np.array([
        RushedNetworkSimulation(net.router, net.destinations, node_rate,
                                seed=s).run(WARMUP, horizon).utilization
        for s in SEEDS
    ])
    expected = np.array([MD1Queue(r).mean_number() if r > 0 else 0.0
                         for r in lam])
    t = _t_stats(copies, expected)[lam > 0]
    assert np.abs(t).max() <= _threshold(t.size, df=len(SEEDS) - 1)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(ENGINE_CELLS))
def test_ps_number_matches_product_form(name):
    """PS reports no per-edge series; its mean number is the product-form
    sum over the solver's edge loads."""
    net, node_rate, lam, horizon = _cell(name)
    number = np.array([[
        PSNetworkSimulation(net.router, net.destinations, node_rate, seed=s)
        .run(WARMUP, horizon).mean_number
    ] for s in SEEDS])
    busy = lam[lam > 0]
    expected = float((busy / (1.0 - busy)).sum())
    t = _t_stats(number, np.array([expected]))[0]
    assert abs(t) <= _threshold(1, df=len(SEEDS) - 1)


def test_python_and_numpy_fifo_agree_on_geometric():
    base = CellSpec(scenario="geometric", n=8, rho=0.5, warmup=100,
                    horizon=400, seeds=(1, 2, 3, 4))
    py = replicate(base, processes=1)
    vec = replicate(
        dataclasses.replace(base, engine_params=(("backend", "numpy"),)),
        processes=1,
    )
    assert abs(py.mean_delay - vec.mean_delay) <= (
        py.delay_half_width + vec.delay_half_width
    )


@pytest.mark.parametrize(
    "engine, kwargs",
    [("fifo", {}), ("fifo", {"backend": "numpy"}), ("ps", {}), ("rushed", {})],
    ids=["fifo", "numpy-fifo", "ps", "rushed"],
)
def test_scalar_only_law_runs_on_every_event_engine(engine, kwargs):
    """A law without ``sample_batch`` falls back to one scalar call per
    packet inside each block; its zero-hop share stays the pmf's."""
    mesh = ArrayMesh(4)
    law = ScalarOnly(GeometricStopDestinations(mesh, stop=0.5))
    sim = EVENT_ENGINES[engine](GreedyArrayRouter(mesh), law, 0.1, seed=9,
                                **kwargs)
    res = sim.run(50.0, 2000.0)
    p_zero = np.mean([law.pmf(s)[s] for s in range(mesh.num_nodes)])
    se = np.sqrt(p_zero * (1.0 - p_zero) / res.generated)
    assert res.generated > 1000
    assert abs(res.zero_hop / res.generated - p_zero) / se <= _threshold(1)
