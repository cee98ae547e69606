"""Section 4.5: hypercube (and butterfly) bound-gap analysis.

Regenerates the section's comparison as a table over (d, p):

* the previous gap ``2d`` (Stamoulis–Tsitsiklis / Theorem 10);
* our gap ``2(dp + 1 - p)`` (Theorem 12 with d-bar = 1 + p(d-1));
* the improvement factor, approaching ``d`` as ``p -> 0`` and equal to
  ``2d/(d+1)`` at uniform ``p = 1/2``;

and validates the machinery by *simulating* a moderate hypercube with
p-biased destinations, checking that the simulated delay falls between
the Theorem 12 lower bound and the product-form upper bound, and that the
measured per-edge utilisation matches ``lam p``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hypercube_bounds import (
    butterfly_gap,
    hypercube_delay_upper_bound,
    hypercube_edge_rate,
    hypercube_gap_copy,
    hypercube_gap_markov,
    hypercube_markov_lower_bound,
    hypercube_mean_distance,
)
from repro.experiments.backends import budget_backend
from repro.routing.destinations import PBiasedHypercubeDestinations
from repro.routing.hypercube_greedy import GreedyHypercubeRouter
from repro.sim.fifo_network import NetworkSimulation
from repro.topology.hypercube import Hypercube
from repro.util.tables import Table


@dataclass(frozen=True)
class HypercubeConfig:
    """Sizing for the hypercube experiment."""

    gap_dims: tuple[int, ...] = (4, 6, 8, 10)
    gap_ps: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9)
    sim_d: int = 5
    sim_p: float = 0.5
    sim_rho: float = 0.8
    warmup: float = 300.0
    horizon: float = 3000.0
    seed: int = 2718


QUICK_HC = HypercubeConfig(sim_d=4, horizon=2000.0)
FULL_HC = HypercubeConfig(sim_d=7, sim_rho=0.9, warmup=1500.0, horizon=15000.0)


@dataclass(frozen=True)
class HypercubeResult:
    """Gap table plus the simulated validation point."""

    rows: list[tuple[int, float, float, float, float]]  # d, p, gap_copy, gap_markov, improvement
    sim_d: int
    sim_p: float
    sim_rho: float
    t_sim: float
    t_ci: float
    t_lower: float
    t_upper: float
    mean_distance: float
    max_util_err: float

    def render(self) -> str:
        t = Table(
            title="Hypercube bound gaps as rho -> 1 (Section 4.5)",
            headers=["d", "p", "prev gap 2d", "our gap 2(dp+1-p)", "improvement"],
        )
        for d, p, g0, g1, imp in self.rows:
            t.add_row([d, p, g0, g1, imp])
        extra = (
            f"\nsimulated d={self.sim_d}, p={self.sim_p}, rho={self.sim_rho}: "
            f"LB {self.t_lower:.3f} <= T(sim) {self.t_sim:.3f}+/-{self.t_ci:.3f} "
            f"<= UB {self.t_upper:.3f}; mean distance dp = {self.mean_distance:.3f}; "
            f"max |util - lam*p| = {self.max_util_err:.4f}\n"
            f"butterfly gap (Theorem 10, matches S-T): 2d = "
            f"{butterfly_gap(self.sim_d):.0f} at d={self.sim_d}"
        )
        return t.render() + extra


def run(config: HypercubeConfig = QUICK_HC) -> HypercubeResult:
    """Regenerate the Section 4.5 comparison."""
    rows = []
    for d in config.gap_dims:
        for p in config.gap_ps:
            g0 = hypercube_gap_copy(d)
            g1 = hypercube_gap_markov(d, p)
            rows.append((d, p, g0, g1, g0 / g1))
    d, p, rho = config.sim_d, config.sim_p, config.sim_rho
    lam = rho / p
    cube = Hypercube(d)
    router = GreedyHypercubeRouter(cube)
    destinations = PBiasedHypercubeDestinations(cube, p)
    util_target = hypercube_edge_rate(d, lam, p)
    visits = util_target * cube.num_edges * (config.warmup + config.horizon)
    sim = NetworkSimulation(
        router, destinations, lam, seed=config.seed,
        backend=budget_backend(visits),
    )
    res = sim.run(config.warmup, config.horizon, track_utilization=True)
    return HypercubeResult(
        rows=rows,
        sim_d=d,
        sim_p=p,
        sim_rho=rho,
        t_sim=res.mean_delay,
        t_ci=res.delay_half_width,
        t_lower=hypercube_markov_lower_bound(d, lam, p),
        t_upper=hypercube_delay_upper_bound(d, lam, p),
        mean_distance=hypercube_mean_distance(d, p),
        max_util_err=float(np.abs(res.utilization - util_target).max()),
    )


def shape_checks(result: HypercubeResult) -> list[str]:
    """Violated Section 4.5 claims."""
    problems: list[str] = []
    for d, p, g0, g1, _imp in result.rows:
        if not g1 < g0:
            problems.append(f"(d={d}, p={p}): our gap {g1} not below 2d={g0}")
        if abs(g1 - 2 * (d * p + 1 - p)) > 1e-12:
            problems.append(f"(d={d}, p={p}): gap formula mismatch")
        if p == 0.5 and abs(g1 - (d + 1)) > 1e-12:
            problems.append(f"(d={d}): uniform-p gap should be d+1, got {g1}")
    slack = result.t_ci + 0.05 * result.t_sim
    if result.t_sim + slack < result.t_lower:
        problems.append(
            f"simulated T {result.t_sim:.3f} below lower bound {result.t_lower:.3f}"
        )
    if result.t_sim - slack > result.t_upper:
        problems.append(
            f"simulated T {result.t_sim:.3f} above upper bound {result.t_upper:.3f}"
        )
    if result.t_sim < result.mean_distance * 0.95:
        problems.append("simulated T below the mean route length")
    if result.max_util_err > 0.08:
        problems.append(
            f"per-edge utilisation off by {result.max_util_err:.3f} from lam*p"
        )
    return problems
