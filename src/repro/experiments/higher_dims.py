"""Section 5.2: higher-dimensional arrays.

Regenerates the extension the paper sketches: for the square k-dimensional
array under dimension-order greedy routing we derive (in
:mod:`repro.core.kd_bounds`) the per-axis Theorem 6 rate profile, the
upper bound, d-bar, and the even-side s-bar = 1 + (k-1)/2 — so the
rho -> 1 gap generalises from the paper's 3 to **k + 1**.

The experiment tabulates the bound sandwich over k and validates a 3-D
array by simulation: the measured delay must fall between the generic
Theorem 12 lower bound and the k-D upper bound, and the measured per-edge
utilisation must match the per-axis rate profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.generic_bounds import GenericBounds, generic_bounds
from repro.core.kd_bounds import (
    kd_asymptotic_gap_even,
    kd_delay_upper_bound,
    kd_edge_rates,
    kd_lambda_for_load,
    kd_mean_distance,
)
from repro.experiments.backends import budget_backend
from repro.routing.destinations import UniformDestinations
from repro.routing.greedy import GreedyKDRouter
from repro.sim.fifo_network import NetworkSimulation
from repro.topology.array_mesh import KDArray
from repro.util.tables import Table


@dataclass(frozen=True)
class HigherDimsConfig:
    """Sizing for the higher-dimensions experiment."""

    table_side: int = 4
    table_ks: tuple[int, ...] = (2, 3, 4)
    table_rho: float = 0.8
    sim_side: int = 4
    sim_k: int = 3
    sim_rho: float = 0.7
    warmup: float = 300.0
    horizon: float = 3000.0
    seed: int = 555


QUICK_KD = HigherDimsConfig(horizon=2000.0)
FULL_KD = HigherDimsConfig(
    table_ks=(2, 3, 4, 5), sim_rho=0.85, warmup=1000.0, horizon=12000.0
)


@dataclass(frozen=True)
class HigherDimsResult:
    """Bound table over k plus the simulated 3-D validation point."""

    rows: list[tuple[int, float, float, float, float]]
    sim_k: int
    sim_side: int
    sim_rho: float
    sim_bounds: GenericBounds
    t_sim: float
    t_ci: float
    max_util_err: float

    def render(self) -> str:
        t = Table(
            title=(
                f"Higher-dimensional arrays (side m={self.sim_side}, "
                f"rho={self.sim_rho}): bound sandwich over k"
            ),
            headers=["k", "nbar_k", "LB Thm12", "UB", "gap@rho->1 (k+1)"],
        )
        for k, nbar, lo, hi, gap in self.rows:
            t.add_row([k, nbar, lo, hi, gap])
        gb = self.sim_bounds
        extra = (
            f"\nsimulated k={self.sim_k}: LB {gb.lower_best:.3f} <= "
            f"T(sim) {self.t_sim:.3f}+/-{self.t_ci:.3f} <= UB {gb.upper:.3f}; "
            f"max |util - closed-form rate| = {self.max_util_err:.4f}"
        )
        return t.render() + extra


def run(config: HigherDimsConfig = QUICK_KD) -> HigherDimsResult:
    """Regenerate the Section 5.2 extension."""
    m = config.table_side
    rows = []
    for k in config.table_ks:
        lam = kd_lambda_for_load(m, k, config.table_rho)
        array = KDArray((m,) * k)
        router = GreedyKDRouter(array)
        dests = UniformDestinations(array.num_nodes)
        gb = generic_bounds(router, dests, lam)
        rows.append(
            (
                k,
                kd_mean_distance(m, k),
                gb.lower_markov,
                kd_delay_upper_bound(m, k, lam),
                kd_asymptotic_gap_even(m, k),
            )
        )
    # Simulated validation point.
    m_s, k_s = config.sim_side, config.sim_k
    lam = kd_lambda_for_load(m_s, k_s, config.sim_rho)
    array = KDArray((m_s,) * k_s)
    router = GreedyKDRouter(array)
    dests = UniformDestinations(array.num_nodes)
    gb = generic_bounds(router, dests, lam)
    closed = kd_edge_rates(array, lam)
    window = config.warmup + config.horizon
    sim = NetworkSimulation(
        router,
        dests,
        lam,
        seed=config.seed,
        backend=budget_backend(float(closed.sum()) * window),
    )
    res = sim.run(config.warmup, config.horizon, track_utilization=True)
    return HigherDimsResult(
        rows=rows,
        sim_k=k_s,
        sim_side=m_s,
        sim_rho=config.sim_rho,
        sim_bounds=gb,
        t_sim=res.mean_delay,
        t_ci=res.delay_half_width,
        max_util_err=float(np.abs(res.utilization - closed).max()),
    )


def shape_checks(result: HigherDimsResult) -> list[str]:
    """Violated Section 5.2 claims."""
    problems: list[str] = []
    for k, nbar, lo, hi, gap in result.rows:
        if not lo <= hi:
            problems.append(f"(k={k}): lower bound {lo:.3f} above upper {hi:.3f}")
        if abs(gap - (k + 1)) > 1e-12:
            problems.append(f"(k={k}): asymptotic gap {gap} != k+1")
        if hi < nbar:
            problems.append(f"(k={k}): upper bound below the mean distance")
    gb = result.sim_bounds
    slack = result.t_ci + 0.05 * result.t_sim
    if result.t_sim + slack < gb.lower_best:
        problems.append(
            f"simulated T {result.t_sim:.3f} below LB {gb.lower_best:.3f}"
        )
    if result.t_sim - slack > gb.upper:
        problems.append(
            f"simulated T {result.t_sim:.3f} above UB {gb.upper:.3f}"
        )
    if result.max_util_err > 0.08:
        problems.append(
            f"per-edge utilisation off by {result.max_util_err:.3f} from the "
            "k-D closed form"
        )
    return problems
