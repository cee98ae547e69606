"""Section 5.1: optimally configured arrays vs the standard array.

Two regenerable claims:

1. **Capacity**: with unit costs and the standard budget ``D = 4n(n-1)``,
   the optimal allocation (Theorem 15) keeps the network stable for every
   ``lam < 6/(n+1)``, while the standard unit-rate array saturates at
   ``4/n`` (even n). We check this *in simulation*: at a rate above the
   standard capacity but below the optimal one, the optimally-configured
   network equilibrates (its delay stays near the Jackson prediction)
   while the standard network is unstable (occupancy grows with the
   horizon).

2. **Delay**: across the stable range of the standard network, the
   optimal allocation's delay (Jackson closed form, also an upper bound
   for deterministic service) undercuts the standard allocation's Jackson
   delay, with the gap widening toward capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.optimization import (
    budget_surplus,
    optimal_capacity,
    optimal_delay,
    optimal_service_rates,
    standard_capacity,
)
from repro.core.rates import array_edge_rates
from repro.core.upper_bound import delay_upper_bound
from repro.experiments.backends import budget_backend
from repro.routing.destinations import UniformDestinations
from repro.routing.greedy import GreedyArrayRouter
from repro.sim.fifo_network import NetworkSimulation
from repro.topology.array_mesh import ArrayMesh
from repro.util.tables import Table


@dataclass(frozen=True)
class OptimalConfig:
    """Sizing for the optimal-configuration experiment."""

    n: int = 6
    load_fractions: tuple[float, ...] = (0.4, 0.7, 0.9)
    beyond_standard_fraction: float = 0.5  # position between 4/n and 6/(n+1)
    warmup: float = 400.0
    horizon: float = 4000.0
    seed: int = 4242


QUICK_OPT = OptimalConfig(horizon=2500.0)
FULL_OPT = OptimalConfig(
    n=10, load_fractions=(0.3, 0.5, 0.7, 0.85, 0.95), warmup=1500.0, horizon=15000.0
)


@dataclass(frozen=True)
class DelayPoint:
    """Analytic + simulated delay at one per-node rate."""

    lam: float
    t_standard_jackson: float
    t_optimal_jackson: float
    t_optimal_sim: float
    t_optimal_sim_ci: float


@dataclass(frozen=True)
class OptimalResult:
    """Capacities, delay curve, and the beyond-capacity demonstration."""

    n: int
    standard_capacity: float
    optimal_capacity: float
    budget: float
    points: list[DelayPoint]
    beyond_lam: float
    beyond_optimal_sim: float
    beyond_optimal_jackson: float
    beyond_dstar: float

    def render(self) -> str:
        t = Table(
            title=(
                f"Optimal vs standard configuration (n={self.n}, "
                f"D=4n(n-1)={self.budget:.0f}): capacity "
                f"{self.standard_capacity:.4f} -> {self.optimal_capacity:.4f}"
            ),
            headers=[
                "lam",
                "T std (Jackson)",
                "T opt (Jackson)",
                "T opt (sim)",
                "+/-",
            ],
        )
        for p in self.points:
            t.add_row(
                [
                    f"{p.lam:.4f}",
                    p.t_standard_jackson,
                    p.t_optimal_jackson,
                    p.t_optimal_sim,
                    p.t_optimal_sim_ci,
                ]
            )
        extra = (
            f"\nbeyond standard capacity: lam={self.beyond_lam:.4f} "
            f"(> 4/n={self.standard_capacity:.4f}): optimal network T(sim)="
            f"{self.beyond_optimal_sim:.3f} vs Jackson {self.beyond_optimal_jackson:.3f} "
            f"(D*={self.beyond_dstar:.2f} > 0 certifies stability); the standard "
            f"network is unstable at this rate."
        )
        return t.render() + extra


def _optimal_sim(n: int, lam: float, budget: float, warmup: float, horizon: float, seed: int):
    """Simulate the deterministic-service mesh with Theorem 15 rates
    (per-edge service, which the numpy kernel solves within the budget)."""
    mesh = ArrayMesh(n)
    router = GreedyArrayRouter(mesh)
    rates = array_edge_rates(mesh, lam)
    phis = optimal_service_rates(rates, 1.0, budget)
    sim = NetworkSimulation(
        router,
        UniformDestinations(mesh.num_nodes),
        lam,
        service_rates=phis,
        seed=seed,
        backend=budget_backend(float(rates.sum()) * (warmup + horizon)),
    )
    return sim.run(warmup, horizon)


def run(config: OptimalConfig = QUICK_OPT) -> OptimalResult:
    """Run the Section 5.1 experiment."""
    n = config.n
    budget = 4.0 * n * (n - 1)  # the standard array's total service budget
    cap_std = standard_capacity(n)
    cap_opt = optimal_capacity(n)
    mesh = ArrayMesh(n)
    points: list[DelayPoint] = []
    for k, frac in enumerate(config.load_fractions):
        lam = frac * cap_std
        rates = array_edge_rates(mesh, lam)
        t_std = delay_upper_bound(n, lam)
        t_opt = optimal_delay(rates, 1.0, budget, lam * n * n)
        res = _optimal_sim(n, lam, budget, config.warmup, config.horizon, config.seed + k)
        points.append(
            DelayPoint(
                lam=lam,
                t_standard_jackson=t_std,
                t_optimal_jackson=t_opt,
                t_optimal_sim=res.mean_delay,
                t_optimal_sim_ci=res.delay_half_width,
            )
        )
    # Beyond the standard capacity, inside the optimal one.
    beyond_lam = cap_std + config.beyond_standard_fraction * (cap_opt - cap_std)
    rates = array_edge_rates(mesh, beyond_lam)
    dstar = budget_surplus(rates, 1.0, budget)
    t_opt_beyond = optimal_delay(rates, 1.0, budget, beyond_lam * n * n)
    res = _optimal_sim(
        n, beyond_lam, budget, config.warmup, config.horizon, config.seed + 99
    )
    return OptimalResult(
        n=n,
        standard_capacity=cap_std,
        optimal_capacity=cap_opt,
        budget=budget,
        points=points,
        beyond_lam=beyond_lam,
        beyond_optimal_sim=res.mean_delay,
        beyond_optimal_jackson=t_opt_beyond,
        beyond_dstar=dstar,
    )


def shape_checks(result: OptimalResult) -> list[str]:
    """Violated Section 5.1 claims."""
    problems: list[str] = []
    n = result.n
    if n % 2 == 0 and abs(result.standard_capacity - 4.0 / n) > 1e-12:
        problems.append("standard capacity != 4/n for even n")
    if abs(result.optimal_capacity - 6.0 / (n + 1)) > 1e-12:
        problems.append("optimal capacity != 6/(n+1)")
    if result.optimal_capacity <= result.standard_capacity:
        problems.append("optimal capacity does not exceed standard capacity")
    for p in result.points:
        if p.t_optimal_jackson >= p.t_standard_jackson:
            problems.append(
                f"lam={p.lam:.4f}: optimal Jackson delay {p.t_optimal_jackson:.3f} "
                f"not below standard {p.t_standard_jackson:.3f}"
            )
        # Deterministic service under the Jackson bound (with CI slack).
        if p.t_optimal_sim - p.t_optimal_sim_ci > p.t_optimal_jackson * 1.05:
            problems.append(
                f"lam={p.lam:.4f}: simulated optimal delay {p.t_optimal_sim:.3f} "
                f"exceeds its Jackson upper bound {p.t_optimal_jackson:.3f}"
            )
    if result.beyond_dstar <= 0:
        problems.append("D* should be positive beyond the standard capacity")
    if not np.isfinite(result.beyond_optimal_sim):
        problems.append("optimal network failed to equilibrate beyond 4/n")
    if result.beyond_optimal_sim > result.beyond_optimal_jackson * 1.25:
        problems.append(
            f"beyond-capacity sim delay {result.beyond_optimal_sim:.3f} far above "
            f"Jackson bound {result.beyond_optimal_jackson:.3f} — instability?"
        )
    return problems
