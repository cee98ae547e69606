"""Bounds sweep: upper vs lower bounds vs simulation across the load range.

This is the paper's analytical headline turned into a regenerable series:
for an even and an odd side length, sweep rho toward 1 and tabulate the
Theorem 7 upper bound, every lower bound (Theorems 8/10/12/14 + trivial),
the simulated truth, and the upper/best-lower ratio. The claims:

* every lower bound <= simulated T <= upper bound (within CI);
* the upper/best-lower ratio converges to ``2 s-bar`` — 3 for even n,
  below 6 for odd n (Theorem 14);
* the Theorem 12 bound improves on Theorem 10 by the factor
  ``d / d-bar = 2(n-1)/(n - 1/2)`` (about 2);
* the saturated bound overtakes the others as rho -> 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.lower_bounds import BoundSummary, asymptotic_gap, bound_summary
from repro.core.rates import lambda_for_load
from repro.experiments.grid import CellSpec, cell_result
from repro.sim.replication import ReplicationEngine
from repro.util.tables import Table


@dataclass(frozen=True)
class SweepConfig:
    """Sizing for the bounds sweep."""

    ns: tuple[int, ...] = (8, 9)
    rhos: tuple[float, ...] = (0.5, 0.8, 0.9, 0.95, 0.99)
    simulate: bool = True
    base_warmup: float = 200.0
    base_horizon: float = 1500.0
    congestion_cap: float = 10.0
    seed: int = 777


QUICK_SWEEP = SweepConfig(rhos=(0.5, 0.8, 0.9), base_horizon=1000.0)
FULL_SWEEP = SweepConfig(
    rhos=(0.5, 0.8, 0.9, 0.95, 0.99, 0.999),
    base_warmup=500.0,
    base_horizon=5000.0,
    congestion_cap=80.0,
    simulate=True,
)


@dataclass(frozen=True)
class SweepPoint:
    """One (n, rho) point: all bounds and (optionally) the simulated T."""

    bounds: BoundSummary
    t_sim: float | None
    t_ci: float | None


@dataclass(frozen=True)
class SweepResult:
    """All sweep points plus renderers."""

    points: list[SweepPoint]

    def render(self) -> str:
        t = Table(
            title="Bounds sweep: Theorem 7 upper vs Theorems 8/10/12/14 lower",
            headers=[
                "n",
                "rho",
                "T(sim)",
                "LB triv",
                "LB ST",
                "LB Thm10",
                "LB Thm12",
                "LB Thm14",
                "UB Thm7",
                "UB/bestLB",
                "2*s_bar",
            ],
        )
        for p in self.points:
            b = p.bounds
            t.add_row(
                [
                    b.n,
                    b.rho,
                    "-" if p.t_sim is None else f"{p.t_sim:.3f}",
                    b.lower_trivial,
                    b.lower_st_oblivious,
                    b.lower_copy,
                    b.lower_markov,
                    b.lower_saturated,
                    b.upper,
                    b.gap,
                    asymptotic_gap(b.n),
                ]
            )
        return t.render()


def _cell_spec(n: int, rho: float, cfg: SweepConfig) -> CellSpec:
    scale = min(1.0 / (1.0 - rho), cfg.congestion_cap)
    return CellSpec(
        n=n,
        rho=rho,
        warmup=cfg.base_warmup * scale,
        horizon=cfg.base_horizon * scale,
        seed=(cfg.seed * 65537 + n * 101 + int(rho * 1000)) % 2**31,
        convention="exact",  # the bounds are parity-aware; match them
    )


def run(config: SweepConfig = QUICK_SWEEP, *, processes: int | None = None) -> SweepResult:
    """Evaluate all bounds (and optionally simulate) over the sweep grid."""
    combos = [(n, rho) for n in config.ns for rho in config.rhos]
    sims: list = [None] * len(combos)
    if config.simulate:
        specs = [_cell_spec(n, rho, config) for n, rho in combos]
        pooled = ReplicationEngine(processes=processes).run_many(
            [s.to_replication() for s in specs]
        )
        sims = [cell_result(s, p) for s, p in zip(specs, pooled)]
    points = []
    for (n, rho), sim in zip(combos, sims):
        lam = lambda_for_load(n, rho, "exact")
        b = bound_summary(n, lam)
        points.append(
            SweepPoint(
                bounds=b,
                t_sim=None if sim is None else sim.t_sim,
                t_ci=None if sim is None else sim.t_ci,
            )
        )
    return SweepResult(points=points)


def shape_checks(result: SweepResult) -> list[str]:
    """Violated bound-ordering / gap-convergence claims."""
    problems: list[str] = []
    for p in result.points:
        b = p.bounds
        tag = f"(n={b.n}, rho={b.rho:.3f})"
        if not b.is_consistent():
            problems.append(f"{tag}: a lower bound exceeds the upper bound")
        if p.t_sim is not None:
            slack = (p.t_ci or 0.0) + 0.05 * p.t_sim
            if p.t_sim + slack < b.lower_best:
                problems.append(
                    f"{tag}: sim T={p.t_sim:.3f} below best lower bound "
                    f"{b.lower_best:.3f}"
                )
            if p.t_sim - slack > b.upper:
                problems.append(
                    f"{tag}: sim T={p.t_sim:.3f} above upper bound {b.upper:.3f}"
                )
        # Thm 12 improves Thm 10 by ~ d/d-bar.
        expected = 2.0 * (b.n - 1) / (b.n - 0.5)
        actual = b.lower_markov / b.lower_copy
        if abs(actual - expected) > 1e-9:
            problems.append(
                f"{tag}: Thm12/Thm10 ratio {actual:.6f} != d/d-bar {expected:.6f}"
            )
    # Gap convergence (Theorem 14): evaluated analytically in the rho -> 1
    # tail, independent of the simulated grid (the gap peaks at moderate
    # load where the trivial bound hands over, then falls to 2*s_bar).
    for n in sorted({p.bounds.n for p in result.points}):
        target = asymptotic_gap(n)
        tail = [
            bound_summary(n, lambda_for_load(n, rho, "exact")).gap
            for rho in (0.99, 0.999, 0.9999)
        ]
        if abs(tail[-1] - target) / target > 0.10:
            problems.append(
                f"(n={n}): gap at rho=0.9999 is {tail[-1]:.3f}, not within "
                f"10% of 2*s_bar={target:.3f}"
            )
        if not (tail[0] >= tail[1] >= tail[2]):
            problems.append(
                f"(n={n}): gap should decrease toward 2*s_bar in the rho->1 "
                f"tail, got {[f'{g:.3f}' for g in tail]}"
            )
    return problems
