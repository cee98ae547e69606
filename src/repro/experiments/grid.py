"""The shared (n, rho) simulation grid behind Tables I, II and III.

One simulated cell yields everything the three tables need — the mean
delay T (Table I), the ratio r = E[R]/E[N] (Table II) and
r_s = E[R_s]/E[N] (Table III) — because the engine integrates N(t), R(t)
and R_s(t) in a single pass. Each grid point is a
:class:`~repro.sim.replication.CellSpec` on the ``uniform`` scenario
(the standard model) with the saturated-edge mask tracked, and the whole
grid runs as one :class:`~repro.sim.replication.ReplicationEngine` batch:
every (cell, seed) pair fans out over one flat process-pool map, and
with ``config.replications > 1`` each grid point reports
across-replication means and CIs instead of single-trajectory point
estimates.

The vectorized ``backend="numpy"`` kernel solves the standard model, so
cells run there unless their expected visit count exceeds the budget
every report section shares
(:func:`repro.experiments.backends.with_budget_backend`). The numbers
are therefore seed-stable and statistically equivalent to a direct
:class:`~repro.sim.NetworkSimulation` run at the cell's seed, not
bit-identical to it (the two-backend contract in :mod:`repro.sim`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.md1_approx import delay_md1_estimate
from repro.core.rates import lambda_for_load
from repro.core.upper_bound import delay_upper_bound
from repro.experiments.backends import with_budget_backend
from repro.experiments.configs import GridConfig
from repro.sim.replication import CellSpec, ReplicatedResult, ReplicationEngine


@dataclass(frozen=True)
class CellResult:
    """Everything measured and predicted at one grid point.

    Simulated: ``t_sim`` (mean delay, with ``t_ci`` ~95% half-width —
    within-run batch means for a single replication, across-replication
    otherwise), ``mean_number``, ``r``, ``r_saturated``, ``littles_gap``
    (consistency diagnostic), ``generated`` (sample size over all
    replications).
    Analytic at the same lambda: ``t_est_paper`` / ``t_est_pk`` (Section
    4.2 estimate, both variants) and ``t_upper`` (Theorem 7).
    """

    spec: CellSpec
    lam: float
    t_sim: float
    t_ci: float
    mean_number: float
    r: float
    r_saturated: float
    littles_gap: float
    generated: int
    t_est_paper: float
    t_est_pk: float
    t_upper: float


def cell_result(pooled: ReplicatedResult) -> CellResult:
    """Pair one standard-model cell's pooled simulation outcome with the
    analytic values at its load."""
    spec = pooled.spec
    lam = lambda_for_load(spec.n, spec.rho, spec.convention)
    return CellResult(
        spec=spec,
        lam=lam,
        t_sim=pooled.mean_delay,
        t_ci=pooled.delay_half_width,
        mean_number=pooled.mean_number,
        r=pooled.r,
        r_saturated=pooled.r_saturated,
        littles_gap=pooled.littles_law_gap,
        generated=pooled.generated,
        t_est_paper=delay_md1_estimate(spec.n, lam, variant="paper"),
        t_est_pk=delay_md1_estimate(spec.n, lam, variant="pk"),
        t_upper=delay_upper_bound(spec.n, lam),
    )


def grid_specs(config: GridConfig) -> list[CellSpec]:
    """Materialise every cell spec of a grid config (replication seeds
    step by 1 from the cell seed)."""
    return [
        with_budget_backend(
            CellSpec(
                scenario="uniform",
                n=n,
                rho=rho,
                convention=config.convention,
                warmup=config.warmup_for(rho),
                horizon=config.horizon_for(rho),
                seeds=tuple(
                    config.cell_seed(n, rho) + k for k in range(config.replications)
                ),
                track_saturated=True,
            )
        )
        for n in config.ns
        for rho in config.rhos
    ]


def run_grid(config: GridConfig, *, processes: int | None = None) -> list[CellResult]:
    """Simulate the whole grid, (cell, seed) pairs fanned across a pool."""
    pooled = ReplicationEngine(processes=processes).run_many(grid_specs(config))
    return [cell_result(p) for p in pooled]
