"""The shared (n, rho) simulation grid behind Tables I, II and III.

One simulated cell yields everything the three tables need — the mean
delay T (Table I), the ratio r = E[R]/E[N] (Table II) and
r_s = E[R_s]/E[N] (Table III) — because the engine integrates N(t), R(t)
and R_s(t) in a single pass. Cells run through the
:class:`~repro.sim.replication.ReplicationEngine`: every (cell, seed)
pair fans out over one flat process-pool map, and with
``config.replications > 1`` each grid point reports across-replication
means and CIs instead of single-trajectory point estimates.

Every grid cell is the standard model (uniform traffic, row-first
greedy routing, unit deterministic service), which the vectorized
``backend="numpy"`` kernel solves, so cells run there unless their
expected visit count exceeds the budget every report section shares
(:func:`repro.experiments.backends.budget_backend`). The numbers are
therefore seed-stable and statistically equivalent to a direct
:class:`~repro.sim.NetworkSimulation` run at the cell's seed, not
bit-identical to it (the two-backend contract in :mod:`repro.sim`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.distances import mean_distance
from repro.core.md1_approx import delay_md1_estimate
from repro.core.rates import lambda_for_load, total_external_rate
from repro.core.upper_bound import delay_upper_bound
from repro.experiments.backends import budget_backend
from repro.experiments.configs import GridConfig
from repro.sim.replication import CellSpec as ReplicationSpec
from repro.sim.replication import ReplicatedResult, ReplicationEngine


@dataclass(frozen=True)
class CellSpec:
    """One simulation cell: an (n, rho) grid point with its window/seed."""

    n: int
    rho: float
    warmup: float
    horizon: float
    seed: int
    convention: str = "table1"
    replications: int = 1

    def expected_visits(self) -> float:
        """Expected edge visits of one replication: total arrival rate x
        (warmup + horizon) x mean hops per packet."""
        lam = lambda_for_load(self.n, self.rho, self.convention)
        return (
            total_external_rate(self.n, lam)
            * (self.warmup + self.horizon)
            * mean_distance(self.n)
        )

    def to_replication(self) -> ReplicationSpec:
        """View as a replication-engine spec (standard-model scenario).

        Replication seeds step by 1 from the cell seed. The kernel
        backend is the one :func:`~repro.experiments.backends.budget_backend`
        picks for :meth:`expected_visits`.
        """
        backend = budget_backend(self.expected_visits())
        return ReplicationSpec(
            scenario="uniform",
            n=self.n,
            rho=self.rho,
            convention=self.convention,
            warmup=self.warmup,
            horizon=self.horizon,
            seeds=tuple(self.seed + k for k in range(self.replications)),
            track_saturated=True,
            engine_params=(("backend", backend),),
        )


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


def cell_result(spec: CellSpec, pooled: ReplicatedResult) -> CellResult:
    """Pair one cell's pooled simulation outcome with the analytic values."""
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


def simulate_cell(spec: CellSpec) -> CellResult:
    """Simulate one (n, rho) cell of the paper's grid, in-process.

    The standard model — n-by-n mesh, greedy row-first routing, uniform
    destinations, unit service — at ``lam = lambda_for_load(n, rho,
    convention)`` with the saturated-edge mask tracked.
    """
    pooled = ReplicationEngine(processes=1).run(spec.to_replication())
    return cell_result(spec, pooled)


def grid_specs(config: GridConfig) -> list[CellSpec]:
    """Materialise every cell spec of a grid config."""
    return [
        CellSpec(
            n=n,
            rho=rho,
            warmup=config.warmup_for(rho),
            horizon=config.horizon_for(rho),
            seed=config.cell_seed(n, rho),
            convention=config.convention,
            replications=config.replications,
        )
        for n in config.ns
        for rho in config.rhos
    ]


def run_grid(config: GridConfig, *, processes: int | None = None) -> list[CellResult]:
    """Simulate the whole grid, (cell, seed) pairs fanned across a pool."""
    specs = grid_specs(config)
    engine = ReplicationEngine(processes=processes)
    pooled = engine.run_many([s.to_replication() for s in specs])
    return [cell_result(s, p) for s, p in zip(specs, pooled)]
