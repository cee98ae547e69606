"""Theorem 5 dominance, checked in simulation: FIFO <= PS = Jackson.

Three cells of the ``uniform`` scenario (the array/greedy/uniform
workload), run as one :class:`~repro.sim.replication.ReplicationEngine`
batch at seeds ``seed``, ``seed + 1`` and ``seed + 2``:

* FIFO deterministic service (the standard model),
* PS unit-work service (Theorem 1's comparator),
* FIFO exponential service (the Jackson model).

Claims checked: ``E[N_FIFO] <= E[N_PS]``; the time-weighted distribution
of N under FIFO is stochastically dominated by the PS one (the actual
statement of Theorem 1); PS equals Jackson in equilibrium mean (their
equilibria coincide, Section 3.3), both near the product-form closed form;
and mean delays are ordered FIFO <= Jackson by Little's Law.

Note: the theorem does *not* order the per-packet delay distributions —
deterministic service puts an atom at delay = path length, so
``P(D_FIFO > a) > P(D_Jackson > a)`` for small ``a`` is expected. The
delay-ECDF violation is reported as a diagnostic of that fact, not
asserted to vanish.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.rates import lambda_for_load
from repro.core.upper_bound import number_upper_bound
from repro.queueing.dominance import dominance_violation
from repro.sim.replication import CellSpec, ReplicationEngine
from repro.util.tables import Table


@dataclass(frozen=True)
class DominanceConfig:
    """Sizing for the dominance experiment."""

    n: int = 4
    rho: float = 0.7
    warmup: float = 300.0
    horizon: float = 4000.0
    seed: int = 1234


QUICK_DOM = DominanceConfig(horizon=2500.0)
FULL_DOM = DominanceConfig(n=5, rho=0.8, warmup=1000.0, horizon=20000.0)


def _ndist_samples(dist: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """Unpack a time-weighted N distribution into values and weights."""
    ks = np.array(sorted(dist))
    ws = np.array([dist[int(k)] for k in ks])
    return ks, ws


def _weighted_tail_violation(
    x: dict[int, float], y: dict[int, float]
) -> float:
    """max_a [P(X > a) - P(Y > a)] for time-weighted integer distributions."""
    kmax = max(max(x), max(y))
    grid = np.arange(kmax + 1)
    kx, wx = _ndist_samples(x)
    ky, wy = _ndist_samples(y)
    tail_x = np.array([wx[kx > a].sum() for a in grid])
    tail_y = np.array([wy[ky > a].sum() for a in grid])
    return float(max(0.0, (tail_x - tail_y).max()))


@dataclass(frozen=True)
class DominanceResult:
    """Mean occupancies, the tail-violation statistic, and the closed form."""

    n: int
    rho: float
    lam: float
    n_fifo: float
    n_ps: float
    n_jackson: float
    n_productform: float
    tail_violation_fifo_vs_ps: float
    delay_violation_fifo_vs_jackson: float
    t_fifo: float
    t_jackson: float

    def render(self) -> str:
        t = Table(
            title=(
                f"Theorem 5 dominance (n={self.n}, rho={self.rho}): "
                "E[N] under three service models"
            ),
            headers=["model", "E[N]"],
            float_digits=3,
        )
        t.add_row(["FIFO deterministic (standard)", self.n_fifo])
        t.add_row(["PS unit work (Thm 1 comparator)", self.n_ps])
        t.add_row(["FIFO exponential (Jackson)", self.n_jackson])
        t.add_row(["product-form closed form", self.n_productform])
        return (
            t.render()
            + f"\nmax tail violation P(N_FIFO>a)-P(N_PS>a): "
            f"{self.tail_violation_fifo_vs_ps:.4f}"
            + f"\nmax delay-ECDF violation FIFO vs Jackson: "
            f"{self.delay_violation_fifo_vs_jackson:.4f} (expected > 0: the "
            f"theorem orders N(t) and mean delays, not delay distributions)"
            + f"\nmean delays: FIFO {self.t_fifo:.3f} <= Jackson {self.t_jackson:.3f}"
        )


def run(
    config: DominanceConfig = QUICK_DOM, *, processes: int | None = None
) -> DominanceResult:
    """Run the three-way comparison."""
    n, rho = config.n, config.rho
    lam = lambda_for_load(n, rho, "exact")
    cell = CellSpec(
        scenario="uniform",
        n=n,
        rho=rho,
        warmup=config.warmup,
        horizon=config.horizon,
        seeds=(config.seed,),
    )
    fifo, ps, jackson = (
        pooled.replications[0]
        for pooled in ReplicationEngine(processes=processes).run_many(
            [
                replace(cell, collect_delays=True, track_number_distribution=True),
                replace(
                    cell,
                    engine="ps",
                    seeds=(config.seed + 1,),
                    track_number_distribution=True,
                ),
                replace(
                    cell,
                    service="exponential",
                    seeds=(config.seed + 2,),
                    collect_delays=True,
                ),
            ]
        )
    )
    closed = number_upper_bound(n, lam)
    return DominanceResult(
        n=n,
        rho=rho,
        lam=lam,
        n_fifo=fifo.mean_number,
        n_ps=ps.mean_number,
        n_jackson=jackson.mean_number,
        n_productform=closed,
        tail_violation_fifo_vs_ps=_weighted_tail_violation(
            fifo.number_distribution, ps.number_distribution
        ),
        delay_violation_fifo_vs_jackson=dominance_violation(
            fifo.delays, jackson.delays
        ),
        t_fifo=fifo.mean_delay,
        t_jackson=jackson.mean_delay,
    )


def shape_checks(result: DominanceResult) -> list[str]:
    """Violated Theorem 5 / Section 3.3 claims (with Monte-Carlo slack)."""
    problems: list[str] = []
    if result.n_fifo > result.n_ps * 1.03:
        problems.append(
            f"E[N_FIFO]={result.n_fifo:.3f} above E[N_PS]={result.n_ps:.3f}"
        )
    if abs(result.n_ps - result.n_productform) / result.n_productform > 0.15:
        problems.append(
            f"PS mean {result.n_ps:.3f} far from product form "
            f"{result.n_productform:.3f}"
        )
    if abs(result.n_jackson - result.n_productform) / result.n_productform > 0.15:
        problems.append(
            f"Jackson mean {result.n_jackson:.3f} far from product form "
            f"{result.n_productform:.3f}"
        )
    if result.tail_violation_fifo_vs_ps > 0.04:
        problems.append(
            f"FIFO-vs-PS tail violation {result.tail_violation_fifo_vs_ps:.4f} "
            "exceeds noise budget"
        )
    if result.t_fifo > result.t_jackson * 1.03:
        problems.append(
            f"mean delay ordering violated: FIFO {result.t_fifo:.3f} above "
            f"Jackson {result.t_jackson:.3f}"
        )
    return problems
