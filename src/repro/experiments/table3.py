"""Table III: r_s = E[R_s]/E[N] — remaining *saturated* services per packet.

Section 4.6's looseness probe for Theorem 14. The paper reports r_s at
rho = 0.99 for n in {5, 10, 15, 20, 25} and finds a parity split: even n
values sit near 1.25 (below s-bar = 3/2) while odd n values sit near 2
(below s-bar < 3) — the printed column is (1.875, 1.250, 2.106, 1.230,
2.209). It also notes "the dependence of r_s on the arrival rate is
minimal", which we re-check by running a second load.

Shape claims asserted by :func:`shape_checks`: r_s < s-bar(n) for every n;
even-n r_s < odd-n r_s (the parity split); and r_s moves little with rho.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.saturation import s_bar
from repro.experiments.configs import GridConfig
from repro.experiments.grid import CellResult, run_grid
from repro.util.tables import Table

#: The paper's Table III operating point.
TABLE3_RHO = 0.99


@dataclass(frozen=True)
class Table3Config:
    """Sizing for the Table III column (a thin slice of the grid)."""

    ns: tuple[int, ...] = (5, 10, 15, 20, 25)
    rhos: tuple[float, ...] = (TABLE3_RHO,)
    base_warmup: float = 2000.0
    base_horizon: float = 12000.0
    seed: int = 31415
    convention: str = "table1"
    replications: int = 1

    def to_grid(self) -> GridConfig:
        """View as a GridConfig (flat windows; the rho is fixed and high)."""
        return GridConfig(
            ns=self.ns,
            rhos=self.rhos,
            base_warmup=self.base_warmup,
            base_horizon=self.base_horizon,
            congestion_cap=1.0,  # windows are already sized for rho=.99
            seed=self.seed,
            convention=self.convention,
            replications=self.replications,
        )


#: Benchmark preset: smaller meshes, shorter windows, lighter second rho.
QUICK3 = Table3Config(
    ns=(4, 5, 6, 7),
    rhos=(0.9,),
    base_warmup=400.0,
    base_horizon=4000.0,
)

#: Paper-scale preset.
FULL3 = Table3Config()


@dataclass(frozen=True)
class Table3Result:
    """All cells plus the rendered table."""

    cells: list[CellResult]

    def render(self) -> str:
        """Monospace table in the paper's layout (n, r_s), with s-bar."""
        t = Table(
            title="Table III: Simulation Measurement of rs",
            headers=["n", "rho", "rs (Sim.)", "s_bar", "rs/s_bar"],
        )
        for c in self.cells:
            sb = s_bar(c.spec.n)
            t.add_row(
                [c.spec.n, c.spec.rho, c.r_saturated, sb, c.r_saturated / sb]
            )
        return t.render()


def run(
    config: Table3Config = QUICK3,
    *,
    processes: int | None = None,
    replications: int | None = None,
) -> Table3Result:
    """Regenerate Table III at the given sizing preset.

    ``replications`` overrides the config's per-cell replication count
    (the :class:`~repro.sim.ReplicationEngine` pools the seeds).
    """
    if replications is not None:
        config = replace(config, replications=replications)
    return Table3Result(cells=run_grid(config.to_grid(), processes=processes))


def shape_checks(result: Table3Result) -> list[str]:
    """Violated Table III shape claims (empty = all hold)."""
    problems: list[str] = []
    even = [c for c in result.cells if c.spec.n % 2 == 0]
    odd = [c for c in result.cells if c.spec.n % 2 == 1]
    for c in result.cells:
        sb = s_bar(c.spec.n)
        tag = f"(n={c.spec.n}, rho={c.spec.rho})"
        if not c.r_saturated < sb:
            problems.append(
                f"{tag}: rs={c.r_saturated:.3f} not below s_bar={sb:.3f}"
            )
        if c.r_saturated <= 0:
            problems.append(f"{tag}: rs={c.r_saturated:.3f} should be positive")
    if even and odd:
        max_even = max(c.r_saturated for c in even)
        min_odd = min(c.r_saturated for c in odd)
        if not max_even < min_odd:
            problems.append(
                f"parity split violated: max even rs {max_even:.3f} "
                f">= min odd rs {min_odd:.3f}"
            )
    return problems
