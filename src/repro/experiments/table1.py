"""Table I: simulated mean delay vs the M/D/1 independence estimate.

Paper layout: rows (n, rho) over n in {5, 10, 15, 20} and rho in
{.2, .5, .8, .9, .95, .99}; columns T(Sim.) and T(Est.). We add the
textbook-P-K estimate variant and the Theorem 7 upper bound as extra
columns, and report the simulation's confidence half-width (the paper
reports point estimates only).

Shape claims this table supports (asserted by :func:`shape_checks`):

* the estimate tracks simulation closely at light load (rho <= 0.5);
* for n >= 10 at heavy load the estimate *over*-estimates T — the paper's
  observation that "the dependence inherent in the network actually helps
  performance";
* T(Sim.) always sits below the Theorem 7 upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.configs import GridConfig, QUICK
from repro.experiments.grid import CellResult, run_grid
from repro.util.tables import Table


@dataclass(frozen=True)
class Table1Result:
    """All grid cells plus the rendered table."""

    cells: list[CellResult]

    def render(self) -> str:
        """Monospace table in the paper's row order."""
        t = Table(
            title="Table I: Simulation vs M/D/1 Estimate",
            headers=[
                "n",
                "rho",
                "T(Sim.)",
                "+/-",
                "T(Est. paper)",
                "T(Est. P-K)",
                "T(UB Thm7)",
            ],
        )
        for c in self.cells:
            t.add_row(
                [
                    c.spec.n,
                    c.spec.rho,
                    c.t_sim,
                    c.t_ci,
                    c.t_est_paper,
                    c.t_est_pk,
                    c.t_upper,
                ]
            )
        return t.render()


def run(
    config: GridConfig = QUICK,
    *,
    processes: int | None = None,
    replications: int | None = None,
) -> Table1Result:
    """Regenerate Table I at the given sizing preset.

    ``replications`` overrides the config's per-cell replication count;
    with more than one, the "+/-" column becomes the across-replication
    ~95% half-width from the :class:`~repro.sim.ReplicationEngine` pool.
    """
    if replications is not None:
        config = replace(config, replications=replications)
    return Table1Result(cells=run_grid(config, processes=processes))


def shape_checks(result: Table1Result) -> list[str]:
    """Return a list of violated shape claims (empty = all hold).

    Tolerances are loose enough for QUICK horizons: light-load agreement
    within 15%, heavy-load over-estimation with 5% slack, and the upper
    bound honored with CI slack.
    """
    problems: list[str] = []
    for c in result.cells:
        tag = f"(n={c.spec.n}, rho={c.spec.rho})"
        if c.spec.rho <= 0.5:
            rel = abs(c.t_sim - c.t_est_paper) / c.t_est_paper
            if rel > 0.15:
                problems.append(
                    f"{tag}: light-load estimate off by {rel:.1%} (>15%)"
                )
        if c.spec.rho >= 0.9 and c.spec.n >= 10:
            if c.t_sim > c.t_est_paper * 1.05:
                problems.append(
                    f"{tag}: estimate should over-estimate at heavy load, "
                    f"sim {c.t_sim:.2f} > est {c.t_est_paper:.2f}"
                )
        if c.t_sim - c.t_ci > c.t_upper:
            problems.append(
                f"{tag}: simulation {c.t_sim:.2f} exceeds Theorem 7 upper "
                f"bound {c.t_upper:.2f}"
            )
        if c.littles_gap > 0.15:
            problems.append(
                f"{tag}: Little's-law estimators disagree by {c.littles_gap:.1%}"
            )
    return problems
