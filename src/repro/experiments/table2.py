"""Table II: the ratio r = E[R]/E[N] — remaining services per packet.

Section 4.4 probes how loose the Theorem 12 constant is: ``r`` would equal
``d-bar`` if the bound were tight and ``n-bar-2`` if one could (incorrectly
— the paper's retracted earlier claim) replace ``d-bar`` by the mean
distance. Simulation shows ``r`` sits *below* ``n-bar-2 = 2n/3`` — packets
near the end of their route dominate the in-system population because
middle-of-array queues are the crowded ones — with ``r / n-bar-2``
settling around 0.7 for larger n, and barely depends on rho.

Shape claims asserted by :func:`shape_checks`: ``r < n-bar-2`` everywhere;
``r`` is nearly rho-independent (spread over rho within a few percent of
its mean); and ``r/n-bar-2 < 0.75`` for n >= 10.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.distances import mean_distance_excluding_self
from repro.experiments.configs import GridConfig, QUICK
from repro.experiments.grid import CellResult, run_grid
from repro.util.tables import Table


@dataclass(frozen=True)
class Table2Result:
    """All grid cells plus the rendered table."""

    cells: list[CellResult]

    def render(self) -> str:
        """Monospace table in the paper's layout (n, n-bar-2, rho, r)."""
        t = Table(
            title="Table II: Simulation Measurement of r",
            headers=["n", "nbar2", "rho", "r (Sim.)", "r/nbar2"],
        )
        for c in self.cells:
            nbar2 = mean_distance_excluding_self(c.spec.n)
            t.add_row([c.spec.n, nbar2, c.spec.rho, c.r, c.r / nbar2])
        return t.render()


def run(config: GridConfig = QUICK, *, processes: int | None = None) -> Table2Result:
    """Regenerate Table II at the given sizing preset."""
    return Table2Result(cells=run_grid(config, processes=processes))


def shape_checks(result: Table2Result) -> list[str]:
    """Violated Table II shape claims (empty = all hold)."""
    problems: list[str] = []
    by_n: dict[int, list[CellResult]] = {}
    for c in result.cells:
        by_n.setdefault(c.spec.n, []).append(c)
    for n, cells in by_n.items():
        nbar2 = mean_distance_excluding_self(n)
        rs = [c.r for c in cells]
        for c in cells:
            if c.r >= nbar2:
                problems.append(
                    f"(n={n}, rho={c.spec.rho}): r={c.r:.3f} >= nbar2={nbar2:.3f}"
                )
        mean_r = sum(rs) / len(rs)
        spread = (max(rs) - min(rs)) / mean_r
        if spread > 0.10:
            problems.append(
                f"(n={n}): r should be nearly rho-independent, spread {spread:.1%}"
            )
        if n >= 10 and max(rs) / nbar2 > 0.78:
            problems.append(
                f"(n={n}): r/nbar2 = {max(rs) / nbar2:.3f} exceeds ~0.7 band"
            )
    return problems
