"""Section 6 open problem: the torus.

The paper's closing section observes that toroidal meshes defeat the
upper-bound machinery — "any network containing a ring of directed edges
cannot be layered, and the greedy routing scheme on the torus is clearly
not Markovian" — while the new lower-bound technique (Theorem 10) still
applies. This experiment regenerates all three facts:

1. a constructive layering obstruction (a directed edge-precedence cycle)
   exists for greedy torus routing at every side >= 4;
2. the Theorem 10 copy bound computed by the generic machinery holds in
   simulation;
3. side-by-side with the open array at the *same network load*, the torus
   achieves lower delay (its wraparound halves distances) — context for
   why the paper calls the open upper bound interesting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.generic_bounds import GenericBounds, generic_bounds
from repro.core.layering import find_layering_obstruction
from repro.experiments.backends import with_budget_backend
from repro.scenarios import build_network
from repro.sim.replication import CellSpec, ReplicationEngine
from repro.util.tables import Table


@dataclass(frozen=True)
class TorusConfig:
    """Sizing for the torus experiment."""

    n: int = 6
    rho: float = 0.8
    warmup: float = 300.0
    horizon: float = 3000.0
    seed: int = 606


QUICK_TORUS = TorusConfig(horizon=2000.0)
FULL_TORUS = TorusConfig(n=8, rho=0.9, warmup=1200.0, horizon=12000.0)


@dataclass(frozen=True)
class TorusResult:
    """Obstruction, bounds, and the torus-vs-array comparison."""

    n: int
    rho: float
    obstruction_cycle_len: int
    bounds: GenericBounds
    t_sim: float
    t_ci: float
    t_array_sim: float

    def render(self) -> str:
        gb = self.bounds
        t = Table(
            title=f"Torus {self.n}x{self.n} @ rho={self.rho} (Section 6)",
            headers=["quantity", "value"],
        )
        t.add_row(["layering obstruction cycle (edges)", self.obstruction_cycle_len])
        t.add_row(["mean distance", gb.mean_distance])
        t.add_row(["LB trivial", gb.lower_trivial])
        t.add_row(["LB Thm 10 (copy)", gb.lower_copy])
        t.add_row(["LB Thm 14 (saturated, s)", gb.lower_saturated])
        t.add_row(["T (sim)", self.t_sim])
        t.add_row(["T open array, same rho (sim)", self.t_array_sim])
        t.add_row(["upper bound", "none (not layered)"])
        return t.render()


def run(config: TorusConfig = QUICK_TORUS, *, processes: int | None = None) -> TorusResult:
    """Regenerate the Section 6 torus observations.

    The torus cell and the open-array cell run as one batch at the same
    network load (the ``torus`` scenario scales its rate so the busiest
    edge carries ``rho``), at seeds ``seed`` and ``seed + 1``.
    """
    n, rho = config.n, config.rho
    torus_cell = CellSpec(
        scenario="torus",
        n=n,
        rho=rho,
        warmup=config.warmup,
        horizon=config.horizon,
        seeds=(config.seed,),
    )
    array_cell = with_budget_backend(
        replace(torus_cell, scenario="uniform", seeds=(config.seed + 1,))
    )
    res, array_res = ReplicationEngine(processes=processes).run_many(
        [torus_cell, array_cell]
    )
    net = build_network("torus", n)
    cycle = find_layering_obstruction(net.router)
    gb = generic_bounds(
        net.router, net.destinations, res.node_rate, layered=False, markovian=False
    )
    return TorusResult(
        n=n,
        rho=rho,
        obstruction_cycle_len=0 if cycle is None else len(cycle),
        bounds=gb,
        t_sim=res.mean_delay,
        t_ci=res.delay_half_width,
        t_array_sim=array_res.mean_delay,
    )


def shape_checks(result: TorusResult) -> list[str]:
    """Violated Section 6 claims."""
    problems: list[str] = []
    if result.obstruction_cycle_len < 2:
        problems.append("no layering obstruction found on the torus (n >= 4)")
    gb = result.bounds
    if gb.upper is not None:
        problems.append("an upper bound was claimed for the non-layered torus")
    slack = result.t_ci + 0.05 * result.t_sim
    if result.t_sim + slack < gb.lower_best:
        problems.append(
            f"simulated T {result.t_sim:.3f} below the Theorem 10 bound "
            f"{gb.lower_best:.3f}"
        )
    if result.t_sim >= result.t_array_sim:
        problems.append(
            f"torus T {result.t_sim:.3f} should beat the open array "
            f"{result.t_array_sim:.3f} at matched load (wraparound halves "
            "distances)"
        )
    return problems
