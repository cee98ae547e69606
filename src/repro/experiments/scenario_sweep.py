"""Scenario sweep: the replication engine across workloads *and* engines.

The paper only simulates uniform traffic on the mesh with the FIFO
event-driven simulator; this experiment fans the same measurement
machinery across the scenario registry (hot-spot, transpose,
distance-biased, torus — every workload calibrated to the *same* network
load ``rho`` by its own bottleneck edge) crossed with any subset of the
engine registry (``fifo``, ``slotted``, ``rushed``, ``ps``), with R
seeded replications per (scenario, engine) cell pooled into
across-replication CIs. Every cell is one declarative
:class:`~repro.sim.replication.CellSpec`; the cross product is built from
names alone, so a new scenario or a new registered engine is sweepable
with zero code here.

Shape claims asserted by the checks (consequences of the load
calibration, not of uniformity, so they must survive every workload):

* every replication drains — generated packets all complete;
* the two delay estimators (direct average vs Little's Law) agree — only
  asserted for engines whose registry entry says Little's Law applies to
  their delay statistic (the rushed makespan is exempt by design);
* pooled CIs are well-formed (positive, and small relative to the mean).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.backends import with_budget_backend
from repro.scenarios import get_scenario
from repro.sim.kernels import NUMPY_BACKEND
from repro.sim.registry import get_engine
from repro.sim.replication import CellSpec, ReplicatedResult, ReplicationEngine
from repro.util.tables import Table


@dataclass(frozen=True)
class ScenarioSweepConfig:
    """Sizing for the scenario sweep.

    ``n`` sizes the mesh/torus scenarios; the bit-reversal hypercube uses
    ``cube_dim`` (its node count is ``2**cube_dim``). ``engines`` names
    registry engines to cross with the scenarios (every scenario runs on
    every listed engine).
    """

    scenarios: tuple[str, ...] = ("hotspot", "transpose", "geometric", "torus")
    engines: tuple[str, ...] = ("fifo",)
    n: int = 6
    cube_dim: int = 4
    rho: float = 0.7
    warmup: float = 150.0
    horizon: float = 1200.0
    seeds: tuple[int, ...] = (101, 202, 303)


QUICK_SCEN = ScenarioSweepConfig()
FULL_SCEN = ScenarioSweepConfig(
    scenarios=("hotspot", "transpose", "bitreversal", "geometric", "torus"),
    engines=("fifo", "slotted"),
    n=10,
    cube_dim=6,
    rho=0.8,
    warmup=500.0,
    horizon=6000.0,
    seeds=(101, 202, 303, 404, 505),
)


@dataclass(frozen=True)
class ScenarioSweepResult:
    """Pooled results, one per (scenario, engine) cell."""

    rho: float
    pooled: list[ReplicatedResult]

    def render(self) -> str:
        t = Table(
            title=f"Scenario sweep at rho={self.rho} (ReplicationEngine)",
            headers=["scenario", "engine", "n", "R", "T", "+/-", "N", "littles gap"],
        )
        for p in self.pooled:
            t.add_row(
                [
                    p.spec.scenario,
                    p.spec.engine,
                    p.spec.n,
                    len(p.replications),
                    p.mean_delay,
                    p.delay_half_width,
                    p.mean_number,
                    p.littles_law_gap,
                ]
            )
        return t.render()


def to_cell_specs(config: ScenarioSweepConfig = QUICK_SCEN) -> list[CellSpec]:
    """The sweep's scenario x engine cross product as declarative cells.

    Exposed separately from :func:`run` so the same cell list can feed
    the resumable sweep runner (:mod:`repro.experiments.sweeps`) — e.g.
    ``run_sweep(to_cell_specs(FULL_SCEN), "out/scen")`` checkpoints each
    (scenario, engine) cell and survives interrupts.

    Cells of layered scenarios on engines that offer the numpy backend
    run on the backend the shared visit budget picks; the rest (the
    torus, the randomized mixture, the rushed and PS engines) stay on
    the python default.
    """
    specs = []
    for name in config.scenarios:
        layered = get_scenario(name).layered
        for engine in config.engines:
            spec = CellSpec(
                scenario=name,
                n=config.cube_dim if name == "bitreversal" else config.n,
                rho=config.rho,
                engine=engine,
                warmup=config.warmup,
                horizon=config.horizon,
                seeds=config.seeds,
            )
            if layered and NUMPY_BACKEND in get_engine(engine).backends:
                spec = with_budget_backend(spec)
            specs.append(spec)
    return specs


def run(
    config: ScenarioSweepConfig = QUICK_SCEN, *, processes: int | None = None
) -> ScenarioSweepResult:
    """Sweep scenarios x engines, fanning every (cell, seed) pair at once."""
    pooled = ReplicationEngine(processes=processes).run_many(to_cell_specs(config))
    return ScenarioSweepResult(rho=config.rho, pooled=pooled)


def run_resumable(
    config: ScenarioSweepConfig = QUICK_SCEN,
    out_dir: str | None = None,
    *,
    processes: int | None = None,
):
    """Run the sweep through the resumable checkpointing runner.

    Each (scenario, engine) cell lands in ``<out_dir>/cells/`` as it
    completes; rerunning after an interrupt skips the finished cells.
    Returns the :class:`repro.experiments.sweeps.SweepRun`.
    """
    from repro.experiments.sweeps import run_sweep

    return run_sweep(
        to_cell_specs(config),
        out_dir if out_dir is not None else "scenario_sweep_out",
        processes=processes,
    )


def shape_checks(result: ScenarioSweepResult) -> list[str]:
    """Violated sweep claims (empty = all hold)."""
    problems: list[str] = []
    for p in result.pooled:
        tag = f"({p.spec.scenario}, {p.spec.engine}, n={p.spec.n})"
        for rep in p.replications:
            if rep.completed != rep.generated:
                problems.append(
                    f"{tag}: seed {rep.seed} lost packets "
                    f"({rep.completed}/{rep.generated})"
                )
        if get_engine(p.spec.engine).littles_law:
            # The rushed makespan is not a Little's-Law sojourn time, so
            # only engines flagged littles_law assert the estimator
            # agreement; the CI checks below apply to every engine.
            if p.littles_law_gap > 0.2:
                problems.append(
                    f"{tag}: Little's-Law estimators disagree by "
                    f"{p.littles_law_gap:.1%}"
                )
        hw = p.delay_half_width
        if not np.isfinite(hw) or hw <= 0:
            problems.append(f"{tag}: ill-formed pooled CI {hw}")
        elif hw > 0.5 * p.mean_delay:
            problems.append(
                f"{tag}: pooled CI {hw:.3f} too wide for T={p.mean_delay:.3f}"
            )
    return problems
