"""Run every experiment and emit an EXPERIMENTS.md-style report.

``examples/reproduce_tables.py`` is a thin CLI over this module; the
benchmarks call the individual experiments instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import configs, table1, table2, table3
from repro.experiments import bounds_sweep, dominance, figure1, figure2
from repro.experiments import finite_buffer, higher_dims, hypercube_bounds
from repro.experiments import optimal_config, randomized_greedy
from repro.experiments import scenario_sweep, torus


@dataclass(frozen=True)
class ReportSection:
    """One experiment's rendered output plus its shape-check verdicts."""

    title: str
    body: str
    problems: list[str]

    def render(self) -> str:
        status = "PASS" if not self.problems else "CHECK FAILURES:\n" + "\n".join(
            f"  - {p}" for p in self.problems
        )
        return f"## {self.title}\n\n```\n{self.body}\n```\n\nshape checks: {status}\n"


def run_all(*, full: bool = False, processes: int | None = None) -> list[ReportSection]:
    """Run every experiment (QUICK by default, FULL with ``full=True``)."""
    sections: list[ReportSection] = []

    grid_cfg = configs.FULL if full else configs.QUICK
    # Tables I and II share one grid of simulations.
    cells = None

    t1 = table1.run(grid_cfg, processes=processes)
    cells = t1.cells
    sections.append(
        ReportSection("Table I", t1.render(), table1.shape_checks(t1))
    )
    t2 = table2.Table2Result(cells=cells)
    sections.append(
        ReportSection("Table II", t2.render(), table2.shape_checks(t2))
    )

    t3_cfg = table3.FULL3 if full else table3.QUICK3
    t3 = table3.run(t3_cfg, processes=processes)
    sections.append(
        ReportSection("Table III", t3.render(), table3.shape_checks(t3))
    )

    f1 = figure1.run(4)
    sections.append(
        ReportSection(
            "Figure 1", f1.render(), [] if f1.layered else ["labelling not layered"]
        )
    )
    f2_even, f2_odd = figure2.run_pair(6, 5)
    sections.append(
        ReportSection("Figure 2", f2_even.render() + "\n\n" + f2_odd.render(), [])
    )

    sweep_cfg = bounds_sweep.FULL_SWEEP if full else bounds_sweep.QUICK_SWEEP
    sw = bounds_sweep.run(sweep_cfg, processes=processes)
    sections.append(
        ReportSection("Bounds sweep", sw.render(), bounds_sweep.shape_checks(sw))
    )

    oc_cfg = optimal_config.FULL_OPT if full else optimal_config.QUICK_OPT
    oc = optimal_config.run(oc_cfg, processes=processes)
    sections.append(
        ReportSection(
            "Optimal configuration (Section 5.1)",
            oc.render(),
            optimal_config.shape_checks(oc),
        )
    )

    hc_cfg = hypercube_bounds.FULL_HC if full else hypercube_bounds.QUICK_HC
    hc = hypercube_bounds.run(hc_cfg)
    sections.append(
        ReportSection(
            "Hypercube / butterfly (Section 4.5)",
            hc.render(),
            hypercube_bounds.shape_checks(hc),
        )
    )

    dm_cfg = dominance.FULL_DOM if full else dominance.QUICK_DOM
    dm = dominance.run(dm_cfg, processes=processes)
    sections.append(
        ReportSection(
            "Theorem 5 dominance", dm.render(), dominance.shape_checks(dm)
        )
    )

    rg_cfg = randomized_greedy.FULL_RAND if full else randomized_greedy.QUICK_RAND
    rg = randomized_greedy.run(rg_cfg, processes=processes)
    sections.append(
        ReportSection(
            "Randomized greedy (Section 6)",
            rg.render(),
            randomized_greedy.shape_checks(rg),
        )
    )

    kd_cfg = higher_dims.FULL_KD if full else higher_dims.QUICK_KD
    kd = higher_dims.run(kd_cfg)
    sections.append(
        ReportSection(
            "Higher-dimensional arrays (Section 5.2)",
            kd.render(),
            higher_dims.shape_checks(kd),
        )
    )

    to_cfg = torus.FULL_TORUS if full else torus.QUICK_TORUS
    to = torus.run(to_cfg, processes=processes)
    sections.append(
        ReportSection(
            "Torus (Section 6)", to.render(), torus.shape_checks(to)
        )
    )

    sc_cfg = scenario_sweep.FULL_SCEN if full else scenario_sweep.QUICK_SCEN
    sc = scenario_sweep.run(sc_cfg, processes=processes)
    sections.append(
        ReportSection(
            "Scenario sweep (ReplicationEngine)",
            sc.render(),
            scenario_sweep.shape_checks(sc),
        )
    )

    fb_cfg = finite_buffer.FULL_FINITE if full else finite_buffer.QUICK_FINITE
    fb = finite_buffer.run(fb_cfg, processes=processes)
    sections.append(
        ReportSection(
            "Finite buffers (loss vs buffer size)",
            fb.render(),
            finite_buffer.shape_checks(fb),
        )
    )
    return sections


def render_report(sections: list[ReportSection]) -> str:
    """Assemble sections into one markdown report."""
    header = (
        "# Reproduction report\n\n"
        "Generated by repro.experiments.runner. Each section regenerates one\n"
        "table/figure/claim of the paper; 'shape checks' verify the paper's\n"
        "qualitative claims against this run.\n"
    )
    return header + "\n".join(s.render() for s in sections)
