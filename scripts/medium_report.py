#!/usr/bin/env python3
"""Generate the EXPERIMENTS.md reproduction report at medium scale.

Sized for a single-CPU box: full paper grids (all n, all rho) but with
horizons between the QUICK and FULL presets. Writes the markdown report
to the path given as argv[1] (default: medium_report.md).
"""

import sys
import time

from repro.experiments import bounds_sweep, configs, dominance, figure1, figure2
from repro.experiments import hypercube_bounds, optimal_config, randomized_greedy
from repro.experiments import table1, table2, table3
from repro.experiments.runner import ReportSection, render_report

MEDIUM_GRID = configs.GridConfig(
    ns=(5, 10, 15, 20),
    rhos=(0.2, 0.5, 0.8, 0.9, 0.95, 0.99),
    base_warmup=200.0,
    base_horizon=1800.0,
    congestion_cap=22.0,
)
MEDIUM_T3 = table3.Table3Config(
    ns=(5, 10, 15, 20, 25),
    rhos=(0.99,),
    base_warmup=1500.0,
    base_horizon=9000.0,
)
MEDIUM_SWEEP = bounds_sweep.SweepConfig(
    ns=(8, 9),
    rhos=(0.5, 0.8, 0.9, 0.95, 0.99),
    base_warmup=250.0,
    base_horizon=2000.0,
    congestion_cap=25.0,
)
MEDIUM_OPT = optimal_config.OptimalConfig(
    n=8, load_fractions=(0.3, 0.5, 0.7, 0.85), warmup=800.0, horizon=8000.0
)
MEDIUM_HC = hypercube_bounds.HypercubeConfig(
    sim_d=6, sim_rho=0.85, warmup=600.0, horizon=6000.0
)
MEDIUM_DOM = dominance.DominanceConfig(n=5, rho=0.8, warmup=600.0, horizon=10000.0)
MEDIUM_RAND = randomized_greedy.RandomizedConfig(
    n=8, rho=0.9, seeds=(11, 22, 33, 44), warmup=800.0, horizon=8000.0
)


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "medium_report.md"
    sections = []
    t_start = time.time()

    def stamp(title, body, problems):
        sections.append(ReportSection(title, body, problems))
        print(f"[{time.time() - t_start:7.1f}s] {title} done "
              f"({'OK' if not problems else problems})", flush=True)
        with open(out, "w") as fh:  # checkpoint after every section
            fh.write(render_report(sections))

    t1 = table1.run(MEDIUM_GRID, processes=1)
    stamp("Table I", t1.render(), table1.shape_checks(t1))
    t2 = table2.Table2Result(cells=t1.cells)
    stamp("Table II", t2.render(), table2.shape_checks(t2))
    t3 = table3.run(MEDIUM_T3, processes=1)
    stamp("Table III", t3.render(), table3.shape_checks(t3))
    f1 = figure1.run(4)
    stamp("Figure 1", f1.render(), [] if f1.layered else ["not layered"])
    f2e, f2o = figure2.run_pair(6, 5)
    stamp("Figure 2", f2e.render() + "\n\n" + f2o.render(), [])
    sw = bounds_sweep.run(MEDIUM_SWEEP, processes=1)
    stamp("Bounds sweep", sw.render(), bounds_sweep.shape_checks(sw))
    oc = optimal_config.run(MEDIUM_OPT, processes=1)
    stamp("Optimal configuration (Section 5.1)", oc.render(),
          optimal_config.shape_checks(oc))
    hc = hypercube_bounds.run(MEDIUM_HC)
    stamp("Hypercube / butterfly (Section 4.5)", hc.render(),
          hypercube_bounds.shape_checks(hc))
    dm = dominance.run(MEDIUM_DOM, processes=1)
    stamp("Theorem 5 dominance", dm.render(), dominance.shape_checks(dm))
    rg = randomized_greedy.run(MEDIUM_RAND, processes=1)
    stamp("Randomized greedy (Section 6)", rg.render(),
          randomized_greedy.shape_checks(rg))
    print(f"report written to {out}")


if __name__ == "__main__":
    main()
