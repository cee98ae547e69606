"""Experiment harness: one module per table/figure/claim of the paper.

Every experiment exposes ``run(config) -> Result`` plus a formatter that
prints the paper's row layout, so the ``repro tables`` report
(:mod:`repro.experiments.runner`) and ``examples/reproduce_tables.py``
share one code path. ``configs`` holds QUICK (seconds-to-minutes,
benchmark-friendly) and FULL (paper-scale) horizon presets.
"""

from repro.experiments.configs import QUICK, FULL, GridConfig
from repro.experiments.grid import CellResult, run_grid
from repro.experiments.sweeps import SweepRun, load_sweep_spec, run_sweep

__all__ = [
    "QUICK",
    "FULL",
    "GridConfig",
    "CellResult",
    "run_grid",
    "SweepRun",
    "load_sweep_spec",
    "run_sweep",
]
