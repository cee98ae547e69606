"""Which kernel backend a report cell runs on: one budget rule for all.

The vectorized ``backend="numpy"`` kernels solve a cell's whole
trajectory at once, so their memory grows with the run, while the
python loops' does not. Every report section whose cells the numpy
kernels can solve — deterministic service on a router with closed-form
edge levels: the (n, rho) grid, the Section 4.5 / 5.1 / 5.2 validation
points, the finite-buffer sweep and the layered scenario-sweep cells —
picks the backend through :func:`budget_backend`: ``numpy`` while the
cell's expected visit count fits
:data:`~repro.sim.kernels.NUMPY_VISIT_BUDGET`, ``python`` above
it. A replication's expected visit count is
``sum_e lam_e * (warmup + horizon)``: every packet visits each edge of
its route once, and the warmup is simulated too. The python fifo and PS
level paths read the same budget
(:func:`~repro.sim.kernels.fits_level_sweep`), but bound each packet's
hops by the router's number of edge levels, which needs no calibrated
edge rates. On uniform meshes that bound is about 3x the exact count (a
path's mean length is about a third of the levels), so the report keeps
exact visits: under the hop bound its largest numpy cells would fail
the budget.
"""

from __future__ import annotations

from repro.scenarios import cell_edge_rates
from repro.sim.kernels import NUMPY_BACKEND, NUMPY_VISIT_BUDGET, PYTHON_BACKEND
from repro.sim.replication import CellSpec


def budget_backend(expected_visits: float) -> str:
    """``"numpy"`` while one replication's ``expected_visits`` fit
    :data:`NUMPY_VISIT_BUDGET`, else ``"python"``."""
    return NUMPY_BACKEND if expected_visits <= NUMPY_VISIT_BUDGET else PYTHON_BACKEND


def with_budget_backend(spec: CellSpec) -> CellSpec:
    """``spec`` on the backend :func:`budget_backend` picks from its
    network's edge rates at the spec's load. The caller vouches that the
    numpy kernels can run the cell (a layered scenario, deterministic
    service, an engine that offers the backend)."""
    visits = float(cell_edge_rates(spec).sum()) * (spec.warmup + spec.horizon)
    return spec.with_engine_params(backend=budget_backend(visits))
