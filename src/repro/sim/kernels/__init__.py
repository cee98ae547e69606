"""Kernel backends: the engines' hot loops as swappable implementations.

The FIFO, slotted and finite-buffer engines route their hot loops through
this package, selected by the ``backend`` constructor knob (and the
``backend`` :class:`~repro.sim.registry.EngineParam` on the facade).
There are two kernels, ``fifo`` and ``slotted``: the finite-buffer engine
is the FIFO engine with per-edge waiting-room caps, and runs the ``fifo``
kernel, which applies tail-drop admission when the caps are set.

``"python"`` (the default)
    The reference kernels (:mod:`repro.sim.kernels.python_backend`): the
    extracted engine loops plus the finite engine's tail-drop admission
    test, which draws nothing, bound by the same-seed contract the
    golden fixtures pin. Layered plain and uncapped exponential FIFO
    runs take its *level path*: the loops' own draws, solved edge level
    by edge level by the shared sweep (:mod:`repro.sim.kernels.levels`),
    with every arrival, id, path and integer field the loops' and floats
    equal to rounding.
``"numpy"``
    Vectorized kernels (:mod:`repro.sim.kernels.numpy_backend`) that
    solve the whole trajectory over each run's directly routed visits
    with batched draws and the same level sweep, on the router's
    closed-form levels; a router without them is rejected at
    construction (:func:`check_numpy_router`). Not
    draw-order-identical — pinned by distribution-level parity tests
    instead (see the two-backend contract in :mod:`repro.sim`).

Optional-dependency boundary
----------------------------
This selection module is deliberately **numpy-free**: it probes numpy
availability through ``importlib.util.find_spec`` without importing it,
and :mod:`repro.sim.kernels.numpy_backend` — the vectorized kernels'
own draws and entry points — is imported only when a run actually
selects ``backend="numpy"``. The honest statement of the boundary: the
engines require numpy like the rest of the package, and python runs may
use the shared level solver (:mod:`repro.sim.kernels.levels`), which
needs numpy too; but ``backend="python"`` runs never load
``numpy_backend`` and never make its draws — a subprocess test pins
that, and a second one pins that this module still imports, reports
unavailability and raises the clear validation error when numpy itself
is absent. The ``fast`` extra in ``setup.py`` documents the same
boundary for installers.
"""

from __future__ import annotations

import importlib.util
from typing import Any, Callable

#: Canonical backend names, in default-first order.
PYTHON_BACKEND, NUMPY_BACKEND = "python", "numpy"
KERNEL_BACKENDS = (PYTHON_BACKEND, NUMPY_BACKEND)

#: Kernel entry points every backend module may provide (``run_<name>``).
FIFO_KERNEL, SLOTTED_KERNEL = "fifo", "slotted"

#: Largest expected visit count (packets x hops, warmup included) of one
#: run the level sweep (:mod:`repro.sim.kernels.levels`) solves: the
#: report's numpy cells, and the python fifo and PS runs that take the
#: level path (:func:`fits_level_sweep`). The sweep holds about 30 bytes
#: per visit, so this caps it near 130 MB; an exponential run's
#: per-visit service times add 8 bytes per visit (about 160 MB). The
#: report's numpy cells peak at 2.3M visits, while the FULL table1 n=20, rho=0.99 cell needs ~348M
#: and runs on the python loop, whose memory does not grow with the run.
NUMPY_VISIT_BUDGET = 1 << 22


def fits_level_sweep(sim: Any, warmup: float, horizon: float) -> bool:
    """Whether the level sweep may solve this python fifo or PS run on
    the loop's own draws: its router has closed-form edge levels
    (:meth:`~repro.routing.base.BaseRouter.edge_levels`), its path cache
    draws no randomness, and its expected visits, total rate x (warmup +
    horizon) x the number of levels, fit :data:`NUMPY_VISIT_BUDGET`.
    Levels strictly increase along every path, so their count bounds a
    path's hops: exactly for greedy arrays (``sum(side - 1)``),
    hypercubes (``d``) and butterflies."""
    levels = sim.router.edge_levels()
    if levels is None or sim.path_cache.consumes_rng:
        return False
    hops = int(levels.max()) + 1 if levels.size else 0
    return bool(sim.total_rate * (warmup + horizon) * hops <= NUMPY_VISIT_BUDGET)


def check_numpy_router(router: Any) -> None:
    """Reject, at construction and before any draw, a ``backend="numpy"``
    run on a router without closed-form edge levels: the vectorized
    kernels sweep the router's layering and work out none of their
    own."""
    if router.edge_levels() is None:
        raise ValueError(
            "backend='numpy' requires a layered router with closed-form "
            f"edge levels, which {type(router).__name__} lacks (e.g. torus "
            "wraparound or randomized routes); use backend='python'"
        )


def numpy_available() -> bool:
    """Whether numpy is installed (probed without importing it)."""
    return importlib.util.find_spec("numpy") is not None


def check_backend(backend: str) -> str:
    """Validate a backend name, including numpy availability.

    Returns the name unchanged so constructors can assign the checked
    value in one expression; raises ``ValueError`` with an actionable
    message otherwise (the same message the registry's ``backend``
    :class:`~repro.sim.registry.EngineParam` validation produces).
    """
    if backend not in KERNEL_BACKENDS:
        raise ValueError(
            f"backend must be one of {'/'.join(KERNEL_BACKENDS)}, "
            f"got {backend!r}"
        )
    if backend == NUMPY_BACKEND and not numpy_available():
        raise ValueError(
            "backend='numpy' requires numpy, which is not installed — "
            "install the 'fast' extra (pip install repro[fast]) or use "
            "backend='python'"
        )
    return backend


def get_kernel(engine: str, backend: str) -> Callable[..., Any]:
    """The ``run_<engine>`` entry point of the selected backend.

    Backend modules are imported lazily, so ``backend="python"`` runs
    never import :mod:`repro.sim.kernels.numpy_backend` (the
    optional-dependency boundary above).
    """
    check_backend(backend)
    if backend == PYTHON_BACKEND:
        from repro.sim.kernels import python_backend as mod
    else:
        from repro.sim.kernels import numpy_backend as mod
    kernel = getattr(mod, f"run_{engine}", None)
    if kernel is None:
        raise ValueError(
            f"backend {backend!r} provides no {engine!r} kernel "
            f"(available: "
            f"{', '.join(sorted(n[4:] for n in dir(mod) if n.startswith('run_')))})"
        )
    return kernel
