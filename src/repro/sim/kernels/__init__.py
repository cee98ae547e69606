"""Kernel backends: the engines' hot loops as swappable implementations.

The FIFO, slotted and finite-buffer engines route their hot loops through
this package, selected by the ``backend`` constructor knob (and the
``backend`` :class:`~repro.sim.registry.EngineParam` on the facade).
There are two kernels, ``fifo`` and ``slotted``: the finite-buffer engine
is the FIFO engine with per-edge waiting-room caps, and runs the ``fifo``
kernel, which applies tail-drop admission when the caps are set.

``"python"`` (the default)
    The extracted reference loops (:mod:`repro.sim.kernels.python_backend`)
    — the pre-extraction engine bodies plus the finite engine's tail-drop
    admission test, which draws nothing, so they remain bound by the
    same-seed bit-identity contract and the golden fixtures pass
    unchanged.
``"numpy"``
    Vectorized kernels (:mod:`repro.sim.kernels.numpy_backend`) that
    solve the whole trajectory over each run's directly routed visits
    with batched draws and a feedforward max-plus level sweep. Not
    draw-order-identical — pinned by distribution-level parity tests
    instead (see the two-backend contract in :mod:`repro.sim`).

Optional-dependency boundary
----------------------------
This selection module is deliberately **numpy-free**: it probes numpy
availability through ``importlib.util.find_spec`` without importing it,
and :mod:`repro.sim.kernels.numpy_backend` is imported only when a run
actually selects ``backend="numpy"``. The honest statement of the
boundary: the engines (and therefore the python backend) require numpy
like the rest of the package, but the *vectorized backend module* is
never touched by ``backend="python"`` runs — a subprocess test pins
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
