"""Shared utilities: validation, table rendering, and warm worker pools.

These helpers are deliberately dependency-light; every other subpackage may
import from :mod:`repro.util` but :mod:`repro.util` imports nothing from the
rest of the library.
"""

from repro.util.validation import (
    check_positive,
    check_probability,
    check_load,
    check_side,
    check_in_range,
)
from repro.util.tables import Table, format_float
from repro.util.workerpool import (
    WorkerPool,
    get_pool,
    resolve_processes,
    shutdown_pools,
)

__all__ = [
    "check_positive",
    "check_probability",
    "check_load",
    "check_side",
    "check_in_range",
    "Table",
    "format_float",
    "WorkerPool",
    "get_pool",
    "resolve_processes",
    "shutdown_pools",
]
