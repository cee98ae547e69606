"""Argument-validation helpers shared across the public API.

All validators raise :class:`ValueError` (or :class:`TypeError` for
non-numeric input) with messages that name the offending parameter, so API
misuse surfaces at the call boundary instead of deep inside the simulator
or an analytic formula.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np


def _as_real(value: object, name: str) -> float:
    """Coerce ``value`` to ``float``, raising ``TypeError`` if non-numeric."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_positive(value: float, name: str = "value", *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative if not strict).

    Parameters
    ----------
    value:
        The number to validate.
    name:
        Parameter name used in error messages.
    strict:
        If true (default) require ``value > 0``; otherwise ``value >= 0``.

    Returns
    -------
    float
        The validated value, coerced to ``float``.
    """
    x = _as_real(value, name)
    if strict and not x > 0:
        raise ValueError(f"{name} must be > 0, got {x}")
    if not strict and not x >= 0:
        raise ValueError(f"{name} must be >= 0, got {x}")
    return x


def check_finite_positive(
    value: float, name: str = "value", *, strict: bool = True
) -> float:
    """:func:`check_positive` that also rejects ``nan`` and ``inf``."""
    x = check_positive(value, name, strict=strict)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def check_window(warmup: float, horizon: float) -> None:
    """Validate a measurement window: finite ``horizon > 0`` and finite
    ``warmup >= 0``.

    Shared by the event engines and ``CellSpec``. A NaN ``warmup``
    passes a bare ``warmup < 0`` test and an infinite bound is positive,
    yet either keeps an event loop from ever reaching ``warmup +
    horizon``, so the run would never end.
    """
    check_finite_positive(horizon, "horizon")
    check_finite_positive(warmup, "warmup", strict=False)


def check_node_rates(rates, count: int, name: str = "node_rate"):
    """Validate a per-source rate vector: shape ``(count,)``, every entry
    non-negative, and a positive total.

    Shared by the event-driven and slotted engines so both reject the same
    malformed inputs (a negative entry used to slip past the slotted
    engine's total-only check). Returns the validated ``float`` array.
    """
    arr = np.asarray(rates, dtype=float)
    if arr.shape != (count,):
        raise ValueError(f"{name} sequence must match source_nodes")
    if np.any(arr < 0) or not arr.sum() > 0:
        raise ValueError(f"{name} entries must be non-negative with positive sum")
    return arr


def pinned_cdf(weights):
    """Normalised cumulative distribution with a pinned top.

    The CDF is set to exactly 1.0 from the last positive weight onward,
    so a ``searchsorted(cdf, u, side='right')`` draw (i) stays in range
    even when rounding leaves the cumulative sum at ``1 - ulp``, and
    (ii) can never hand the top sliver to a zero-weight trailing entry.
    Shared by both simulation engines' source draw and by
    :class:`~repro.routing.destinations.MatrixDestinations`.
    """
    w = np.asarray(weights, dtype=float)
    cdf = np.cumsum(w) / w.sum()
    last = len(w) - 1 - int(np.argmax(w[::-1] > 0))
    cdf[last:] = 1.0
    return cdf


def check_probability(value: float, name: str = "p", *, open_interval: bool = False) -> float:
    """Validate that ``value`` lies in [0, 1] (or (0, 1) if ``open_interval``)."""
    x = _as_real(value, name)
    if open_interval:
        if not 0.0 < x < 1.0:
            raise ValueError(f"{name} must lie strictly inside (0, 1), got {x}")
    elif not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")
    return x


def check_load(value: float, name: str = "rho") -> float:
    """Validate a queueing load: ``0 <= rho < 1`` (stability requirement)."""
    x = _as_real(value, name)
    if not 0.0 <= x < 1.0:
        raise ValueError(
            f"{name} must satisfy 0 <= {name} < 1 for a stable system, got {x}"
        )
    return x


def check_side(n: int, name: str = "n", *, minimum: int = 2) -> int:
    """Validate an array side length (integer, at least ``minimum``)."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"{name} must be an int, got {n!r}")
    if n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {n}")
    return n


def check_in_range(
    value: float,
    low: float,
    high: float,
    name: str = "value",
    *,
    inclusive: bool = True,
) -> float:
    """Validate ``low <= value <= high`` (or strict inequalities)."""
    x = _as_real(value, name)
    if inclusive:
        if not low <= x <= high:
            raise ValueError(f"{name} must lie in [{low}, {high}], got {x}")
    elif not low < x < high:
        raise ValueError(f"{name} must lie in ({low}, {high}), got {x}")
    return x
