"""The validation-check registry and runner.

Mirrors the engine registry pattern (:mod:`repro.sim.registry`): a check
is a frozen declarative record — name, severity, tier, the engine and
backends it exercises, and a runner — added via :func:`register_check`
and discoverable via :func:`available_checks`. :func:`run_validation`
executes a filtered selection and folds the outcomes into a
:class:`ValidationReport` that renders as a monospace table and
serialises to the machine-readable ``validation_report.json`` CI
uploads.

Tolerance calibration
---------------------
Every threshold here is calibrated against clean-tree runs, not guessed:

* :data:`Z_GATE` — mean-value comparisons are scored as a z-score on the
  *pooled replication CI*: ``z = |observed - expected| / se`` with
  ``se = half_width / 1.96`` (the across-replication ~95% half-width of
  :class:`~repro.sim.replication.ReplicatedResult`). Simulated delay
  series are autocorrelated and the across-replication se is itself a
  noisy estimate at small R, so clean cells show z up to ~4; the gate
  threshold 6 keeps a 2x-plus margin over that while a grossly biased
  engine (the mutation self-test injects a 10% service-rate bias) lands
  far above it.
* :data:`KS_GATE` — Kolmogorov-Smirnov comparisons thin the pooled delay
  samples to every :data:`KS_STRIDE`-th packet to break the within-run
  autocorrelation, then score ``sqrt(m_thin) * KS``. Clean thinned cells
  measure 0.6-1.0 (the iid 1% critical value is 1.63); the gate sits at
  2.5.
* :data:`QQ_WARN` — the largest relative quantile gap over the
  10%..99% grid of the same samples; a shape diagnostic, thresholded
  loosely.
* :data:`TV_GATE` — total-variation distance between a time-weighted
  empirical number-in-system distribution and the closed-form pmf;
  clean cells measure ~0.005, gate at 0.03.
* :data:`DOM_GATE` — largest empirical violation of a stochastic-
  dominance ordering against an analytic tail
  (:func:`repro.queueing.dominance_violation_vs_tail`); clean cells
  measure ~0.008, gate at 0.03.
* :data:`LITTLE_GATE` — worst across-replication Little's-Law relative
  residual; equilibrium cells measure well under 0.01, gate at 0.05.
"""

from __future__ import annotations

import fnmatch
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.sim.registry import get_engine
from repro.sim.replication import CellSpec, ReplicatedResult, ReplicationEngine
from repro.util.tables import Table

#: Check severities: a failing ``gate`` check blocks the merge under
#: ``python -m repro validate --strict``; a failing ``warn`` check is
#: reported but never fails the run.
GATE, WARN = "gate", "warn"
SEVERITIES = (GATE, WARN)

#: Check tiers: ``quick`` runs on every push/PR (the merge gate lane),
#: ``full`` adds the long-horizon distribution-level cells (nightly CI
#: and the ``slow`` pytest lane).
QUICK, FULL = "quick", "full"
TIERS = (QUICK, FULL)

#: CI-calibrated thresholds — see the module docstring for how each was
#: measured on clean-tree runs.
Z_GATE = 6.0
KS_GATE = 2.5
KS_STRIDE = 20
QQ_WARN = 0.15
TV_GATE = 0.03
DOM_GATE = 0.03
LITTLE_GATE = 0.05


@dataclass(frozen=True)
class Comparison:
    """One scored observable of a check: an observed value against its
    analytic target, reduced to ``statistic <= threshold``."""

    metric: str
    observed: float
    expected: float
    statistic: float
    threshold: float

    @property
    def passed(self) -> bool:
        return bool(
            np.isfinite(self.statistic) and self.statistic <= self.threshold
        )

    def as_dict(self) -> dict:
        # Plain-python coercion: checks frequently hand numpy scalars in,
        # which json.dump rejects.
        return {
            "metric": self.metric,
            "observed": float(self.observed),
            "expected": float(self.expected),
            "statistic": float(self.statistic),
            "threshold": float(self.threshold),
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ValidationCheck:
    """A registry entry: one closed-form cross-check of one engine.

    ``runner(backend, processes)`` runs the check's cell(s) on the given
    kernel backend and returns the scored :class:`Comparison` list;
    ``backends`` lists every backend the check applies to (each is run
    separately, so a biased backend is named individually in the
    report). ``severity`` is :data:`GATE` or :data:`WARN`; ``tier`` is
    :data:`QUICK` or :data:`FULL`.
    """

    name: str
    description: str
    severity: str
    tier: str
    engine: str
    backends: tuple[str, ...]
    runner: Callable[[str, int | None], list[Comparison]]

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"check {self.name!r}: severity must be one of "
                f"{'/'.join(SEVERITIES)}, got {self.severity!r}"
            )
        if self.tier not in TIERS:
            raise ValueError(
                f"check {self.name!r}: tier must be one of "
                f"{'/'.join(TIERS)}, got {self.tier!r}"
            )
        info = get_engine(self.engine)  # raises on unknown engines
        unknown = set(self.backends) - set(info.backends)
        if not self.backends or unknown:
            raise ValueError(
                f"check {self.name!r}: backends must be a non-empty subset "
                f"of engine {info.name!r}'s advertised backends "
                f"{info.backends!r}, got {self.backends!r}"
            )


_REGISTRY: dict[str, ValidationCheck] = {}


def register_check(check: ValidationCheck) -> ValidationCheck:
    """Add a check to the registry (name must be unused)."""
    if check.name in _REGISTRY:
        raise ValueError(f"validation check {check.name!r} already registered")
    _REGISTRY[check.name] = check
    return check


def get_check(name: str) -> ValidationCheck:
    """Look up a check by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown validation check {name!r} (known: {known})"
        ) from None


def available_checks() -> list[ValidationCheck]:
    """All registered checks, sorted by name."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


# ----------------------------------------------------------------------
# Helpers for check implementations.


#: The cell memo of the :func:`run_validation` call in progress (``None``
#: outside one): each distinct ``CellSpec`` maps to its result.
_CELL_MEMO: ContextVar[dict[CellSpec, ReplicatedResult] | None] = ContextVar(
    "validation_cell_memo", default=None
)


def run_cell(spec: CellSpec, processes: int | None) -> ReplicatedResult:
    """Run one cell through the standard facade (the only sanctioned way
    for a check to simulate — every check exercises the same
    ``CellSpec``/``ReplicationEngine`` path users do).

    Inside a :func:`run_validation` call each distinct spec runs once:
    every check asking for an equal spec gets the same result object
    (checks only read it). A run that raises is not memoized, so the
    next check asking for that spec runs it again. Outside
    :func:`run_validation` every call runs the cell.
    """
    memo = _CELL_MEMO.get()
    if memo is None:
        return ReplicationEngine(processes=processes).run(spec)
    res = memo.get(spec)
    if res is None:
        res = memo[spec] = ReplicationEngine(processes=processes).run(spec)
    return res


def z_score(observed: float, expected: float, half_width: float) -> float:
    """z-score of ``observed`` against ``expected`` on a pooled ~95%
    replication half-width (``se = half_width / 1.96``); ``inf`` when the
    half-width is degenerate so a broken CI can never silently pass."""
    se = half_width / 1.96
    if not np.isfinite(se) or se <= 0:
        return float("inf")
    return abs(observed - expected) / se


def z_comparison(
    metric: str,
    observed: float,
    expected: float,
    half_width: float,
    *,
    threshold: float = Z_GATE,
) -> Comparison:
    """A mean-value comparison scored by :func:`z_score`."""
    return Comparison(
        metric=metric,
        observed=observed,
        expected=expected,
        statistic=z_score(observed, expected, half_width),
        threshold=threshold,
    )


def thinned_ks(
    samples: np.ndarray,
    cdf: Callable[[np.ndarray], np.ndarray],
    *,
    stride: int = KS_STRIDE,
) -> float:
    """``sqrt(m) * KS`` of every ``stride``-th sample against an analytic
    CDF — thinning breaks the within-run autocorrelation that would
    otherwise inflate the raw KS statistic (see the module docstring)."""
    t = np.sort(np.asarray(samples, dtype=float)[::stride])
    m = t.size
    if m == 0:
        return float("inf")
    th = np.asarray(cdf(t), dtype=float)
    emp_hi = np.arange(1, m + 1) / m
    emp_lo = np.arange(m) / m
    ks = max(float(np.abs(emp_hi - th).max()), float(np.abs(th - emp_lo).max()))
    return float(np.sqrt(m) * ks)


def qq_gap(
    samples: np.ndarray,
    quantile: Callable[[np.ndarray], np.ndarray],
    *,
    probs: np.ndarray | None = None,
) -> float:
    """Largest relative gap between empirical and analytic quantiles
    over a 10%..99% probability grid."""
    x = np.asarray(samples, dtype=float)
    p = np.linspace(0.1, 0.99, 90) if probs is None else probs
    emp = np.quantile(x, p)
    th = np.asarray(quantile(p), dtype=float)
    return float(np.abs(emp - th).max() / max(np.abs(th).max(), 1e-12))


def tv_distance(empirical: dict[int, float], pmf: np.ndarray) -> float:
    """Total-variation distance between a time-weighted empirical
    distribution of N and a closed-form pmf over ``0..len(pmf)-1``
    (empirical mass beyond the pmf support counts fully)."""
    p = np.asarray(pmf, dtype=float)
    tv = 0.0
    for k in range(p.size):
        tv += abs(empirical.get(k, 0.0) - p[k])
    tv += sum(v for k, v in empirical.items() if k >= p.size)
    # Closed-form tail mass beyond the pmf grid is not charged: callers
    # pass a grid wide enough that it is negligible.
    return 0.5 * tv


# ----------------------------------------------------------------------
# Execution and reporting.


@dataclass
class CheckOutcome:
    """One (check, backend) execution: the scored comparisons, or the
    error that prevented them."""

    check: str
    description: str
    severity: str
    tier: str
    engine: str
    backend: str
    comparisons: list[Comparison] = field(default_factory=list)
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.comparisons)

    @property
    def worst(self) -> float:
        """Worst ``statistic / threshold`` ratio (``inf`` on error) —
        the single number to sort a report by."""
        if self.error is not None:
            return float("inf")
        if not self.comparisons:
            return 0.0
        return max(c.statistic / c.threshold for c in self.comparisons)

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "description": self.description,
            "severity": self.severity,
            "tier": self.tier,
            "engine": self.engine,
            "backend": self.backend,
            "passed": self.passed,
            "error": self.error,
            "comparisons": [c.as_dict() for c in self.comparisons],
        }


@dataclass
class ValidationReport:
    """All outcomes of one :func:`run_validation` call."""

    tier: str
    outcomes: list[CheckOutcome]

    @property
    def gate_failures(self) -> list[CheckOutcome]:
        return [o for o in self.outcomes if o.severity == GATE and not o.passed]

    @property
    def warn_failures(self) -> list[CheckOutcome]:
        return [o for o in self.outcomes if o.severity == WARN and not o.passed]

    @property
    def passed(self) -> bool:
        """True when every gate-severity outcome passed (warn failures
        never fail a run)."""
        return not self.gate_failures

    def as_dict(self) -> dict:
        return {
            "tier": self.tier,
            "passed": self.passed,
            "gate_failures": [o.check for o in self.gate_failures],
            "warn_failures": [o.check for o in self.warn_failures],
            "outcomes": [o.as_dict() for o in self.outcomes],
        }

    def render(self) -> str:
        """Monospace table, worst offenders first within each status."""
        t = Table(
            title=f"Validation report (tier={self.tier})",
            headers=[
                "check", "engine", "backend", "severity", "metric",
                "observed", "expected", "statistic", "threshold", "status",
            ],
        )
        ordered = sorted(
            self.outcomes, key=lambda o: (o.passed, -o.worst, o.check)
        )
        for o in ordered:
            status = "PASS" if o.passed else (
                "FAIL" if o.severity == GATE else "WARN"
            )
            if o.error is not None:
                t.add_row(
                    [o.check, o.engine, o.backend, o.severity,
                     "(error)", "-", "-", "-", "-", status]
                )
                continue
            for c in o.comparisons:
                t.add_row(
                    [o.check, o.engine, o.backend, o.severity, c.metric,
                     f"{c.observed:.5g}", f"{c.expected:.5g}",
                     f"{c.statistic:.3g}", f"{c.threshold:.3g}",
                     "PASS" if c.passed else status]
                )
        lines = [t.render()]
        for o in self.outcomes:
            if o.error is not None:
                lines.append(f"ERROR {o.check} [{o.backend}]: {o.error}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"validation: {verdict} — {len(self.outcomes)} outcomes, "
            f"{len(self.gate_failures)} gate failures, "
            f"{len(self.warn_failures)} warnings"
        )
        return "\n".join(lines)


def select_checks(
    *,
    select: Sequence[str] | None = None,
    tier: str = QUICK,
    engines: Sequence[str] | None = None,
) -> list[ValidationCheck]:
    """Resolve the check selection ``run_validation`` will execute.

    ``select`` patterns are matched with :mod:`fnmatch` (exact names
    work unchanged); an exact-looking pattern that matches nothing
    raises, so a typo cannot silently validate nothing. ``tier=FULL``
    includes the quick tier (full is a superset lane, like the pytest
    ``slow`` marker).
    """
    checks = available_checks()
    if tier == QUICK:
        checks = [c for c in checks if c.tier == QUICK]
    elif tier != FULL:
        raise ValueError(f"tier must be one of {'/'.join(TIERS)}, got {tier!r}")
    if engines is not None:
        wanted = set(engines)
        checks = [c for c in checks if c.engine in wanted]
    if select is not None:
        matched: list[ValidationCheck] = []
        for pattern in select:
            hits = [c for c in checks if fnmatch.fnmatch(c.name, pattern)]
            if not hits:
                get_check(pattern)  # raises with the known-names listing
            matched += [c for c in hits if c not in matched]
        checks = matched
    return checks


def run_validation(
    *,
    select: Sequence[str] | None = None,
    tier: str = QUICK,
    engines: Sequence[str] | None = None,
    backends: Sequence[str] | None = None,
    processes: int | None = None,
    on_outcome: Callable[[CheckOutcome], None] | None = None,
) -> ValidationReport:
    """Run the selected checks and pool their outcomes.

    A check that raises is recorded as a failed outcome carrying the
    error text (an engine that cannot even run its reference cell is the
    worst validation failure of all), so one broken check never hides
    the others' results. ``on_outcome`` fires after each (check,
    backend) execution for progress display.

    Checks that ask :func:`run_cell` for the same ``CellSpec`` share one
    run of it (``littles-law-ps`` and ``productform-ps`` run the same
    PS mesh cell). The memo lives for this call only: it is dropped on
    return, so the next call simulates every cell afresh.
    """
    token = _CELL_MEMO.set({})
    outcomes: list[CheckOutcome] = []
    try:
        for check in select_checks(select=select, tier=tier, engines=engines):
            for backend in check.backends:
                if backends is not None and backend not in backends:
                    continue
                outcome = CheckOutcome(
                    check=check.name,
                    description=check.description,
                    severity=check.severity,
                    tier=check.tier,
                    engine=check.engine,
                    backend=backend,
                )
                try:
                    outcome.comparisons = list(check.runner(backend, processes))
                except Exception as exc:
                    outcome.error = f"{type(exc).__name__}: {exc}"
                outcomes.append(outcome)
                if on_outcome is not None:
                    on_outcome(outcome)
    finally:
        _CELL_MEMO.reset(token)
    return ValidationReport(tier=tier, outcomes=outcomes)


def backend_engine_params(backend: str) -> tuple[tuple[str, object], ...]:
    """The ``engine_params`` tuple selecting a kernel backend (empty for
    the reference backend, so python-only engines need no ``backend``
    knob)."""
    if backend == "python":
        return ()
    return (("backend", backend),)
