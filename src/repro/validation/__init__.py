"""Statistical validation harness: closed forms vs engines, in CI.

The repo carries the paper's full analytic substrate
(:mod:`repro.queueing`: M/M/1, M/D/1, M/M/1/K, Pollaczek-Khinchin,
product-form networks, Little's Law, stochastic dominance) *and* five
simulation engines with two kernel backends. This package is the runtime
statistical gate tying the two together: a registry of declarative
cross-checks, each running a reference cell through the standard
``CellSpec``/``ReplicationEngine`` facade and scoring the simulated
outcome against the exact closed form. A subtly biased new engine or
backend fails a gate check here before it can merge — the counterpart of
the *static* replint gate (:mod:`repro.analysis`) and the *draw-order*
golden-fixture gate.

The validation contract
-----------------------
1. **Severity.** Every check is ``gate`` or ``warn``
   (:data:`~repro.validation.framework.GATE` /
   :data:`~repro.validation.framework.WARN`). Gate checks block the
   merge under ``python -m repro validate --strict`` (the CI quick
   lane); warn checks report but never fail a run. Use ``gate`` only for
   *exact* correspondences with a calibrated margin; approximations get
   ``warn``.
2. **Tier.** ``quick`` checks run on every push/PR and must stay cheap
   (seconds, not minutes); ``full`` adds the long-horizon
   distribution-level cells, runs in nightly CI and under the ``slow``
   pytest marker. ``tier=full`` is a superset of ``quick``.
3. **Tolerances are CI-calibrated, never magic.** Mean-value checks are
   scored as z-scores on the pooled replication CI
   (:func:`~repro.validation.framework.z_comparison`); distribution
   checks use autocorrelation-aware statistics (thinned KS, total
   variation, dominance violation). Each threshold constant in
   :mod:`repro.validation.framework` documents the clean-tree value it
   was calibrated against and its margin. If a new check needs a new
   statistic, measure the clean tree first and record the measurement in
   the constant's docs.
4. **Coverage is enforced.** The ``validation-coverage`` replint rule
   (:mod:`repro.analysis.rules_validation`) fails lint when a registered
   engine — or a non-reference kernel backend an engine advertises —
   has no gate-severity check exercising it. Registering a new engine
   therefore *requires* registering its closed-form check in the same
   change.
5. **Registering a check** is one
   :func:`~repro.validation.framework.register_check` call in a module
   imported below: declare name, description, severity, tier, the
   engine and the backends it applies to, and a
   ``runner(backend, processes) -> list[Comparison]``. Runners must
   simulate only through :func:`~repro.validation.framework.run_cell`
   (the facade path users take), must be deterministic given the
   spec's seed set, and must only read the result: within one
   :func:`run_validation` call, checks asking for an equal spec share
   one run of it. A runner that raises is reported as a failed
   outcome, never a crashed run.
6. **Self-validation.** The harness is itself validated against
   false-green: the mutation test in ``tests/test_validation.py``
   injects a deliberate service-rate bias and asserts the gate trips.

Entry points: ``python -m repro validate [--select ...] [--tier full]
[--strict] [--json-out report.json]`` (CLI), ``VALIDATE=1
scripts/check.sh`` (local lane), :func:`run_validation` (programmatic).
``scripts/validation_report.py`` renders the JSON report as markdown for
the CI run page.
"""

from repro.validation.framework import (
    DOM_GATE,
    FULL,
    GATE,
    KS_GATE,
    LITTLE_GATE,
    QQ_WARN,
    QUICK,
    TV_GATE,
    WARN,
    Z_GATE,
    CheckOutcome,
    Comparison,
    ValidationCheck,
    ValidationReport,
    available_checks,
    get_check,
    register_check,
    run_validation,
    select_checks,
)

# Importing the check modules is what registers the shipped check set
# (the same import-time pattern as the replint rule registry).
from repro.validation import checks_closedform as _checks_closedform
from repro.validation import checks_distribution as _checks_distribution

__all__ = [
    "DOM_GATE",
    "FULL",
    "GATE",
    "KS_GATE",
    "LITTLE_GATE",
    "QQ_WARN",
    "QUICK",
    "TV_GATE",
    "WARN",
    "Z_GATE",
    "CheckOutcome",
    "Comparison",
    "ValidationCheck",
    "ValidationReport",
    "available_checks",
    "get_check",
    "register_check",
    "run_validation",
    "select_checks",
]
