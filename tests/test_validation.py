"""Tests for the statistical validation harness (repro.validation).

Four layers:

* framework units — the check registry, scoring helpers and report
  plumbing, exercised with synthetic checks that never simulate;
* the per-run cell memo — checks sharing a ``CellSpec`` share one run
  within a ``run_validation`` call, counted by patching
  ``ReplicationEngine.run`` onto short windows;
* facade wiring — the ``collect_delays`` / ``track_number_distribution``
  flags and pooled accessors the distribution checks depend on, on tiny
  cells;
* the live gate — the clean tree passes the real quick tier with every
  scored row bit-identical to ``tests/golden/validation_quick.json``,
  and the mutation self-test: a deliberately biased service rate must
  trip the gate and be named in the report (all ``slow``-marked; the
  nightly CI lane runs them).
"""

import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

import repro.validation as validation
from repro.sim.replication import CellSpec, ReplicationEngine
from repro.validation import framework
from repro.validation.framework import (
    GATE,
    QUICK,
    WARN,
    CheckOutcome,
    Comparison,
    ValidationCheck,
    ValidationReport,
    available_checks,
    backend_engine_params,
    get_check,
    qq_gap,
    run_validation,
    select_checks,
    thinned_ks,
    tv_distance,
    z_score,
)

TINY = dict(scenario="single", n=2, rho=0.5, warmup=20.0, horizon=300.0,
            seeds=(0, 1))

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "golden"))
from regen import VALIDATION_OUT, validation_rows  # noqa: E402


def synthetic_check(monkeypatch, name, *, severity=GATE, tier=QUICK,
                    backends=("python",), runner=None):
    """Register a non-simulating check for the duration of one test."""
    if runner is None:
        def runner(backend, processes):
            return [Comparison("m", 1.0, 1.0, 0.0, 1.0)]
    check = ValidationCheck(
        name=name, description="synthetic", severity=severity, tier=tier,
        engine="fifo", backends=backends, runner=runner,
    )
    monkeypatch.setitem(framework._REGISTRY, name, check)
    return check


# -- framework units ---------------------------------------------------

class TestComparison:
    def test_passed_at_threshold(self):
        assert Comparison("m", 1.0, 1.0, 1.0, 1.0).passed

    def test_failed_above_threshold(self):
        assert not Comparison("m", 1.0, 1.0, 1.01, 1.0).passed

    def test_nonfinite_statistic_never_passes(self):
        assert not Comparison("m", 1.0, 1.0, float("inf"), 1.0).passed
        assert not Comparison("m", 1.0, 1.0, float("nan"), 1.0).passed

    def test_as_dict_roundtrip(self):
        d = Comparison("m", 2.0, 1.0, 0.5, 1.0).as_dict()
        assert d["metric"] == "m" and d["passed"] is True

    def test_numpy_scalars_serialize(self):
        # Checks routinely hand numpy scalars in; the JSON artifact must
        # still serialize (np.bool_/np.float64 are not json types).
        import json

        c = Comparison("m", np.float64(1.0), np.float64(1.0),
                       np.float64(0.5), 1.0)
        assert json.dumps(c.as_dict())
        assert isinstance(c.passed, bool)


class TestRegistry:
    def test_duplicate_name_rejected(self, monkeypatch):
        check = synthetic_check(monkeypatch, "dup-check")
        with pytest.raises(ValueError, match="already registered"):
            framework.register_check(check)

    def test_unknown_check_lists_known_names(self):
        with pytest.raises(ValueError, match="mm1-delay"):
            get_check("no-such-check")

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            ValidationCheck("x", "d", "fatal", QUICK, "fifo", ("python",),
                            lambda b, p: [])

    def test_bad_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            ValidationCheck("x", "d", GATE, "hourly", "fifo", ("python",),
                            lambda b, p: [])

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="quantum"):
            ValidationCheck("x", "d", GATE, QUICK, "quantum", ("python",),
                            lambda b, p: [])

    def test_backends_must_be_advertised_subset(self):
        with pytest.raises(ValueError, match="backends"):
            ValidationCheck("x", "d", GATE, QUICK, "fifo", ("cython",),
                            lambda b, p: [])
        with pytest.raises(ValueError, match="backends"):
            ValidationCheck("x", "d", GATE, QUICK, "fifo", (),
                            lambda b, p: [])

    def test_available_checks_sorted(self):
        names = [c.name for c in available_checks()]
        assert names == sorted(names)


class TestHelpers:
    def test_z_score_value(self):
        # half_width 1.96 <-> se 1: z is just the absolute gap.
        assert z_score(3.0, 1.0, 1.96) == pytest.approx(2.0)

    def test_z_score_degenerate_ci_is_inf(self):
        assert z_score(1.0, 1.0, 0.0) == float("inf")
        assert z_score(1.0, 1.0, float("nan")) == float("inf")

    def test_thinned_ks_exact_law_is_small(self):
        # Exact plug-in quantiles of Exp(1): KS -> 0 as m grows.
        u = (np.arange(10000) + 0.5) / 10000
        samples = -np.log(1.0 - u)
        ks = thinned_ks(samples, lambda t: 1.0 - np.exp(-t), stride=1)
        assert ks < 0.01

    def test_thinned_ks_wrong_law_is_large(self):
        u = (np.arange(10000) + 0.5) / 10000
        samples = -np.log(1.0 - u) / 0.5  # Exp(0.5) vs claimed Exp(1)
        ks = thinned_ks(samples, lambda t: 1.0 - np.exp(-t), stride=1)
        assert ks > framework.KS_GATE

    def test_thinned_ks_empty_is_inf(self):
        assert thinned_ks(np.array([]), lambda t: t) == float("inf")

    def test_qq_gap_exact_quantiles(self):
        u = (np.arange(100000) + 0.5) / 100000
        samples = -np.log(1.0 - u)
        gap = qq_gap(samples, lambda p: -np.log(1.0 - p))
        assert gap < 0.01

    def test_tv_identical_zero_disjoint_one(self):
        pmf = np.array([0.5, 0.5])
        assert tv_distance({0: 0.5, 1: 0.5}, pmf) == pytest.approx(0.0)
        assert tv_distance({5: 1.0}, pmf) == pytest.approx(1.0)

    def test_tv_charges_excess_empirical_tail(self):
        # Half the empirical mass sits beyond the pmf support.
        pmf = np.array([1.0])
        assert tv_distance({0: 0.5, 3: 0.5}, pmf) == pytest.approx(0.5)

    def test_backend_engine_params(self):
        assert backend_engine_params("python") == ()
        assert backend_engine_params("numpy") == (("backend", "numpy"),)


class TestSelection:
    def test_quick_tier_excludes_full(self):
        assert all(c.tier == QUICK for c in select_checks(tier=QUICK))

    def test_full_tier_is_superset(self):
        quick = {c.name for c in select_checks(tier=QUICK)}
        full = {c.name for c in select_checks(tier="full")}
        assert quick < full

    def test_glob_select(self):
        names = {c.name for c in select_checks(select=["littles-law-*"])}
        assert names == {"littles-law-fifo", "littles-law-slotted",
                         "littles-law-ps"}

    def test_typo_cannot_validate_nothing(self):
        with pytest.raises(ValueError, match="unknown validation check"):
            select_checks(select=["mm1-dealy"])

    def test_engine_filter(self):
        checks = select_checks(engines=["finite"])
        assert checks and all(c.engine == "finite" for c in checks)


class TestRunValidation:
    def test_synthetic_pass(self, monkeypatch):
        synthetic_check(monkeypatch, "zz-synthetic")
        report = run_validation(select=["zz-synthetic"])
        assert report.passed and len(report.outcomes) == 1

    def test_runner_exception_is_a_failed_outcome(self, monkeypatch):
        def boom(backend, processes):
            raise RuntimeError("reference cell exploded")
        synthetic_check(monkeypatch, "zz-broken", runner=boom)
        report = run_validation(select=["zz-broken"])
        assert not report.passed
        assert report.gate_failures[0].error == (
            "RuntimeError: reference cell exploded"
        )
        assert "zz-broken" in report.as_dict()["gate_failures"]

    def test_warn_failure_never_fails_the_report(self, monkeypatch):
        def miss(backend, processes):
            return [Comparison("m", 9.0, 0.0, 9.0, 1.0)]
        synthetic_check(monkeypatch, "zz-warn", severity=WARN, runner=miss)
        report = run_validation(select=["zz-warn"])
        assert report.passed
        assert [o.check for o in report.warn_failures] == ["zz-warn"]

    def test_backend_filter_and_progress_callback(self, monkeypatch):
        ran = []
        def runner(backend, processes):
            ran.append(backend)
            return [Comparison("m", 0.0, 0.0, 0.0, 1.0)]
        synthetic_check(monkeypatch, "zz-both",
                        backends=("python", "numpy"), runner=runner)
        seen = []
        report = run_validation(select=["zz-both"], backends=["numpy"],
                                on_outcome=seen.append)
        assert ran == ["numpy"]
        assert [o.backend for o in seen] == ["numpy"]
        assert len(report.outcomes) == 1

    def test_render_names_worst_offender_first(self):
        good = CheckOutcome("ok", "d", GATE, QUICK, "fifo", "python",
                            [Comparison("m", 0.0, 0.0, 0.1, 1.0)])
        bad = CheckOutcome("broken", "d", GATE, QUICK, "fifo", "python",
                           [Comparison("m", 9.0, 0.0, 9.0, 1.0)])
        text = ValidationReport(tier=QUICK, outcomes=[good, bad]).render()
        assert text.index("broken") < text.index("ok")
        assert "FAIL" in text and "1 gate failures" in text


# -- the per-run cell memo ---------------------------------------------

#: The two quick-tier checks that share one PS mesh cell.
PS_PAIR = ["littles-law-ps", "productform-ps"]


@pytest.fixture
def counted_runs(monkeypatch):
    """Count ``ReplicationEngine.run`` calls, running each requested spec
    on a short window so the memo tests stay cheap."""
    real = ReplicationEngine.run
    calls = []

    def run(self, spec):
        calls.append(spec)
        return real(self, replace(spec, warmup=10.0, horizon=60.0,
                                  seeds=(0, 1)))

    monkeypatch.setattr(ReplicationEngine, "run", run)
    return calls


class TestCellMemo:
    def test_shared_spec_runs_once(self, counted_runs):
        report = run_validation(select=PS_PAIR, processes=1)
        assert len(counted_runs) == 1
        assert [o.check for o in report.outcomes] == PS_PAIR
        assert all(o.error is None and o.comparisons for o in report.outcomes)

    def test_memo_lives_for_one_call(self, counted_runs):
        run_validation(select=PS_PAIR, processes=1)
        run_validation(select=PS_PAIR, processes=1)
        assert len(counted_runs) == 2
        assert counted_runs[0] == counted_runs[1]
        assert framework._CELL_MEMO.get() is None

    def test_raising_run_is_retried_not_cached(self, monkeypatch):
        real = ReplicationEngine.run
        calls = []

        def flaky(self, spec):
            calls.append(spec)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return real(self, replace(spec, horizon=60.0, seeds=(0, 1)))

        monkeypatch.setattr(ReplicationEngine, "run", flaky)
        report = run_validation(select=PS_PAIR, processes=1)
        assert len(calls) == 2
        first, second = report.outcomes
        assert first.error == "RuntimeError: transient"
        assert second.error is None and second.comparisons

    def test_memo_dropped_when_a_callback_raises(self, counted_runs):
        def stop(outcome):
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            run_validation(select=PS_PAIR, processes=1, on_outcome=stop)
        assert framework._CELL_MEMO.get() is None
        framework.run_cell(counted_runs[0], 1)
        framework.run_cell(counted_runs[0], 1)
        assert len(counted_runs) == 3  # outside run_validation: no memo


# -- facade wiring (tiny live cells) -----------------------------------

class TestFacadeWiring:
    def test_collect_delays_pools_samples(self):
        res = ReplicationEngine(processes=1).run(
            CellSpec(engine="fifo", collect_delays=True, **TINY)
        )
        delays = res.pooled_delays()
        assert delays.size == sum(r.completed for r in res.replications)
        # Unit deterministic service floor (modulo float residue).
        assert np.all(delays > 1.0 - 1e-9)

    def test_number_distribution_mass_sums_to_one(self):
        res = ReplicationEngine(processes=1).run(
            CellSpec(engine="fifo", track_number_distribution=True, **TINY)
        )
        dist = res.pooled_number_distribution()
        assert sum(dist.values()) == pytest.approx(1.0)
        assert all(k >= 0 for k in dist)

    def test_pooled_delays_requires_the_flag(self):
        res = ReplicationEngine(processes=1).run(
            CellSpec(engine="fifo", **TINY)
        )
        with pytest.raises(ValueError, match="collect_delays"):
            res.pooled_delays()

    def test_unsupported_capability_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="per-packet delay samples"):
            CellSpec(engine="rushed", collect_delays=True, **TINY)
        with pytest.raises(ValueError, match="number-in-system"):
            CellSpec(engine="slotted", track_number_distribution=True, **TINY)

    def test_numpy_backend_rejects_number_tracking(self):
        with pytest.raises(ValueError, match="numpy"):
            CellSpec(engine="fifo", track_number_distribution=True,
                     engine_params=(("backend", "numpy"),), **TINY)


# -- the live gate -----------------------------------------------------

@pytest.fixture(scope="module")
def quick_report():
    """One run of the real quick tier, shared by the live-gate tests."""
    return run_validation(tier=QUICK)


class TestLiveGate:
    @pytest.mark.slow
    def test_clean_tree_passes_quick_tier(self, quick_report):
        assert quick_report.passed, quick_report.render()

    @pytest.mark.slow
    def test_quick_tier_rows_match_golden(self, quick_report):
        """Every scored row is bit-identical to the pinned fixture
        (``tests/golden/validation_quick.json``): sharing cells between
        checks changes what runs, never what is measured."""
        with open(VALIDATION_OUT) as fh:
            want = json.load(fh)
        assert validation_rows(quick_report) == want

    @pytest.mark.slow
    def test_injected_bias_trips_the_gate(self, monkeypatch):
        """The mutation self-test: shrink every service rate by 10% and
        the M/M/1 delay check must fail and be named in the report."""
        import repro.sim.fifo_network as fifo_network

        real = fifo_network.resolve_service_rates

        def biased(*args, **kwargs):
            return 0.9 * real(*args, **kwargs)

        monkeypatch.setattr(fifo_network, "resolve_service_rates", biased)
        report = run_validation(select=["mm1-delay"], processes=1)
        assert not report.passed
        assert report.as_dict()["gate_failures"] == ["mm1-delay"]

    @pytest.mark.slow
    def test_unbiased_control_passes(self):
        """The control leg of the mutation test: the same single check
        passes without the bias (so the test above fails for the right
        reason)."""
        report = run_validation(select=["mm1-delay"], processes=1)
        assert report.passed, report.render()


def test_public_surface_reexported():
    for name in ("run_validation", "available_checks", "ValidationCheck",
                 "ValidationReport", "register_check", "Z_GATE"):
        assert hasattr(validation, name)
