"""Per-rule tests for the replint framework (repro.analysis).

The fixture snippets under ``tests/analysis_fixtures/`` are parsed, never
imported; each rule has a bad fixture it must flag and a good fixture it
must leave clean. The rng fixtures live in an ``analysis_fixtures/sim/``
subdirectory so the rule's sim-scope heuristics trigger naturally.
"""

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, analyze_paths

FIXTURES = Path(__file__).parent / "analysis_fixtures"
KERNELS_INIT = (
    Path(__file__).parent.parent / "src" / "repro" / "sim" / "kernels" / "__init__.py"
)


def run(paths, select=None):
    return analyze_paths(paths, select=select)


def rules_hit(findings):
    return {f.rule for f in findings}


# -- registry sanity ---------------------------------------------------

def test_all_eleven_rules_registered():
    assert set(RULES) == {
        "rng-discipline",
        "backend-boundary",
        "registry-consistency",
        "golden-coverage",
        "bench-coverage",
        "validation-coverage",
        "hot-loop-alloc",
        "stale-suppression",
        "shm-hygiene",
        "mutable-default",
        "dead-import",
    }


# -- rng-discipline ----------------------------------------------------

def test_rng_bad_fixture_flags_every_pattern():
    findings = run([FIXTURES / "sim" / "rng_bad.py"], select=["rng-discipline"])
    assert len(findings) == 8
    messages = "\n".join(f.message for f in findings)
    assert "side='right'" in messages or "side=\"right\"" in messages
    assert "time.time" in messages
    assert "popitem" in messages
    assert "set" in messages


def test_rng_good_fixture_clean():
    assert run([FIXTURES / "sim" / "rng_good.py"], select=["rng-discipline"]) == []


def test_rng_alias_bad_fixture_flags_every_uncalled_draw():
    findings = run(
        [FIXTURES / "sim" / "rng_alias_bad.py"], select=["rng-discipline"]
    )
    assert [f.line for f in findings] == [9, 10, 13, 15, 15, 16]
    assert all("without a call" in f.message for f in findings)


def test_rng_alias_good_fixture_clean():
    assert run(
        [FIXTURES / "sim" / "rng_alias_good.py"], select=["rng-discipline"]
    ) == []


def test_rng_alias_check_is_sim_scoped(tmp_path):
    path = tmp_path / "helpers.py"
    path.write_text("def f(rng):\n    return rng.exponential\n")
    assert run([path], select=["rng-discipline"]) == []


# -- shm-hygiene -------------------------------------------------------

def test_shm_bad_fixture_flags_leak_and_unentered_publish():
    findings = run([FIXTURES / "shm_bad.py"], select=["shm-hygiene"])
    assert len(findings) == 2
    messages = "\n".join(f.message for f in findings)
    assert "SharedMemory(create=True)" in messages
    assert "publish_cells" in messages


def test_shm_good_fixture_clean():
    assert run([FIXTURES / "shm_good.py"], select=["shm-hygiene"]) == []


# -- mutable-default / dead-import -------------------------------------

def test_hygiene_bad_fixture_counts():
    findings = run(
        [FIXTURES / "hygiene_bad.py"], select=["mutable-default", "dead-import"]
    )
    assert sum(f.rule == "mutable-default" for f in findings) == 3
    assert sum(f.rule == "dead-import" for f in findings) == 2


def test_hygiene_good_fixture_clean():
    assert run(
        [FIXTURES / "hygiene_good.py"], select=["mutable-default", "dead-import"]
    ) == []


# -- suppression comments ----------------------------------------------

def _write(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


def test_same_line_suppression(tmp_path):
    path = _write(
        tmp_path,
        "mod.py",
        """
        def f(bucket=[]):  # replint: disable=mutable-default
            return bucket
        """,
    )
    assert run([path], select=["mutable-default"]) == []


def test_disable_next_suppression(tmp_path):
    path = _write(
        tmp_path,
        "mod.py",
        """
        # replint: disable-next=mutable-default
        def f(bucket=[]):
            return bucket
        """,
    )
    assert run([path], select=["mutable-default"]) == []


def test_disable_file_suppression(tmp_path):
    path = _write(
        tmp_path,
        "mod.py",
        """
        # replint: disable-file=mutable-default
        def f(bucket=[]):
            return bucket

        def g(table={}):
            return table
        """,
    )
    assert run([path], select=["mutable-default"]) == []


def test_disable_all_token(tmp_path):
    path = _write(
        tmp_path,
        "mod.py",
        """
        import json

        def f(bucket=[]):  # replint: disable=all
            return bucket
        """,
    )
    findings = run([path])
    # The same-line `all` silences mutable-default but not the dead
    # import two lines up.
    assert rules_hit(findings) == {"dead-import"}


def test_unsuppressed_finding_still_reported(tmp_path):
    path = _write(
        tmp_path,
        "mod.py",
        """
        def f(bucket=[]):  # replint: disable=dead-import
            return bucket
        """,
    )
    # Suppressing the *wrong* rule must not silence the finding.
    assert rules_hit(run([path], select=["mutable-default"])) == {
        "mutable-default"
    }


# -- backend-boundary --------------------------------------------------

def test_synthetic_numpy_import_in_kernels_init(tmp_path):
    """The satellite check: a module-level ``import numpy`` injected into
    a copy of the real kernels/__init__.py must be caught statically."""
    kernels = tmp_path / "kernels"
    kernels.mkdir()
    target = kernels / "__init__.py"
    shutil.copy(KERNELS_INIT, target)
    target.write_text(
        target.read_text().replace(
            "import importlib.util",
            "import importlib.util\nimport numpy",
            1,
        )
    )
    findings = run([target], select=["backend-boundary"])
    assert any("numpy-free" in f.message for f in findings)


def test_clean_kernels_init_copy_passes(tmp_path):
    kernels = tmp_path / "kernels"
    kernels.mkdir()
    shutil.copy(KERNELS_INIT, kernels / "__init__.py")
    assert run([kernels / "__init__.py"], select=["backend-boundary"]) == []


def test_module_level_numpy_backend_import_flagged(tmp_path):
    path = _write(
        tmp_path,
        "engine.py",
        """
        from repro.sim.kernels import numpy_backend

        def run(sim):
            return numpy_backend.run_fifo(sim)
        """,
    )
    findings = run([path], select=["backend-boundary"])
    assert len(findings) == 1
    assert "module level" in findings[0].message


def test_function_level_numpy_backend_outside_lazy_site_flagged(tmp_path):
    path = _write(
        tmp_path,
        "engine.py",
        """
        def sneaky(sim):
            from repro.sim.kernels import numpy_backend
            return numpy_backend.run_fifo(sim)
        """,
    )
    findings = run([path], select=["backend-boundary"])
    assert len(findings) == 1
    assert "sneaky" in findings[0].message


def test_indirect_chain_to_numpy_reported(tmp_path):
    """The closure check names the offending module-level import chain."""
    pkg = tmp_path / "pkg"
    (pkg / "kernels").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "helper.py").write_text("import numpy\n")
    (pkg / "kernels" / "__init__.py").write_text("from pkg import helper\n")
    findings = run([pkg], select=["backend-boundary"])
    chain = [f for f in findings if "->" in f.message]
    assert chain, findings
    assert "pkg.kernels -> pkg.helper -> numpy" in chain[0].message


# -- registry-consistency ----------------------------------------------

REGISTRY_SRC = (
    Path(__file__).parent.parent / "src" / "repro" / "sim" / "registry.py"
)


def test_real_registry_consistent():
    assert run([REGISTRY_SRC], select=["registry-consistency"]) == []


def test_registry_rule_skipped_when_registry_not_analyzed():
    findings = run(
        [FIXTURES / "hygiene_good.py"], select=["registry-consistency"]
    )
    assert findings == []


def test_tampered_engine_param_flagged(monkeypatch):
    """Metadata drift: an EngineParam naming no constructor parameter."""
    import dataclasses

    import repro.sim.registry as registry

    fifo = registry.get_engine("fifo")
    bogus = registry.EngineParam(
        name="no_such_knob", kind=registry.CHOICE, default="a", doc="bogus",
        choices=("a",),
    )
    tampered = dataclasses.replace(fifo, params=fifo.params + (bogus,))
    monkeypatch.setitem(registry._REGISTRY, "fifo", tampered)
    findings = run([REGISTRY_SRC], select=["registry-consistency"])
    assert any("no_such_knob" in f.message for f in findings)


def test_tampered_backends_choices_flagged(monkeypatch):
    """A backend EngineParam whose choices drift from Engine.backends."""
    import dataclasses

    import repro.sim.registry as registry

    fifo = registry.get_engine("fifo")
    params = tuple(
        dataclasses.replace(p, choices=("python",))
        if p.name == "backend"
        else p
        for p in fifo.params
    )
    tampered = dataclasses.replace(fifo, params=params)
    monkeypatch.setitem(registry._REGISTRY, "fifo", tampered)
    findings = run([REGISTRY_SRC], select=["registry-consistency"])
    assert any("differ from Engine.backends" in f.message for f in findings)


# -- hot-loop-alloc ----------------------------------------------------

def test_hotloop_bad_fixture_flags_every_alloc():
    findings = run(
        [FIXTURES / "sim" / "hotloop_bad.py"], select=["hot-loop-alloc"]
    )
    assert len(findings) == 8
    messages = "\n".join(f.message for f in findings)
    for label in (
        "List display",
        "Dict display",
        "f-string",
        "%-formatting",
        "str.format() call",
        "np.zeros() call",
        "list() call",
    ):
        assert label in messages, label
    # Identical code outside a run loop stays silent.
    assert "helper" not in messages


def test_hotloop_good_fixture_clean():
    assert run(
        [FIXTURES / "sim" / "hotloop_good.py"], select=["hot-loop-alloc"]
    ) == []


def test_hotloop_rule_ignores_non_sim_paths(tmp_path):
    path = _write(
        tmp_path,
        "mod.py",
        """
        def run(events):
            out = []
            for t in events:
                out.append([t, 0])
            return out
        """,
    )
    assert run([path], select=["hot-loop-alloc"]) == []


# -- golden-coverage / bench-coverage ----------------------------------

def _register_synthetic_engine(monkeypatch, name="priority", **overrides):
    """A sixth engine cloned from fifo but pinned by no artifact."""
    import dataclasses

    import repro.sim.registry as registry

    fifo = registry.get_engine("fifo")
    synthetic = dataclasses.replace(fifo, name=name, aliases=(), **overrides)
    monkeypatch.setitem(registry._REGISTRY, name, synthetic)
    return synthetic


def test_real_registry_fully_covered_by_golden_and_bench():
    assert run(
        [REGISTRY_SRC], select=["golden-coverage", "bench-coverage"]
    ) == []


def test_coverage_rules_skip_when_registry_not_analyzed():
    assert run(
        [FIXTURES / "hygiene_good.py"],
        select=["golden-coverage", "bench-coverage"],
    ) == []


def test_unpinned_synthetic_engine_trips_golden_coverage(monkeypatch):
    """The acceptance check: a registered engine with no golden cell is
    a finding, even though every test still passes."""
    _register_synthetic_engine(monkeypatch)
    findings = run([REGISTRY_SRC], select=["golden-coverage"])
    assert len(findings) == 1
    assert "'priority'" in findings[0].message
    assert "no golden cell" in findings[0].message


def test_unpinned_synthetic_engine_trips_bench_coverage(monkeypatch):
    _register_synthetic_engine(monkeypatch)
    findings = run([REGISTRY_SRC], select=["bench-coverage"])
    assert any(
        "'priority'" in f.message and "BENCH_" in f.message for f in findings
    )


def test_untracked_capability_trips_golden_coverage(monkeypatch):
    """An engine claiming supports_maxima with no maxima-tracking cell.

    The ps engine has direct and api golden cells, so only the tampered
    capability sub-check can fire — every ps cell records
    max_queue_length as -1, proving the rule reads the recorded cell
    *values*, not just fixture names.
    """
    import dataclasses

    import repro.sim.registry as registry

    ps = registry.get_engine("ps")
    tampered = dataclasses.replace(ps, supports_maxima=True)
    monkeypatch.setitem(registry._REGISTRY, "ps", tampered)
    findings = run([REGISTRY_SRC], select=["golden-coverage"])
    assert len(findings) == 1
    assert "'ps'" in findings[0].message
    assert "track_maxima" in findings[0].message


def test_unbenched_backend_trips_bench_coverage(monkeypatch):
    import dataclasses

    import repro.sim.registry as registry

    fifo = registry.get_engine("fifo")
    tampered = dataclasses.replace(
        fifo, backends=fifo.backends + ("cython",)
    )
    monkeypatch.setitem(registry._REGISTRY, "fifo", tampered)
    findings = run([REGISTRY_SRC], select=["bench-coverage"])
    assert len(findings) == 1
    assert "'cython'" in findings[0].message


# -- validation-coverage -------------------------------------------------

def test_real_registry_fully_covered_by_validation_checks():
    assert run([REGISTRY_SRC], select=["validation-coverage"]) == []


def test_validation_coverage_skips_when_registry_not_analyzed():
    assert run(
        [FIXTURES / "hygiene_good.py"], select=["validation-coverage"]
    ) == []


def test_unvalidated_synthetic_engine_trips_validation_coverage(monkeypatch):
    """A sixth engine with no gate-severity check is a finding even
    though the validation run itself would pass (it never runs)."""
    _register_synthetic_engine(monkeypatch)
    findings = run([REGISTRY_SRC], select=["validation-coverage"])
    assert len(findings) == 1
    assert "'priority'" in findings[0].message
    assert "no gate-severity validation check" in findings[0].message


def test_unvalidated_backend_trips_validation_coverage(monkeypatch):
    """An advertised kernel backend no gate check runs on is a finding
    — a biased vectorized solver must not merge unvalidated."""
    import dataclasses

    import repro.sim.registry as registry

    fifo = registry.get_engine("fifo")
    tampered = dataclasses.replace(fifo, backends=fifo.backends + ("cython",))
    monkeypatch.setitem(registry._REGISTRY, "fifo", tampered)
    findings = run([REGISTRY_SRC], select=["validation-coverage"])
    assert len(findings) == 1
    assert "'cython'" in findings[0].message
    assert "no gate-severity validation check runs on that backend" in (
        findings[0].message
    )


# -- stale-suppression --------------------------------------------------

def test_unused_suppression_flagged_on_full_run(tmp_path):
    path = _write(
        tmp_path,
        "mod.py",
        """
        VALUE = 1  # replint: disable=mutable-default
        """,
    )
    findings = run([path])
    assert rules_hit(findings) == {"stale-suppression"}
    assert "mutable-default" in findings[0].message


def test_used_suppression_not_stale(tmp_path):
    path = _write(
        tmp_path,
        "mod.py",
        """
        def f(bucket=[]):  # replint: disable=mutable-default
            return bucket
        """,
    )
    assert run([path]) == []


def test_select_does_not_make_unexecuted_suppressions_stale(tmp_path):
    # disable=mutable-default can only be judged when mutable-default
    # actually ran; under --select dead-import it is left alone even
    # though stale-suppression itself is selected.
    path = _write(
        tmp_path,
        "mod.py",
        """
        VALUE = 1  # replint: disable=mutable-default
        """,
    )
    assert run([path], select=["dead-import", "stale-suppression"]) == []


def test_disable_file_under_select_consumed_not_stale(tmp_path):
    # The satellite matrix: disable-file vs --select. Selecting the
    # suppressed rule consumes the file-wide suppression (no stale
    # finding); selecting an unrelated rule leaves it unassessed.
    path = _write(
        tmp_path,
        "mod.py",
        """
        # replint: disable-file=mutable-default
        def f(bucket=[]):
            return bucket
        """,
    )
    assert run(
        [path], select=["mutable-default", "stale-suppression"]
    ) == []
    assert run([path], select=["dead-import", "stale-suppression"]) == []


def test_unused_blanket_suppression_flagged_only_on_full_run(tmp_path):
    # The satellite matrix: disable=all vs stale-suppression. The
    # blanket is dead weight on a full run, but a --select run cannot
    # judge it (most rules never executed).
    path = _write(
        tmp_path,
        "mod.py",
        """
        VALUE = 1  # replint: disable=all
        """,
    )
    full = run([path])
    assert rules_hit(full) == {"stale-suppression"}
    assert "blanket" in full[0].message
    assert run([path], select=["mutable-default", "stale-suppression"]) == []


def test_unknown_rule_suppression_always_flagged(tmp_path):
    path = _write(
        tmp_path,
        "mod.py",
        """
        VALUE = 1  # replint: disable=no-such-rule
        """,
    )
    findings = run([path], select=["stale-suppression"])
    assert rules_hit(findings) == {"stale-suppression"}
    assert "no-such-rule" in findings[0].message


def test_stale_suppression_opt_out(tmp_path):
    # Naming stale-suppression itself exempts the comment from the
    # dead-weight audit (one level only — no meta-suppression chains).
    path = _write(
        tmp_path,
        "mod.py",
        """
        VALUE = 1  # replint: disable=stale-suppression,mutable-default
        """,
    )
    assert run([path]) == []


# -- the real tree -----------------------------------------------------

def test_real_repro_tree_is_clean():
    src_repro = Path(__file__).parent.parent / "src" / "repro"
    assert run([src_repro]) == []


def test_parse_error_becomes_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    findings = run([path])
    assert [f.rule for f in findings] == ["parse-error"]
