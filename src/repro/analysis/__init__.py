"""``replint`` — the repo's AST/import-graph invariant checker, plus rngsan.

The reproduction's correctness story (same-seed bit-identity across five
engines, a numpy-free ``backend="python"`` path, registry metadata that
matches the simulator classes, golden/bench artifacts that cover the
whole registry surface) rests on conventions that runtime tests can only
spot-check. This package enforces them *statically*, at lint time, over
the source tree:

=====================  ==================================================
rule                   invariant
=====================  ==================================================
``rng-discipline``     CDF bisections are ``side='right'``; engine hot
                       loops use blocked draws; no nondeterminism
                       sources (set iteration, wall clock, bare
                       ``popitem``) in ``sim/`` code
``backend-boundary``   ``numpy_backend`` is imported only at the
                       sanctioned lazy site and the kernels selection
                       layer stays numpy-free — the static proof that
                       ``backend="python"`` never loads the vectorized
                       module
``registry-consistency``  every registered ``EngineParam`` and
                       capability flag matches the simulator class
                       behind the engine
``golden-coverage``    every registered engine and draw-stream-changing
                       capability flag is pinned by a golden fixture
                       cell (direct + ``api_*``; exp service, saturated
                       tracking, maxima, lossy + infinite buffers) — a
                       new engine fails the gate until it is pinned
``bench-coverage``     every registered engine and non-reference
                       backend appears in a ``BENCH_*.json`` cell, so
                       the perf gate covers the whole registry surface
``validation-coverage``  every registered engine and non-reference
                       backend has a gate-severity validation check
                       (:mod:`repro.validation`) cross-checking it
                       against the queueing closed forms
``hot-loop-alloc``     no per-iteration allocations (displays,
                       ``list()``/``dict()``/``set()``, ``np.array`` /
                       ``np.zeros``, string formatting) inside ``sim/``
                       run-loop bodies
``stale-suppression``  every ``# replint: disable`` comment still
                       silences a finding of a known rule
``shm-hygiene``        every ``SharedMemory(create=True)`` /
                       ``publish_cells`` site has a close+unlink owner
``mutable-default``    no mutable default arguments
``dead-import``        no unused module-level imports
=====================  ==================================================

Run it as ``python -m repro.analysis [paths]`` (defaults to the
installed ``repro`` package tree); ``--json`` emits a machine-readable
report (``--json-file`` also writes it for CI artifacts — each finding
carries the rule's one-line doc and a content-stable ``fingerprint`` so
reports diff cleanly across runs), ``--select`` narrows to specific
rules and ``--list-rules`` prints the table above. Results are memoized
in ``.replint_cache.json`` keyed by file mtimes (``--no-cache``
bypasses).
Exit status is 0 on a clean tree, 1 when findings survive, 2 on usage
errors. Suppress a documented exception with ``# replint: disable=RULE``
(same line), ``disable-next=RULE`` or ``disable-file=RULE`` — always
with a reason in the surrounding comment; the ``stale-suppression`` rule
reports any such comment that stops earning its keep.

The package also ships the *runtime* side of the determinism story:
:mod:`repro.analysis.rngsan`, an opt-in draw-stream sanitizer
(``REPRO_RNGSAN=1`` or ``rngsan.trace(...)``) whose differ
(``python -m repro.analysis.rngsan diff a.trace b.trace``) localizes the
first divergent draw between two runs to a source callsite.

Writing a replint rule
----------------------
A rule is one module under this package:

1. Subclass :class:`~repro.analysis.core.Rule`. Give it a unique
   kebab-case ``name`` (the suppression/``--select`` handle) and a
   one-line ``description`` (the ``--list-rules`` row, and the ``doc``
   field every JSON finding carries).
2. Implement ``check_file(src)`` for per-file checks — ``src`` is a
   :class:`~repro.analysis.core.SourceFile` with the text, the parsed
   ``ast`` tree and the dotted module name — and/or ``check_project
   (files)`` for checks needing the whole analyzed set (import graphs,
   registry cross-checks). Yield findings via ``src.finding(self.name,
   node, message)``; write messages that say *what convention broke and
   what to do about it*, not just what matched.
3. Scope tightly. High-signal rules gate CI; a rule that needs routine
   suppressions in healthy code is mis-scoped. Use the path/module
   helpers (see ``_in_sim_scope`` in :mod:`repro.analysis.rules_rng`)
   to stay inside the layer that owns the convention, and make the rule
   trigger off *live* metadata where possible (the coverage rules import
   the actual registry, so synthetic test engines are checked exactly
   like shipped ones).
4. Register at import time: ``register_rule(MyRule())`` at module
   bottom, then import the module in the block below. Registration
   order is display order.
5. Test both directions in ``tests/test_analysis_rules.py``: a minimal
   fixture that trips the rule, and the real tree staying clean
   (``test_real_repro_tree_is_clean`` runs every rule over
   ``src/repro`` — a new rule that fires there must either fix the code
   or carry a reasoned suppression in the same PR).

Do not filter suppressions inside a rule — yield everything and let the
framework filter; that is what keeps the usage ledger behind
``stale-suppression`` accurate.

New engines/backends get their contracts enforced for free when they go
through the registry and the kernels selection layer; if a new subsystem
adds a *new* convention, add the rule in the same PR that introduces the
convention.
"""

from repro.analysis.core import (
    Finding,
    Rule,
    RULES,
    SourceFile,
    analyze_paths,
    register_rule,
    render_report,
)

# Importing the rule modules is what registers the shipped rule set.
from repro.analysis import rules_rng as _rules_rng
from repro.analysis import rules_imports as _rules_imports
from repro.analysis import rules_registry as _rules_registry
from repro.analysis import rules_coverage as _rules_coverage
from repro.analysis import rules_validation as _rules_validation
from repro.analysis import rules_hotloop as _rules_hotloop
from repro.analysis import rules_suppression as _rules_suppression
from repro.analysis import rules_shm as _rules_shm
from repro.analysis import rules_hygiene as _rules_hygiene

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "SourceFile",
    "analyze_paths",
    "register_rule",
    "render_report",
]
