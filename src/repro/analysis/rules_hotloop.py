"""``hot-loop-alloc``: per-iteration allocations in engine hot loops.

The python-backend kernels are the bit-identity *reference*, but they are
also what the perf gate times on every cell that is not explicitly
``numpy``-backed — an allocation smuggled into a per-event loop costs a
malloc per packet per hop across every replication of every sweep. This
rule flags the classic per-iteration allocators inside the loops that
matter:

* list/dict/set displays and comprehensions;
* bare ``list()`` / ``dict()`` / ``set()`` / ``tuple()`` constructor
  calls;
* numpy array constructors (``np.array``, ``np.zeros``, ``np.ones``,
  ``np.empty``, ``np.full``, ``np.arange``, ``np.asarray``,
  ``np.concatenate``);
* string formatting (f-strings, ``.format()``, ``%``-formatting).

Scope is deliberately narrow so the rule stays high-signal: only files
under ``sim/`` are checked, and only ``for``/``while`` bodies inside the
run-loop functions — ``run*`` and ``_run*`` functions in kernels modules
(``run_fifo``, ``run_slotted``, the fifo kernel's ``_run_events``, ...),
``run`` / ``_run*`` methods elsewhere. Loop
*setup* (the iterable expression of a ``for``) is exempt: hoisting an
allocation into the iterator is exactly the fix this rule asks for.

Some per-iteration allocations are the algorithm (the mutable packet
records the queues carry, a per-slot delivery batch): those sites carry
``# replint: disable=hot-loop-alloc`` with the reason, which keeps them
visible in review and lets the escape hatch inventory be audited with
``--select hot-loop-alloc``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule, SourceFile, register_rule
from repro.analysis.rules_rng import _in_sim_scope

_ALLOC_CALLS = frozenset({"list", "dict", "set", "tuple"})
_NP_ALLOC_ATTRS = frozenset(
    {
        "array",
        "zeros",
        "ones",
        "empty",
        "full",
        "arange",
        "asarray",
        "concatenate",
    }
)
_DISPLAY_NODES = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)


def _is_kernels_module(src: SourceFile) -> bool:
    return "kernels" in src.path.parts or ".kernels." in src.module


def _is_hot_function(src: SourceFile, node: ast.AST) -> bool:
    """Whether a function is a run loop this rule polices."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    if _is_kernels_module(src):
        return node.name.startswith(("run", "_run"))
    return node.name == "run" or node.name.startswith("_run")


def _describe_alloc(node: ast.AST) -> str | None:
    """A short label when ``node`` is a per-iteration allocator."""
    if isinstance(node, _DISPLAY_NODES):
        return f"{type(node).__name__} display"
    if isinstance(node, ast.JoinedStr):
        return "f-string"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        if isinstance(node.left, ast.Constant) and isinstance(
            node.left.value, str
        ):
            return "%-formatting"
        return None
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id in _ALLOC_CALLS:
        return f"{func.id}() call"
    if isinstance(func, ast.Attribute):
        if func.attr == "format" and isinstance(func.value, ast.Constant):
            return "str.format() call"
        if func.attr in _NP_ALLOC_ATTRS and isinstance(func.value, ast.Name):
            if func.value.id in ("np", "numpy"):
                return f"np.{func.attr}() call"
    return None


def _loop_bodies(func: ast.AST) -> Iterator[ast.AST]:
    """Every node that executes per-iteration of some loop in ``func``.

    ``for`` bodies (and ``orelse``) count; the ``iter`` expression does
    not — it runs once. ``while`` tests *and* bodies count: the test
    re-evaluates every iteration.
    """
    for node in ast.walk(func):
        if isinstance(node, ast.For):
            for stmt in (*node.body, *node.orelse):
                yield stmt
        elif isinstance(node, ast.While):
            yield node.test
            for stmt in (*node.body, *node.orelse):
                yield stmt


class HotLoopAllocRule(Rule):
    name = "hot-loop-alloc"
    description = (
        "no per-iteration allocations (displays, list()/dict()/set(), "
        "np.array/np.zeros, string formatting) inside sim/ run-loop "
        "bodies"
    )

    def check_file(self, src: SourceFile) -> Iterator[Finding]:
        if not _in_sim_scope(src):
            return
        for func in ast.walk(src.tree):
            if not _is_hot_function(src, func):
                continue
            seen: set[int] = set()  # nested loops revisit the same nodes
            for root in _loop_bodies(func):
                for node in ast.walk(root):
                    if id(node) in seen:
                        continue
                    seen.add(id(node))
                    label = _describe_alloc(node)
                    if label is None:
                        continue
                    # A comprehension's element expression is part of the
                    # comprehension's own allocation, already flagged.
                    yield src.finding(
                        self.name,
                        node,
                        f"{label} inside a {func.name}() loop allocates "
                        "per iteration — hoist it out of the loop, reuse "
                        "a buffer, or document the exception with "
                        "'# replint: disable=hot-loop-alloc'",
                    )


register_rule(HotLoopAllocRule())
