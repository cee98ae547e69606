"""``mutable-default`` and ``dead-import``: baseline code hygiene.

Two classic footguns the bigger rules kept tripping over while this
checker was being built, kept as their own cheap rules:

* **mutable-default** — a ``def f(x=[])`` / ``x={}`` / ``x=set()``
  default is shared across *calls*; in a codebase whose workers memoize
  aggressively that's a latent cross-replication state leak. Flagged for
  list/dict/set displays, comprehensions, and bare ``list()`` /
  ``dict()`` / ``set()`` calls in any default position.
* **dead-import** — a module-level import whose bound name is never used
  in the module. Dead imports are how boundary violations start (an
  unused ``import numpy`` in the wrong module is one refactor away from
  a real one), so the backend-boundary story wants them gone. The check
  is deliberately conservative: ``__init__.py`` files are exempt
  (imports *are* their API), as are ``from __future__`` imports,
  explicit re-exports (``import x as x``), and names listed in
  ``__all__``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule, SourceFile, register_rule

_MUTABLE_CALLS = ("list", "dict", "set", "OrderedDict", "defaultdict", "deque")


def _is_mutable_default(node: ast.expr | None) -> bool:
    if node is None:
        return False
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


class MutableDefaultRule(Rule):
    name = "mutable-default"
    description = "function defaults must not be mutable objects"

    def check_file(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield src.finding(
                        self.name,
                        default,
                        f"mutable default argument in {node.name}(): the "
                        "object is shared across calls — default to None "
                        "and create it in the body",
                    )


def dead_imports(src: SourceFile) -> list[tuple[str, ast.stmt]]:
    """``(bound name, import statement)`` pairs for unused imports.

    Exemptions: ``__init__.py`` files (imports are their API), ``from
    __future__``, explicit re-exports (``import x as x``), and ``__all__``
    names.
    """
    if src.path.name == "__init__.py":
        return []
    bound: list[tuple[str, ast.stmt]] = []
    for node in src.tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((name, node))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                if alias.asname == alias.name:
                    continue  # explicit re-export idiom
                bound.append((alias.asname or alias.name, node))
    if not bound:
        return []
    used: set[str] = set()
    for node in ast.walk(src.tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # `import a.b` then `a.b.c`: the root Name node covers it.
            pass
    used |= _all_exports(src.tree)
    # Name nodes inside the import statements themselves don't exist
    # (import targets are alias objects, not Names), so collecting
    # every Name id cannot self-mark an import as used.
    return [(name, stmt) for name, stmt in bound if name not in used]


class DeadImportRule(Rule):
    name = "dead-import"
    description = "module-level imports must be used (or re-exported)"

    def check_file(self, src: SourceFile) -> Iterator[Finding]:
        for name, stmt in dead_imports(src):
            yield src.finding(
                self.name,
                stmt,
                f"import {name!r} is never used in this module — dead "
                "imports are how boundary violations start; remove it "
                "(or re-export explicitly with 'as')",
            )


def _all_exports(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        return {
                            elt.value
                            for elt in node.value.elts
                            if isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                        }
    return set()


register_rule(MutableDefaultRule())
register_rule(DeadImportRule())
