"""``registry-consistency``: registered engine metadata must match the code.

Every :class:`~repro.sim.registry.Engine` entry promises the facade
layers things about a simulator class it does not itself contain: that
each typed :class:`~repro.sim.registry.EngineParam` is a real
constructor parameter, and that the capability flags describe
options the class actually accepts. Nothing ties the promise to the
class — a renamed constructor kwarg or a dropped ``track_maxima`` option
would only surface when a sweep explodes inside a worker. This rule
closes the gap per registered engine:

* every ``EngineParam`` name resolves to a parameter of the simulator's
  ``__init__``;
* ``supports_saturated`` implies the constructor accepts
  ``saturated_mask``; ``supports_maxima`` implies ``run`` accepts
  ``track_maxima``; ``supports_delays`` implies ``run`` accepts
  ``collect_delays``; ``supports_number_distribution`` implies ``run``
  accepts ``track_number_distribution``;
* an engine advertising the ``"numpy"`` backend must expose the
  ``backend`` constructor knob *and* the ``backend`` EngineParam, and a
  ``backend`` EngineParam's choices must equal the advertised
  ``Engine.backends`` tuple.

The simulator class behind each entry is recovered statically from the
registry source (the ``*Simulation`` class its ``run_cell`` builder
instantiates), then introspected with :func:`inspect.signature` — a
hybrid that survives refactors of either side. The rule runs once per
analysis, only when the registry module is part of the analyzed set, and
reports an import failure as a finding rather than crashing (a registry
that cannot import is the worst consistency violation of all).
"""

from __future__ import annotations

import ast
import inspect
from typing import Iterator, Sequence

from repro.analysis.core import Finding, Rule, SourceFile, register_rule

#: Module whose presence in the analyzed set triggers the rule.
REGISTRY_MODULE = "repro.sim.registry"


def _builder_classes(tree: ast.Module) -> dict[str, str]:
    """``run_cell builder name -> *Simulation class name`` from the AST."""
    out: dict[str, str] = {}
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id.endswith("Simulation")
            ):
                out[node.name] = sub.func.id
                break
    return out


class RegistryConsistencyRule(Rule):
    name = "registry-consistency"
    description = (
        "every registered EngineParam must be a real constructor "
        "parameter and every capability flag a real option of the "
        "simulator class behind the engine"
    )

    def check_project(self, files: Sequence[SourceFile]) -> Iterator[Finding]:
        registry_src = next(
            (f for f in files if f.module == REGISTRY_MODULE), None
        )
        if registry_src is None:
            return
        try:
            import repro.sim.registry as registry
        except Exception as exc:  # pragma: no cover - broken tree
            yield registry_src.finding(
                self.name, None, f"cannot import {REGISTRY_MODULE}: {exc}"
            )
            return
        builder_to_class = _builder_classes(registry_src.tree)
        for engine in registry.available_engines():
            yield from self._check_engine(
                registry_src, registry, engine, builder_to_class
            )

    def _check_engine(
        self,
        src: SourceFile,
        registry: object,
        engine: object,
        builder_to_class: dict[str, str],
    ) -> Iterator[Finding]:
        builder = engine.run_cell.__name__
        cls_name = builder_to_class.get(builder)
        cls = getattr(registry, cls_name, None) if cls_name else None
        if cls is None:
            yield src.finding(
                self.name,
                None,
                f"engine {engine.name!r}: cannot resolve the simulator "
                f"class instantiated by its run_cell builder {builder!r}",
            )
            return
        # Subclass engines (finite) take **kwargs and delegate to their
        # base constructor, so collect parameters across the whole MRO.
        init_params: set[str] = set()
        for base in cls.__mro__:
            if "__init__" in vars(base):
                init_params |= set(
                    inspect.signature(base.__init__).parameters
                )
        run_sig = set(inspect.signature(cls.run).parameters)
        for param in engine.params:
            if param.name not in init_params:
                yield src.finding(
                    self.name,
                    None,
                    f"engine {engine.name!r}: EngineParam {param.name!r} "
                    f"is not a constructor parameter of {cls.__name__} — "
                    "registry metadata and code have drifted",
                )
        if engine.supports_saturated and "saturated_mask" not in init_params:
            yield src.finding(
                self.name,
                None,
                f"engine {engine.name!r} claims supports_saturated but "
                f"{cls.__name__} has no saturated_mask constructor param",
            )
        if engine.supports_maxima and "track_maxima" not in run_sig:
            yield src.finding(
                self.name,
                None,
                f"engine {engine.name!r} claims supports_maxima but "
                f"{cls.__name__}.run() has no track_maxima option",
            )
        if engine.supports_delays and "collect_delays" not in run_sig:
            yield src.finding(
                self.name,
                None,
                f"engine {engine.name!r} claims supports_delays but "
                f"{cls.__name__}.run() has no collect_delays option",
            )
        if (
            engine.supports_number_distribution
            and "track_number_distribution" not in run_sig
        ):
            yield src.finding(
                self.name,
                None,
                f"engine {engine.name!r} claims supports_number_distribution "
                f"but {cls.__name__}.run() has no track_number_distribution "
                "option",
            )
        backend_param = next(
            (p for p in engine.params if p.name == "backend"), None
        )
        if "numpy" in engine.backends and (
            backend_param is None or "backend" not in init_params
        ):
            yield src.finding(
                self.name,
                None,
                f"engine {engine.name!r} advertises the numpy backend but "
                "does not expose the backend knob (EngineParam + "
                "constructor parameter)",
            )
        if backend_param is not None and tuple(backend_param.choices) != tuple(
            engine.backends
        ):
            yield src.finding(
                self.name,
                None,
                f"engine {engine.name!r}: backend EngineParam choices "
                f"{backend_param.choices!r} differ from Engine.backends "
                f"{engine.backends!r}",
            )


register_rule(RegistryConsistencyRule())
