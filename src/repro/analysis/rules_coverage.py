"""``golden-coverage`` and ``bench-coverage``: no unpinned engine ships.

The bit-identity contract only covers what the golden fixtures pin, and
the perf gate only covers what the bench JSONs record. Nothing used to
tie either set back to the engine registry: a sixth engine (or a third
kernel backend) could be registered, pass every test, and silently run
unpinned until its draw order drifted. These two project rules close the
gap by cross-checking live registry metadata against the committed
artifacts:

* **golden-coverage** — every registered engine must be pinned by
  ``tests/golden/engine_results.json``: at least one direct cell and one
  ``api_*`` facade cell per engine, plus one cell per capability that
  changes the draw stream or the recorded surface (an exponential-service
  cell when the engine supports :data:`~repro.sim.fifo_network.EXPONENTIAL`,
  a saturated-tracking cell for ``supports_saturated``, a maxima cell for
  ``supports_maxima``, and both a lossy and an infinite-buffer cell for
  a ``buffer_size`` knob). Only the reference ``python`` backend is
  draw-order-pinned, so other backends are golden-exempt — covering them
  is bench-coverage's job.
* **bench-coverage** — every registered engine, and every non-reference
  backend it advertises, must appear in at least one ``BENCH_*.json``
  cell so the perf gate sees the whole registry surface end-to-end.

Both rules trigger only when ``repro.sim.registry`` is in the analyzed
set, import the *live* registry (a synthetic engine registered by a test
is checked exactly like a shipped one), and locate the artifacts by
walking up from the registry source file — analyzing an installed tree
with no checkout simply skips the checks.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.analysis.core import Finding, Rule, SourceFile, register_rule
from repro.analysis.rules_registry import REGISTRY_MODULE

#: Fixture-name prefixes per engine; default is the engine name itself.
#: ``fifo`` keeps its historical ``event_*`` cells (the ``event`` alias).
ENGINE_PREFIXES: dict[str, tuple[str, ...]] = {"fifo": ("event", "fifo")}

#: The draw-order-reference backend pinned by the golden fixtures.
PYTHON_BACKEND = "python"


def engine_prefixes(name: str) -> tuple[str, ...]:
    """Fixture/bench name tokens that identify cells of engine ``name``."""
    return ENGINE_PREFIXES.get(name, (name,))


def _registry_source(files: Sequence[SourceFile]) -> SourceFile | None:
    return next((f for f in files if f.module == REGISTRY_MODULE), None)


def _import_registry(
    src: SourceFile, rule: str
) -> tuple[Any, Finding | None]:
    try:
        import repro.sim.registry as registry
    except Exception as exc:  # pragma: no cover - broken tree
        return None, src.finding(
            rule, None, f"cannot import {REGISTRY_MODULE}: {exc}"
        )
    return registry, None


def _repo_root(src: SourceFile, marker: str) -> Path | None:
    """Nearest ancestor of the registry source containing ``marker``."""
    for parent in src.path.resolve().parents:
        if list(parent.glob(marker)):
            return parent
    return None


class GoldenCoverageRule(Rule):
    name = "golden-coverage"
    description = (
        "every registered engine and draw-stream-changing capability must "
        "be pinned by a golden fixture cell"
    )

    def check_project(self, files: Sequence[SourceFile]) -> Iterator[Finding]:
        src = _registry_source(files)
        if src is None:
            return
        registry, err = _import_registry(src, self.name)
        if err is not None:
            yield err
            return
        root = _repo_root(src, "tests/golden/engine_results.json")
        if root is None:
            return  # installed tree without a checkout: nothing to check
        fixture_path = root / "tests" / "golden" / "engine_results.json"
        try:
            cells: dict[str, dict[str, Any]] = json.loads(
                fixture_path.read_text()
            )
        except (ValueError, OSError) as exc:
            yield src.finding(
                self.name, None, f"cannot read {fixture_path}: {exc}"
            )
            return
        for engine in registry.available_engines():
            yield from self._check_engine(src, engine, cells)

    def _check_engine(
        self, src: SourceFile, engine: Any, cells: dict[str, dict[str, Any]]
    ) -> Iterator[Finding]:
        prefixes = engine_prefixes(engine.name)
        direct = {
            name: cell
            for name, cell in cells.items()
            if any(name.startswith(f"{p}_") for p in prefixes)
        }
        api = {
            name: cell
            for name, cell in cells.items()
            if any(name.startswith(f"api_{p}") for p in prefixes)
        }

        def miss(what: str, fix: str) -> Finding:
            return src.finding(
                self.name,
                None,
                f"engine {engine.name!r} has no golden cell pinning {what} "
                f"— add {fix} to tests/golden/regen.py and regenerate the "
                "fixture",
            )

        if not direct:
            yield miss(
                "its draw order at all",
                f"a '{prefixes[0]}_*' cell",
            )
            return  # every further check would just repeat the same gap
        if not api:
            yield miss(
                "the CellSpec/ReplicationEngine facade route",
                f"an 'api_{prefixes[0]}*' cell",
            )
        param_names = {p.name for p in engine.params}
        if "exponential" in engine.services and not any(
            "exp" in name for name in direct
        ):
            yield miss(
                "the exponential-service draw stream",
                f"a '{prefixes[0]}_*exp*' cell",
            )
        if engine.supports_saturated and not any(
            cell.get("mean_remaining_saturated", "nan") != "nan"
            for cell in direct.values()
        ):
            yield miss(
                "saturated-edge tracking (every cell records "
                "mean_remaining_saturated as nan)",
                "a saturated_mask cell",
            )
        if engine.supports_maxima and not any(
            cell.get("max_queue_length", -1) >= 0 for cell in direct.values()
        ):
            yield miss(
                "track_maxima=True (every cell records max_queue_length "
                "as -1)",
                "a track_maxima cell",
            )
        if "buffer_size" in param_names:
            if not any("dropped" in cell for cell in direct.values()):
                yield miss(
                    "a lossy finite-buffer stream (no cell records drops)",
                    "a buffer_size cell that actually drops",
                )
            if not any("dropped" not in cell for cell in direct.values()):
                yield miss(
                    "the infinite-buffer (buffer_size=None) identity",
                    "a buffer_size=None cell",
                )


class BenchCoverageRule(Rule):
    name = "bench-coverage"
    description = (
        "every registered engine and non-reference backend must appear in "
        "a BENCH_*.json cell so the perf gate covers it"
    )

    def check_project(self, files: Sequence[SourceFile]) -> Iterator[Finding]:
        src = _registry_source(files)
        if src is None:
            return
        registry, err = _import_registry(src, self.name)
        if err is not None:
            yield err
            return
        root = _repo_root(src, "BENCH_*.json")
        if root is None:
            return  # no committed baselines next to this tree
        token_sets: list[frozenset[str]] = []
        for path in sorted(root.glob("BENCH_*.json")):
            try:
                data = json.loads(path.read_text())
            except (ValueError, OSError) as exc:
                yield src.finding(
                    self.name, None, f"cannot read {path}: {exc}"
                )
                continue
            for bench in data.get("benchmarks", []):
                token_sets.append(frozenset(str(bench["name"]).split("_")))
        if not token_sets:
            return
        for engine in registry.available_engines():
            tokens = frozenset(engine_prefixes(engine.name))
            if not any(tokens & ts for ts in token_sets):
                yield src.finding(
                    self.name,
                    None,
                    f"engine {engine.name!r} appears in no BENCH_*.json "
                    "cell — the perf gate never times it; add a bench "
                    "(benchmarks/) and regenerate the baseline",
                )
                continue
            for backend in engine.backends:
                if backend == PYTHON_BACKEND:
                    continue
                if not any(
                    (tokens & ts) and backend in ts for ts in token_sets
                ):
                    yield src.finding(
                        self.name,
                        None,
                        f"engine {engine.name!r} advertises backend "
                        f"{backend!r} but no BENCH_*.json cell times that "
                        "combination — add a bench named with both tokens "
                        f"(e.g. 'test_{engine.name}_..._{backend}')",
                    )


register_rule(GoldenCoverageRule())
register_rule(BenchCoverageRule())
