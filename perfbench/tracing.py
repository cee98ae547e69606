"""Out-of-program tracing: wrap each layer's public calls in timed spans.

:class:`Tracer` patches the public functions and methods of the layers
the benchmark measures (experiment sections, core bounds, scenario
resolution, path caches, the five engines, shared-memory publish, the
warm pool, the replication fan-out and the sweep runner) with thin
wrappers that record a :class:`~perfbench.spans.Span` and add to running
totals. RNG draws are counted through the public ``rngsan.trace()``
tracer. Nothing under ``src/`` changes, and :meth:`Tracer.uninstall`
restores every patched attribute.

Pool workers are forked after :meth:`Tracer.install`, so they inherit
the wrappers. Each chunk a worker runs returns, next to its result, the
change in the worker's totals; the parent folds those in. Path-cache
counts cover the caches built in the parent process only, which keeps
them exact from run to run whichever worker runs which chunk.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

from perfbench import catalog
from perfbench.spans import Span, idle_frac, total_self

#: The tracer forked pool workers report into (set by :meth:`Tracer.install`).
_ACTIVE: "Tracer | None" = None

_SIM_INIT, _SIM_RUN = "init", "run"


def fingerprint(sim: Any, result: Any, key: str) -> tuple:
    """Bit-exact identity of one simulation run's headline outputs."""
    return (
        key,
        int(sim.seed),
        float(result.mean_delay).hex(),
        float(result.mean_number).hex(),
        int(result.generated),
    )


def sim_key(engine: str, sim: Any) -> str:
    """``sim.<engine>.<backend>[.<law>]`` for one engine instance."""
    key = f"sim.{engine}.{getattr(sim, 'backend', 'python')}"
    if engine in catalog.LAW_ENGINES:
        key += f".{sim.service}"
    return key


def _draw_values(rows: list) -> int:
    """Number of values drawn by rngsan rows ``[kind, size, callsite]``."""
    total = 0
    for _kind, size, _site in rows:
        if size is None:
            total += 1
        elif isinstance(size, list):
            total += math.prod(size)
        else:
            total += size
    return total


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, func: Callable, value: Callable) -> None:
        """Replace ``func`` in every loaded ``repro`` module that binds it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, bound in list(vars(module).items()):
                if bound is func:
                    self.set(module, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class ResultProbe:
    """Records a :func:`fingerprint` of every engine run in this process.

    The untraced pass of a trace run carries only this probe, so its
    results can be compared bit for bit with the traced pass.
    """

    def __init__(self) -> None:
        self.fingerprints: list[tuple] = []
        self._patches = _Patches()
        self._depth = 0

    def install(self) -> "ResultProbe":
        import importlib

        for module, cls_name in catalog.ENGINE_MODULES:
            cls = getattr(importlib.import_module(f"repro.sim.{module}"), cls_name)
            self._patches.set(cls, "run", self._wrap_run(cls.run, module))
        return self

    def _wrap_run(self, orig: Callable, engine: str) -> Callable:
        probe = self

        @functools.wraps(orig)
        def run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            # A subclass calling its base (finite -> fifo) is one run.
            if probe._depth:
                return orig(sim, *args, **kwargs)
            probe._depth += 1
            try:
                result = orig(sim, *args, **kwargs)
            finally:
                probe._depth -= 1
            probe.fingerprints.append(fingerprint(sim, result, sim_key(engine, sim)))
            return result

        return run

    def uninstall(self) -> None:
        self._patches.undo()


class _ChunkProbe:
    """Picklable pool task wrapper: runs the real task in a worker and
    returns ``(result, change in the worker's totals)``."""

    def __init__(self, func: Callable) -> None:
        self.func = func

    def __call__(self, job: Any) -> tuple[Any, dict]:
        tracer = _ACTIVE
        before = tracer.counters()
        start = perf_counter()
        result = self.func(job)
        busy = perf_counter() - start
        delta = tracer.counters_since(before)
        delta["util.workerpool.busy"] = [busy, 1]
        return result, delta


class Tracer:
    """Timed wrappers around every measured layer, plus the totals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: name -> [seconds, calls, extra]; extra is a packet or byte count.
        self.totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0, 0])
        self.fingerprints: list[tuple] = []
        self.numpy_fifo_runs: list[float] = []
        self.path_caches: list[Any] = []
        self.arenas: list[Any] = []
        self.pool_window = 0.0
        self.pool_workers = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._sim_depth = 0
        self._patches = _Patches()
        self._rng_cm: Any = None
        self.rng: Any = None

    # -- spans -----------------------------------------------------------
    def _record(self, sid: int, parent: int | None, name: str, start: float,
                end: float, extra: int = 0) -> None:
        self.spans.append(Span(sid, parent, name, start, end))
        tot = self.totals[name]
        tot[0] += end - start
        tot[1] += 1
        tot[2] += extra

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self._record(sid, parent, name, start, perf_counter())

    def timed(self, name: str, func: Callable) -> Callable:
        tracer = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                return func(*args, **kwargs)

        return wrapper

    # -- worker deltas ---------------------------------------------------
    def fold_draws(self) -> None:
        """Move recorded draw rows into the ``sim.rng`` totals.

        rngsan keeps one row per draw; folding after every engine run and
        every pool chunk keeps memory flat on draw-heavy workloads.
        """
        rows = self.rng.draws
        if rows:
            tot = self.totals["sim.rng"]
            tot[1] += len(rows)
            tot[2] += _draw_values(rows)
            del rows[:]  # in place: the traced generators append to this list

    def counters(self) -> dict:
        self.fold_draws()
        return {k: list(v) for k, v in self.totals.items()}

    def counters_since(self, before: dict) -> dict:
        self.fold_draws()
        delta = {}
        for k, v in self.totals.items():
            old = before.get(k, [0.0, 0, 0])
            if v != old:
                delta[k] = [a - b for a, b in zip(v, old)]
        return delta

    def merge(self, delta: dict) -> None:
        for k, v in delta.items():
            tot = self.totals[k]
            for i, x in enumerate(v):
                tot[i] += x

    # -- installation ----------------------------------------------------
    def install(self) -> "Tracer":
        """Patch every measured layer and start counting RNG draws."""
        global _ACTIVE
        import importlib

        import repro.experiments.runner  # noqa: F401 - bind every section first
        import repro.validation  # noqa: F401
        from repro.analysis import rngsan
        from repro.core import lower_bounds
        from repro.experiments import sweeps
        from repro.routing import pathcache
        from repro.sim import replication, sharedcells
        from repro import scenarios
        from repro.util import workerpool

        generic_bounds = importlib.import_module("repro.core.generic_bounds")
        p = self._patches
        for section in catalog.SECTIONS:
            module = importlib.import_module(f"repro.experiments.{section}")
            p.set(module, "run", self.timed(f"experiments.{section}.run", module.run))
        for func, name in (
            (lower_bounds.bound_summary, "core.bound_summary"),
            (generic_bounds.generic_bounds, "core.generic_bounds"),
            (scenarios.resolve_cell, "scenarios.resolve_cell"),
            (scenarios.build_network, "scenarios.build_network"),
            (sweeps.run_sweep, "experiments.sweeps.run_sweep"),
        ):
            p.everywhere(func, self.timed(name, func))
        p.set(sharedcells, "warm_cell",
              self.timed("routing.pathcache.warm", sharedcells.warm_cell))
        for cls, registry in ((pathcache.PathCache, self.path_caches),
                              (pathcache.PathArena, self.arenas)):
            p.set(cls, "__init__", self._registering(cls.__init__, registry))
        for module, cls_name in catalog.ENGINE_MODULES:
            cls = getattr(importlib.import_module(f"repro.sim.{module}"), cls_name)
            p.set(cls, "__init__", self._sim_method(cls.__init__, module, _SIM_INIT))
            p.set(cls, "run", self._sim_method(cls.run, module, _SIM_RUN))
        p.set(sharedcells.SharedCellBatch, "__init__",
              self._publish(sharedcells.SharedCellBatch.__init__))
        p.set(replication.ReplicationEngine, "run_many",
              self._run_many(replication.ReplicationEngine.run_many))
        p.set(workerpool.WorkerPool, "imap_unordered",
              self._imap(workerpool.WorkerPool.imap_unordered))
        # Pools forked before this point would run untraced workers.
        workerpool.shutdown_pools()
        self._rng_cm = rngsan.trace(label="perfbench")
        self.rng = self._rng_cm.__enter__()
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        if self._rng_cm is not None:
            self._rng_cm.__exit__(None, None, None)
            self._rng_cm = None
        self._patches.undo()
        _ACTIVE = None

    def _registering(self, orig: Callable, registry: list) -> Callable:
        @functools.wraps(orig)
        def __init__(obj: Any, *args: Any, **kwargs: Any) -> None:
            orig(obj, *args, **kwargs)
            registry.append(obj)

        return __init__

    def _sim_method(self, orig: Callable, engine: str, kind: str) -> Callable:
        tracer = self

        @functools.wraps(orig)
        def method(sim: Any, *args: Any, **kwargs: Any) -> Any:
            # A subclass calling its base (finite -> fifo) is one run.
            if tracer._sim_depth:
                return orig(sim, *args, **kwargs)
            tracer._sim_depth += 1
            start = perf_counter()
            try:
                result = orig(sim, *args, **kwargs)
            finally:
                tracer._sim_depth -= 1
            end = perf_counter()
            key = sim_key(engine, sim)
            # Recorded after the call: the key needs the built instance.
            tracer._next_id += 1
            tracer._record(
                tracer._next_id - 1,
                tracer._stack[-1] if tracer._stack else None,
                f"{key}.{kind}",
                start,
                end,
                int(result.generated) if kind == _SIM_RUN else 0,
            )
            if kind == _SIM_RUN:
                tracer.fold_draws()
                tracer.fingerprints.append(fingerprint(sim, result, key))
                if key == "sim.fifo_network.numpy.deterministic":
                    tracer.numpy_fifo_runs.append(end - start)
            return result

        return method

    def _publish(self, orig: Callable) -> Callable:
        tracer = self

        @functools.wraps(orig)
        def __init__(batch: Any, entries: Any) -> None:
            with tracer.span("sim.sharedcells.publish"):
                orig(batch, entries)
            _name, reg_off, reg_len = batch.token
            tracer.totals["sim.sharedcells.publish"][2] += reg_off + reg_len

        return __init__

    def _run_many(self, orig: Callable) -> Callable:
        tracer = self

        @functools.wraps(orig)
        def run_many(engine: Any, specs: Any, *, on_result: Any = None) -> Any:
            if on_result is not None:
                on_result = tracer.timed("experiments.sweeps.checkpoint", on_result)
            with tracer.span("sim.replication.run_many"):
                return orig(engine, specs, on_result=on_result)

        return run_many

    def _imap(self, orig: Callable) -> Callable:
        tracer = self

        @functools.wraps(orig)
        def imap_unordered(pool: Any, func: Callable, items: Any) -> Iterator:
            work = list(items)
            if pool.processes == 1 or len(work) <= 1:
                return orig(pool, func, work)
            return tracer._drain(orig(pool, _ChunkProbe(func), work), pool.processes)

        return imap_unordered

    def _drain(self, results: Iterator, workers: int) -> Iterator:
        start = perf_counter()
        try:
            while True:
                with self.span("sim.replication.run_many.wait"):
                    item = next(results, None)
                if item is None:
                    return
                result, delta = item
                self.merge(delta)
                yield result
        finally:
            self.pool_window += perf_counter() - start
            self.pool_workers = max(self.pool_workers, workers)

    # -- per-layer metrics -----------------------------------------------
    def layer_metrics(self, extra: dict[str, float]) -> dict[str, float]:
        """Every per-layer metric of the catalog (0 for layers not run).

        ``extra`` supplies the values the workload measures itself
        (pool start, checkpoint bytes, validation timings).
        """
        t = self.totals

        def sec(name: str) -> float:
            return t[name][0] if name in t else 0.0

        def calls(name: str) -> int:
            return t[name][1] if name in t else 0

        values: dict[str, float] = {}
        for s in catalog.SECTIONS:
            values[f"experiments.{s}.run_s"] = sec(f"experiments.{s}.run")
        values["core.bound_summary.s"] = sec("core.bound_summary")
        values["core.generic_bounds.s"] = sec("core.generic_bounds")
        values["scenarios.resolve_cell.s"] = sec("scenarios.resolve_cell")
        values["scenarios.resolve_cell.calls"] = calls("scenarios.resolve_cell")
        values["scenarios.build_network.s"] = sec("scenarios.build_network")
        values["routing.pathcache.pairs"] = sum(len(c) for c in self.path_caches)
        values["routing.pathcache.arena_edges"] = sum(
            len(a) for a in {id(a): a for a in self.arenas}.values()
        )
        values["routing.pathcache.warm_s"] = sec("routing.pathcache.warm")
        for group in catalog.ENGINE_GROUPS:
            run = t.get(f"{group}.run", [0.0, 0, 0])
            values[f"{group}.init_s"] = sec(f"{group}.init")
            values[f"{group}.run_s"] = run[0]
            values[f"{group}.runs"] = run[1]
            values[f"{group}.packets"] = run[2]
        runs = self.numpy_fifo_runs
        values["sim.fifo_network.numpy.first_run_s"] = runs[0] if runs else 0.0
        values["sim.fifo_network.numpy.warm_run_s"] = (
            statistics.median(runs[1:]) if len(runs) > 1 else 0.0
        )
        values["sim.numpy_vs_python"] = self._numpy_vs_python()
        self.fold_draws()
        values["sim.rng.draw_calls"] = t["sim.rng"][1]
        values["sim.rng.values"] = t["sim.rng"][2]
        publish = t.get("sim.sharedcells.publish", [0.0, 0, 0])
        values["sim.sharedcells.publish_s"] = publish[0]
        values["sim.sharedcells.publish_bytes"] = publish[2]
        values["sim.sharedcells.batches"] = publish[1]
        busy = t.get("util.workerpool.busy", [0.0, 0, 0])
        values["util.workerpool.start_s"] = extra.get("util.workerpool.start_s", 0.0)
        values["util.workerpool.chunks"] = busy[1]
        values["util.workerpool.busy_s"] = busy[0]
        values["util.workerpool.idle_frac"] = idle_frac(
            busy[0], self.pool_workers, self.pool_window
        )
        values["sim.replication.run_many.self_s"] = total_self(
            self.spans, "sim.replication.run_many"
        )
        values["sim.replication.run_many.wait_s"] = sec("sim.replication.run_many.wait")
        values["sim.replication.run_many.calls"] = calls("sim.replication.run_many")
        values["experiments.sweeps.run_sweep.self_s"] = total_self(
            self.spans, "experiments.sweeps.run_sweep"
        )
        sweeps = [s for s in self.spans if s.name == "experiments.sweeps.run_sweep"]
        values["experiments.sweeps.resume_s"] = (
            sweeps[-1].duration if len(sweeps) > 1 else 0.0
        )
        values["experiments.sweeps.checkpoint_bytes"] = extra.get(
            "experiments.sweeps.checkpoint_bytes", 0
        )
        for check, backend in catalog.VALIDATION_PAIRS:
            name = f"validation.{check}.{backend}.run_s"
            values[name] = extra.get(name, 0.0)
        return values

    def _numpy_vs_python(self) -> float:
        """Python seconds per packet over numpy seconds per packet, fifo
        deterministic cells (0 unless both backends ran)."""
        py = self.totals.get("sim.fifo_network.python.deterministic.run")
        np_ = self.totals.get("sim.fifo_network.numpy.deterministic.run")
        if not py or not np_ or not py[2] or not np_[2] or not np_[0]:
            return 0.0
        return (py[0] / py[2]) / (np_[0] / np_[2])
