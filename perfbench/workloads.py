"""The four benchmark workloads: set-up, timed body and output checks.

Each workload is a closed-loop batch job run by one client process:
the next operation starts when the previous one returns. ``setup``
imports the layers and builds the inputs (and, for ``sweep``, starts the
2-worker pool); ``body`` is the timed part; ``check`` runs after timing
and scores every operation, so an exception or a wrong output counts as
a failed operation instead of aborting the run.

``sweep`` and ``mesh32`` derive every cell seed from the workload seed
(seed 0 gives the repository's usual seeds ``0, 1, ...``). ``report`` and
``validate`` keep the repository's pinned presets: their seeds are part
of what is reproduced and calibrated.
"""

from __future__ import annotations

import hashlib
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from perfbench import catalog

#: Cell seeds of workload seed ``s`` start at ``s * SEED_STRIDE``.
SEED_STRIDE = 1000
#: Worker processes of the sweep (the dev container has 2 cores).
SWEEP_WORKERS = 2
#: Sections ``runner.run_all`` renders (all fail if it raises).
REPORT_SECTIONS = 14


@dataclass
class Outcome:
    """What the output checks found, plus values the workload measured."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Per-layer values measured by the workload itself.
    layers: dict[str, float] = field(default_factory=dict)
    #: Identity of an output written by pool workers (compared between
    #: the untraced and traced passes of a trace run).
    digest: str = ""

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ----------------------------------------------------------------------
# report: the quick paper report, serial.


def report_setup(seed: int, work: Path) -> dict:
    from repro.experiments import runner

    return {"runner": runner}


def report_body(state: dict) -> Any:
    try:
        return state["runner"].run_all(processes=1)
    except Exception as exc:
        traceback.print_exc()
        return exc


def report_check(state: dict, sections: Any) -> Outcome:
    out = Outcome(attempted=REPORT_SECTIONS)
    if isinstance(sections, Exception):
        out.failed = REPORT_SECTIONS
        out.problems.append(f"run_all raised {_error(sections)}")
        return out
    if len(sections) != REPORT_SECTIONS:
        out.fail(f"expected {REPORT_SECTIONS} sections, got {len(sections)}")
    for s in sections:
        if s.problems:
            out.fail(f"{s.title}: {'; '.join(s.problems)}")
    out.failed = min(out.failed, out.attempted)
    return out


# ----------------------------------------------------------------------
# sweep: a mixed resumable sweep on 2 workers, then a resume pass.


def sweep_specs(seed: int) -> list:
    from repro.sim.replication import CellSpec

    window = dict(
        warmup=50.0,
        horizon=300.0,
        seeds=tuple(seed * SEED_STRIDE + k for k in range(6)),
    )
    cells = []
    for scenario, n, params in (
        ("uniform", 8, ()),
        ("hotspot", 8, (("h", 0.25),)),
        ("transpose", 8, ()),
        ("randomized", 8, ()),
        ("geometric", 8, ()),
        ("bitreversal", 6, ()),
    ):
        for rho in (0.3, 0.5, 0.7):
            cells.append(
                CellSpec(scenario=scenario, n=n, rho=rho, params=params, **window)
            )
    for engine, engine_params in (
        ("slotted", ()),
        ("rushed", ()),
        ("ps", ()),
        ("finite", (("buffer_size", 2),)),
    ):
        for rho in (0.5, 0.7):
            cells.append(
                CellSpec(scenario="uniform", n=6, rho=rho, engine=engine,
                         engine_params=engine_params, **window)
            )
    return cells


def sweep_setup(seed: int, work: Path) -> dict:
    from repro.experiments import sweeps
    from repro.util.workerpool import get_pool

    out_dir = work / "sweep"
    shutil.rmtree(out_dir, ignore_errors=True)
    specs = sweep_specs(seed)
    start = perf_counter()
    get_pool(SWEEP_WORKERS).map(abs, [0, 1])  # start the warm pool
    return {
        "sweeps": sweeps,
        "specs": specs,
        "out": out_dir,
        "start_s": perf_counter() - start,
    }


def sweep_body(state: dict) -> Any:
    sweeps, specs, out = state["sweeps"], state["specs"], state["out"]
    try:
        first = sweeps.run_sweep(specs, out, processes=SWEEP_WORKERS)
        aggregate = first.aggregate_json.read_bytes()
        reran: list[str] = []
        second = sweeps.run_sweep(
            specs, out, processes=SWEEP_WORKERS, on_cell_complete=reran.append
        )
        return first, aggregate, second, reran
    except Exception as exc:
        traceback.print_exc()
        return exc


def sweep_check(state: dict, raw: Any) -> Outcome:
    specs = state["specs"]
    out = Outcome(attempted=len(specs))
    out.layers["util.workerpool.start_s"] = state["start_s"]
    if isinstance(raw, Exception):
        out.failed = len(specs)
        out.problems.append(f"run_sweep raised {_error(raw)}")
        return out
    first, aggregate, second, reran = raw
    resumed_bytes = second.aggregate_json.read_bytes()
    identical = resumed_bytes == aggregate
    out.digest = hashlib.sha256(aggregate).hexdigest()
    checkpoint_bytes = 0
    for cid, row in zip(first.cell_ids, first.rows):
        path = first.out_dir / "cells" / cid / "result.json"
        if not path.is_file():
            out.fail(f"{cid}: no checkpoint")
            continue
        checkpoint_bytes += path.stat().st_size
        bad = [
            rep["seed"]
            for rep in row["replications"]
            if rep["completed"] + rep["dropped"] != rep["generated"]
        ]
        if bad:
            out.fail(f"{cid}: completed + dropped != generated for seeds {bad}")
        elif cid in reran:
            out.fail(f"{cid}: rerun instead of resumed")
        elif not identical:
            out.fail(f"{cid}: resumed aggregate.json differs")
    if first.ran != len(specs) or second.resumed != len(specs):
        out.problems.append(
            f"first pass ran {first.ran}, resume pass resumed {second.resumed} "
            f"of {len(specs)} cells"
        )
        out.failed = len(specs)
    out.layers["experiments.sweeps.checkpoint_bytes"] = checkpoint_bytes
    return out


# ----------------------------------------------------------------------
# mesh32: 32x32 cells on both kernel backends plus exponential service.

MESH_N = 32
#: Deterministic cells. The numpy cells carry most of the kernel time; the
#: python fifo cell runs the first of the same seeds as the in-run
#: reference for ``sim.numpy_vs_python``.
MESH_DET = dict(scenario="uniform", n=MESH_N, rho=0.6, warmup=100.0, horizon=200.0)
#: The exponential cell runs at low load after a warm-up longer than the
#: longest path's delay: its Jackson check scores the mean against the
#: spread of 12 replications, so start-up bias must stay well inside it.
MESH_EXP = dict(scenario="uniform", n=MESH_N, rho=0.1, warmup=150.0, horizon=60.0)


def mesh32_specs(seed: int) -> list[tuple[str, Any]]:
    from repro.sim.replication import CellSpec

    seeds = tuple(seed * SEED_STRIDE + k for k in range(12))
    numpy = (("backend", "numpy"),)
    return [
        ("fifo-numpy", CellSpec(engine="fifo", engine_params=numpy,
                                seeds=seeds[:8], **MESH_DET)),
        ("slotted-numpy", CellSpec(engine="slotted", engine_params=numpy,
                                   seeds=seeds[:8], **MESH_DET)),
        ("fifo-python", CellSpec(engine="fifo", seeds=seeds[:1], **MESH_DET)),
        ("fifo-exponential", CellSpec(engine="fifo", service="exponential",
                                      seeds=seeds, **MESH_EXP)),
    ]


def mesh32_setup(seed: int, work: Path) -> dict:
    from repro.sim.replication import ReplicationEngine

    return {"engine": ReplicationEngine(processes=1), "cells": mesh32_specs(seed)}


def mesh32_body(state: dict) -> list:
    results = []
    for _label, spec in state["cells"]:
        try:
            results.append(state["engine"].run(spec))
        except Exception as exc:
            traceback.print_exc()
            results.append(exc)
    return results


def mesh32_check(state: dict, results: list) -> Outcome:
    from repro.core.lower_bounds import bound_summary
    from repro.core.rates import array_edge_rates, lambda_for_load
    from repro.queueing import ProductFormNetwork
    from repro.topology.array_mesh import ArrayMesh
    from repro.validation.framework import Z_GATE, z_score

    out = Outcome(attempted=len(results))
    for (label, spec), res in zip(state["cells"], results):
        if isinstance(res, Exception):
            out.fail(f"{label}: raised {_error(res)}")
            continue
        lam = lambda_for_load(spec.n, spec.rho, spec.convention)
        if spec.service == "exponential":
            rates = array_edge_rates(ArrayMesh(spec.n), lam)
            expected = ProductFormNetwork.from_rates(tuple(rates)).mean_delay(
                lam * spec.n * spec.n
            )
            z = z_score(res.mean_delay, expected, res.delay_half_width)
            if not z <= Z_GATE:
                out.fail(
                    f"{label}: mean delay {res.mean_delay:.4f} vs Jackson "
                    f"{expected:.4f}, z={z:.2f} > {Z_GATE}"
                )
        else:
            b = bound_summary(spec.n, lam)
            if not b.lower_best <= res.mean_delay <= b.upper * 1.05:
                out.fail(
                    f"{label}: mean delay {res.mean_delay:.4f} outside "
                    f"[{b.lower_best:.4f}, {b.upper * 1.05:.4f}]"
                )
    return out


# ----------------------------------------------------------------------
# validate: the quick validation tier, serial.


def validate_setup(seed: int, work: Path) -> dict:
    from repro.validation import run_validation

    return {"run_validation": run_validation}


def validate_body(state: dict) -> Any:
    marks: list[tuple[Any, float]] = []
    start = perf_counter()
    try:
        report = state["run_validation"](
            processes=1, on_outcome=lambda o: marks.append((o, perf_counter()))
        )
    except Exception as exc:
        traceback.print_exc()
        report = exc
    return start, marks, report


def validate_check(state: dict, raw: Any) -> Outcome:
    start, marks, report = raw
    out = Outcome(attempted=max(len(catalog.VALIDATION_PAIRS), len(marks)))
    if isinstance(report, Exception):
        out.failed = out.attempted
        out.problems.append(f"run_validation raised {_error(report)}")
        return out
    prev = start
    for outcome, t in marks:
        out.layers[f"validation.{outcome.check}.{outcome.backend}.run_s"] = t - prev
        prev = t
        if not outcome.passed:
            out.fail(f"{outcome.check} [{outcome.backend}]: "
                     f"{outcome.error or 'comparison outside tolerance'}")
    missing = len(catalog.VALIDATION_PAIRS) - len(marks)
    if missing > 0:
        out.failed += missing
        out.problems.append(f"{missing} quick-tier checks did not run")
    if not report.passed and not out.failed:
        out.fail("report.passed is false")
    return out


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], Any]
    body: Callable[[Any], Any]
    check: Callable[[Any, Any], Outcome]
    #: Cores a pass keeps busy.
    cores: int = 1


WORKLOADS = {
    catalog.REPORT: Workload(report_setup, report_body, report_check),
    catalog.SWEEP: Workload(sweep_setup, sweep_body, sweep_check, SWEEP_WORKERS),
    catalog.MESH32: Workload(mesh32_setup, mesh32_body, mesh32_check),
    catalog.VALIDATE: Workload(validate_setup, validate_body, validate_check),
}
