#!/usr/bin/env python3
"""The repository benchmark: what a user of the reproduction waits for.

Usage, from the root of a checkout (no build step; needs numpy/scipy)::

    python3 perfbench/run.py --workload report --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --all            # every workload, summary table
    python3 -m pytest perfbench/tests -q      # the benchmark's own tests

Workloads (see ``perfbench/catalog.py`` for why each was chosen):

* ``report``   -- the quick ``repro tables`` report, ``run_all(processes=1)``;
* ``sweep``    -- a 26-cell mixed ``run_sweep`` on 2 workers, then a resume pass;
* ``mesh32``   -- 32x32 uniform cells on the numpy and python backends;
* ``validate`` -- the quick validation tier, ``run_validation(processes=1)``.

Every pass runs in a fresh interpreter (``perfbench/child.py``). With
``--trace 0`` the run repeats whole passes while another fits in
``--seconds`` (at least one, at most ``MAX_PASSES``), adds set-up-only
passes until it has ``SETUP_SAMPLES`` set-up times, and reports medians of
``wall_s``, ``setup_s``, ``cpu_s`` and ``peak_rss_mb``. (On a shared
2-vCPU Xeon container, CPU speed drifts by 10-30% over seconds, so the
pass length, not the timer, sets a run's noise.) With ``--trace 1`` it
runs one untraced pass and one traced pass, reports every per-layer
metric of the traced pass plus ``trace.overhead_s`` (traced minus
untraced ``wall_s``), and checks that both passes gave bit-identical
simulation results.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the provenance block. A pass that crashes ends the
run with exit code 1 and no result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import catalog  # noqa: E402
from perfbench.spans import error_rate  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Set-up times per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Timed passes per untraced run at most; short workloads stop here so the
#: whole benchmark stays within its time budget.
MAX_PASSES = 2
#: Wall-clock budget of one invocation; passes that would overrun it are killed.
RUN_BUDGET_S = 170.0
WORK_DIR = ROOT / ".perfbench_work"


class PassFailed(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def start_pass(workload: str, seed: int, *flags: str) -> subprocess.Popen:
    """Start one pass in a fresh interpreter, in a session of its own."""
    mode = flags[0].lstrip("-") if flags else "pass"
    work = WORK_DIR / str(os.getpid()) / mode
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--work-dir", str(work), *flags]
    return subprocess.Popen(
        [*cmd, "--spawned-at", repr(perf_counter())],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )


def finish_pass(workload: str, proc: subprocess.Popen, deadline: float) -> dict:
    """Wait for a pass (killing it at the deadline) and return its record."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload} pass overran the {RUN_BUDGET_S:.0f} s budget")
    finally:
        _end_session(proc)
    if proc.returncode != 0:
        raise PassFailed(f"{workload} pass exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise PassFailed(f"{workload} pass printed no record")
    return json.loads(lines[-1])


def run_pass(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    return finish_pass(workload, start_pass(workload, seed, *flags), deadline)


def _end_session(proc: subprocess.Popen) -> None:
    """Stop the pass and everything it started (pool workers, the shared
    memory resource tracker), then wait until they have all ended."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    grace = perf_counter() + 5.0
    while True:
        try:
            # The tracker exits by itself once the pass has; give it time.
            os.killpg(proc.pid, signal.SIGKILL if perf_counter() > grace else 0)
        except ProcessLookupError:
            return
        sleep(0.01)


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Untraced run: end-to-end medians."""
    start = perf_counter()
    passes = []
    while True:
        t = perf_counter()
        passes.append(run_pass(workload, seed, deadline))
        took = perf_counter() - t
        if len(passes) == MAX_PASSES or perf_counter() - start + took > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(workload, seed, deadline, "--setup-only")["setup_s"])
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return _result(passes, metrics, catalog.END_TO_END, samples=len(passes),
                   setup_samples=len(setups))


def traced(workload: str, seed: int, deadline: float) -> dict:
    """Traced run: per-layer metrics plus the transparency check.

    A workload whose pass keeps one core busy runs its untraced and traced
    passes side by side on two cores: the run takes half as long, and both
    passes see the same host speed, so their difference is the overhead.
    """
    if 2 * WORKLOADS[workload].cores <= (os.cpu_count() or 1):
        procs = [start_pass(workload, seed, "--probe"),
                 start_pass(workload, seed, "--trace")]
        try:
            plain, deep = (finish_pass(workload, p, deadline) for p in procs)
        finally:
            for p in procs:
                _end_session(p)
    else:
        plain = run_pass(workload, seed, deadline, "--probe")
        deep = run_pass(workload, seed, deadline, "--trace")
    metrics = dict(deep["layers"])
    metrics["trace.overhead_s"] = deep["wall_s"] - plain["wall_s"]
    result = _result([plain, deep], metrics, catalog.per_layer(), samples=1)
    a, b = plain["fingerprints"], deep["fingerprints"]
    same = a == b and plain["digest"] == deep["digest"]
    if not same:
        diff = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                    min(len(a), len(b)))
        print(f"tracing changed results: {len(a)} vs {len(b)} runs, first "
              f"difference at run {diff}, aggregate digests "
              f"{'equal' if plain['digest'] == deep['digest'] else 'differ'}",
              file=sys.stderr)
    result["correct"] = result["correct"] and same
    result["transparent_runs"] = len(a)
    return result


def _result(passes: list[dict], values: dict, catalog_metrics, **info) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for problem in p["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in catalog_metrics},
        "numpy": passes[0]["numpy"],
        **info,
    }


def provenance(workload: str, seed: int, numpy_version: str) -> dict:
    """What ran, and where: commit, source digest, versions, machine."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_one(args: argparse.Namespace) -> int:
    deadline = perf_counter() + RUN_BUDGET_S
    try:
        if args.trace:
            result = traced(args.workload, args.seed, deadline)
        else:
            result = measure(args.workload, args.seed, args.seconds, deadline)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    numpy_version = result.pop("numpy")
    extra = {k: result.pop(k) for k in list(result)
             if k not in ("correct", "attempted", "failed", "metrics")}
    for name, m in result["metrics"].items():
        print(f"{args.workload:9s} {name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"{args.workload:9s} error_rate "
          f"{error_rate(result['attempted'], result['failed']):.4g} "
          f"({result['failed']}/{result['attempted']}) {json.dumps(extra)}")
    print("provenance " + json.dumps(provenance(args.workload, args.seed, numpy_version)))
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced, as one summary table."""
    rows = []
    for workload in catalog.WORKLOADS:
        deadline = perf_counter() + RUN_BUDGET_S
        try:
            r = measure(workload, args.seed, args.seconds, deadline)
        except PassFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        m = {k: v["value"] for k, v in r["metrics"].items()}
        rows.append((workload, m, error_rate(r["attempted"], r["failed"])))
    units = {m.name: m.unit for m in catalog.END_TO_END}
    header = [f"{m}[{units[m]}]" for m in units] + ["error_rate[ratio]"]
    print(f"{'workload':10s}" + "".join(f"{h:>18s}" for h in header))
    for workload, m, err in rows:
        print(f"{workload:10s}" + "".join(f"{m[k]:>18.4f}" for k in units)
              + f"{err:>18.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=catalog.WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.all and args.workload is None:
        ap.error("--workload or --all is required")
    try:
        return run_all(args) if args.all else run_one(args)
    finally:
        shutil.rmtree(WORK_DIR / str(os.getpid()), ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # absent, or another run is using it


if __name__ == "__main__":
    sys.exit(main())
