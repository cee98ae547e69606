"""One workload pass in a fresh interpreter (started by ``perfbench.run``).

A fresh interpreter per pass means the process-wide memos (the cell
network memo, the path caches' numpy level caches, the warm pools) start
empty, as they do for a user running the CLI. Prints one JSON object.

``--spawned-at`` is the parent's ``perf_counter()`` just before it
started this process; on Linux that clock is the system-wide monotonic
clock, so ``setup_s`` covers interpreter start-up too.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

from perfbench.workloads import WORKLOADS


def _usage() -> tuple[float, float]:
    """(CPU seconds of this process and its reaped children, peak RSS MB)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m perfbench.child")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--probe", action="store_true",
                      help="record result fingerprints only")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = probe = None
    if args.trace:
        from perfbench.tracing import Tracer

        tracer = Tracer().install()
    elif args.probe:
        from perfbench.tracing import ResultProbe

        probe = ResultProbe().install()
    args.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        state = workload.setup(args.seed, args.work_dir)
        body_start = perf_counter()
        setup_s = body_start - args.spawned_at
        if args.setup_only:
            raw = None
        else:
            cpu0, _ = _usage()
            raw = workload.body(state)
            wall_s = perf_counter() - body_start
        if tracer is not None:
            tracer.uninstall()
        if probe is not None:
            probe.uninstall()
        from repro.util.workerpool import shutdown_pools

        shutdown_pools()  # reap the workers so their CPU is counted
        record: dict = {"setup_s": setup_s}
        if not args.setup_only:
            cpu1, peak = _usage()
            outcome = workload.check(state, raw)
            import numpy

            record.update(
                wall_s=wall_s,
                cpu_s=cpu1 - cpu0,
                peak_rss_mb=peak,
                attempted=outcome.attempted,
                failed=outcome.failed,
                problems=outcome.problems,
                digest=outcome.digest,
                numpy=numpy.__version__,
            )
            if tracer is not None:
                record["layers"] = tracer.layer_metrics(outcome.layers)
                record["fingerprints"] = tracer.fingerprints
            if probe is not None:
                record["fingerprints"] = probe.fingerprints
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
