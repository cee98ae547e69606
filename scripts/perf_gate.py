#!/usr/bin/env python
"""Performance-regression gate over the committed benchmark baselines.

Compares a freshly produced pytest-benchmark JSON against the committed
baseline of the same stage and prints a warning for every benchmark whose
median regressed by more than the threshold (default 25%), whose recorded
memory per unit of work (the ``extra_info`` fields in ``GATED_EXTRA_INFO``)
grew by more than the threshold, or that is present in the baseline but
missing from the fresh run (a benchmark that stops running must not look
like a pass).

By default the gate is *warn-only* — timing on shared machines is too
noisy for a hard local gate — which is how ``scripts/check.sh`` invokes
it. CI passes ``--strict`` to turn regressions (and missing benchmarks)
into a non-zero exit, and ``--json-out`` to emit a machine-readable
summary it can attach to the PR.

Usage::

    python scripts/perf_gate.py BENCH_stage.json fresh.json [threshold]
        [--strict] [--json-out summary.json]
"""

from __future__ import annotations

import argparse
import json
import sys

#: ``extra_info`` fields gated like the medians (lower is better): memory
#: per unit of work, which host speed does not move.
GATED_EXTRA_INFO = ("peak_bytes_per_visit",)


def medians(path: str) -> dict[str, float]:
    """``benchmark name -> median seconds`` from a pytest-benchmark JSON."""
    with open(path) as fh:
        data = json.load(fh)
    return {
        b["name"]: float(b["stats"]["median"]) for b in data.get("benchmarks", [])
    }


def gated_extra_info(path: str) -> dict[tuple[str, str], float]:
    """``(benchmark name, field) -> value`` for the recorded
    :data:`GATED_EXTRA_INFO` fields of a pytest-benchmark JSON."""
    with open(path) as fh:
        data = json.load(fh)
    return {
        (b["name"], key): float(b["extra_info"][key])
        for b in data.get("benchmarks", [])
        for key in GATED_EXTRA_INFO
        if key in b.get("extra_info", {})
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perf_gate.py",
        description="compare a fresh pytest-benchmark JSON to a baseline",
    )
    parser.add_argument("baseline", nargs="?", help="committed BENCH_*.json")
    parser.add_argument("fresh", nargs="?", help="freshly produced JSON")
    parser.add_argument(
        "threshold",
        nargs="?",
        type=float,
        default=0.25,
        help="relative median regression that triggers a warning (0.25 = 25%%)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on any regression or missing baseline benchmark "
        "(default: warn-only)",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="write a machine-readable comparison summary to PATH",
    )
    return parser


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv[1:])
    if not args.baseline or not args.fresh:
        print(__doc__)
        return 0
    summary: dict = {
        "baseline": args.baseline,
        "fresh": args.fresh,
        "threshold": args.threshold,
        "strict": args.strict,
        # Readable echo of the gate's disposition: downstream tooling
        # kept misreading the bare boolean, so record it in words too.
        "mode": "strict" if args.strict else "warn-only",
        "compared": 0,
        "regressions": [],
        "missing": [],
        "ok": True,
    }

    def finish(rc: int) -> int:
        if args.json_out:
            with open(args.json_out, "w") as fh:
                json.dump(summary, fh, indent=1, sort_keys=True)
                fh.write("\n")
        return rc

    try:
        baseline = medians(args.baseline)
        fresh = medians(args.fresh)
        baseline_extra = gated_extra_info(args.baseline)
        fresh_extra = gated_extra_info(args.fresh)
    except (OSError, ValueError, KeyError) as exc:
        # An unreadable input is the strongest form of "the benchmarks
        # stopped running": warn-only mode skips (local noise tolerance),
        # but --strict must not let it look like a pass.
        print(f"perf_gate: cannot compare ({exc}); skipping")
        summary["skipped"] = str(exc)
        summary["ok"] = False
        if args.strict:
            print("perf_gate: FAILING (--strict) on the unreadable input")
            return finish(1)
        return finish(0)
    # A benchmark present in the baseline but absent from the fresh run
    # would otherwise be silently skipped — a benchmark that stops
    # running must look like a warning, not a pass.
    missing = sorted(set(baseline) - set(fresh))
    summary["missing"] = missing
    for name in missing:
        print(
            f"perf_gate WARNING: baseline benchmark {name} missing from "
            f"the fresh run (removed, renamed, or no longer collected?)"
        )
    shared = sorted(set(baseline) & set(fresh))
    summary["compared"] = len(shared)
    if not shared:
        print("perf_gate: no common benchmarks; skipping")
        summary["ok"] = not missing
        return finish(1 if args.strict and missing else 0)
    regressed = 0
    for name in shared:
        b, f = baseline[name], fresh[name]
        if b > 0 and f > b * (1.0 + args.threshold):
            regressed += 1
            summary["regressions"].append(
                {
                    "name": name,
                    "baseline_median_s": b,
                    "fresh_median_s": f,
                    "regression_pct": round((f / b - 1.0) * 100, 1),
                }
            )
            print(
                f"perf_gate WARNING: {name} regressed "
                f"{(f / b - 1.0) * 100:.0f}% ({b * 1e3:.1f}ms -> {f * 1e3:.1f}ms)"
            )
    for name, key in sorted(set(baseline_extra) & set(fresh_extra)):
        b, f = baseline_extra[name, key], fresh_extra[name, key]
        if b > 0 and f > b * (1.0 + args.threshold):
            regressed += 1
            pct = round((f / b - 1.0) * 100, 1)
            summary["regressions"].append(
                {"name": name, "field": key, "baseline": b, "fresh": f,
                 "regression_pct": pct}
            )
            print(f"perf_gate WARNING: {name} {key} grew {pct:.0f}% ({b:g} -> {f:g})")
    if not regressed:
        tail = f" ({len(missing)} baseline benchmark(s) missing)" if missing else ""
        print(
            f"perf_gate: {len(shared)} benchmarks within "
            f"{args.threshold:.0%} of the committed baseline{tail}"
        )
    bad = bool(regressed or missing)
    summary["ok"] = not bad
    if args.strict and bad:
        print("perf_gate: FAILING (--strict) on the warnings above")
        return finish(1)
    return finish(0)  # warn-only by default


if __name__ == "__main__":
    sys.exit(main(sys.argv))
