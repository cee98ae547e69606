"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``bounds``     print every bound of the paper at an (n, rho) point
``simulate``   run a scenario on any registered engine through the
               replication engine (multi-seed, pooled CIs) and — for the
               standard model on a sandwich-comparable engine — compare
               against the bounds
``scenarios``  list the registered traffic scenarios
``engines``    list the registered simulation engines with their service
               laws and engine-specific parameters
``finite``     sweep loss probability vs buffer size on the
               finite-buffer engine, against the infinite baseline
``sweep``      run a declarative JSON/CSV sweep spec through the
               resumable runner (per-cell checkpoints; rerunning skips
               completed cells)
``validate``   run the statistical validation harness (closed forms vs
               engines, :mod:`repro.validation`): quick tier by default,
               ``--tier full`` for the distribution-level cells,
               ``--strict`` for a hard exit on gate failures (the CI
               merge-gate mode), ``--json-out`` for the machine-readable
               report CI uploads
``tables``     regenerate the paper's tables/figures (QUICK preset)
``figure1`` / ``figure2``  print the layering / saturated-edge figures

Examples
--------
::

    python -m repro bounds -n 10 --rho 0.9
    python -m repro simulate -n 8 --rho 0.8 --horizon 3000 --seed 7
    python -m repro simulate --scenario hotspot --replications 8 --processes 4
    python -m repro simulate --scenario transpose --engine slotted -n 6
    python -m repro simulate --engine rushed -n 8 --rho 0.7
    python -m repro simulate --engine ps -n 6 --rho 0.6 --replications 4
    python -m repro simulate --engine slotted --engine-param backend=numpy
    python -m repro simulate --engine fifo --engine-param backend=numpy
    python -m repro simulate --engine finite --engine-param buffer_size=4
    python -m repro simulate --scenario hotspot --param h=0.4
    python -m repro engines
    python -m repro finite -n 16 --rho 0.9
    python -m repro sweep spec.json -o out/
    python -m repro sweep grid.csv -o out/ --processes 4
    python -m repro validate --strict --json-out validation_report.json
    python -m repro validate --tier full --select 'md1-*'
    python -m repro validate --list-checks
    python -m repro figure2 -n 5
    python -m repro tables -o report.md
"""

from __future__ import annotations

import argparse
import sys

from repro.core.lower_bounds import asymptotic_gap, bound_summary
from repro.core.rates import lambda_for_load
from repro.util.tables import Table


def _cmd_bounds(args) -> int:
    lam = lambda_for_load(args.n, args.rho, args.convention)
    b = bound_summary(args.n, lam)
    t = Table(
        title=(
            f"Bounds for the {args.n}x{args.n} array at rho={args.rho} "
            f"(lambda={lam:.5f})"
        ),
        headers=["bound", "value"],
    )
    t.add_row(["lower: trivial (n-bar)", b.lower_trivial])
    t.add_row(["lower: Thm 8 (any scheme)", b.lower_st_any])
    t.add_row(["lower: Thm 8 (oblivious)", b.lower_st_oblivious])
    t.add_row(["lower: Thm 10 (copy)", b.lower_copy])
    t.add_row(["lower: Thm 12 (Markovian)", b.lower_markov])
    t.add_row(["lower: Thm 14 (saturated)", b.lower_saturated])
    t.add_row(["estimate: Sec 4.2 (M/D/1)", b.estimate])
    t.add_row(["upper: Thm 7 (Jackson/PS)", b.upper])
    print(t.render())
    print(
        f"gap upper/best-lower = {b.gap:.3f}; rho->1 limit = "
        f"{asymptotic_gap(args.n):.3f} ({'even' if args.n % 2 == 0 else 'odd'} n)"
    )
    return 0


def _parse_params(
    pairs: list[str], flag: str = "--param"
) -> tuple[tuple[str, object], ...]:
    """Parse repeated ``key=value`` flags (bool > int > float > string)."""
    out: list[tuple[str, object]] = []
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"{flag} expects key=value, got {pair!r}")
        value: object = raw
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            for cast in (int, float):
                try:
                    value = cast(raw)
                    break
                except ValueError:
                    continue
        out.append((key, value))
    return tuple(out)


def _cmd_simulate(args) -> int:
    from repro.scenarios import get_scenario
    from repro.sim.registry import get_engine
    from repro.sim.replication import CellSpec, ReplicationEngine

    scenario = get_scenario(args.scenario)
    info = get_engine(args.engine)
    engine_params = _parse_params(args.engine_param, "--engine-param")
    try:
        info.validate_params(dict(engine_params))
    except ValueError as exc:
        # A bad --engine-param should read like CLI usage help for the
        # *chosen* engine, not a bare registry traceback: list every
        # valid key with its default and doc line.
        lines = [f"simulate: {exc}"]
        if info.params:
            lines.append(
                f"valid --engine-param keys for engine {info.name!r}:"
            )
            lines += [f"  {p.describe()}  -- {p.doc}" for p in info.params]
        else:
            lines.append(f"engine {info.name!r} accepts no --engine-param")
        raise SystemExit("\n".join(lines)) from None
    # The vectorized kernels cannot track per-packet maxima, so the CLI
    # drops that (display-only) statistic rather than making the numpy
    # backend unreachable from `simulate`.
    track_maxima = (
        info.supports_maxima
        and dict(engine_params).get("backend") != "numpy"
    )
    spec = CellSpec(
        scenario=scenario.name,
        n=args.n,
        rho=args.rho,
        convention=args.convention,
        engine=args.engine,
        warmup=args.warmup,
        horizon=args.horizon,
        seeds=tuple(args.seed + k for k in range(args.replications)),
        track_saturated=scenario.standard_mesh and info.supports_saturated,
        track_maxima=track_maxima,
        params=_parse_params(args.param),
        engine_params=engine_params,
    )
    res = ReplicationEngine(processes=args.processes).run(spec)
    print(res.render())
    print(res.summary_line())
    if spec.engine == "finite":
        hw = res.loss_half_width
        ci = f"+/-{hw:.4f}" if hw == hw else ""  # nan with one replication
        print(
            f"loss: {res.loss_probability:.4f}{ci}  dropped {res.dropped} "
            f"of {res.generated}"
        )
    if not (scenario.bounds_apply and info.bound_sandwich):
        # The Theorem 7 sandwich only covers the standard array model (not
        # even the randomized mixture, which is not layered) on an engine
        # whose mean_delay it brackets (not the rushed makespan, and not
        # PS — PS *is* the upper bound's comparator system).
        return 0
    lam = lambda_for_load(args.n, args.rho, args.convention)
    b = bound_summary(args.n, lam)
    extremes = (
        f"  max delay {res.max_delay:.2f}  max queue {res.max_queue_length}"
        if spec.track_maxima
        else ""
    )
    print(
        f"bounds: [{b.lower_best:.3f}, {b.upper:.3f}]  estimate {b.estimate:.3f}"
        f"{extremes}"
    )
    ok = b.lower_best <= res.mean_delay <= b.upper * 1.05
    print(f"sandwich: {'OK' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _cmd_scenarios(args) -> int:
    from repro.scenarios import available_scenarios

    t = Table(title="Registered traffic scenarios", headers=["name", "description"])
    for s in available_scenarios():
        t.add_row([s.name, s.description])
    print(t.render())
    return 0


def _cmd_engines(args) -> int:
    from repro.sim.registry import available_engines

    t = Table(
        title="Registered simulation engines",
        headers=[
            "name", "aliases", "services", "backends", "engine params",
            "description",
        ],
    )
    for e in available_engines():
        t.add_row(
            [
                e.name,
                ", ".join(e.aliases) or "-",
                "/".join(e.services),
                "/".join(e.backends),
                ", ".join(p.describe() for p in e.params) or "-",
                e.description,
            ]
        )
    print(t.render())
    print("engine param details (pass via --engine-param KEY=VALUE):")
    for e in available_engines():
        for p in e.params:
            print(f"  {e.name}.{p.name}: {p.doc}")
    return 0


def _cmd_finite(args) -> int:
    from dataclasses import replace

    from repro.experiments import finite_buffer

    cfg = finite_buffer.FULL_FINITE if args.full else finite_buffer.QUICK_FINITE
    overrides = {}
    if args.n is not None:
        overrides["n"] = args.n
    if args.rho is not None:
        overrides["rho"] = args.rho
    if overrides:
        cfg = replace(cfg, **overrides)
    res = finite_buffer.run(cfg, processes=args.processes)
    print(res.render())
    problems = finite_buffer.shape_checks(res)
    for p in problems:
        print(f"CHECK FAILURE: {p}")
    return 1 if problems else 0


def _cmd_sweep(args) -> int:
    from pathlib import Path

    from repro.experiments.sweeps import run_sweep

    out = args.output
    if out is None:
        out = Path(args.spec).with_suffix("").as_posix() + "_out"
    run = run_sweep(args.spec, out, processes=args.processes)
    print(run.render())
    print(f"aggregate: {run.aggregate_csv}")
    return 0


def _cmd_validate(args) -> int:
    import json

    from repro.validation import available_checks, run_validation

    if args.list_checks:
        t = Table(
            title="Registered validation checks",
            headers=[
                "name", "severity", "tier", "engine", "backends",
                "description",
            ],
        )
        for c in available_checks():
            t.add_row(
                [c.name, c.severity, c.tier, c.engine,
                 "/".join(c.backends), c.description]
            )
        print(t.render())
        return 0

    def progress(outcome) -> None:
        status = "PASS" if outcome.passed else (
            "FAIL" if outcome.severity == "gate" else "WARN"
        )
        print(f"  {outcome.check} [{outcome.backend}] ... {status}", flush=True)

    report = run_validation(
        select=args.select or None,
        tier=args.tier,
        engines=args.engine or None,
        backends=args.backend or None,
        processes=args.processes,
        on_outcome=progress,
    )
    print(report.render())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2)
        print(f"report written to {args.json_out}")
    if args.strict and not report.passed:
        # Mirror perf_gate.py: the default run is report-only so noisy
        # local boxes never block work, --strict is the CI merge gate.
        return 1
    return 0


def _cmd_tables(args) -> int:
    from repro.experiments.runner import render_report, run_all

    sections = run_all(full=args.full, processes=args.processes)
    report = render_report(sections)
    print(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report)
    return 1 if any(s.problems for s in sections) else 0


def _cmd_figure1(args) -> int:
    from repro.experiments import figure1

    res = figure1.run(args.n)
    print(res.render())
    return 0 if res.layered else 1


def _cmd_figure2(args) -> int:
    from repro.experiments import figure2

    print(figure2.run(args.n).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Bounds and simulation for greedy routing on array networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="print all bounds at (n, rho)")
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--rho", type=float, default=0.9)
    p.add_argument("--convention", choices=("exact", "table1"), default="exact")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "simulate", help="simulate a scenario through the replication engine"
    )
    p.add_argument("-n", type=int, default=8)
    p.add_argument("--rho", type=float, default=0.8)
    p.add_argument("--convention", choices=("exact", "table1"), default="exact")
    p.add_argument("--warmup", type=float, default=300.0)
    p.add_argument("--horizon", type=float, default=3000.0)
    p.add_argument("--seed", type=int, default=0, help="base replication seed")
    p.add_argument(
        "--scenario", default="uniform", help="name from the scenario registry"
    )
    # No argparse choices: like --scenario, the name is validated lazily
    # against the engine registry inside CellSpec (so building the parser
    # never imports the simulation stack); unknown names raise a
    # ValueError listing every registered engine and alias.
    p.add_argument(
        "--engine",
        default="fifo",
        help="simulation engine from the engine registry: fifo (alias "
        "event), finite, slotted, rushed, ps — see `python -m repro engines`",
    )
    p.add_argument(
        "--replications", type=int, default=1, help="seeded replications to pool"
    )
    p.add_argument(
        "--processes", type=int, default=None, help="worker processes (default: cores)"
    )
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="scenario parameter (repeatable), e.g. --param h=0.4",
    )
    p.add_argument(
        "--engine-param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="engine-specific knob (repeatable), validated against the "
        "engine registry, e.g. --engine-param backend=numpy; list them "
        "with `python -m repro engines`",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("scenarios", help="list registered traffic scenarios")
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser(
        "engines",
        help="list registered simulation engines (services + engine params)",
    )
    p.set_defaults(func=_cmd_engines)

    p = sub.add_parser(
        "finite",
        help="sweep loss vs buffer size on the finite-buffer engine",
    )
    p.add_argument("-n", type=int, default=None, help="mesh side (default 16)")
    p.add_argument("--rho", type=float, default=None, help="network load")
    p.add_argument("--full", action="store_true", help="paper-scale preset")
    p.add_argument("--processes", type=int, default=None)
    p.set_defaults(func=_cmd_finite)

    p = sub.add_parser(
        "sweep",
        help="run a declarative sweep spec with resumable per-cell checkpoints",
    )
    p.add_argument("spec", help="sweep spec file (JSON or CSV)")
    p.add_argument(
        "-o",
        "--output",
        default=None,
        help="output directory (default: <spec>_out); rerunning with the "
        "same directory skips cells already checkpointed there",
    )
    p.add_argument("--processes", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "validate",
        help="run the statistical validation harness (closed forms vs "
        "engines); --strict is the CI merge-gate mode",
    )
    p.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="PATTERN",
        help="check name or fnmatch pattern (repeatable); unknown exact "
        "names raise with the registered-checks listing",
    )
    p.add_argument(
        "--tier",
        choices=("quick", "full"),
        default="quick",
        help="quick = the push/PR merge-gate lane; full adds the "
        "long-horizon distribution checks (nightly CI)",
    )
    p.add_argument(
        "--engine",
        action="append",
        default=[],
        help="restrict to checks of this engine (repeatable)",
    )
    p.add_argument(
        "--backend",
        action="append",
        default=[],
        help="restrict to these kernel backends (repeatable)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when any gate-severity check fails",
    )
    p.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="also write the machine-readable validation_report.json",
    )
    p.add_argument("--processes", type=int, default=None)
    p.add_argument(
        "--list-checks",
        action="store_true",
        help="list the registered checks and exit",
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("tables", help="regenerate every table/figure")
    p.add_argument("--full", action="store_true")
    p.add_argument("--processes", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("figure1", help="print the Lemma 2 layering figure")
    p.add_argument("-n", type=int, default=4)
    p.set_defaults(func=_cmd_figure1)

    p = sub.add_parser("figure2", help="print the saturated-edges figure")
    p.add_argument("-n", type=int, default=6)
    p.set_defaults(func=_cmd_figure2)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly like a
        # well-behaved Unix tool.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
