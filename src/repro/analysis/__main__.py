"""CLI entry point: ``python -m repro.analysis [paths] [options]``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis import RULES, analyze_paths, render_report
from repro.analysis import cache
from repro.analysis.core import iter_python_files


def _default_paths() -> list[str]:
    """The installed ``repro`` package tree (what CI lints)."""
    import repro

    return [str(Path(repro.__file__).parent)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "replint: statically enforce the repo's bit-identity, "
            "backend-boundary, registry, coverage and hygiene invariants"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON report"
    )
    parser.add_argument(
        "--json-file",
        default=None,
        metavar="PATH",
        help="also write the JSON report to PATH (for CI artifacts)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULE[,RULE]",
        help="run only these rules (see --list-rules)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not update the result cache",
    )
    parser.add_argument(
        "--cache-file",
        default=cache.DEFAULT_CACHE_FILE,
        metavar="PATH",
        help=f"result cache location (default: {cache.DEFAULT_CACHE_FILE})",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for name, rule in RULES.items():
            print(f"{name:22s} {rule.description}")
        return 0
    paths = args.paths or _default_paths()
    select = (
        [s.strip() for s in args.select.split(",") if s.strip()]
        if args.select
        else None
    )
    use_cache = not args.no_cache
    try:
        cached = (
            cache.load(args.cache_file, paths, select) if use_cache else None
        )
        if cached is not None:
            findings, num_files = cached
        else:
            num_files = sum(1 for _ in iter_python_files(paths))
            findings = analyze_paths(paths, select=select)
            if use_cache:
                cache.store(args.cache_file, paths, select, findings, num_files)
    except (FileNotFoundError, ValueError) as exc:
        print(f"replint: error: {exc}", file=sys.stderr)
        return 2
    print(render_report(findings, as_json=args.json, num_files=num_files))
    if args.json_file:
        Path(args.json_file).write_text(
            render_report(findings, as_json=True, num_files=num_files) + "\n"
        )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
