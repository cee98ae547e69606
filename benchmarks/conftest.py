"""Benchmark harness configuration.

Two pytest-benchmark stages live here, each recorded into a committed
baseline by ``scripts/check.sh`` and CI: ``bench_engine_hotpath.py``
(engine throughput, ``BENCH_engine_hotpath.json``) and
``bench_replication.py`` (the replication fan-out,
``BENCH_replication.json``). Long-running simulation cells use a single
round; cells fast enough to repeat use three.

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def once(benchmark):
    """Benchmark a long-running callable exactly once (round=1)."""

    def run(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return run


@pytest.fixture
def best_of(benchmark):
    """Benchmark a callable with 3 rounds, reporting min/median.

    The engine-throughput cells are fast enough to repeat, and this
    machine's timing jitter (+/-30% on single rounds) would otherwise
    dominate the recorded trajectory.
    """

    def run(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=3, iterations=1
        )

    return run
