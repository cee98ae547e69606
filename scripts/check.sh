#!/usr/bin/env bash
# Tier-1 gate plus the quick benchmark suite.
#
# Runs the full test suite, then times each benchmark stage and writes
# BENCH_<stage>.json (pytest-benchmark format) at the repo root so the
# performance trajectory is recorded PR over PR. Before overwriting a
# committed baseline, the warn-only perf gate prints any benchmark whose
# median regressed >25% against it. (CI reuses the same pieces: the
# tier-1 job runs the fast lane, the bench job re-runs these stages and
# uploads the fresh BENCH_*.json as artifacts — see
# .github/workflows/ci.yml; `scripts/perf_gate.py --strict --json-out`
# gives CI a hard exit and a machine-readable summary, while this local
# gate stays warn-only.) Last, one traced perfbench pass on mesh32 must
# report `correct: true` (the same smoke CI's bench job runs).
#
# Fast lane: FAST=1 ./scripts/check.sh deselects the tests marked
# `slow` (the heavy statistical/cross-engine cells; see pytest.ini) and
# skips the benchmark stages — the same selection CI's tier-1 job runs
# on every push/PR. The default full run still executes everything.
# Both run every src doctest after the suite.
#
# Validation lane: VALIDATE=1 ./scripts/check.sh runs the statistical
# validation harness (`python -m repro validate --strict`) — every
# registered engine x kernel backend against the queueing closed forms
# on CI-calibrated tolerances — and skips tests and benches. This is
# the same gate CI's `validate` job runs on every push/PR; add
# TIER=full for the nightly distribution-level checks.
#
# Lint lane: LINT=1 ./scripts/check.sh runs only the static checks —
# replint (python -m repro.analysis) over src/repro plus mypy against
# the strict modules pinned in pyproject.toml — and skips the tests.
# The same pair is CI's `lint` job. Both lanes also run replint, so a
# rule violation fails locally before it fails the merge gate; mypy is
# skipped with a notice when not installed (it is a CI-only dep, see
# .github/requirements-ci.txt).
#
# The replication stage fans cells for all five registered engines
# (fifo, finite, slotted, rushed, ps) through the declarative CellSpec
# facade, so the gate covers every `engine registry -> run_cell` path
# end-to-end; the engine_hotpath stage times the raw engine loops.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

sweep_smoke() {
    # End-to-end `repro sweep` smoke: a tiny 6-cell spec (the torus cells
    # warm their path caches pair by pair in the pool workers), run twice
    # into one directory — the rerun must resume every cell from
    # checkpoint.
    local dir
    dir=$(mktemp -d)
    trap 'rm -rf "$dir"' RETURN
    cat > "$dir/spec.json" <<'SPEC'
{
  "defaults": {"scenario": "uniform", "n": 4,
               "warmup": 20, "horizon": 120, "seeds": [0, 1]},
  "grid": {"rho": [0.4, 0.7], "scenario": ["uniform", "randomized", "torus"]}
}
SPEC
    python -m repro sweep "$dir/spec.json" -o "$dir/out" \
        | grep -q "6 ran, 0 resumed"
    python -m repro sweep "$dir/spec.json" -o "$dir/out" \
        | grep -q "0 ran, 6 resumed"
}

perfbench_smoke() {
    # One traced perfbench pass on mesh32. The tracer patches names in
    # repro (sharedcells.warm_cell, SharedCellBatch.__init__,
    # PathCache.__init__, PathArena.__init__), so a rename there breaks
    # traced runs; the result line must report correct: true.
    python3 perfbench/run.py --workload mesh32 --seed 0 --seconds 0 \
        --trace 1 | tail -n 1 | grep -q '^{"correct": true, '
}

run_doctests() {
    # Every docstring example under src/repro (the topology and routing
    # ones pin edge ids); pytest's testpaths cover tests/ only.
    python -m pytest -q --doctest-modules src/repro
}

run_lint() {
    # replint memoizes in .replint_cache.json keyed by file mtimes, so
    # repeat runs on an unchanged tree replay without re-parsing.
    python -m repro.analysis src/repro
    if python -c 'import mypy' 2>/dev/null; then
        python -m mypy -p repro
    else
        echo "check.sh: mypy not installed; skipping the typing leg" \
             "(CI runs it via .github/requirements-ci.txt)"
    fi
}

if [ "${LINT:-0}" = "1" ]; then
    run_lint
    echo "check.sh: lint lane green (replint + mypy; tests skipped)"
    exit 0
fi

if [ "${VALIDATE:-0}" = "1" ]; then
    python -m repro validate --strict --tier "${TIER:-quick}" \
        --json-out validation_report.json
    echo "check.sh: validation lane green (report in validation_report.json)"
    exit 0
fi

if [ "${RNGSAN:-0}" = "1" ]; then
    # Determinism-sanitizer lane: re-run every golden cell under the
    # rngsan tracer, writing one draw-stream trace per cell. Compare two
    # checkouts' trace directories with
    #   python -m repro.analysis.rngsan diff a/<cell>.trace b/<cell>.trace
    # to localize a golden mismatch to its first divergent draw.
    dir="${REPRO_RNGSAN_DIR:-.rngsan}"
    mkdir -p "$dir"
    REPRO_RNGSAN_DIR="$dir" python - <<'PY'
import sys
sys.path.insert(0, "tests/golden")
from regen import build_cases
print(f"rngsan: traced {len(build_cases())} golden cells")
PY
    python -m pytest -x -q tests/test_golden_results.py
    echo "check.sh: rngsan lane green (traces in $dir/)"
    exit 0
fi

if [ "${FAST:-0}" = "1" ]; then
    run_lint
    python -m pytest -x -q -m "not slow"
    run_doctests
    sweep_smoke
    echo "check.sh: fast lane green (sweep smoke OK; slow tests and benches skipped)"
    exit 0
fi

run_lint
python -m pytest -x -q
run_doctests

run_bench() {
    local stage=$1
    local fresh=".bench_fresh_${stage}.json"
    python -m pytest "benchmarks/bench_${stage}.py" \
        --benchmark-only \
        --benchmark-json "$fresh" \
        -q
    if [ -f "BENCH_${stage}.json" ]; then
        python scripts/perf_gate.py "BENCH_${stage}.json" "$fresh"
    fi
    mv "$fresh" "BENCH_${stage}.json"
}

run_bench replication
run_bench engine_hotpath
perfbench_smoke

echo "check.sh: tests green, benches written to BENCH_*.json (perfbench smoke OK)"
