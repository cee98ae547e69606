"""Hot-path throughput benchmarks: all four engines (event, slotted,
rushed, PS), cached vs uncached, deterministic vs exponential service,
8x8-32x32 meshes.

``scripts/check.sh`` runs this file with ``--benchmark-json`` so the
engine throughput trajectory is recorded across PRs
(``BENCH_engine_hotpath.json``); the warn-only gate in the same script
flags any cell that regresses >25% against the committed baseline.

Every cell is the paper's standard model (uniform traffic, row-first
greedy, deterministic unit service) at rho = 0.8 under the Table I load
convention, window (warmup=20, horizon=120), the same configuration the
frozen pre-PR baselines below were measured with.

Pre-PR baselines (packets/s, best of 3, this container, commit 39a3ef5 —
the engines before the path-cache arena / monotone-merge loop /
vectorized slot kernel):

* event   8x8:   69,575        * slotted  8x8: 118,042
* event  32x32:  18,961        * slotted 32x32: 36,289

The acceptance target for this PR was >= 2x packet throughput on the
32x32 uniform event-engine cell versus those baselines; the recorded
``speedup_vs_pre_pr`` extra-info field documents the measured ratio
(~2.3x warm-cached, ~1.7x cold, slotted ~1.9x at the time of recording). The in-run assertion uses a
soft 1.5x floor so a noisy or slower machine does not fail the gate
spuriously — absolute cross-machine comparisons belong to the warn-only
perf gate, not to hard asserts.

The exponential 32x32 cell times the stochastic-service loop, whose
departures are not monotone and so pop from a plain ``heapq`` list in
``(time, seq)`` order. The rushed cell (16x16) runs ~1.25-1.45x its
pre-port baseline via the merge loop + arena + blocked draws; the PS
cell (8x8) keeps its O(k)-per-event re-linearisation, so its port is
about shared architecture and validation parity, not throughput.

PR 6 extracted the hot loops into the kernels layer and added the
vectorized ``backend="numpy"`` whole-trajectory solver; the two
``*_numpy_warm`` cells time it on the 32x32 acceptance configurations
and record *two* ratios: ``speedup_vs_pre_pr`` (the frozen baselines
above — ~8-14x measured on this container) and
``speedup_vs_python_backend`` (an interleaved same-process timing of the
reference kernel on the identical warm cell — ~4-6x measured). Soft
floors sit well under the measured ratios, same discipline as the 1.5x
floor on the python cells. The fifo cell also records the kernel's
tracemalloc peak per visit (``peak_bytes_per_visit``), which
``scripts/perf_gate.py`` compares against the baseline like a median.
"""

import time
import tracemalloc

from repro.core.rates import lambda_for_load
from repro.routing.destinations import UniformDestinations
from repro.routing.greedy import GreedyArrayRouter
from repro.routing.pathcache import PathArena, path_cache_for
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.ps_network import PSNetworkSimulation
from repro.sim.rushed_network import RushedNetworkSimulation
from repro.sim.slotted import SlottedNetworkSimulation
from repro.topology.array_mesh import ArrayMesh

WARMUP, HORIZON = 20.0, 120.0
RHO = 0.8

PRE_PR_EVENT = {8: 69_575.0, 32: 18_961.0}
PRE_PR_SLOTTED = {8: 118_042.0, 32: 36_289.0}
# PR-3 baselines, same protocol (packets/s, best of 3, this container,
# commit b06dc10 — the engines before the PR-3 port): the heap-loop
# exponential cell, plus the pre-port rushed (16x16) and PS (8x8)
# engines (per-packet path rebuild, scalar RNG draws).
PRE_PR_EVENT_EXP_32 = 16_399.0
PRE_PR_RUSHED_16 = 36_411.0
PRE_PR_PS_8 = 34_545.0


def _event_cell(n, *, seed=3, **kwargs):
    mesh = ArrayMesh(n)
    return NetworkSimulation(
        GreedyArrayRouter(mesh),
        UniformDestinations(mesh.num_nodes),
        lambda_for_load(n, RHO, "table1"),
        seed=seed,
        **kwargs,
    )


def _slotted_cell(n, *, seed=4, **kwargs):
    mesh = ArrayMesh(n)
    return SlottedNetworkSimulation(
        GreedyArrayRouter(mesh),
        UniformDestinations(mesh.num_nodes),
        lambda_for_load(n, RHO, "table1"),
        seed=seed,
        **kwargs,
    )


def _record(benchmark, res, pre_pr):
    dt = benchmark.stats.stats.min
    pps = res.generated / dt
    benchmark.extra_info["packets_per_second"] = round(pps)
    benchmark.extra_info["pre_pr_packets_per_second"] = pre_pr
    benchmark.extra_info["speedup_vs_pre_pr"] = round(pps / pre_pr, 3)
    return pps


def test_event_8x8_cached(best_of, benchmark):
    """min-of-3: rounds after the first run against the warmed cache."""
    sim = _event_cell(8)
    res = best_of(sim.run, WARMUP, HORIZON)
    _record(benchmark, res, PRE_PR_EVENT[8])
    assert res.generated > 2000
    assert res.littles_law_gap < 0.15


def test_event_8x8_uncached(best_of, benchmark):
    """Per-packet path rebuild (the pre-cache behaviour) for contrast."""
    sim = _event_cell(8, use_path_cache=False)
    res = best_of(sim.run, WARMUP, HORIZON)
    _record(benchmark, res, PRE_PR_EVENT[8])
    assert res.generated > 2000


def test_event_32x32_cached_warm(best_of, benchmark):
    """The acceptance cell: 32x32 uniform, warm shared cache (the
    replication-engine pattern — every seed after the first runs against
    an already-populated arena)."""
    mesh_router = GreedyArrayRouter(ArrayMesh(32))
    cache = path_cache_for(mesh_router)
    dests = UniformDestinations(1024)
    lam = lambda_for_load(32, RHO, "table1")
    NetworkSimulation(
        mesh_router, dests, lam, seed=3, path_cache=cache
    ).run(WARMUP, HORIZON)  # warm the arena
    sim = NetworkSimulation(mesh_router, dests, lam, seed=3, path_cache=cache)
    res = best_of(sim.run, WARMUP, HORIZON)
    pps = _record(benchmark, res, PRE_PR_EVENT[32])
    assert res.generated > 10_000
    assert res.littles_law_gap < 0.1
    # Soft floor (see module docstring); the recorded extra-info carries
    # the actual measured ratio.
    assert pps > 1.5 * PRE_PR_EVENT[32]


def test_event_32x32_cached_cold(once, benchmark):
    """Same cell with a cold cache: every pair is a first hit, so this
    isolates the loop + miss-path cost (single round — repeating would
    re-run against the warmed cache)."""
    sim = _event_cell(32)
    res = once(sim.run, WARMUP, HORIZON)
    _record(benchmark, res, PRE_PR_EVENT[32])
    assert res.generated > 10_000


def test_event_32x32_uncached(best_of, benchmark):
    sim = _event_cell(32, use_path_cache=False)
    res = best_of(sim.run, WARMUP, HORIZON)
    _record(benchmark, res, PRE_PR_EVENT[32])
    assert res.generated > 10_000


def test_event_32x32_cached_beats_uncached(once, benchmark):
    """Directly pin cache > no-cache on one machine, one process."""

    def both():
        cached = _event_cell(32)
        t0 = time.perf_counter()
        cached.run(WARMUP, HORIZON)
        t_cached = time.perf_counter() - t0
        uncached = _event_cell(32, use_path_cache=False)
        t0 = time.perf_counter()
        uncached.run(WARMUP, HORIZON)
        return t_cached, time.perf_counter() - t0

    t_cached, t_uncached = once(both)
    benchmark.extra_info["cached_over_uncached"] = round(t_uncached / t_cached, 3)
    assert t_cached < t_uncached * 1.05  # cache never loses


def test_event_32x32_exponential(best_of, benchmark):
    """The stochastic-service loop: exponential service on the heap."""
    sim = _event_cell(32, service="exponential")
    res = best_of(sim.run, WARMUP, HORIZON)
    _record(benchmark, res, PRE_PR_EVENT_EXP_32)
    assert res.generated > 10_000


def test_rushed_16x16(best_of, benchmark):
    """The PR-3-ported rushed engine (Theorem 10 copies) on its
    monotone-merge loop with the shared path-cache arena."""
    mesh = ArrayMesh(16)
    sim = RushedNetworkSimulation(
        GreedyArrayRouter(mesh),
        UniformDestinations(mesh.num_nodes),
        lambda_for_load(16, RHO, "table1"),
        seed=3,
    )
    res = best_of(sim.run, WARMUP, HORIZON)
    _record(benchmark, res, PRE_PR_RUSHED_16)
    assert res.generated > 3000
    assert res.generated == res.completed


def test_ps_8x8(best_of, benchmark):
    """The PR-3-ported PS engine (arena-backed records, cached paths)."""
    mesh = ArrayMesh(8)
    sim = PSNetworkSimulation(
        GreedyArrayRouter(mesh),
        UniformDestinations(mesh.num_nodes),
        lambda_for_load(8, RHO, "table1"),
        seed=3,
    )
    res = best_of(sim.run, WARMUP, HORIZON)
    _record(benchmark, res, PRE_PR_PS_8)
    assert res.generated > 2000
    assert res.generated == res.completed


def _best_seconds(fn, *args, rounds=3, **kwargs):
    """min-of-``rounds`` wall time for the in-test reference timings."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def _peak_bytes_per_visit(monkeypatch, run, *args):
    """tracemalloc peak of one kernel run over the visits it solved
    (counted at the arena gather, the numpy kernels' only one)."""
    visits = []
    gather = PathArena.gather

    def counting_gather(arena, offs, lens):
        out = gather(arena, offs, lens)
        visits.append(out.size)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(PathArena, "gather", counting_gather)
        tracemalloc.start()
        try:
            run(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak / sum(visits)


def test_event_32x32_numpy_warm(best_of, benchmark, monkeypatch):
    """The PR-6 vectorized kernel on the acceptance cell (32x32 uniform
    deterministic, warm shared cache — the same configuration as
    ``test_event_32x32_cached_warm``). The interleaved reference timing
    pins the backend-vs-backend ratio within one process, immune to
    cross-run machine drift."""
    mesh_router = GreedyArrayRouter(ArrayMesh(32))
    cache = path_cache_for(mesh_router)
    dests = UniformDestinations(1024)
    lam = lambda_for_load(32, RHO, "table1")
    NetworkSimulation(
        mesh_router, dests, lam, seed=3, path_cache=cache, backend="numpy"
    ).run(WARMUP, HORIZON)  # warm the arena + kernel level cache
    t_python = _best_seconds(
        NetworkSimulation(mesh_router, dests, lam, seed=3, path_cache=cache).run,
        WARMUP,
        HORIZON,
    )
    sim = NetworkSimulation(
        mesh_router, dests, lam, seed=3, path_cache=cache, backend="numpy"
    )
    res = best_of(sim.run, WARMUP, HORIZON)
    pps = _record(benchmark, res, PRE_PR_EVENT[32])
    ratio = t_python / benchmark.stats.stats.min
    benchmark.extra_info["speedup_vs_python_backend"] = round(ratio, 3)
    benchmark.extra_info["peak_bytes_per_visit"] = round(
        _peak_bytes_per_visit(monkeypatch, sim.run, WARMUP, HORIZON), 1
    )
    assert res.generated > 10_000
    assert res.littles_law_gap < 0.1
    # Soft floors (see module docstring): measured ~14x / ~5-6x.
    assert pps > 4.0 * PRE_PR_EVENT[32]
    assert ratio > 2.5


def test_slotted_32x32_numpy_warm(best_of, benchmark):
    """The vectorized slot kernel on the 32x32 acceptance cell, against
    the python kernel on the identical warm cell."""
    mesh_router = GreedyArrayRouter(ArrayMesh(32))
    cache = path_cache_for(mesh_router)
    dests = UniformDestinations(1024)
    lam = lambda_for_load(32, RHO, "table1")
    SlottedNetworkSimulation(
        mesh_router, dests, lam, seed=4, path_cache=cache, backend="numpy"
    ).run(int(WARMUP), int(HORIZON))  # warm the arena + kernel level cache
    t_python = _best_seconds(
        SlottedNetworkSimulation(
            mesh_router, dests, lam, seed=4, path_cache=cache
        ).run,
        int(WARMUP),
        int(HORIZON),
    )
    sim = SlottedNetworkSimulation(
        mesh_router, dests, lam, seed=4, path_cache=cache, backend="numpy"
    )
    res = best_of(sim.run, int(WARMUP), int(HORIZON))
    pps = _record(benchmark, res, PRE_PR_SLOTTED[32])
    ratio = t_python / benchmark.stats.stats.min
    benchmark.extra_info["speedup_vs_python_backend"] = round(ratio, 3)
    assert res.generated > 10_000
    # Soft floors (see module docstring): measured ~8x / ~4x.
    assert pps > 4.0 * PRE_PR_SLOTTED[32]
    assert ratio > 2.0


def test_finite_32x32_numpy_warm(best_of, benchmark):
    """The finite-buffer engine on its numpy-backed configuration
    (buffer_size=None — the only combination the vectorized kernel
    accepts, which runs the FIFO whole-trajectory solver). This is the
    bench-coverage cell for the finite x numpy registry entry; capped
    python-backend runs (the fifo loops with tail-drop admission) are
    timed through ``test_replication_finite_cell`` in the replication
    suite."""
    from repro.sim.finite_buffer import FiniteBufferNetworkSimulation

    mesh_router = GreedyArrayRouter(ArrayMesh(32))
    cache = path_cache_for(mesh_router)
    dests = UniformDestinations(1024)
    lam = lambda_for_load(32, RHO, "table1")
    FiniteBufferNetworkSimulation(
        mesh_router, dests, lam, seed=3, path_cache=cache, backend="numpy"
    ).run(WARMUP, HORIZON)  # warm the arena + kernel level cache
    sim = FiniteBufferNetworkSimulation(
        mesh_router, dests, lam, seed=3, path_cache=cache, backend="numpy"
    )
    res = best_of(sim.run, WARMUP, HORIZON)
    pps = _record(benchmark, res, PRE_PR_EVENT[32])
    assert res.generated > 10_000
    # Delegation means fifo-kernel throughput; same soft floor as the
    # event numpy cell.
    assert pps > 4.0 * PRE_PR_EVENT[32]


def test_slotted_8x8(best_of, benchmark):
    """The python slot kernel (blocked Poisson counts, batched ids)."""
    sim = _slotted_cell(8)
    res = best_of(sim.run, int(WARMUP), int(HORIZON))
    _record(benchmark, res, PRE_PR_SLOTTED[8])
    assert res.generated > 2000


def test_slotted_32x32(best_of, benchmark):
    """The python slot kernel on the 32x32 acceptance cell."""
    sim = _slotted_cell(32)
    res = best_of(sim.run, int(WARMUP), int(HORIZON))
    _record(benchmark, res, PRE_PR_SLOTTED[32])
    assert res.generated > 10_000
