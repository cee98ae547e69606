"""Hot-path throughput benchmarks: all four engines (event, slotted,
rushed, PS), cached vs uncached, deterministic vs exponential service,
8x8-32x32 meshes.

``scripts/check.sh`` runs this file with ``--benchmark-json`` so the
engine throughput trajectory is recorded across PRs
(``BENCH_engine_hotpath.json``); the warn-only gate in the same script
flags any cell that regresses >25% against the committed baseline.

Every cell but one is the paper's standard model (uniform traffic, row-first
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
``(time, seq)`` order. The rushed cell (16x16) times the engine's
closed-form solve: per 8192-arrival block, one Lindley cummax per edge
and no event loop (12.7 ms median against the former merge loop's
94.4 ms on a 2-vCPU Xeon). The PS
cell (8x8) times the inlined event loop: the queue head is the next
customer to complete (arrival order is remaining-work order), so no
event scans for a minimum, an event costs one subtraction per other
customer at its queue, and arrivals draw their gaps and ids from
blocks.

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
The numpy kernels route every run's packets straight from the router
(``route_packets``) and never fill the path cache, so a "warm" numpy
cell differs from a cold one only by the kernel level memo kept on the
cache: ``test_event_32x32_numpy_cold`` runs the same fifo cell on a
fresh cache every round, so it also times the level assignment.
``test_slotted_8x8_cold`` times the python slot kernel's per-packet
lookups on a cold cache, whose misses fill pair by pair.

``test_event_8x8_geometric`` is the one cell off the standard model: the
python fifo kernel under Section 5.2's distance-biased law (the
``geometric`` scenario, rho = 0.8 under the generic calibration), so the
non-uniform arrival path, whose ids come in blocks from
``enginecommon.draw_ids`` with one ``sample_batch`` per block, is
covered too. No frozen ``PRE_PR_*`` constant exists for it, so it
records packets/s only.

Which path of the python fifo kernel each cell times: the 8x8 cached
and geometric cells are layered plain runs within the visit budget, so
they time the *level path* (the merge loop's draws solved level by
level). ``test_event_8x8_uncached`` hands the run an RNG-drawing
``SampledPathInterner`` and the 32x32 cells exceed the budget, so they
time the *merge loop*; so does ``test_event_8x8_torus``, whose cyclic
torus routes the level path rejects after drawing and routing them, and
which therefore also pays for that check. The exponential cell times
the heap loop.

Two numpy cells time the kernel's options on 16x16 configurations the
report runs, each against the python loops on the identical warm cell:
tail-drop admission (finite engine, rho = 0.9, ``buffer_size=2`` — the
finite-buffer section's cell) and per-edge deterministic service
(Theorem 15's allocation, the Section 5.1 cell).
"""

import time
import tracemalloc

from repro.core.optimization import optimal_service_rates, standard_capacity
from repro.core.rates import array_edge_rates, lambda_for_load
from repro.routing.destinations import UniformDestinations
from repro.routing.greedy import GreedyArrayRouter
from repro.routing.pathcache import SampledPathInterner, path_cache_for
from repro.routing.torus_greedy import GreedyTorusRouter
from repro.scenarios import build_network, resolve_cell
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.ps_network import PSNetworkSimulation
from repro.sim.replication import CellSpec
from repro.sim.rushed_network import RushedNetworkSimulation
from repro.sim.slotted import SlottedNetworkSimulation
from repro.topology.array_mesh import ArrayMesh
from repro.topology.torus import Torus

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


def _event_cell(n, *, seed=3, uncached=False, **kwargs):
    """The event engine on the n x n cell; ``uncached=True`` hands it the
    per-packet :class:`SampledPathInterner` instead of a path cache."""
    mesh = ArrayMesh(n)
    router = GreedyArrayRouter(mesh)
    if uncached:
        kwargs["path_cache"] = SampledPathInterner(router)
    return NetworkSimulation(
        router,
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
    sim = _event_cell(8, uncached=True)
    res = best_of(sim.run, WARMUP, HORIZON)
    _record(benchmark, res, PRE_PR_EVENT[8])
    assert res.generated > 2000


def test_event_8x8_geometric(best_of, benchmark):
    """Non-uniform destinations: the distance-biased ``geometric`` law."""
    spec = CellSpec(scenario="geometric", n=8, rho=RHO)
    node_rate, _ = resolve_cell(spec)
    net = build_network("geometric", 8)
    sim = NetworkSimulation(net.router, net.destinations, node_rate, seed=3)
    res = best_of(sim.run, WARMUP, HORIZON)
    dt = benchmark.stats.stats.min
    benchmark.extra_info["packets_per_second"] = round(res.generated / dt)
    assert res.generated > 2000
    assert res.littles_law_gap < 0.15


def test_event_8x8_torus(best_of, benchmark):
    """The merge loop on cyclic routes: the 8x8 greedy torus at the mesh
    cell's node rate, after the level path's cycle check gives up."""
    torus = Torus(8)
    sim = NetworkSimulation(
        GreedyTorusRouter(torus),
        UniformDestinations(torus.num_nodes),
        lambda_for_load(8, RHO, "table1"),
        seed=3,
    )
    res = best_of(sim.run, WARMUP, HORIZON)
    dt = benchmark.stats.stats.min
    benchmark.extra_info["packets_per_second"] = round(res.generated / dt)
    assert res.generated > 2000
    assert res.littles_law_gap < 0.15


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
    sim = _event_cell(32, uncached=True)
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
        uncached = _event_cell(32, uncached=True)
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
    """The rushed engine (Theorem 10 copies): the block-streamed
    closed-form FIFO solve over directly routed packets."""
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
    (counted where the numpy kernels route their packets)."""
    from repro.sim.kernels import numpy_backend

    visits = []
    route = numpy_backend.route_packets

    def counting_route(*route_args):
        out = route(*route_args)
        visits.append(out[0].size)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(numpy_backend, "route_packets", counting_route)
        tracemalloc.start()
        try:
            run(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak / sum(visits)


def test_event_32x32_numpy_warm(best_of, benchmark, monkeypatch):
    """The PR-6 vectorized kernel on the acceptance cell (32x32 uniform
    deterministic, warm kernel level memo), against the python kernel
    on a warm shared cache — the configuration of
    ``test_event_32x32_cached_warm``. The interleaved reference timing
    pins the backend-vs-backend ratio within one process, immune to
    cross-run machine drift."""
    mesh_router = GreedyArrayRouter(ArrayMesh(32))
    cache = path_cache_for(mesh_router)
    dests = UniformDestinations(1024)
    lam = lambda_for_load(32, RHO, "table1")
    NetworkSimulation(
        mesh_router, dests, lam, seed=3, path_cache=cache, backend="numpy"
    ).run(WARMUP, HORIZON)  # warm the kernel level cache
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


def test_event_32x32_numpy_cold(best_of, benchmark):
    """The numpy kernel on the acceptance cell with a fresh path cache
    every round, so each round also assigns the edge levels from
    scratch (a warm cache only revalidates its memo)."""
    mesh_router = GreedyArrayRouter(ArrayMesh(32))
    dests = UniformDestinations(1024)
    lam = lambda_for_load(32, RHO, "table1")

    def cold_run():
        cache = path_cache_for(mesh_router)
        return NetworkSimulation(
            mesh_router, dests, lam, seed=3, path_cache=cache, backend="numpy"
        ).run(WARMUP, HORIZON)

    res = best_of(cold_run)
    _record(benchmark, res, PRE_PR_EVENT[32])
    assert res.generated > 10_000
    assert res.littles_law_gap < 0.1


def test_slotted_32x32_numpy_warm(best_of, benchmark):
    """The vectorized slot kernel on the 32x32 acceptance cell, against
    the python kernel on a warm shared cache."""
    mesh_router = GreedyArrayRouter(ArrayMesh(32))
    cache = path_cache_for(mesh_router)
    dests = UniformDestinations(1024)
    lam = lambda_for_load(32, RHO, "table1")
    SlottedNetworkSimulation(
        mesh_router, dests, lam, seed=4, path_cache=cache, backend="numpy"
    ).run(int(WARMUP), int(HORIZON))  # warm the kernel level cache
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
    """The finite-buffer engine with infinite buffers on numpy
    (buffer_size=None, which runs the plain FIFO whole-trajectory
    solve); ``test_finite_16x16_capped_numpy`` times tail-drop
    admission. Capped python-backend runs (the fifo loops with tail-drop
    admission) are timed through ``test_replication_finite_cell`` in the
    replication suite."""
    from repro.sim.finite_buffer import FiniteBufferNetworkSimulation

    mesh_router = GreedyArrayRouter(ArrayMesh(32))
    cache = path_cache_for(mesh_router)
    dests = UniformDestinations(1024)
    lam = lambda_for_load(32, RHO, "table1")
    FiniteBufferNetworkSimulation(
        mesh_router, dests, lam, seed=3, path_cache=cache, backend="numpy"
    ).run(WARMUP, HORIZON)  # warm the kernel level cache
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
    """The python slot kernel (blocked Poisson counts, batched ids,
    per-packet path lookups)."""
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


def test_slotted_8x8_cold(best_of, benchmark):
    """The python slot kernel on a fresh path cache every round. Each
    packet probes the table for its pair, and a miss builds that one
    path with ``PathCache.ensure``, so misses fill pair by pair."""
    res = best_of(lambda: _slotted_cell(8).run(int(WARMUP), int(HORIZON)))
    _record(benchmark, res, PRE_PR_SLOTTED[8])
    assert res.generated > 2000


def _numpy_vs_python(benchmark, best_of, build):
    """Time ``build(backend).run`` on numpy (best of 3) after one warming
    run, record packets/s and the ratio to the python loops on the
    identical warm cell; returns the numpy result and that ratio."""
    build("numpy").run(WARMUP, HORIZON)  # warm the kernel level cache
    t_python = _best_seconds(build("python").run, WARMUP, HORIZON)
    res = best_of(build("numpy").run, WARMUP, HORIZON)
    dt = benchmark.stats.stats.min
    ratio = t_python / dt
    benchmark.extra_info["packets_per_second"] = round(res.generated / dt)
    benchmark.extra_info["speedup_vs_python_backend"] = round(ratio, 3)
    return res, ratio


def test_finite_16x16_capped_numpy(best_of, benchmark):
    """Tail-drop admission on the numpy kernel: 16x16 uniform at
    rho = 0.9 with buffer_size=2."""
    from repro.sim.finite_buffer import FiniteBufferNetworkSimulation

    router = GreedyArrayRouter(ArrayMesh(16))
    cache = path_cache_for(router)
    dests = UniformDestinations(256)
    lam = lambda_for_load(16, 0.9)

    def build(backend):
        return FiniteBufferNetworkSimulation(
            router, dests, lam, buffer_size=2, seed=3, path_cache=cache,
            backend=backend,
        )

    res, ratio = _numpy_vs_python(benchmark, best_of, build)
    assert res.dropped > 0
    assert res.completed + res.dropped == res.generated
    assert ratio > 1.5  # soft floor


def test_event_16x16_per_edge_numpy(best_of, benchmark):
    """Per-edge deterministic service on the numpy kernel: Theorem 15's
    optimal rates on the 16x16 mesh at 70% of the standard capacity
    (the python reference runs its heap loop here)."""
    mesh = ArrayMesh(16)
    router = GreedyArrayRouter(mesh)
    cache = path_cache_for(router)
    dests = UniformDestinations(256)
    lam = 0.7 * standard_capacity(16)
    phis = optimal_service_rates(array_edge_rates(mesh, lam), 1.0, 4.0 * 16 * 15)

    def build(backend):
        return NetworkSimulation(
            router, dests, lam, service_rates=phis, seed=3,
            path_cache=cache, backend=backend,
        )

    res, ratio = _numpy_vs_python(benchmark, best_of, build)
    assert res.generated > 3000
    assert res.littles_law_gap < 0.1
    assert ratio > 2.0  # soft floor
