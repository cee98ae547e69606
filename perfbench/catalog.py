"""The benchmark's metric catalog.

Every metric the runner prints is declared here, with its unit and the
direction that is better. Each per-layer metric also records, before
anything is measured, which end-to-end metric on which workload it
should move (``moves``) and the workloads where it should stay at or
near zero (``zero_on``). ``BENCHMARK.json`` lists the same names; a test
keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

REPORT, SWEEP, MESH32, VALIDATE = "report", "sweep", "mesh32", "validate"
WORKLOADS = (REPORT, SWEEP, MESH32, VALIDATE)

#: Why each workload is in the benchmark (one line each).
WHY = {
    REPORT: "the quick paper report, serial: hand-built simulators, python "
    "kernels and the core bounds; never touches the pool or shared memory",
    SWEEP: "a resumable 26-cell mixed sweep on 2 workers: scenario "
    "calibration, shared-memory publish, pool dispatch and checkpoints",
    MESH32: "32x32 mesh cells past the precompute limit: numpy kernels, lazy "
    "path caches, the deep event queue, with python fifo as reference",
    VALIDATE: "the quick validation gate: many one-cell runs on tiny "
    "networks, dominated by fixed per-call cost rather than throughput",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str = ""
    zero_on: tuple[str, ...] = ()


#: End-to-end metrics, measured with tracing off. ``error_rate`` is printed
#: by the all-workload summary but is not a bounded metric: it is 0 on a
#: clean tree, so the result line carries it as ``attempted``/``failed``.
END_TO_END = (
    Metric("wall_s", "s", "lower"),
    Metric("setup_s", "s", "lower"),
    Metric("cpu_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)

#: The simulated report sections, by experiment module.
SECTIONS = (
    "table1",
    "table3",
    "bounds_sweep",
    "optimal_config",
    "hypercube_bounds",
    "dominance",
    "randomized_greedy",
    "higher_dims",
    "torus",
    "scenario_sweep",
    "finite_buffer",
)

#: Engine classes by module; engines whose service law varies get a law
#: segment in their metric names.
ENGINE_MODULES = (
    ("fifo_network", "NetworkSimulation"),
    ("finite_buffer", "FiniteBufferNetworkSimulation"),
    ("slotted", "SlottedNetworkSimulation"),
    ("rushed_network", "RushedNetworkSimulation"),
    ("ps_network", "PSNetworkSimulation"),
)
LAW_ENGINES = ("fifo_network", "finite_buffer")

#: ``sim.<engine>.<backend>[.<law>]`` groups the workloads can reach (the
#: numpy kernels only run uniform deterministic service).
ENGINE_GROUPS = (
    "sim.fifo_network.python.deterministic",
    "sim.fifo_network.python.exponential",
    "sim.fifo_network.numpy.deterministic",
    "sim.finite_buffer.python.deterministic",
    "sim.finite_buffer.python.exponential",
    "sim.finite_buffer.numpy.deterministic",
    "sim.slotted.python",
    "sim.slotted.numpy",
    "sim.rushed_network.python",
    "sim.ps_network.python",
)

#: The quick-tier validation (check, backend) pairs.
VALIDATION_PAIRS = (
    ("jackson-mesh", "python"),
    ("littles-law-fifo", "python"),
    ("littles-law-fifo", "numpy"),
    ("littles-law-ps", "python"),
    ("littles-law-slotted", "python"),
    ("littles-law-slotted", "numpy"),
    ("md1-delay-fifo", "python"),
    ("md1-delay-fifo", "numpy"),
    ("md1-delay-finite", "python"),
    ("md1-delay-finite", "numpy"),
    ("md1-delay-slotted", "python"),
    ("md1-delay-slotted", "numpy"),
    ("mm1-delay", "python"),
    ("mm1k-loss", "python"),
    ("productform-ps", "python"),
    ("rushed-number", "python"),
)

_S, _N, _B = "s", "count", "bytes"
_POOL_ZERO = (REPORT, MESH32, VALIDATE)


def _sim_metrics() -> list[Metric]:
    out = []
    for group in ENGINE_GROUPS:
        if ".numpy" in group or ".exponential" in group:
            moves, zero = "wall_s on mesh32", (REPORT,)
        elif group.startswith("sim.fifo_network.python"):
            moves, zero = "wall_s on report and validate", ()
        else:
            moves, zero = "wall_s on report and sweep", (MESH32,)
        out += [
            Metric(f"{group}.init_s", _S, "lower", moves, zero),
            Metric(f"{group}.run_s", _S, "lower", moves, zero),
            Metric(f"{group}.runs", _N, "higher", moves, zero),
            Metric(f"{group}.packets", _N, "higher", moves, zero),
        ]
    return out


def per_layer() -> list[Metric]:
    """Every per-layer metric of the traced run, in output order."""
    report_only = (SWEEP, MESH32, VALIDATE)
    metrics = [
        Metric(f"experiments.{s}.run_s", _S, "lower", "wall_s on report", report_only)
        for s in SECTIONS
    ]
    metrics += [
        Metric("core.bound_summary.s", _S, "lower", "wall_s on report", (SWEEP, MESH32)),
        Metric("core.generic_bounds.s", _S, "lower", "wall_s on report", (SWEEP, MESH32)),
        Metric("scenarios.resolve_cell.s", _S, "lower", "wall_s and setup_s on sweep"),
        Metric("scenarios.resolve_cell.calls", _N, "lower", "wall_s and setup_s on sweep"),
        Metric("scenarios.build_network.s", _S, "lower", "wall_s and setup_s on sweep"),
        Metric("routing.pathcache.pairs", _N, "lower",
               "wall_s and peak_rss_mb on mesh32, wall_s on sweep"),
        Metric("routing.pathcache.arena_edges", _N, "lower",
               "wall_s and peak_rss_mb on mesh32, wall_s on sweep"),
        Metric("routing.pathcache.warm_s", _S, "lower", "wall_s on sweep", _POOL_ZERO),
    ]
    metrics += _sim_metrics()
    metrics += [
        Metric("sim.fifo_network.numpy.first_run_s", _S, "lower", "wall_s on mesh32",
               (REPORT, SWEEP)),
        Metric("sim.fifo_network.numpy.warm_run_s", _S, "lower", "wall_s on mesh32",
               (REPORT, SWEEP)),
        # Base: python-backend seconds per packet on the fifo deterministic
        # cells over numpy-backend seconds per packet on the same cells.
        Metric("sim.numpy_vs_python", "ratio", "higher", "wall_s on mesh32",
               (REPORT, SWEEP)),
        Metric("sim.rng.draw_calls", _N, "lower", "wall_s on every workload"),
        Metric("sim.rng.values", _N, "lower", "wall_s on every workload"),
    ]
    pool = "wall_s, cpu_s and peak_rss_mb on sweep"
    metrics += [
        Metric("sim.sharedcells.publish_s", _S, "lower", pool, _POOL_ZERO),
        Metric("sim.sharedcells.publish_bytes", _B, "lower", pool, _POOL_ZERO),
        Metric("sim.sharedcells.batches", _N, "lower", pool, _POOL_ZERO),
        Metric("util.workerpool.start_s", _S, "lower", "setup_s on sweep", _POOL_ZERO),
        Metric("util.workerpool.chunks", _N, "lower", pool, _POOL_ZERO),
        Metric("util.workerpool.busy_s", _S, "lower", pool, _POOL_ZERO),
        Metric("util.workerpool.idle_frac", "fraction", "lower", pool, _POOL_ZERO),
        Metric("sim.replication.run_many.self_s", _S, "lower", pool),
        Metric("sim.replication.run_many.wait_s", _S, "lower", pool, _POOL_ZERO),
        Metric("sim.replication.run_many.calls", _N, "lower", pool),
        Metric("experiments.sweeps.run_sweep.self_s", _S, "lower", "wall_s on sweep",
               _POOL_ZERO),
        Metric("experiments.sweeps.resume_s", _S, "lower", "wall_s on sweep", _POOL_ZERO),
        Metric("experiments.sweeps.checkpoint_bytes", _B, "lower", "wall_s on sweep",
               _POOL_ZERO),
    ]
    metrics += [
        Metric(f"validation.{check}.{backend}.run_s", _S, "lower", "wall_s on validate",
               (REPORT, SWEEP, MESH32))
        for check, backend in VALIDATION_PAIRS
    ]
    metrics.append(
        Metric("trace.overhead_s", _S, "lower", "traced minus untraced wall_s")
    )
    return metrics
