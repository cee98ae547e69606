"""Regenerate the golden engine-result fixtures.

The fixtures pin *bit-exact* same-seed outputs of both simulation engines
on a spread of workloads (uniform, hotspot, randomized, permutation,
distance-biased, torus). They are the regression contract for every
hot-path optimisation: a refactor that changes the RNG draw order, the
event ordering, or even the floating-point accumulation order of either
engine will change at least one of these numbers and fail the golden test.

Floats are stored as ``float.hex()`` strings so JSON round-trips cannot
smuggle in a ulp of drift.

A second fixture, ``validation_quick.json``, pins the quick validation
tier's scored rows ``(check, backend, metric, observed, expected,
statistic)`` the same way, so a change to how the validation gate runs
its cells (not just to the engines) must leave every score unchanged.

Run from the repo root (only when an *intentional*, documented behaviour
change requires re-pinning)::

    PYTHONPATH=src python tests/golden/regen.py

``--drift`` writes nothing: it re-runs every cell and validation row and
prints each field that differs from the committed fixtures, with the old
and new values and the relative change — the table a re-pin documents::

    PYTHONPATH=src python tests/golden/regen.py --drift
"""

from __future__ import annotations

import json
import math
import os
import sys

from repro.routing.destinations import (
    GeometricStopDestinations,
    HotSpotDestinations,
    PermutationDestinations,
    UniformDestinations,
)
from repro.routing.greedy import GreedyArrayRouter
from repro.routing.randomized_greedy import RandomizedGreedyArrayRouter
from repro.routing.torus_greedy import GreedyTorusRouter
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.finite_buffer import FiniteBufferNetworkSimulation
from repro.sim.kernels import NUMPY_BACKEND, PYTHON_BACKEND
from repro.sim.ps_network import PSNetworkSimulation
from repro.sim.rushed_network import RushedNetworkSimulation
from repro.sim.slotted import SlottedNetworkSimulation
from repro.topology.array_mesh import ArrayMesh
from repro.topology.torus import Torus

OUT = os.path.join(os.path.dirname(__file__), "engine_results.json")
VALIDATION_OUT = os.path.join(os.path.dirname(__file__), "validation_quick.json")

FLOAT_FIELDS = (
    "mean_number",
    "mean_remaining",
    "mean_remaining_saturated",
    "mean_delay",
    "delay_half_width",
    "mean_delay_littles",
    "total_rate",
    "max_delay",
)
INT_FIELDS = (
    "generated",
    "completed",
    "zero_hop",
    "in_flight_at_end",
    "max_queue_length",
)


def _hex(v: float) -> str:
    return "nan" if math.isnan(v) else float(v).hex()


def _encode(res) -> dict:
    out: dict = {}
    for f in INT_FIELDS:
        out[f] = int(getattr(res, f))
    for f in FLOAT_FIELDS:
        out[f] = _hex(float(getattr(res, f)))
    if res.utilization is not None:
        # The full per-edge vector is pinned through an exact checksum
        # (same accumulation order as np.sum every run) plus the peak.
        out["utilization_sum"] = _hex(float(res.utilization.sum()))
        out["utilization_max"] = _hex(float(res.utilization.max()))
    if res.node_drops is not None:
        # Finite-buffer cells: pin the total drop count and the per-node
        # vector through exact integer checksums. node_drops is None for
        # every infinite-buffer engine (including finite with
        # buffer_size=None), so these keys never appear on — and never
        # perturb — the other cells.
        out["dropped"] = int(res.dropped)
        out["node_drops_sum"] = int(res.node_drops.sum())
        out["node_drops_max"] = int(res.node_drops.max())
    if res.number_distribution is not None:
        # Cells tracking N's time-weighted distribution: pin its support
        # and two exact checksums (total mass and first moment, summed in
        # ascending-k order). Absent on every cell that does not track
        # it, so those cells' recorded fields are unchanged.
        dist = res.number_distribution
        ks = sorted(dist)
        out["number_dist_len"] = len(ks)
        out["number_dist_max_n"] = int(ks[-1])
        out["number_dist_mass"] = _hex(sum(dist[k] for k in ks))
        out["number_dist_mean"] = _hex(sum(k * dist[k] for k in ks))
    if res.delays is not None:
        # Cells collecting raw delays: pin the count and an exact
        # checksum (np.sum over the completion-order array). Absent on
        # every cell that does not collect them.
        out["delays_len"] = len(res.delays)
        out["delays_sum"] = _hex(float(res.delays.sum()))
    return out


def sat_mask(num_edges: int):
    """Deterministic saturated-edge mask used by the sat golden cells."""
    import numpy as np

    return np.arange(num_edges) % 3 == 0


def per_edge_rates(num_edges: int):
    """Deterministic non-uniform service rates (forces the heap loop)."""
    import numpy as np

    return 1.0 + 0.5 * (np.arange(num_edges) % 4 == 0)


def _mesh_net(n: int, dests, **kw) -> NetworkSimulation:
    mesh = ArrayMesh(n)
    return NetworkSimulation(GreedyArrayRouter(mesh), dests(mesh), **kw)


def _capture(cases: dict, name: str, thunk):
    """Run one cell, optionally recording its RNG draw-stream trace.

    With ``REPRO_RNGSAN_DIR`` set, the cell runs under the rngsan tracer
    and its draw stream lands in ``<dir>/<name>.trace`` — so a golden
    mismatch can be localized to the first divergent draw with
    ``python -m repro.analysis.rngsan diff``. Tracing wraps the RNG but
    never changes its stream, so the encoded results are identical
    either way.
    """
    trace_dir = os.environ.get("REPRO_RNGSAN_DIR")
    if trace_dir:
        from repro.analysis import rngsan

        with rngsan.trace(cell=name) as tracer:
            res = thunk()
        tracer.to_trace().save(os.path.join(trace_dir, f"{name}.trace"))
    else:
        res = thunk()
    cases[name] = _encode(res)


def build_cases() -> dict:
    """Every golden cell: name -> (constructor, run) description + result."""
    cases = {}

    def event(name, router, dests, rate, seed, *, service="deterministic",
              warmup=15.0, horizon=150.0, track_maxima=False,
              saturated_mask=None, service_rates=1.0,
              track_utilization=False, track_number_distribution=False,
              collect_delays=False, backend=PYTHON_BACKEND):
        def run():
            sim = NetworkSimulation(
                router, dests, rate, service=service, seed=seed,
                saturated_mask=saturated_mask, service_rates=service_rates,
                backend=backend,
            )
            return sim.run(
                warmup, horizon, track_maxima=track_maxima,
                track_utilization=track_utilization,
                track_number_distribution=track_number_distribution,
                collect_delays=collect_delays,
            )
        _capture(cases, name, run)

    def slotted(name, router, dests, rate, seed, *, warmup_slots=10,
                horizon_slots=150, tau=1.0, saturated_mask=None,
                track_maxima=False, collect_delays=False,
                backend=PYTHON_BACKEND):
        _capture(cases, name, lambda: SlottedNetworkSimulation(
            router, dests, rate, tau=tau, seed=seed,
            saturated_mask=saturated_mask, backend=backend,
        ).run(warmup_slots, horizon_slots, track_maxima=track_maxima,
              collect_delays=collect_delays))

    m5 = ArrayMesh(5)
    m4 = ArrayMesh(4)
    t5 = Torus(5)

    event("event_uniform_det", GreedyArrayRouter(m5),
          UniformDestinations(25), 0.12, 7, track_maxima=True)
    event("event_uniform_exp", GreedyArrayRouter(m5),
          UniformDestinations(25), 0.10, 8, service="exponential")
    event("event_hotspot", GreedyArrayRouter(m5),
          HotSpotDestinations(25, hot_node=12, h=0.3), 0.08, 9,
          track_maxima=True)
    event("event_randomized", RandomizedGreedyArrayRouter(m5),
          UniformDestinations(25), 0.10, 10)
    event("event_torus", GreedyTorusRouter(t5),
          UniformDestinations(25), 0.15, 11)
    event("event_transpose", GreedyArrayRouter(m4),
          PermutationDestinations.transpose(m4), 0.10, 13)
    event("event_geometric", GreedyArrayRouter(m4),
          GeometricStopDestinations(m4, stop=0.5), 0.20, 16)
    # A plain run on fast ids (uniform sources and destinations): the
    # python kernel's level path on the interleaved id-pair blocks. The
    # maxima of event_uniform_det keep that cell on the heap loop.
    event("event_uniform_plain", GreedyArrayRouter(m5),
          UniformDestinations(25), 0.12, 7)

    # The slotted cells cover the kernel's draw shapes: fast-id pairs,
    # an RNG-free permutation law, data-dependent laws (hot-spot,
    # geometric) and the RNG-consuming randomized cache.
    slotted("slotted_uniform", GreedyArrayRouter(m5),
            UniformDestinations(25), 0.10, 11)
    slotted("slotted_hotspot", GreedyArrayRouter(m5),
            HotSpotDestinations(25, hot_node=12, h=0.3), 0.07, 12)
    slotted("slotted_transpose", GreedyArrayRouter(m4),
            PermutationDestinations.transpose(m4), 0.10, 14)
    slotted("slotted_geometric", GreedyArrayRouter(m4),
            GeometricStopDestinations(m4, stop=0.5), 0.15, 15)
    slotted("slotted_randomized", RandomizedGreedyArrayRouter(m5),
            UniformDestinations(25), 0.09, 17)

    # The PR-3-ported engines: rushed (Theorem 10 copies) on both of its
    # loops — monotone merge (uniform service) and the event queue
    # (per-edge service) — and PS on uniform plus a data-dependent law.
    def rushed(name, router, dests, rate, seed, *, warmup=15.0,
               horizon=150.0, service_rates=1.0, saturated_mask=None,
               track_maxima=False):
        _capture(cases, name, lambda: RushedNetworkSimulation(
            router, dests, rate, seed=seed, service_rates=service_rates,
            saturated_mask=saturated_mask,
        ).run(warmup, horizon, track_maxima=track_maxima))

    def ps(name, router, dests, rate, seed, *, warmup=15.0, horizon=150.0,
           service_rates=1.0, track_number_distribution=False):
        _capture(cases, name, lambda: PSNetworkSimulation(
            router, dests, rate, seed=seed, service_rates=service_rates,
        ).run(warmup, horizon,
              track_number_distribution=track_number_distribution))

    rushed("rushed_uniform", GreedyArrayRouter(m5),
           UniformDestinations(25), 0.10, 23)
    rushed("rushed_peredge_service", GreedyArrayRouter(m5),
           UniformDestinations(25), 0.10, 24,
           service_rates=per_edge_rates(m5.num_edges))
    rushed("rushed_hotspot", GreedyArrayRouter(m5),
           HotSpotDestinations(25, hot_node=12, h=0.3), 0.07, 25)
    # The capability-parity options the registry flags now advertise:
    # saturated-copy tracking and per-packet maxima. Same constructor
    # args as rushed_uniform, so the option-off fields must match it
    # (asserted by test_rushed_options_leave_base_stats_unchanged).
    rushed("rushed_sat_maxima", GreedyArrayRouter(m5),
           UniformDestinations(25), 0.10, 23,
           saturated_mask=sat_mask(m5.num_edges), track_maxima=True)
    ps("ps_uniform", GreedyArrayRouter(m4),
       UniformDestinations(16), 0.12, 26)
    ps("ps_hotspot", GreedyArrayRouter(m4),
       HotSpotDestinations(16, hot_node=5, h=0.3), 0.10, 27)
    # A loaded PS cell: at node rate 0.8 the busiest edges run at load
    # 0.8, so queues regularly hold several customers sharing the server
    # (the two cells above rarely see two). Per-edge service rates and
    # the N-distribution exercise the remaining PS options.
    ps("ps_loaded_peredge", GreedyArrayRouter(m4),
       UniformDestinations(16), 0.8, 28,
       service_rates=per_edge_rates(m4.num_edges),
       track_number_distribution=True)

    # The finite-buffer loss engine. The finite_none_* cells use the
    # exact constructor args of their event_* twins, pinning the
    # buffer_size=None contract: bit-identical to the FIFO engine
    # (asserted by test_finite_none_cells_match_fifo_cells). The K cells
    # pin nonzero drop counts on both loops (merge + event queue) and
    # both uniform and data-dependent laws.
    def finite(name, router, dests, rate, seed, *, buffer_size,
               service="deterministic", service_rates=1.0, warmup=15.0,
               horizon=150.0, track_maxima=False, saturated_mask=None,
               backend=PYTHON_BACKEND):
        _capture(cases, name, lambda: FiniteBufferNetworkSimulation(
            router, dests, rate, seed=seed, buffer_size=buffer_size,
            service=service, service_rates=service_rates,
            saturated_mask=saturated_mask, backend=backend,
        ).run(warmup, horizon, track_maxima=track_maxima))

    e5 = m5.num_edges
    finite("finite_none_uniform", GreedyArrayRouter(m5),
           UniformDestinations(25), 0.12, 7, buffer_size=None,
           track_maxima=True)
    finite("finite_none_exp", GreedyArrayRouter(m5),
           UniformDestinations(25), 0.10, 8, buffer_size=None,
           service="exponential")
    finite("finite_uniform_k0", GreedyArrayRouter(m5),
           UniformDestinations(25), 0.12, 7, buffer_size=0,
           track_maxima=True)
    finite("finite_hotspot_k1", GreedyArrayRouter(m5),
           HotSpotDestinations(25, hot_node=12, h=0.3), 0.15, 9,
           buffer_size=1)
    finite("finite_peredge_k1", GreedyArrayRouter(m5),
           UniformDestinations(25), 0.12, 19, buffer_size=1,
           service_rates=per_edge_rates(e5))
    finite("finite_sat_k1", GreedyArrayRouter(m5),
           UniformDestinations(25), 0.12, 18, buffer_size=1,
           saturated_mask=sat_mask(e5))

    # Cells reached through the declarative facade (CellSpec -> engine
    # registry -> ReplicationEngine). api_rushed_uniform / api_ps_hotspot
    # use the exact constructor arguments of rushed_uniform / ps_hotspot,
    # so the facade path is pinned to be bit-identical to the direct
    # path (asserted by test_api_cells_match_direct_cells); the slotted
    # API cell additionally pins an engine_params knob (``backend``)
    # flowing through the registry.
    from repro.sim.replication import CellSpec, ReplicationEngine

    def api_cell(name, engine, *, scenario, n, node_rate, seed,
                 params=(), engine_params=(), warmup=15.0, horizon=150.0,
                 track_maxima=False):
        def run():
            spec = CellSpec(
                scenario=scenario, n=n, node_rate=node_rate, engine=engine,
                warmup=warmup, horizon=horizon, seeds=(seed,),
                params=params, engine_params=engine_params,
                track_maxima=track_maxima,
            )
            return ReplicationEngine(processes=1).run(spec).replications[0]
        _capture(cases, name, run)

    # The FIFO engine reached through the facade, pinned bit-identical
    # to the hand-built event_uniform_det cell (same constructor args).
    api_cell("api_fifo_uniform", "fifo", scenario="uniform", n=5,
             node_rate=0.12, seed=7, track_maxima=True)
    api_cell("api_rushed_uniform", "rushed", scenario="uniform", n=5,
             node_rate=0.10, seed=23)
    api_cell("api_ps_hotspot", "ps", scenario="hotspot", n=4,
             node_rate=0.10, seed=27,
             params=(("h", 0.3), ("hot_node", 5)))
    api_cell("api_slotted_uniform", "slotted", scenario="uniform",
             n=5, node_rate=0.10, seed=11, warmup=10.0,
             engine_params=(("backend", "python"),))
    # The finite engine reached through the facade, pinned bit-identical
    # to the hand-built finite_hotspot_k1 cell (same constructor args).
    api_cell("api_finite_hotspot_k1", "finite", scenario="hotspot", n=5,
             node_rate=0.15, seed=9,
             params=(("h", 0.3), ("hot_node", 12)),
             engine_params=(("buffer_size", 1),))

    # Bookkeeping branches the uniform cells never touch: saturated-mask
    # accounting, utilization accumulation (inlined at the heap loop's
    # three service starts), and per-edge deterministic service. Every
    # tracked run takes the heap loop, uniform service included.
    e5 = m5.num_edges
    event("event_sat_util", GreedyArrayRouter(m5),
          UniformDestinations(25), 0.12, 18,
          saturated_mask=sat_mask(e5), track_utilization=True,
          track_maxima=True)
    event("event_peredge_service", GreedyArrayRouter(m5),
          UniformDestinations(25), 0.12, 19,
          service_rates=per_edge_rates(e5))
    event("event_exp_util", GreedyArrayRouter(m5),
          UniformDestinations(25), 0.10, 20,
          service="exponential", track_utilization=True,
          saturated_mask=sat_mask(e5))
    # The dominance section's FIFO configuration: the N-distribution and
    # raw delay collection on the heap loop under uniform service.
    event("event_ndist_delays", GreedyArrayRouter(m5),
          UniformDestinations(25), 0.12, 29,
          track_number_distribution=True, collect_delays=True)
    slotted("slotted_sat", GreedyArrayRouter(m5),
            UniformDestinations(25), 0.10, 21,
            saturated_mask=sat_mask(e5))
    # Per-packet maxima on the slotted engine (the one capability the
    # registry advertises for it that no other cell exercised).
    slotted("slotted_maxima", GreedyArrayRouter(m5),
            UniformDestinations(25), 0.10, 22, track_maxima=True)

    # The vectorized kernels (backend="numpy"): their level sweep's
    # window sums, saturated-hop counts, per-edge service and
    # utilization, tail-drop retirement and slotted join keys, pinned
    # bit-exactly on loaded cells (distribution parity with the python
    # loops is pinned elsewhere; these pin the kernels against
    # themselves).
    m6 = ArrayMesh(6)
    e6 = m6.num_edges
    event("numpy_fifo_sat", GreedyArrayRouter(m6),
          UniformDestinations(36), 0.2, 41, horizon=400.0,
          saturated_mask=sat_mask(e6), backend=NUMPY_BACKEND)
    event("numpy_fifo_peredge_util", GreedyArrayRouter(m6),
          UniformDestinations(36), 0.15, 42, horizon=400.0,
          service_rates=per_edge_rates(e6), track_utilization=True,
          backend=NUMPY_BACKEND)
    finite("numpy_finite_sat_k1", GreedyArrayRouter(m6),
           HotSpotDestinations(36, hot_node=14, h=0.3), 0.2, 43,
           buffer_size=1, horizon=400.0, saturated_mask=sat_mask(e6),
           backend=NUMPY_BACKEND)
    slotted("numpy_slotted_sat_delays", GreedyArrayRouter(m6),
            UniformDestinations(36), 0.15, 44, horizon_slots=400,
            saturated_mask=sat_mask(e6), collect_delays=True,
            backend=NUMPY_BACKEND)
    return cases


def validation_rows(report) -> list[list]:
    """A validation report's scored rows, in report order, floats as hex."""
    return [
        [o.check, o.backend, c.metric,
         _hex(c.observed), _hex(c.expected), _hex(c.statistic)]
        for o in report.outcomes
        for c in o.comparisons
    ]


def _dump(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _value(v):
    """A fixture value as a number (floats are stored as hex strings)."""
    return float.fromhex(v) if isinstance(v, str) and v != "nan" else v


def _change(old, new) -> str:
    a, b = _value(old), _value(new)
    if not all(isinstance(x, (int, float)) for x in (a, b)):
        return "n/a"
    if a == 0:
        return "inf"
    return f"{abs(b - a) / abs(a):.2g}"


def drift_lines(cases: dict, rows: list[list]) -> list[str]:
    """``name.field: old -> new (relative change)`` for every fixture field
    whose fresh value differs from the committed one."""
    out = []
    with open(OUT) as fh:
        old_cases = json.load(fh)
    for name in sorted(set(old_cases) | set(cases)):
        old, new = old_cases.get(name, {}), cases.get(name, {})
        for field in sorted(set(old) | set(new)):
            a, b = old.get(field), new.get(field)
            if a != b:
                out.append(f"{name}.{field}: {a} -> {b} ({_change(a, b)})")
    with open(VALIDATION_OUT) as fh:
        old_rows = {tuple(r[:3]): r[3:] for r in json.load(fh)}
    new_rows = {tuple(r[:3]): r[3:] for r in rows}
    cols = ("observed", "expected", "statistic")
    for key in sorted(set(old_rows) | set(new_rows)):
        a_row = old_rows.get(key, [None] * 3)
        b_row = new_rows.get(key, [None] * 3)
        for col, a, b in zip(cols, a_row, b_row):
            if a != b:
                out.append(
                    f"{'/'.join(key)}.{col}: {a} -> {b} ({_change(a, b)})"
                )
    return out


if __name__ == "__main__":
    from repro.validation import run_validation

    cases = build_cases()
    if "--drift" in sys.argv[1:]:
        lines = drift_lines(cases, validation_rows(run_validation(processes=1)))
        print("\n".join(lines) if lines else "no drift")
        sys.exit(0)
    _dump(cases, OUT)
    print(f"wrote {len(cases)} golden cells to {OUT}")
    rows = validation_rows(run_validation(processes=1))
    _dump(rows, VALIDATION_OUT)
    print(f"wrote {len(rows)} quick-tier validation rows to {VALIDATION_OUT}")
