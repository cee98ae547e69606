"""Tracing is observational: same results, repeatable counts, clean undo."""

import pytest

from perfbench.tracing import ResultProbe, Tracer


def _cells():
    from repro.sim.replication import CellSpec

    window = dict(warmup=20.0, horizon=120.0, seeds=(0, 1))
    return [
        CellSpec(scenario="uniform", n=4, rho=0.6, **window),
        CellSpec(scenario="hotspot", n=4, rho=0.5, engine="finite",
                 engine_params=(("buffer_size", 2),), **window),
        CellSpec(scenario="uniform", n=4, rho=0.5, engine="slotted",
                 engine_params=(("backend", "numpy"),), **window),
    ]


def _run(processes):
    from repro.sim import sharedcells
    from repro.sim.replication import ReplicationEngine

    sharedcells._NETWORK_MEMO.clear()  # start cold, like a fresh interpreter
    results = ReplicationEngine(processes=processes).run_many(_cells())
    return [
        (r.mean_delay, r.mean_number, r.generated)
        for res in results
        for r in res.replications
    ]


def _traced(processes):
    from repro.util.workerpool import shutdown_pools

    tracer = Tracer().install()
    try:
        out = _run(processes)
    finally:
        tracer.uninstall()
        shutdown_pools()  # workers forked while traced must not outlive it
    return out, tracer.layer_metrics({})


@pytest.mark.parametrize("processes", [1, 2])
def test_traced_results_and_counts_repeat_exactly(processes):
    plain = _run(processes)
    first, layers1 = _traced(processes)
    second, layers2 = _traced(processes)
    assert first == plain and second == plain
    counted = [k for k in layers1 if k.startswith(("sim.rng.", "routing.pathcache."))
               and not k.endswith("_s")]
    assert counted and all(layers1[k] == layers2[k] for k in counted)
    assert layers1["sim.rng.draw_calls"] > 0
    assert layers1["sim.fifo_network.python.deterministic.runs"] == 2
    assert layers1["sim.finite_buffer.python.deterministic.runs"] == 2
    assert layers1["sim.slotted.numpy.packets"] > 0
    if processes == 2:
        assert layers1["util.workerpool.chunks"] > 0
        assert layers1["sim.sharedcells.batches"] == 1
        assert 0.0 <= layers1["util.workerpool.idle_frac"] < 1.0
    else:
        assert layers1["util.workerpool.chunks"] == 0
        assert layers1["sim.sharedcells.publish_s"] == 0.0


def test_probe_fingerprints_match_tracer():
    probe = ResultProbe().install()
    try:
        _run(1)
    finally:
        probe.uninstall()
    tracer = Tracer().install()
    try:
        _run(1)
    finally:
        tracer.uninstall()
    assert probe.fingerprints == tracer.fingerprints
    assert len(probe.fingerprints) == 6


def test_uninstall_restores_every_patched_attribute():
    from repro.core import lower_bounds
    from repro.experiments import bounds_sweep
    from repro.sim.fifo_network import NetworkSimulation
    from repro.sim.replication import ReplicationEngine

    before = (bounds_sweep.bound_summary, lower_bounds.bound_summary,
              NetworkSimulation.run, ReplicationEngine.run_many)
    tracer = Tracer().install()
    assert bounds_sweep.bound_summary is not before[0]
    tracer.uninstall()
    after = (bounds_sweep.bound_summary, lower_bounds.bound_summary,
             NetworkSimulation.run, ReplicationEngine.run_many)
    assert after == before
