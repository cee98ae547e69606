"""A run's result depends on the run alone, never on the runs before it.

Every cell's seeds run four ways: all cells forward in one process, all
reversed in one process, each run in a fresh interpreter, and through a
2-worker ``run_many`` with the seeds reversed. Every field must be
byte-identical. In one process the runs share each scenario's network,
and so its router, across cells, engines and seeds
(:func:`repro.sim.sharedcells.cell_network`): anything a run left
behind on a router and a later run read would show up here.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.routing.destinations import HotSpotDestinations, UniformDestinations
from repro.routing.greedy import GreedyArrayRouter
from repro.sim import sharedcells
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.kernels import NUMPY_BACKEND
from repro.sim.replication import CellSpec, ReplicationEngine
from repro.topology.array_mesh import ArrayMesh

WINDOW = dict(warmup=10.0, horizon=100.0)
SHORT = dict(warmup=5.0, horizon=20.0)
HOT = dict(scenario="hotspot", n=6, params=(("h", 0.3), ("hot_node", 14)))
UNIFORM = dict(scenario="uniform", n=6)
NUMPY = ("backend", NUMPY_BACKEND)
SEEDS = (41, 42)

#: Short golden-style cells. Cells of one scenario share its router, and
#: a long run routes most pairs, so which cells run first changes what
#: the short cells find on their router.
CELLS = {
    "fifo-python-levels": CellSpec(**UNIFORM, node_rate=0.15, **WINDOW),
    "fifo-numpy-long": CellSpec(
        **HOT, node_rate=0.2, engine_params=(NUMPY,), warmup=10.0, horizon=400.0
    ),
    "fifo-numpy": CellSpec(**HOT, node_rate=0.2, engine_params=(NUMPY,), **SHORT),
    "finite-python": CellSpec(
        **HOT, node_rate=0.2, engine="finite",
        engine_params=(("buffer_size", 1),), **WINDOW,
    ),
    "finite-numpy": CellSpec(
        **HOT, node_rate=0.2, engine="finite",
        engine_params=(("buffer_size", 1), NUMPY), **SHORT,
    ),
    "slotted-numpy": CellSpec(
        **HOT, node_rate=0.15, engine="slotted", engine_params=(NUMPY,),
        **SHORT,
    ),
    "ps-levels": CellSpec(**HOT, node_rate=0.1, engine="ps", **WINDOW),
    # Exponential service: the level path, and the heap loop under caps.
    "fifo-exponential-levels": CellSpec(
        **HOT, node_rate=0.1, service="exponential", collect_delays=True, **WINDOW
    ),
    "finite-exponential": CellSpec(
        **HOT, node_rate=0.15, engine="finite", service="exponential",
        engine_params=(("buffer_size", 1),), **WINDOW,
    ),
}


def _encode(res):
    """Every field of a result, floats and arrays by their bytes, as
    JSON-ready lists."""
    out = []
    for field in dataclasses.fields(res):
        v = getattr(res, field.name)
        if isinstance(v, float):
            v = v.hex()
        elif isinstance(v, np.ndarray):
            v = [v.dtype.str, v.tobytes().hex()]
        elif isinstance(v, dict):
            v = [[k, float(x).hex()] for k, x in v.items()]
        out.append([field.name, v])
    return out


def _serial(order, seed_order):
    """``{(cell, seed): encoded}`` from one process, runs in this order,
    starting from an empty network memo."""
    sharedcells._NETWORK_MEMO.clear()
    engine = ReplicationEngine(processes=1)
    got = {}
    for name in order:
        spec = dataclasses.replace(CELLS[name], seeds=seed_order)
        for res in engine.run(spec).replications:
            got[name, res.seed] = _encode(res)
    return got


def run_one(name, seed):
    """One run of one cell, encoded (what the fresh interpreters print)."""
    spec = dataclasses.replace(CELLS[name], seeds=(seed,))
    (res,) = ReplicationEngine(processes=1).run(spec).replications
    return _encode(res)


@pytest.fixture(scope="module")
def forward():
    return _serial(list(CELLS), SEEDS)


def test_reversed_order_is_identical(forward):
    assert _serial(list(CELLS)[::-1], SEEDS[::-1]) == forward


def test_fresh_interpreters_are_identical(forward):
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, here)))
    for name in CELLS:
        for seed in SEEDS:
            proc = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "import json, sys, test_sim_history as t; "
                    "print(json.dumps(t.run_one(sys.argv[1], int(sys.argv[2]))))",
                    name,
                    str(seed),
                ],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout) == forward[name, seed], (name, seed)


def test_pool_with_reversed_seeds_is_identical(forward):
    specs = [dataclasses.replace(s, seeds=SEEDS[::-1]) for s in CELLS.values()]
    results = ReplicationEngine(processes=2).run_many(specs)
    got = {
        (name, res.seed): _encode(res)
        for name, cell in zip(CELLS, results)
        for res in cell.replications
    }
    assert got == forward


def test_numpy_run_after_a_long_run_on_its_router():
    """Short hotspot seeds on a 6x6 router that first served a long
    uniform run equal the same seeds on fresh routers."""
    mesh = ArrayMesh(6)
    shared = GreedyArrayRouter(mesh)
    NetworkSimulation(
        shared, UniformDestinations(36), 0.2, seed=1, backend=NUMPY_BACKEND
    ).run(10.0, 1000.0)
    hot = HotSpotDestinations(36, hot_node=14, h=0.3)
    for seed in range(20):
        used, fresh = (
            NetworkSimulation(
                router, hot, 0.2, seed=seed, backend=NUMPY_BACKEND
            ).run(5.0, 20.0)
            for router in (shared, GreedyArrayRouter(mesh))
        )
        assert _encode(used) == _encode(fresh), seed
