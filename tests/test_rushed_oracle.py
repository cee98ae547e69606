"""The rushed engine's closed-form solve against its former event loop.

:class:`~repro.sim.rushed_network.RushedNetworkSimulation` solves every
edge's FIFO queue of copies in closed form, a block of arrivals at a
time; ``tests/_rushed_oracle.py`` keeps the event loop it replaced. Both
draw the same arrivals, ids and paths, so on every cell below the
integer fields and ``max_delay`` agree exactly, and the float statistics
(which the closed form rounds differently) to 1e-12 relative.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from _rushed_oracle import reference_run
from repro.routing.destinations import UniformDestinations
from repro.routing.greedy import GreedyArrayRouter
from repro.scenarios import build_network, resolve_cell
from repro.sim.replication import CellSpec
from repro.sim.rushed_network import RushedNetworkSimulation
from repro.topology.array_mesh import ArrayMesh

INT_FIELDS = (
    "generated",
    "completed",
    "zero_hop",
    "in_flight_at_end",
    "max_queue_length",
)
FLOAT_FIELDS = (
    "mean_number",
    "mean_remaining",
    "mean_remaining_saturated",
    "mean_delay",
    "delay_half_width",
    "mean_delay_littles",
)
RTOL = 1e-12


def _scenario(name, params=(), *, n=4, rho=0.6, seed=1, saturated=False):
    spec = CellSpec(scenario=name, n=n, rho=rho, params=params,
                    engine="rushed", track_saturated=saturated)
    node_rate, mask = resolve_cell(spec)
    net = build_network(name, n, **spec.params_dict)
    return RushedNetworkSimulation(
        net.router, net.destinations, node_rate,
        source_nodes=net.source_nodes, saturated_mask=mask, seed=seed,
    )


def _mesh(rate, **kw):
    mesh = ArrayMesh(4)
    return RushedNetworkSimulation(
        GreedyArrayRouter(mesh), UniformDestinations(16), rate, **kw
    )


_PER_EDGE = 1.0 + 0.5 * (np.arange(ArrayMesh(4).num_edges) % 4 == 0)

#: name -> (simulation thunk, warmup, horizon)
CELLS = {
    "uniform": (lambda: _scenario("uniform"), 50.0, 800.0),
    "hotspot": (lambda: _scenario("hotspot", (("h", 0.25),), seed=2), 50.0, 800.0),
    "transpose": (lambda: _scenario("transpose", seed=3), 50.0, 800.0),
    "bitreversal": (lambda: _scenario("bitreversal", seed=4), 50.0, 800.0),
    "randomized": (lambda: _scenario("randomized", seed=5), 50.0, 800.0),
    "torus": (lambda: _scenario("torus", seed=6), 50.0, 800.0),
    "per-edge-service": (
        lambda: _mesh(0.2, service_rates=_PER_EDGE, seed=7), 50.0, 800.0
    ),
    "saturated": (
        lambda: _scenario("uniform", rho=0.8, seed=8, saturated=True), 50.0, 800.0
    ),
    "no-warmup": (lambda: _scenario("uniform", seed=9), 0.0, 800.0),
    # The window opens on a loaded network and closes before the next
    # arrival: the queues standing at the warmup set the longest queue.
    "short-window": (lambda: _scenario("uniform", rho=0.9, seed=11), 400.0, 0.01),
    # Over 16,384 arrivals: the per-edge carry crosses two block bounds.
    "three-blocks": (lambda: _scenario("uniform", seed=10), 200.0, 2500.0),
    # No packet is born before the horizon, so none is routed.
    "unrouted": (lambda: _mesh(1e-6, seed=2), 1.0, 2.0),
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_matches_event_loop(name):
    make, warmup, horizon = CELLS[name]
    got = make().run(warmup, horizon, track_maxima=True)
    want = reference_run(make(), warmup, horizon, track_maxima=True)
    for field in INT_FIELDS:
        assert getattr(got, field) == getattr(want, field), field
    assert got.max_delay == want.max_delay
    for field in FLOAT_FIELDS:
        g, w = getattr(got, field), getattr(want, field)
        assert type(g) is float, field
        assert g == pytest.approx(w, rel=RTOL, abs=0.0, nan_ok=True), field
    np.testing.assert_allclose(got.utilization, want.utilization, rtol=RTOL, atol=0)


def test_cells_cover_what_they_claim():
    runs = {name: make().run(w, h) for name, (make, w, h) in CELLS.items()}
    assert runs["three-blocks"].generated > 2 * 8192
    assert not math.isnan(runs["saturated"].mean_remaining_saturated)
    standing = CELLS["short-window"][0]().run(400.0, 0.01, track_maxima=True)
    assert standing.generated == 0 and standing.max_queue_length > 0
    empty = runs["unrouted"]
    assert empty.generated == empty.completed == empty.in_flight_at_end == 0
    assert math.isnan(empty.mean_delay) and empty.mean_number == 0.0
    for name, res in runs.items():
        if name not in ("unrouted", "short-window"):
            assert res.zero_hop < res.generated, name
