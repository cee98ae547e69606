"""Tests for the finite-buffer loss engine.

Three contracts:

* **fifo identity** — ``buffer_size=None`` is a plain FIFO run
  (bit-identical; also pinned by the ``finite_none_*`` golden cells),
  and a buffer too large to ever fill runs the capped loops with the
  exact same draws, event order and float accumulation as the uncapped
  ones, under every tracked statistic;
* **drop accounting** — conservation (``completed + dropped ==
  generated``), warmup-boundary exclusion, per-node attribution, and
  the loss CI surfaced through ``ReplicationEngine``;
* **validation** — scalar vs per-node ``buffer_size`` errors at
  :class:`CellSpec` construction (registry-typed) and at engine
  construction (length checks).
"""

import math

import numpy as np
import pytest

from repro.routing.destinations import HotSpotDestinations, UniformDestinations
from repro.routing.greedy import GreedyArrayRouter
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.finite_buffer import (
    FiniteBufferNetworkSimulation,
    resolve_buffer_size,
)
from repro.sim.kernels import python_backend
from repro.sim.replication import CellSpec, ReplicationEngine
from repro.topology.array_mesh import ArrayMesh

HUGE = 10**9

FIELDS = (
    "generated", "completed", "zero_hop", "in_flight_at_end",
    "mean_number", "mean_remaining", "mean_delay", "delay_half_width",
    "mean_delay_littles", "max_delay", "max_queue_length",
    "mean_remaining_saturated",
)


def _same(a, b):
    for f in FIELDS:
        va, vb = getattr(a, f), getattr(b, f)
        assert va == vb or (
            isinstance(va, float) and math.isnan(va) and math.isnan(vb)
        ), f
    for f in ("delays", "utilization"):
        va, vb = getattr(a, f), getattr(b, f)
        assert (va is None) == (vb is None), f
        assert va is None or va.tolist() == vb.tolist(), f
    assert a.number_distribution == b.number_distribution


def _tracked_inputs(router):
    """``(constructor kwargs, run kwargs)`` covering every tracked branch
    of the heap loop: maxima, utilization plus the N distribution, and
    the saturated-edge count."""
    mask = np.arange(router.topology.num_edges) % 3 == 0
    return [
        ({}, {"track_maxima": True}),
        ({}, {"track_utilization": True, "track_number_distribution": True}),
        ({"saturated_mask": mask}, {}),
    ]


class TestFifoIdentity:
    def test_none_delegates_to_fifo(self, router4, uniform4):
        fifo = NetworkSimulation(router4, uniform4, 0.2, seed=3).run(
            10, 120, track_maxima=True, collect_delays=True
        )
        fin = FiniteBufferNetworkSimulation(
            router4, uniform4, 0.2, seed=3, buffer_size=None
        ).run(10, 120, track_maxima=True, collect_delays=True)
        _same(fifo, fin)
        assert fin.node_drops is None and fin.dropped == 0
        assert fin.loss_probability == 0.0

    def test_huge_buffer_runs_finite_loop_bit_identically(
        self, router4, uniform4
    ):
        """Under uniform service the capped heap loop performs the
        uncapped run's exact arithmetic when nothing drops (the admission
        test consumes no randomness), for every tracked statistic."""
        for sim_kw, run_kw in _tracked_inputs(router4):
            fifo = NetworkSimulation(
                router4, uniform4, 0.2, seed=3, **sim_kw
            ).run(10, 120, collect_delays=True, **run_kw)
            fin = FiniteBufferNetworkSimulation(
                router4, uniform4, 0.2, seed=3, buffer_size=HUGE, **sim_kw
            ).run(10, 120, collect_delays=True, **run_kw)
            _same(fifo, fin)
            assert fin.dropped == 0
            assert fin.node_drops.sum() == 0

    @pytest.mark.parametrize("service_kw", [
        {"service": "exponential"},
        {"service_rates": None},  # filled per-edge below
    ])
    def test_huge_buffer_event_queue_loop_bit_identical(
        self, router4, uniform4, service_kw
    ):
        """Same contract on the stochastic-service (event-queue) loop,
        against the uncapped heap loop (an uncapped exponential run
        otherwise takes the level path)."""
        kw = dict(service_kw)
        if kw.get("service_rates", 1.0) is None:
            kw["service_rates"] = 1.0 + 0.5 * (
                np.arange(router4.topology.num_edges) % 4 == 0
            )
        for sim_kw, run_kw in _tracked_inputs(router4):
            fifo = python_backend._run_events(
                NetworkSimulation(router4, uniform4, 0.2, seed=5, **kw, **sim_kw),
                10,
                120,
                collect_delays=True,
                **run_kw,
            )
            fin = FiniteBufferNetworkSimulation(
                router4, uniform4, 0.2, seed=5, buffer_size=HUGE, **kw,
                **sim_kw,
            ).run(10, 120, collect_delays=True, **run_kw)
            _same(fifo, fin)


class TestDropAccounting:
    def test_conservation_and_nonzero_loss(self, router4, uniform4):
        res = FiniteBufferNetworkSimulation(
            router4, uniform4, 0.25, seed=11, buffer_size=1
        ).run(20, 300)
        assert res.dropped > 0
        assert res.completed + res.dropped == res.generated
        assert res.node_drops.sum() == res.dropped
        assert 0.0 < res.loss_probability < 1.0

    def test_zero_buffer_is_pure_loss(self, router4, uniform4):
        """buffer_size=0: no waiting room at all — a packet that finds
        its next edge busy is dropped, so no queue ever forms."""
        res = FiniteBufferNetworkSimulation(
            router4, uniform4, 0.3, seed=13, buffer_size=0
        ).run(10, 200, track_maxima=True)
        assert res.dropped > 0
        assert res.completed + res.dropped == res.generated
        assert res.max_queue_length == 0
        # Survivors never wait: delay == hop count, bounded by the mesh
        # diameter.
        assert res.max_delay <= 2 * (4 - 1)

    def test_drops_before_warmup_do_not_count(self, router4, uniform4):
        """A buffer that is full (and dropping) across the warmup
        boundary contributes no phantom drops: only packets born in the
        window are counted, so conservation holds against the measured
        ``generated`` alone even under sustained overload."""
        res = FiniteBufferNetworkSimulation(
            router4, uniform4, 0.6, seed=17, buffer_size=0
        ).run(80, 40)
        # Overloaded from t=0: drops certainly happened before warmup.
        assert res.generated > 0 and res.dropped > 0
        assert res.completed + res.dropped == res.generated
        # And with a window starting at 0, strictly more drops are seen
        # on the same trajectory.
        full = FiniteBufferNetworkSimulation(
            router4, uniform4, 0.6, seed=17, buffer_size=0
        ).run(0, 120)
        assert full.dropped > res.dropped

    def test_per_node_buffers_attribute_drops(self, router4, uniform4):
        """Nodes with zero waiting room take every drop; roomy nodes
        take none."""
        n = router4.topology.num_nodes
        sizes = tuple(0 if v < n // 2 else HUGE for v in range(n))
        res = FiniteBufferNetworkSimulation(
            router4, uniform4, 0.3, seed=19, buffer_size=sizes
        ).run(10, 200)
        assert res.dropped > 0
        assert res.node_drops[: n // 2].sum() == res.dropped
        assert res.node_drops[n // 2:].sum() == 0

    def test_loss_decreases_with_buffer_size(self, router4, uniform4):
        losses = []
        for k in (0, 2, 8):
            res = FiniteBufferNetworkSimulation(
                router4, uniform4, 0.25, seed=23, buffer_size=k
            ).run(20, 400)
            losses.append(res.loss_probability)
        assert losses[0] > losses[1] > losses[2]

    def test_saturated_tracking_consistent_under_drops(
        self, router4, uniform4
    ):
        mask = np.arange(router4.topology.num_edges) % 3 == 0
        res = FiniteBufferNetworkSimulation(
            router4, uniform4, 0.3, seed=29, buffer_size=1,
            saturated_mask=mask,
        ).run(10, 200)
        assert res.dropped > 0
        assert 0.0 < res.mean_remaining_saturated < res.mean_remaining

    def test_replication_pools_loss_ci(self):
        spec = CellSpec(
            scenario="uniform", n=4, rho=0.9, engine="finite",
            warmup=20, horizon=300, seeds=(1, 2, 3),
            engine_params=(("buffer_size", 1),),
        )
        pooled = ReplicationEngine(processes=1).run(spec)
        assert pooled.dropped > 0
        assert 0.0 < pooled.loss_probability < 1.0
        assert np.isfinite(pooled.loss_half_width)
        assert pooled.loss_half_width > 0


class TestValidation:
    def test_scalar_validation_at_spec_construction(self):
        for bad in (-1, 2.5, True, "big", (1, -2), (0.5,), [1, 2]):
            with pytest.raises(ValueError):
                CellSpec(
                    rho=0.5, engine="finite",
                    engine_params=(("buffer_size", bad),),
                )

    def test_valid_specs_construct(self):
        CellSpec(rho=0.5, engine="finite")
        CellSpec(rho=0.5, engine="finite",
                 engine_params=(("buffer_size", None),))
        CellSpec(rho=0.5, engine="finite",
                 engine_params=(("buffer_size", 0),))
        CellSpec(rho=0.5, engine="finite",
                 engine_params=(("buffer_size", (1, 2, 3)),))

    def test_per_node_length_checked_at_engine_construction(
        self, router4, uniform4
    ):
        with pytest.raises(ValueError, match="16 entries"):
            FiniteBufferNetworkSimulation(
                router4, uniform4, 0.2, buffer_size=(1, 2, 3)
            )

    def test_resolver(self):
        assert resolve_buffer_size(None, 3) is None
        assert resolve_buffer_size(2, 3) == [2, 2, 2]
        assert resolve_buffer_size((0, 1, 2), 3) == [0, 1, 2]
        with pytest.raises(ValueError):
            resolve_buffer_size(-1, 3)
        with pytest.raises(ValueError):
            resolve_buffer_size(True, 3)
        with pytest.raises(ValueError):
            resolve_buffer_size((1, 2), 3)
        with pytest.raises(ValueError):
            resolve_buffer_size((1, 2, -3), 3)

    def test_exponential_service_supported_through_spec(self):
        spec = CellSpec(
            scenario="uniform", n=4, rho=0.6, engine="finite",
            service="exponential", warmup=10, horizon=150, seeds=(5,),
            engine_params=(("buffer_size", 2),),
        )
        res = ReplicationEngine(processes=1).run(spec).replications[0]
        assert res.completed + res.dropped == res.generated
