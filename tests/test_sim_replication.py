"""Tests for the multi-seed replication engine and its CI pooling."""

import dataclasses

import numpy as np
import pytest

from repro.sim.replication import (
    CellSpec,
    ReplicatedResult,
    ReplicationEngine,
    replicate,
)
from repro.sim.result import SimResult


def _fake_result(mean_delay, *, half_width=0.5, mean_number=10.0, seed=0):
    """A minimal SimResult carrying the fields pooling reads."""
    return SimResult(
        warmup=0.0,
        horizon=100.0,
        seed=seed,
        generated=100,
        completed=100,
        zero_hop=1,
        in_flight_at_end=0,
        mean_number=mean_number,
        mean_remaining=2.0 * mean_number,
        mean_remaining_saturated=float("nan"),
        mean_delay=mean_delay,
        delay_half_width=half_width,
        mean_delay_littles=mean_delay,
        total_rate=1.0,
    )


def _pooled_of(values):
    spec = CellSpec(n=4, rho=0.5, seeds=tuple(range(len(values))))
    return ReplicatedResult(
        spec=spec,
        node_rate=0.1,
        replications=[_fake_result(v, seed=k) for k, v in enumerate(values)],
    )


class TestCellSpecValidation:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            CellSpec(rho=0.5, engine="quantum")

    def test_rejects_unknown_service(self):
        with pytest.raises(ValueError):
            CellSpec(rho=0.5, service="gaussian")

    def test_rejects_slotted_exponential(self):
        with pytest.raises(ValueError):
            CellSpec(rho=0.5, engine="slotted", service="exponential")

    def test_requires_some_rate(self):
        with pytest.raises(ValueError):
            CellSpec(rho=None, node_rate=None)

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            CellSpec(rho=0.5, seeds=())

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(ValueError):
            CellSpec(rho=0.5, seeds=(3, 3))

    @pytest.mark.parametrize("field, value", [
        ("warmup", float("nan")),
        ("warmup", float("inf")),
        ("warmup", -1.0),
        ("horizon", float("inf")),
        ("horizon", float("nan")),
        ("horizon", 0.0),
        ("tau", float("inf")),
        ("tau", float("nan")),
        ("tau", 0.0),
    ])
    def test_rejects_bad_window_at_construction(self, field, value):
        """A NaN or infinite window would never let an event loop end:
        the spec fails at construction, naming the field, before any
        worker sees it."""
        with pytest.raises(ValueError, match=field):
            CellSpec(n=4, rho=0.5, seeds=(0,), **{field: value})

    def test_with_params_merges(self):
        spec = CellSpec(scenario="hotspot", rho=0.5, params=(("h", 0.2),))
        spec2 = spec.with_params(h=0.4, hot_node=3)
        assert spec2.params_dict == {"h": 0.4, "hot_node": 3}
        assert spec.params_dict == {"h": 0.2}  # original untouched

    def test_replications_counts_seeds(self):
        assert CellSpec(rho=0.5, seeds=(1, 2, 3)).replications == 3


class TestCIPooling:
    def test_mean_is_average_of_replications(self):
        pooled = _pooled_of([1.0, 2.0, 3.0, 4.0])
        assert pooled.mean_delay == pytest.approx(2.5)

    def test_half_width_matches_t_formula(self):
        values = [1.0, 2.0, 3.0, 4.0]
        pooled = _pooled_of(values)
        se = np.std(values, ddof=1) / np.sqrt(len(values))
        assert pooled.delay_half_width == pytest.approx(1.96 * se)

    def test_single_replication_falls_back_to_within_run_ci(self):
        pooled = _pooled_of([2.0])
        assert pooled.mean_delay == 2.0
        assert pooled.delay_half_width == 0.5  # the run's own batch means

    def test_identical_replications_have_zero_width(self):
        pooled = _pooled_of([3.0, 3.0, 3.0])
        assert pooled.delay_half_width == 0.0

    def test_number_pooling(self):
        pooled = _pooled_of([1.0, 2.0])
        assert pooled.mean_number == pytest.approx(10.0)
        assert pooled.number_half_width == pytest.approx(0.0)

    def test_generated_sums(self):
        assert _pooled_of([1.0, 2.0, 3.0]).generated == 300

    def test_nan_values_are_dropped(self):
        pooled = _pooled_of([1.0, 2.0])
        pooled.replications[0].mean_delay = float("nan")
        assert pooled.mean_delay == pytest.approx(2.0)

    def test_render_has_per_rep_and_pooled_rows(self):
        text = _pooled_of([1.0, 2.0]).render()
        assert "pooled" in text and "seed" in text
        assert "+/-" in text


class TestReplicationEngine:
    SPEC = CellSpec(
        scenario="uniform", n=4, rho=0.6, warmup=50, horizon=400, seeds=(1, 2, 3, 4)
    )

    def test_parallel_matches_serial(self):
        serial = ReplicationEngine(processes=1).run(self.SPEC)
        parallel = ReplicationEngine(processes=4).run(self.SPEC)
        assert [r.mean_delay for r in serial.replications] == [
            r.mean_delay for r in parallel.replications
        ]

    def test_replications_follow_seed_order(self):
        pooled = ReplicationEngine(processes=1).run(self.SPEC)
        assert [r.seed for r in pooled.replications] == list(self.SPEC.seeds)

    def test_distinct_seeds_distinct_trajectories(self):
        pooled = ReplicationEngine(processes=1).run(self.SPEC)
        delays = [r.mean_delay for r in pooled.replications]
        assert len(set(delays)) == len(delays)

    def test_replication_matches_direct_simulation(self):
        from repro.core.rates import lambda_for_load
        from repro.routing.destinations import UniformDestinations
        from repro.routing.greedy import GreedyArrayRouter
        from repro.sim.fifo_network import NetworkSimulation
        from repro.topology.array_mesh import ArrayMesh

        mesh = ArrayMesh(4)
        lam = lambda_for_load(4, 0.6, "exact")
        direct = NetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(16), lam, seed=1
        ).run(50, 400)
        pooled = ReplicationEngine(processes=1).run(self.SPEC)
        assert pooled.replications[0].mean_delay == direct.mean_delay
        assert pooled.replications[0].mean_number == direct.mean_number

    def test_run_many_preserves_cell_order(self):
        specs = [
            dataclasses.replace(self.SPEC, rho=rho, seeds=(7,))
            for rho in (0.3, 0.6)
        ]
        out = ReplicationEngine(processes=1).run_many(specs)
        assert [o.spec.rho for o in out] == [0.3, 0.6]
        # Heavier load queues longer.
        assert out[0].mean_delay < out[1].mean_delay

    def test_run_many_node_rate_is_per_cell(self):
        """Regression: mixed-load batches must report each cell's *own*
        resolved rate (an off-by-one once attributed the previous spec's
        rate to the next cell)."""
        from repro.scenarios import resolve_cell

        specs = [
            dataclasses.replace(self.SPEC, rho=rho, seeds=(1, 2))
            for rho in (0.3, 0.6, 0.9)
        ]
        for nproc in (1, 3):
            out = ReplicationEngine(processes=nproc).run_many(specs)
            for spec, res in zip(specs, out):
                assert res.node_rate == resolve_cell(spec)[0]

    def test_run_many_empty_batch(self):
        assert ReplicationEngine(processes=1).run_many([]) == []
        assert ReplicationEngine(processes=4).run_many([]) == []

    def test_run_many_on_result_fires_in_serial_order(self):
        specs = [
            dataclasses.replace(self.SPEC, rho=rho, seeds=(7,))
            for rho in (0.3, 0.6)
        ]
        seen = []
        ReplicationEngine(processes=1).run_many(
            specs, on_result=lambda res: seen.append(res.spec.rho)
        )
        assert seen == [0.3, 0.6]

    def test_convenience_wrapper(self):
        assert replicate(self.SPEC, processes=1).mean_delay == ReplicationEngine(
            processes=1
        ).run(self.SPEC).mean_delay


class TestCrossEngineParity:
    @pytest.mark.slow
    def test_slotted_matches_event_on_torus(self):
        """Section 5.2: slotted delay differs from continuous by <= tau."""
        base = dict(
            scenario="torus", n=4, rho=0.5, warmup=200, horizon=2000,
            seeds=(1, 2, 3, 4),
        )
        event = replicate(CellSpec(engine="event", **base), processes=1)
        slotted = replicate(CellSpec(engine="slotted", **base), processes=1)
        tol = 0.5 + 3.0 * (event.delay_half_width + slotted.delay_half_width)
        assert abs(event.mean_delay - slotted.mean_delay) < tol

    def test_slotted_engine_through_spec(self):
        spec = CellSpec(
            scenario="uniform", n=4, rho=0.5, engine="slotted",
            warmup=50, horizon=400, seeds=(1, 2),
        )
        pooled = replicate(spec, processes=1)
        assert pooled.mean_delay > 0
        assert all(r.completed == r.generated for r in pooled.replications)

    @pytest.mark.parametrize("seed", [3, 7, 1234])
    @pytest.mark.parametrize(
        "scenario, params",
        [
            ("uniform", ()),
            ("hotspot", (("h", 0.25),)),
            ("geometric", ()),
            ("transpose", ()),
            ("bitreversal", ()),
        ],
        ids=["uniform", "hotspot", "geometric", "transpose", "bitreversal"],
    )
    def test_fifo_ps_rushed_share_the_arrival_path(self, scenario, params, seed):
        """Same-seed fifo, ps and rushed cells draw one arrival sample
        path: equal packet counts and equal zero-hop counts. All three
        draw their ids through ``enginecommon.draw_ids``, so this holds
        for every destination law."""
        base = CellSpec(
            scenario=scenario, n=4, rho=0.7, params=params,
            warmup=300, horizon=1000, seeds=(seed,),
        )
        runs = [
            pooled.replications[0]
            for pooled in ReplicationEngine(processes=1).run_many(
                [dataclasses.replace(base, engine=e) for e in ("fifo", "ps", "rushed")]
            )
        ]
        assert runs[0].generated > 0 and runs[0].zero_hop > 0
        assert len({r.generated for r in runs}) == 1
        assert len({r.zero_hop for r in runs}) == 1
