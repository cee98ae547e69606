"""Tests for the experiment harness (small, fast configurations)."""

import numpy as np
import pytest

import dataclasses

from repro.experiments import backends, configs, dominance, figure1, figure2, grid
from repro.experiments import finite_buffer, higher_dims, hypercube_bounds
from repro.experiments import optimal_config, scenario_sweep
from repro.experiments import table1, table2, table3, torus
from repro.experiments.bounds_sweep import QUICK_SWEEP, SweepConfig
from repro.experiments.bounds_sweep import _cell_spec as sweep_cell_spec
from repro.experiments.bounds_sweep import run as run_sweep
from repro.experiments.bounds_sweep import shape_checks as sweep_checks
from repro.experiments.optimal_config import OptimalConfig
from repro.experiments.optimal_config import run as run_optimal
from repro.experiments.optimal_config import shape_checks as optimal_checks
from repro.experiments.hypercube_bounds import HypercubeConfig
from repro.experiments.hypercube_bounds import run as run_hypercube
from repro.experiments.hypercube_bounds import shape_checks as hc_checks
from repro.experiments.randomized_greedy import RandomizedConfig
from repro.experiments.randomized_greedy import run as run_randomized
from repro.experiments.randomized_greedy import shape_checks as rand_checks
from repro.core.generic_bounds import generic_bounds
from repro.core.optimization import optimal_service_rates
from repro.core.rates import (
    array_edge_rates,
    edge_rates_from_routing,
    lambda_for_load,
)
from repro.queueing.dominance import dominance_violation
from repro.routing.destinations import UniformDestinations
from repro.routing.greedy import GreedyArrayRouter
from repro.routing.torus_greedy import GreedyTorusRouter
from repro.scenarios import cell_edge_rates
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.ps_network import PSNetworkSimulation
from repro.sim.replication import ReplicationEngine
from repro.topology.array_mesh import ArrayMesh
from repro.topology.torus import Torus

TINY = configs.GridConfig(
    ns=(4,),
    rhos=(0.3, 0.7),
    base_warmup=40.0,
    base_horizon=400.0,
    congestion_cap=3.0,
)


class TestGrid:
    def test_specs_cover_grid(self):
        specs = grid.grid_specs(TINY)
        assert len(specs) == 2
        assert {s.rho for s in specs} == {0.3, 0.7}

    def test_seeds_distinct_per_cell(self):
        specs = grid.grid_specs(configs.QUICK)
        seeds = [seed for s in specs for seed in s.seeds]
        assert len(set(seeds)) == len(seeds) == len(specs)

    def test_warmup_scales_with_congestion(self):
        cfg = configs.QUICK
        assert cfg.warmup_for(0.9) > cfg.warmup_for(0.2)
        assert cfg.horizon_for(0.99) <= cfg.base_horizon * cfg.congestion_cap

    def test_quick_presets_run_on_numpy(self, monkeypatch):
        """Every cell of the quick report's grid fits the visit budget,
        and so does every feedforward cell of the other sections: the
        finite-buffer sweep, the layered scenario-sweep cells, the
        Section 5.1 cells and the hand-built Section 4.5 / 5.2
        simulators."""
        specs = (
            grid.grid_specs(configs.QUICK)
            + grid.grid_specs(table3.QUICK3.to_grid())
            + [
                sweep_cell_spec(n, rho, QUICK_SWEEP)
                for n in QUICK_SWEEP.ns
                for rho in QUICK_SWEEP.rhos
            ]
        )
        for spec in specs:
            assert spec.engine_params_dict["backend"] == "numpy", spec

        cells = finite_buffer.to_cell_specs(finite_buffer.QUICK_FINITE)
        cells += scenario_sweep.to_cell_specs(scenario_sweep.QUICK_SCEN)
        for cell in cells:
            backend = cell.engine_params_dict.get("backend", "python")
            want = "python" if cell.scenario == "torus" else "numpy"
            assert backend == want, cell

        built = []
        init = NetworkSimulation.__init__

        def spy(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            built.append(sim.backend)

        monkeypatch.setattr(NetworkSimulation, "__init__", spy)
        optimal_config.run(optimal_config.QUICK_OPT, processes=1)
        hypercube_bounds.run(hypercube_bounds.QUICK_HC)
        higher_dims.run(dataclasses.replace(higher_dims.QUICK_KD, table_ks=()))
        assert built == ["numpy"] * 6

    def test_heavy_full_cell_stays_on_python(self):
        """FULL Table I at n=20, rho=0.99 would need ~348M visits."""
        spec = next(
            s for s in grid.grid_specs(configs.FULL) if s.n == 20 and s.rho == 0.99
        )
        visits = float(cell_edge_rates(spec).sum()) * (spec.warmup + spec.horizon)
        assert visits > backends.NUMPY_VISIT_BUDGET
        assert spec.engine_params_dict["backend"] == "python"

    def test_simulate_cell_fields(self):
        spec = grid.grid_specs(TINY)[0]
        cell = grid.cell_result(ReplicationEngine(processes=1).run(spec))
        assert cell.spec == spec
        assert cell.t_sim > 0
        assert cell.t_upper >= cell.t_sim * 0.9
        assert cell.generated > 0
        assert 1.0 <= cell.r <= 2 * (4 - 1)


class TestTables:
    @pytest.fixture(scope="class")
    def tiny_cells(self):
        return grid.run_grid(TINY, processes=1)

    def test_table1_renders_and_checks(self, tiny_cells):
        res = table1.Table1Result(cells=tiny_cells)
        out = res.render()
        assert "T(Sim.)" in out and "T(Est. paper)" in out
        assert table1.shape_checks(res) == []

    def test_table2_renders_and_checks(self, tiny_cells):
        res = table2.Table2Result(cells=tiny_cells)
        out = res.render()
        assert "r (Sim.)" in out
        assert table2.shape_checks(res) == []

    def test_numpy_cells_within_python_cis(self, tiny_cells):
        """The grid's numpy cells estimate the same delays as python
        runs of the same cells, within the two runs' CIs."""
        python = ReplicationEngine(processes=1).run_many(
            [
                s.with_engine_params(backend="python")
                for s in grid.grid_specs(TINY)
            ]
        )
        for cell, ref in zip(tiny_cells, python):
            assert cell.spec.engine_params_dict["backend"] == "numpy"
            assert abs(cell.t_sim - ref.mean_delay) <= cell.t_ci + ref.delay_half_width

    def test_table3_runs(self):
        cfg = table3.Table3Config(
            ns=(4, 5), rhos=(0.8,), base_warmup=80.0, base_horizon=800.0
        )
        res = table3.run(cfg, processes=1)
        assert "rs (Sim.)" in res.render()
        assert table3.shape_checks(res) == []


class TestFigures:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_figure1_layered(self, n):
        res = figure1.run(n)
        assert res.layered
        assert res.row_label_range == (1, n - 1)
        assert res.col_label_range == (n, 2 * n - 2)

    def test_figure2_even_odd(self):
        even, odd = figure2.run_pair(4, 5)
        assert even.max_on_route == 2 and odd.max_on_route == 4
        assert even.s_bar == 1.5 and odd.s_bar < 3.0
        assert "#" in even.text and "#" in odd.text


class TestBoundsSweep:
    def test_analytic_only_sweep(self):
        cfg = SweepConfig(ns=(4, 5), rhos=(0.5, 0.9), simulate=False)
        res = run_sweep(cfg)
        assert sweep_checks(res) == []
        assert all(p.t_sim is None for p in res.points)

    def test_render(self):
        cfg = SweepConfig(ns=(4,), rhos=(0.5,), simulate=False)
        out = run_sweep(cfg).render()
        assert "UB Thm7" in out and "LB Thm14" in out


class TestOtherExperiments:
    def test_optimal_config_quick(self):
        cfg = OptimalConfig(
            n=4, load_fractions=(0.5,), warmup=60.0, horizon=800.0
        )
        res = run_optimal(cfg)
        assert optimal_checks(res) == []
        assert res.optimal_capacity > res.standard_capacity

    def test_hypercube_quick(self):
        cfg = HypercubeConfig(
            gap_dims=(3, 4), gap_ps=(0.25, 0.5), sim_d=3, warmup=80.0, horizon=800.0
        )
        res = run_hypercube(cfg)
        assert hc_checks(res) == []

    def test_dominance_quick(self):
        cfg = dominance.DominanceConfig(warmup=100.0, horizon=1000.0)
        res = dominance.run(cfg)
        assert dominance.shape_checks(res) == []
        assert res.n_fifo < res.n_ps

    def test_randomized_quick(self):
        cfg = RandomizedConfig(
            n=4, rho=0.6, seeds=(5,), warmup=60.0, horizon=600.0
        )
        res = run_randomized(cfg, processes=1)
        assert rand_checks(res) == []
        assert res.standard_bottleneck == pytest.approx(
            res.randomized_bottleneck
        )


class TestSectionsMatchEngines:
    """The sections that run through the replication facade report
    exactly what direct engine runs at the same seeds and rates give."""

    def test_dominance(self):
        cfg = dominance.DominanceConfig(
            n=3, rho=0.6, warmup=50.0, horizon=500.0, seed=11
        )
        res = dominance.run(cfg, processes=1)
        mesh = ArrayMesh(3)
        router, dests = GreedyArrayRouter(mesh), UniformDestinations(9)
        lam = lambda_for_load(3, 0.6, "exact")
        fifo = NetworkSimulation(router, dests, lam, seed=11).run(
            50.0, 500.0, track_number_distribution=True, collect_delays=True
        )
        ps = PSNetworkSimulation(router, dests, lam, seed=12).run(
            50.0, 500.0, track_number_distribution=True
        )
        jackson = NetworkSimulation(
            router, dests, lam, service="exponential", seed=13
        ).run(50.0, 500.0, collect_delays=True)
        assert res.lam == lam
        assert (res.n_fifo, res.n_ps, res.n_jackson) == (
            fifo.mean_number,
            ps.mean_number,
            jackson.mean_number,
        )
        assert (res.t_fifo, res.t_jackson) == (fifo.mean_delay, jackson.mean_delay)
        assert res.tail_violation_fifo_vs_ps == dominance._weighted_tail_violation(
            fifo.number_distribution, ps.number_distribution
        )
        assert res.delay_violation_fifo_vs_jackson == dominance_violation(
            fifo.delays, jackson.delays
        )

    def test_dominance_pool_matches_serial(self):
        cfg = dominance.DominanceConfig(
            n=3, rho=0.6, warmup=50.0, horizon=500.0, seed=11
        )
        assert dominance.run(cfg, processes=2) == dominance.run(cfg, processes=1)

    def test_torus(self):
        cfg = torus.TorusConfig(n=4, rho=0.6, warmup=50.0, horizon=500.0, seed=5)
        res = torus.run(cfg, processes=1)
        router = GreedyTorusRouter(Torus(4))
        dests = UniformDestinations(16)
        lam = 0.6 / float(edge_rates_from_routing(router, dests, 1.0).max())
        direct = NetworkSimulation(router, dests, lam, seed=5).run(50.0, 500.0)
        assert (res.t_sim, res.t_ci) == (direct.mean_delay, direct.delay_half_width)
        assert res.bounds == generic_bounds(
            router, dests, lam, layered=False, markovian=False
        )
        mesh = ArrayMesh(4)
        array = NetworkSimulation(
            GreedyArrayRouter(mesh),
            UniformDestinations(16),
            lambda_for_load(4, 0.6, "exact"),
            seed=6,
            backend="numpy",
        ).run(50.0, 500.0)
        assert res.t_array_sim == array.mean_delay

    def test_optimal_config(self):
        cfg = OptimalConfig(
            n=4, load_fractions=(0.5, 0.8), warmup=60.0, horizon=800.0, seed=9
        )
        res = run_optimal(cfg, processes=1)
        mesh = ArrayMesh(4)
        router, dests = GreedyArrayRouter(mesh), UniformDestinations(16)

        def direct(lam, seed):
            phis = optimal_service_rates(array_edge_rates(mesh, lam), 1.0, res.budget)
            return NetworkSimulation(
                router, dests, lam, service_rates=phis, seed=seed, backend="numpy"
            ).run(60.0, 800.0)

        for k, point in enumerate(res.points):
            ref = direct(point.lam, 9 + k)
            assert (point.t_optimal_sim, point.t_optimal_sim_ci) == (
                ref.mean_delay,
                ref.delay_half_width,
            )
        assert res.beyond_optimal_sim == direct(res.beyond_lam, 9 + 99).mean_delay
