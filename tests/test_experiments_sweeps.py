"""Tests for the resumable sweep runner."""

import json

import pytest

from repro.experiments.sweeps import (
    cell_id,
    load_sweep_spec,
    run_sweep,
)
from repro.sim.replication import CellSpec

WINDOW = dict(warmup=20, horizon=120)

SPEC_JSON = {
    "defaults": {
        "scenario": "uniform",
        "warmup": 20,
        "horizon": 120,
        "seeds": [0, 1],
    },
    "grid": {"n": [4], "rho": [0.4, 0.7]},
    "cells": [
        {"scenario": "hotspot", "n": 4, "rho": 0.5, "params": {"h": 0.3}}
    ],
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_JSON))
    return path


class TestSpecLoading:
    def test_json_grid_cross_product_plus_cells(self, spec_file):
        specs = load_sweep_spec(spec_file)
        assert len(specs) == 3
        assert [s.rho for s in specs] == [0.4, 0.7, 0.5]
        assert specs[2].scenario == "hotspot"
        assert specs[2].params_dict == {"h": 0.3}
        assert all(s.seeds == (0, 1) for s in specs)

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text(
            "scenario,n,rho,seeds,warmup,horizon,engine_params\n"
            "uniform,4,0.4,0;1,20,120,\n"
            "uniform,4,0.7,2,20,120,backend=numpy\n"
        )
        specs = load_sweep_spec(path)
        assert len(specs) == 2
        assert specs[0].seeds == (0, 1)
        assert specs[1].seeds == (2,)
        assert specs[1].engine_params_dict == {"backend": "numpy"}
        # A row naming a param the engine lacks fails while loading, and
        # the error lists the params the engine does accept.
        for engine, param in (
            ("fifo", "event_queue=heap"),
            ("slotted", "batch_rng=false"),
        ):
            path.write_text(
                "scenario,n,rho,seeds,warmup,horizon,engine,engine_params\n"
                f"uniform,4,0.7,2,20,120,{engine},{param}\n"
            )
            with pytest.raises(
                ValueError, match=f"engine '{engine}' has no param"
            ) as exc_info:
                load_sweep_spec(path)
            assert "valid params: " in str(exc_info.value)
            assert "backend='python'" in str(exc_info.value)

    def test_empty_spec_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="no cells"):
            load_sweep_spec(path)

    def test_bad_field_reports_cell(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"cells": [{"rho": 0.5, "sides": 4}]}))
        with pytest.raises(ValueError, match="bad sweep cell"):
            load_sweep_spec(path)


class TestCellId:
    def test_deterministic(self):
        a = CellSpec(scenario="uniform", n=4, rho=0.5, **WINDOW)
        b = CellSpec(scenario="uniform", n=4, rho=0.5, **WINDOW)
        assert cell_id(a) == cell_id(b)

    def test_sensitive_to_every_field(self):
        base = CellSpec(scenario="uniform", n=4, rho=0.5, **WINDOW)
        variants = [
            CellSpec(scenario="uniform", n=4, rho=0.6, **WINDOW),
            CellSpec(scenario="uniform", n=4, rho=0.5, seeds=(9,), **WINDOW),
            CellSpec(scenario="uniform", n=4, rho=0.5, warmup=20, horizon=121),
        ]
        assert len({cell_id(s) for s in [base, *variants]}) == 4

    def test_readable_slug(self):
        cid = cell_id(CellSpec(scenario="hotspot", n=6, rho=0.5, **WINDOW))
        assert cid.startswith("hotspot-fifo-n6-")


class TestRunSweep:
    def test_fresh_run_writes_checkpoints_and_aggregate(self, spec_file, tmp_path):
        out = tmp_path / "out"
        run = run_sweep(spec_file, out, processes=1)
        assert run.ran == 3 and run.resumed == 0
        assert sorted(p.parent.name for p in out.glob("cells/*/result.json")) == sorted(
            run.cell_ids
        )
        agg = json.loads(run.aggregate_json.read_text())
        assert [c["cell_id"] for c in agg["cells"]] == run.cell_ids
        assert run.aggregate_csv.read_text().count("\n") == 4  # header + 3

    def test_rerun_skips_everything(self, spec_file, tmp_path):
        out = tmp_path / "out"
        run_sweep(spec_file, out, processes=1)
        again = run_sweep(spec_file, out, processes=1)
        assert again.ran == 0 and again.resumed == 3

    def test_kill_and_resume_matches_fresh_run(self, spec_file, tmp_path):
        """The acceptance criterion: interrupt mid-sweep, rerun, completed
        cells are skipped and the aggregate is byte-identical."""
        fresh = tmp_path / "fresh"
        run_sweep(spec_file, fresh, processes=1)

        class Interrupt(Exception):
            pass

        hits = []

        def bomb(cid):
            hits.append(cid)
            if len(hits) == 1:
                raise Interrupt(cid)

        resumed = tmp_path / "resumed"
        with pytest.raises(Interrupt):
            run_sweep(spec_file, resumed, processes=1, on_cell_complete=bomb)
        survivors = list(resumed.glob("cells/*/result.json"))
        assert len(survivors) == 1  # the interrupt left one checkpoint

        run = run_sweep(spec_file, resumed, processes=1)
        assert run.resumed == 1 and run.ran == 2
        assert (resumed / "aggregate.json").read_bytes() == (
            fresh / "aggregate.json"
        ).read_bytes()
        assert (resumed / "aggregate.csv").read_bytes() == (
            fresh / "aggregate.csv"
        ).read_bytes()

    def test_torn_checkpoint_is_rerun(self, spec_file, tmp_path):
        out = tmp_path / "out"
        run = run_sweep(spec_file, out, processes=1)
        victim = out / "cells" / run.cell_ids[0] / "result.json"
        victim.write_text('{"cell_id": ')  # simulate a torn write
        again = run_sweep(spec_file, out, processes=1)
        assert again.ran == 1 and again.resumed == 2
        assert json.loads(victim.read_text())["cell_id"] == run.cell_ids[0]

    def test_duplicate_cells_rejected(self, tmp_path):
        spec = CellSpec(scenario="uniform", n=4, rho=0.5, **WINDOW)
        with pytest.raises(ValueError, match="duplicate sweep cells"):
            run_sweep([spec, spec], tmp_path / "out", processes=1)

    def test_accepts_in_memory_specs(self, tmp_path):
        specs = [
            CellSpec(scenario="uniform", n=4, rho=r, seeds=(0,), **WINDOW)
            for r in (0.4, 0.6)
        ]
        run = run_sweep(specs, tmp_path / "out", processes=1)
        assert run.ran == 2
        assert "Sweep" in run.render()


class TestScenarioSweepWiring:
    def test_to_cell_specs_matches_run(self):
        from repro.experiments.scenario_sweep import QUICK_SCEN, to_cell_specs

        specs = to_cell_specs(QUICK_SCEN)
        assert [s.scenario for s in specs] == list(QUICK_SCEN.scenarios)
        assert all(s.rho == QUICK_SCEN.rho for s in specs)

    def test_run_resumable_checkpoints_cells(self, tmp_path):
        import dataclasses

        from repro.experiments import scenario_sweep

        cfg = dataclasses.replace(
            scenario_sweep.QUICK_SCEN,
            scenarios=("hotspot",),
            warmup=20.0,
            horizon=120.0,
            seeds=(1,),
            n=4,
        )
        run = scenario_sweep.run_resumable(
            cfg, str(tmp_path / "scen"), processes=1
        )
        assert run.ran == 1
        run2 = scenario_sweep.run_resumable(
            cfg, str(tmp_path / "scen"), processes=1
        )
        assert run2.resumed == 1 and run2.ran == 0
