"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bounds_defaults(self):
        args = build_parser().parse_args(["bounds"])
        assert args.n == 10 and args.rho == 0.9

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_bounds_output(self, capsys):
        assert main(["bounds", "-n", "6", "--rho", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "Thm 7" in out and "Thm 14" in out
        assert "gap upper/best-lower" in out

    def test_bounds_odd_n_labelled(self, capsys):
        main(["bounds", "-n", "5", "--rho", "0.5"])
        assert "(odd n)" in capsys.readouterr().out

    def test_simulate_sandwich(self, capsys):
        rc = main(
            [
                "simulate",
                "-n",
                "4",
                "--rho",
                "0.6",
                "--warmup",
                "100",
                "--horizon",
                "1200",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "sandwich: OK" in out
        assert "max queue" in out

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("uniform", "hotspot", "transpose", "bitreversal", "torus"):
            assert name in out

    def test_simulate_replications_pools_ci(self, capsys):
        rc = main(
            [
                "simulate",
                "--scenario",
                "hotspot",
                "-n",
                "4",
                "--rho",
                "0.6",
                "--replications",
                "3",
                "--processes",
                "1",
                "--warmup",
                "50",
                "--horizon",
                "400",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "ReplicatedResult" in out and "pooled" in out
        assert "R=3" in out
        # Non-standard scenario: the bound sandwich does not apply.
        assert "sandwich" not in out

    def test_simulate_slotted_engine(self, capsys):
        rc = main(
            [
                "simulate",
                "--scenario",
                "transpose",
                "--engine",
                "slotted",
                "-n",
                "4",
                "--rho",
                "0.5",
                "--replications",
                "2",
                "--processes",
                "1",
                "--warmup",
                "50",
                "--horizon",
                "300",
            ]
        )
        assert rc == 0
        assert "engine=slotted" in capsys.readouterr().out

    def test_engines_listing(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ("fifo", "finite", "slotted", "rushed", "ps"):
            assert name in out
        assert "event" in out  # the alias is listed
        assert "service_rates" in out and "slotted.backend" in out
        assert "event_queue" not in out and "batch_rng" not in out
        assert "buffer_size" in out  # the finite engine's knob
        assert "finite.buffer_size" in out  # per-engine param details
        assert "deterministic/exponential" in out

    def test_simulate_rushed_engine(self, capsys):
        rc = main(
            [
                "simulate",
                "--engine",
                "rushed",
                "-n",
                "4",
                "--rho",
                "0.6",
                "--replications",
                "2",
                "--processes",
                "1",
                "--warmup",
                "30",
                "--horizon",
                "200",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "engine=rushed" in out
        # The makespan is not sandwich-comparable: no bound check printed.
        assert "sandwich" not in out

    def test_simulate_ps_engine(self, capsys):
        rc = main(
            [
                "simulate",
                "--engine",
                "ps",
                "-n",
                "4",
                "--rho",
                "0.6",
                "--processes",
                "1",
                "--warmup",
                "30",
                "--horizon",
                "200",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "engine=ps" in out
        assert "sandwich" not in out

    def test_simulate_engine_param(self, capsys):
        rc = main(
            [
                "simulate",
                "--engine",
                "slotted",
                "-n",
                "4",
                "--rho",
                "0.5",
                "--engine-param",
                "backend=numpy",
                "--processes",
                "1",
                "--warmup",
                "30",
                "--horizon",
                "200",
            ]
        )
        assert rc == 0
        assert "engine=slotted" in capsys.readouterr().out

    def test_simulate_numpy_backend(self, capsys):
        """backend=numpy is reachable from the CLI: simulate drops the
        (display-only) per-packet maxima the vectorized kernels cannot
        track instead of tripping the CellSpec guard."""
        rc = main(
            [
                "simulate",
                "-n",
                "4",
                "--rho",
                "0.5",
                "--engine-param",
                "backend=numpy",
                "--processes",
                "1",
                "--warmup",
                "30",
                "--horizon",
                "200",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "engine=fifo" in out
        assert "sandwich" in out
        assert "max delay" not in out  # maxima tracking dropped, not nan

    def test_simulate_unknown_engine_param_lists_valid_params(self):
        """A bad --engine-param key exits with usage-style help listing
        every valid key for the *chosen* engine (not a bare registry
        traceback)."""
        for engine, key in (
            ("fifo", "turbo"),
            ("fifo", "event_queue"),
            ("slotted", "batch_rng"),
        ):
            with pytest.raises(SystemExit) as exc_info:
                main(
                    [
                        "simulate",
                        "--engine",
                        engine,
                        "-n",
                        "4",
                        "--rho",
                        "0.5",
                        "--engine-param",
                        f"{key}=heap",
                        "--processes",
                        "1",
                    ]
                )
            msg = str(exc_info.value)
            assert f"no param {key!r}" in msg
            assert f"{engine!r}" in msg
            assert "backend=" in msg
            assert ("service_rates=" in msg) == (engine == "fifo")
            # Neither has buffer_size: the listing is engine-specific.
            assert "buffer_size" not in msg

    def test_simulate_engine_param_listing_is_per_engine(self):
        with pytest.raises(SystemExit) as exc_info:
            main(
                [
                    "simulate",
                    "--engine",
                    "finite",
                    "-n",
                    "4",
                    "--rho",
                    "0.5",
                    "--engine-param",
                    "turbo=1",
                ]
            )
        msg = str(exc_info.value)
        assert "'finite'" in msg and "buffer_size" in msg

    def test_simulate_ill_typed_engine_param_lists_valid_params(self):
        with pytest.raises(SystemExit) as exc_info:
            main(
                [
                    "simulate",
                    "--engine",
                    "finite",
                    "-n",
                    "4",
                    "--rho",
                    "0.5",
                    "--engine-param",
                    "buffer_size=-3",
                ]
            )
        msg = str(exc_info.value)
        assert "buffer_size" in msg and "non-negative" in msg

    def test_simulate_finite_engine_prints_loss(self, capsys):
        rc = main(
            [
                "simulate",
                "--engine",
                "finite",
                "-n",
                "4",
                "--rho",
                "0.9",
                "--engine-param",
                "buffer_size=1",
                "--replications",
                "2",
                "--processes",
                "1",
                "--warmup",
                "30",
                "--horizon",
                "200",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "engine=finite" in out
        assert "loss:" in out and "dropped" in out
        # Loss-engine delay is survivors-only: no sandwich claim printed.
        assert "sandwich" not in out

    def test_finite_sweep_command(self, capsys):
        rc = main(["finite", "-n", "4", "--processes", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Loss vs buffer size" in out
        assert "inf" in out  # the infinite-buffer baseline row
        assert "CHECK FAILURE" not in out

    def test_sweep_command_runs_and_resumes(self, capsys, tmp_path):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "defaults": {
                        "scenario": "uniform",
                        "n": 4,
                        "warmup": 20,
                        "horizon": 120,
                        "seeds": [0, 1],
                    },
                    "grid": {"rho": [0.4, 0.7]},
                }
            )
        )
        out = tmp_path / "out"
        assert main(
            ["sweep", str(spec), "-o", str(out), "--processes", "1"]
        ) == 0
        text = capsys.readouterr().out
        assert "2 ran, 0 resumed" in text
        assert (out / "aggregate.csv").exists()
        # Second run resumes everything from the checkpoints.
        assert main(
            ["sweep", str(spec), "-o", str(out), "--processes", "1"]
        ) == 0
        assert "0 ran, 2 resumed" in capsys.readouterr().out

    def test_sweep_default_output_dir(self, capsys, tmp_path, monkeypatch):
        import json

        spec = tmp_path / "tiny.json"
        spec.write_text(
            json.dumps(
                {
                    "cells": [
                        {
                            "scenario": "uniform",
                            "n": 4,
                            "rho": 0.5,
                            "warmup": 20,
                            "horizon": 120,
                            "seeds": [0],
                        }
                    ]
                }
            )
        )
        assert main(["sweep", str(spec), "--processes", "1"]) == 0
        assert (tmp_path / "tiny_out" / "aggregate.json").exists()

    def test_simulate_scenario_param(self, capsys):
        rc = main(
            [
                "simulate",
                "--scenario",
                "hotspot",
                "-n",
                "4",
                "--rho",
                "0.5",
                "--param",
                "h=0.5",
                "--processes",
                "1",
                "--warmup",
                "30",
                "--horizon",
                "200",
            ]
        )
        assert rc == 0

    def test_simulate_bad_param_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--param", "not-a-pair"])

    def test_simulate_unknown_scenario_raises(self):
        with pytest.raises(ValueError):
            main(["simulate", "--scenario", "frobnicate"])

    def test_simulate_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="fifo"):
            main(["simulate", "--engine", "quantum"])

    def test_figure1(self, capsys):
        assert main(["figure1", "-n", "3"]) == 0
        assert "layering" in capsys.readouterr().out

    def test_figure2(self, capsys):
        assert main(["figure2", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "odd n=5" in out and "#" in out


class TestMaximaTracking:
    def test_maxima_reported(self):
        from repro.routing.destinations import UniformDestinations
        from repro.routing.greedy import GreedyArrayRouter
        from repro.sim.fifo_network import NetworkSimulation
        from repro.topology.array_mesh import ArrayMesh

        mesh = ArrayMesh(4)
        sim = NetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(16), 0.5, seed=8
        )
        res = sim.run(50, 800, track_maxima=True)
        assert res.max_delay >= res.mean_delay
        assert res.max_queue_length >= 1

    def test_maxima_disabled_by_default(self):
        import math

        from repro.routing.destinations import UniformDestinations
        from repro.routing.greedy import GreedyArrayRouter
        from repro.sim.fifo_network import NetworkSimulation
        from repro.topology.array_mesh import ArrayMesh

        mesh = ArrayMesh(3)
        res = NetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(9), 0.2, seed=8
        ).run(20, 200)
        assert math.isnan(res.max_delay)
        assert res.max_queue_length == -1

    def test_max_queue_grows_with_load(self):
        from repro.routing.destinations import UniformDestinations
        from repro.routing.greedy import GreedyArrayRouter
        from repro.sim.fifo_network import NetworkSimulation
        from repro.topology.array_mesh import ArrayMesh

        mesh = ArrayMesh(4)
        router = GreedyArrayRouter(mesh)
        dests = UniformDestinations(16)
        light = NetworkSimulation(router, dests, 0.1, seed=9).run(
            100, 1500, track_maxima=True
        )
        heavy = NetworkSimulation(router, dests, 0.22, seed=9).run(
            100, 1500, track_maxima=True
        )
        assert heavy.max_queue_length > light.max_queue_length
