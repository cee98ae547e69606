"""Tests for the kernels layer: backend selection, the numpy backend's
two-backend contract (seed stability + distribution-level parity with the
python reference), its validation errors, the optional-dependency
boundary, and the level cache / path gather machinery it rides on."""

import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import rngsan
from repro.core.rates import array_edge_rates, lambda_for_load
from repro.core.saturation import saturated_edge_mask
from repro.routing.base import TabulatedRouter
from repro.routing.destinations import (
    HotSpotDestinations,
    PermutationDestinations,
    UniformDestinations,
)
from repro.routing.greedy import GreedyArrayRouter, GreedyKDRouter
from repro.routing.pathcache import (
    SampledPathInterner,
    gather_paths,
    path_cache_for,
)
from repro.routing.randomized_greedy import RandomizedGreedyArrayRouter
from repro.routing.torus_greedy import GreedyTorusRouter
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.finite_buffer import FiniteBufferNetworkSimulation
from repro.sim import measurement
from repro.sim.kernels import (
    FIFO_KERNEL,
    KERNEL_BACKENDS,
    NUMPY_BACKEND,
    PYTHON_BACKEND,
    check_backend,
    get_kernel,
    numpy_available,
)
from repro.sim.replication import CellSpec, replicate
from repro.sim.ps_network import PSNetworkSimulation
from repro.sim.registry import get_engine
from repro.sim.rushed_network import RushedNetworkSimulation
from repro.sim.slotted import SlottedNetworkSimulation
from repro.topology.array_mesh import ArrayMesh
from repro.topology.linear import LinearArray
from repro.topology.torus import Torus

from _helpers import AlwaysNodeZero, BoundaryRNG

SRC = str(Path(__file__).resolve().parent.parent / "src")


# ----------------------------------------------------------------------
# Selection layer.


class TestBackendSelection:
    def test_backend_vocabulary(self):
        assert KERNEL_BACKENDS == (PYTHON_BACKEND, NUMPY_BACKEND)
        assert check_backend("python") == "python"
        assert check_backend("numpy") == "numpy"  # numpy is installed here

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="python/numpy"):
            check_backend("jax")

    def test_numpy_is_available_in_this_environment(self):
        assert numpy_available()

    def test_get_kernel_unknown_kernel(self):
        with pytest.raises(ValueError, match="no 'warp' kernel"):
            get_kernel("warp", PYTHON_BACKEND)

    def test_engines_reject_bad_backend(self):
        mesh = ArrayMesh(4)
        for cls in (NetworkSimulation, SlottedNetworkSimulation):
            with pytest.raises(ValueError, match="python/numpy"):
                cls(
                    GreedyArrayRouter(mesh),
                    UniformDestinations(16),
                    0.1,
                    backend="fortran",
                )


# ----------------------------------------------------------------------
# Numpy-backend validation errors.


class TestNumpyBackendRejections:
    def _fifo(self, **kw):
        mesh = ArrayMesh(4)
        return NetworkSimulation(
            GreedyArrayRouter(mesh),
            UniformDestinations(16),
            0.2,
            backend=NUMPY_BACKEND,
            **kw,
        )

    def _slotted(self):
        mesh = ArrayMesh(4)
        return SlottedNetworkSimulation(
            GreedyArrayRouter(mesh),
            UniformDestinations(16),
            0.2,
            backend=NUMPY_BACKEND,
        )

    @pytest.mark.parametrize(
        "opt", ["track_number_distribution", "track_maxima"]
    )
    def test_fifo_rejects_unsupported_tracking(self, opt):
        with pytest.raises(ValueError, match="backend='python'"):
            self._fifo().run(0, 50, **{opt: True})

    def test_fifo_rejects_exponential_service(self):
        mesh = ArrayMesh(4)
        with pytest.raises(ValueError, match="uniform-deterministic"):
            NetworkSimulation(
                GreedyArrayRouter(mesh),
                UniformDestinations(16),
                0.2,
                service="exponential",
                backend=NUMPY_BACKEND,
            )

    def test_slotted_rejects_track_maxima(self):
        with pytest.raises(ValueError, match="backend='python'"):
            self._slotted().run(0, 50, track_maxima=True)

    def test_finite_without_caps_delegates_to_numpy_fifo(self):
        mesh = ArrayMesh(4)
        args = (GreedyArrayRouter(mesh), UniformDestinations(16), 0.2)
        fin = FiniteBufferNetworkSimulation(
            *args, buffer_size=None, backend=NUMPY_BACKEND, seed=5
        ).run(10, 200)
        fifo = NetworkSimulation(
            *args, backend=NUMPY_BACKEND, seed=5
        ).run(10, 200)
        assert fin.mean_delay == fifo.mean_delay
        assert fin.generated == fifo.generated


class TestNumpyFifoOptions:
    """Per-edge service, utilization and tail-drop caps on the numpy
    fifo kernel. Under one draw block the uniform fast-id 4x4 cell
    simulates the same workload on both backends (see
    ``test_uniform_4x4_is_workload_identical``), so each option must
    reproduce the python loops to rounding: counts, drops per node,
    the N and R integrals, delays and per-edge busy time."""

    PHIS = 1.0 + 0.5 * np.random.default_rng(0).random(ArrayMesh(4).num_edges)

    @pytest.mark.parametrize(
        "kw",
        [
            {"service_rates": PHIS},
            {"buffer_size": 0},
            {"buffer_size": 1},
            {"buffer_size": 2, "service_rates": PHIS},
            {"buffer_size": list(range(16))},
        ],
        ids=["per-edge", "K=0", "K=1", "K=2+per-edge", "per-node-K"],
    )
    def test_workload_identical_to_python(self, kw):
        mesh = ArrayMesh(4)
        mask = np.zeros(mesh.num_edges, dtype=bool)
        mask[::3] = True
        cls = (
            FiniteBufferNetworkSimulation
            if "buffer_size" in kw
            else NetworkSimulation
        )
        py, nu = (
            cls(
                GreedyArrayRouter(mesh), UniformDestinations(16), 0.3,
                seed=3, backend=backend, saturated_mask=mask, **kw,
            ).run(20.0, 400.0, track_utilization=True)
            for backend in (PYTHON_BACKEND, NUMPY_BACKEND)
        )
        assert (nu.generated, nu.completed, nu.dropped) == (
            py.generated, py.completed, py.dropped
        )
        assert nu.in_flight_at_end == py.in_flight_at_end
        if "buffer_size" in kw:
            assert py.dropped > 0
            assert nu.node_drops.tolist() == py.node_drops.tolist()
        for attr in (
            "mean_delay", "mean_number", "mean_remaining",
            "mean_remaining_saturated",
        ):
            assert getattr(nu, attr) == pytest.approx(
                getattr(py, attr), rel=1e-9
            ), attr
        np.testing.assert_allclose(
            nu.utilization, py.utilization, rtol=1e-9, atol=1e-12
        )

    def test_finite_runs_numpy_with_caps(self):
        mesh = ArrayMesh(4)
        res = FiniteBufferNetworkSimulation(
            GreedyArrayRouter(mesh),
            UniformDestinations(16),
            0.4,
            buffer_size=1,
            backend=NUMPY_BACKEND,
            seed=2,
        ).run(20.0, 400.0, collect_delays=True)
        assert res.dropped > 0
        assert res.completed + res.dropped == res.generated
        assert int(res.node_drops.sum()) == res.dropped
        assert len(res.delays) == res.completed
        assert 0.0 < res.loss_probability < 1.0

    def test_huge_cap_equals_uncapped(self):
        """Caps that never bind leave the numpy run exactly the uncapped
        one (the admission scan never starts)."""
        mesh = ArrayMesh(5)
        args = (GreedyArrayRouter(mesh), UniformDestinations(25), 0.3)
        kw = dict(seed=7, backend=NUMPY_BACKEND)
        capped = FiniteBufferNetworkSimulation(
            *args, buffer_size=10**9, **kw
        ).run(30.0, 500.0, track_utilization=True, collect_delays=True)
        free = NetworkSimulation(*args, **kw).run(
            30.0, 500.0, track_utilization=True, collect_delays=True
        )
        assert capped.dropped == 0
        assert capped.node_drops.tolist() == [0] * 25
        for attr in (
            "generated", "completed", "in_flight_at_end", "mean_delay",
            "delay_half_width", "mean_number", "mean_remaining",
        ):
            assert getattr(capped, attr) == getattr(free, attr), attr
        assert capped.utilization.tolist() == free.utilization.tolist()
        assert capped.delays.tolist() == free.delays.tolist()

    def test_level_of_retired_visits_only(self):
        """A drop can retire every visit of a later level: packet 0
        (0 -> 1) holds edge 0 over [0, 1]; packet 1 (0 -> 2) reaches it
        at 0.5 with no waiting room, so the only visit of edge 1 belongs
        to a dropped packet and that level has nothing to solve."""
        from repro.sim.kernels.levels import _fifo_departures, _sweep_levels
        from repro.sim.kernels.numpy_backend import _draw_paths

        line = LinearArray(3)
        router = GreedyKDRouter(line)  # 0 -> 1 is [0], 0 -> 2 is [0, 1]
        sim = FiniteBufferNetworkSimulation(
            router, AlwaysNodeZero(), [1.0, 0.0, 0.0],
            buffer_size=0, backend=NUMPY_BACKEND,
        )
        visits, lens, edge_lvl = _draw_paths(
            sim, np.array([0, 0]), np.array([1, 2]), None
        )
        cap = np.zeros(line.num_edges)
        sweep = _sweep_levels(
            sim, visits, lens, edge_lvl, np.array([0.0, 0.5]),
            lambda e, x: _fifo_departures(e, x, 1.0, line.num_edges, cap),
            lambda d: d, 0.0, 10.0, None, np.array([True, True]),
        )
        survived, edge_drops = sweep.drops
        assert survived.tolist() == [True, False]
        assert sweep.final.tolist() == [1.0, 0.5]
        assert edge_drops.tolist() == [1, 0, 0, 0]
        # Units of packet 1's two hops end at its drop time 0.5.
        assert sweep.sum_all == pytest.approx(1.0 + 2 * 0.5)

    @pytest.mark.parametrize("per_edge", [False, True], ids=["unit", "per-edge"])
    def test_utilization_matches_closed_form_rates(self, per_edge):
        """Busy fraction of edge e = lam_e / phi_e."""
        mesh = ArrayMesh(6)
        lam = lambda_for_load(6, 0.6)
        phis = (
            1.0 + 0.5 * np.random.default_rng(1).random(mesh.num_edges)
            if per_edge
            else np.ones(mesh.num_edges)
        )
        res = NetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(36), lam,
            service_rates=phis, seed=4, backend=NUMPY_BACKEND,
        ).run(100.0, 4000.0, track_utilization=True)
        target = array_edge_rates(mesh, lam) / phis
        assert np.abs(res.utilization - target).max() < 0.03


def _tail_drop_reference(e, x, c, cap):
    """Scalar FIFO queue per edge with tail-drop: an arrival is dropped
    iff it finds ``cap + 1`` admitted packets still in the system."""
    d = np.empty_like(x)
    dropped = np.zeros(x.size, dtype=bool)
    for edge in np.unique(e):
        present = []  # departures of the admitted packets, ascending
        last = -np.inf
        for i in sorted(np.flatnonzero(e == edge), key=lambda i: x[i]):
            present = [t for t in present if t > x[i]]
            if len(present) >= cap[edge] + 1:
                dropped[i] = True
                d[i] = x[i]
                continue
            last = max(x[i], last) + c[edge]
            d[i] = last
            present.append(last)
    return d, dropped


class TestTailDropAdmission:
    """The vectorized admission scan against a scalar reference loop on
    random arrivals (heavy load, per-edge service and caps)."""

    @pytest.mark.parametrize(
        "caps",
        ["zero", "mixed", "huge"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_reference(self, caps, seed):
        from repro.sim.kernels.levels import _fifo_departures

        rng = np.random.default_rng(seed)
        n_edges, n_visits = 5, 600
        e = rng.integers(0, n_edges, size=n_visits).astype(np.int16)
        x = rng.uniform(0.0, 150.0, size=n_visits)
        c = rng.uniform(0.5, 1.6, size=n_edges)
        cap = {
            "zero": np.zeros(n_edges),
            "mixed": np.array([0.0, 1.0, 2.0, 4.0, 8.0]),
            "huge": np.full(n_edges, 1e9),
        }[caps]
        want_d, want_drop = _tail_drop_reference(e, x, c, cap)
        got = x.copy()
        drop = _fifo_departures(e, got, c, n_edges, cap)
        got_drop = np.zeros(n_visits, dtype=bool) if drop is None else drop
        assert got_drop.tolist() == want_drop.tolist()
        np.testing.assert_allclose(got, want_d, rtol=1e-12)
        if caps == "huge":
            assert drop is None
        else:
            assert want_drop.any()


class TestTailDropParity:
    """Distribution level: capped numpy runs estimate the same loss,
    survivor delay and E[N] as the python loops, within the two pooled
    CIs."""

    @staticmethod
    def _both(**kw):
        return [
            replicate(
                CellSpec(
                    warmup=50.0, horizon=800.0, seeds=(1, 2, 3, 4, 5),
                    **kw,
                ).with_engine_params(backend=backend),
                processes=1,
            )
            for backend in (PYTHON_BACKEND, NUMPY_BACKEND)
        ]

    @staticmethod
    def _close(a, b, mean, hw):
        assert abs(getattr(a, mean) - getattr(b, mean)) <= (
            getattr(a, hw) + getattr(b, hw)
        ), mean

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_loss_delay_number_within_cis(self, k):
        py, nu = self._both(
            scenario="uniform", n=6, rho=0.9, engine="finite",
            engine_params=(("buffer_size", k),),
        )
        assert py.loss_probability > 0 and nu.loss_probability > 0
        self._close(py, nu, "loss_probability", "loss_half_width")
        self._close(py, nu, "mean_delay", "delay_half_width")
        self._close(py, nu, "mean_number", "number_half_width")

    def test_per_edge_service_optimal_config_cell(self):
        """A Section 5.1 cell: Theorem 15's per-edge rates at 70% of the
        standard capacity."""
        from repro.core.optimization import (
            optimal_service_rates,
            standard_capacity,
        )

        n = 6
        lam = 0.7 * standard_capacity(n)
        phis = optimal_service_rates(
            array_edge_rates(ArrayMesh(n), lam), 1.0, 4.0 * n * (n - 1)
        )
        py, nu = self._both(
            scenario="uniform", n=n, node_rate=lam,
            engine_params=(("service_rates", tuple(phis.tolist())),),
        )
        self._close(py, nu, "mean_delay", "delay_half_width")
        self._close(py, nu, "mean_number", "number_half_width")


#: Routers without closed-form edge levels, with a destination law.
UNLEVELLED = {
    "torus": lambda: (GreedyTorusRouter(Torus(4)), UniformDestinations(16)),
    "randomized": lambda: (
        RandomizedGreedyArrayRouter(ArrayMesh(4)),
        UniformDestinations(16),
    ),
    "randomized-p1": lambda: (
        RandomizedGreedyArrayRouter(ArrayMesh(4), row_first_probability=1.0),
        UniformDestinations(16),
    ),
    "tabulated": lambda: (
        TabulatedRouter(
            LinearArray(2), {(0, 1): [0], (1, 0): [1], (0, 0): [], (1, 1): []}
        ),
        UniformDestinations(2),
    ),
}

#: The three engines that offer the numpy kernels.
NUMPY_ENGINES = {
    "fifo": NetworkSimulation,
    "finite": lambda *a, **kw: FiniteBufferNetworkSimulation(
        *a, buffer_size=2, **kw
    ),
    "slotted": SlottedNetworkSimulation,
}


class TestNumpyRejectsRoutersWithoutLevels:
    """The max-plus level sweep solves by the router's closed-form edge
    levels and works out none of its own, so a router without them
    (wrap-around, coin-dependent or tabulated routes) is rejected when
    the simulator is built, before any draw, with one message for all
    three engines that points back to the reference."""

    @pytest.mark.parametrize("router_name", sorted(UNLEVELLED))
    def test_construction_raises_before_any_draw(self, router_name):
        messages = set()
        for engine_cls in NUMPY_ENGINES.values():
            router, dests = UNLEVELLED[router_name]()
            with rngsan.trace() as tracer:
                with pytest.raises(ValueError, match="backend='python'") as err:
                    engine_cls(router, dests, 0.2, seed=3, backend=NUMPY_BACKEND)
            assert tracer.generators == [] and tracer.draws == []
            messages.add(str(err.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("engine", sorted(NUMPY_ENGINES))
    def test_python_backend_accepts_the_same_routers(self, engine):
        for make in UNLEVELLED.values():
            router, dests = make()
            sim = NUMPY_ENGINES[engine](router, dests, 0.2, seed=3)
            assert sim.backend == PYTHON_BACKEND

    def test_python_backend_still_runs_the_torus(self):
        router = GreedyTorusRouter(Torus(4))
        res = NetworkSimulation(router, UniformDestinations(16), 0.2).run(
            0, 100
        )
        assert res.generated > 0


# ----------------------------------------------------------------------
# The two-backend contract: seed stability and distribution parity.


def _mesh_sims(engine_cls, dests_factory, n, rate, seed, backend):
    mesh = ArrayMesh(n)
    return engine_cls(
        GreedyArrayRouter(mesh),
        dests_factory(n * n),
        rate,
        seed=seed,
        backend=backend,
    )


class TestSeedStability:
    @pytest.mark.parametrize("engine_cls", [NetworkSimulation, SlottedNetworkSimulation])
    def test_same_seed_same_result(self, engine_cls):
        horizon = (10, 300) if engine_cls is SlottedNetworkSimulation else (10.0, 300.0)
        a = _mesh_sims(engine_cls, UniformDestinations, 4, 0.2, 9, NUMPY_BACKEND).run(*horizon)
        b = _mesh_sims(engine_cls, UniformDestinations, 4, 0.2, 9, NUMPY_BACKEND).run(*horizon)
        assert a.mean_delay == b.mean_delay
        assert a.mean_number == b.mean_number
        assert a.generated == b.generated
        assert a.completed == b.completed


class TestDistributionParity:
    """Same law, same load: the two backends must estimate the same
    system (they are different samplings of one distribution): mean
    delays agree within a fixed 0.35 plus three pooled CI half-widths."""

    @pytest.mark.parametrize(
        "dests_factory",
        [
            lambda n: UniformDestinations(n),
            lambda n: HotSpotDestinations(n, hot_node=7, h=0.3),
            lambda n: PermutationDestinations.transpose(ArrayMesh(6)),
        ],
        ids=["uniform", "hotspot", "transpose"],
    )
    @pytest.mark.parametrize(
        "engine_cls", [NetworkSimulation, SlottedNetworkSimulation],
        ids=["fifo", "slotted"],
    )
    def test_backends_estimate_the_same_system(self, engine_cls, dests_factory):
        slotted = engine_cls is SlottedNetworkSimulation
        window = (50, 1500) if slotted else (50.0, 1500.0)
        py = _mesh_sims(engine_cls, dests_factory, 6, 0.2, 1, PYTHON_BACKEND).run(*window)
        nu = _mesh_sims(engine_cls, dests_factory, 6, 0.2, 2, NUMPY_BACKEND).run(*window)
        tol = 0.35 + 3.0 * (py.delay_half_width + nu.delay_half_width)
        assert abs(py.mean_delay - nu.mean_delay) < tol
        assert nu.generated == pytest.approx(py.generated, rel=0.1)
        assert nu.completed > 0
        # The Little's-Law gap is a property of the workload (the hotspot
        # cell runs congested), not the backend: both must see the same one.
        assert nu.littles_law_gap == pytest.approx(py.littles_law_gap, abs=0.15)

    def test_uniform_4x4_is_workload_identical(self):
        """Under one draw block the batched streams coincide with the
        reference order for the uniform fast-id path, so the runs are
        not merely statistically close but equal — the remaining-work
        integrals R and R_s included."""
        mesh = ArrayMesh(4)
        mask = np.zeros(mesh.num_edges, dtype=bool)
        mask[::3] = True
        py, nu = (
            NetworkSimulation(
                GreedyArrayRouter(mesh), UniformDestinations(16), 0.2,
                seed=3, backend=backend, saturated_mask=mask,
            ).run(20.0, 400.0)
            for backend in (PYTHON_BACKEND, NUMPY_BACKEND)
        )
        assert nu.generated == py.generated
        assert nu.mean_delay == pytest.approx(py.mean_delay, rel=1e-12)
        assert nu.mean_number == pytest.approx(py.mean_number, rel=1e-12)
        assert nu.mean_remaining == pytest.approx(py.mean_remaining, rel=1e-12)
        assert nu.mean_remaining_saturated == pytest.approx(
            py.mean_remaining_saturated, rel=1e-12
        )

    def test_slotted_uniform_4x4_shares_the_workload(self):
        """Per-slot Poisson blocks concatenate identically, so the two
        backends simulate the *same arrivals*; only equal-eligibility
        service ties may swap, which perturbs individual delays without
        moving the workload. Counts are exact, the mean is pinned far
        inside statistical tolerance."""
        py = _mesh_sims(
            SlottedNetworkSimulation, UniformDestinations, 4, 0.2, 3, PYTHON_BACKEND
        ).run(20, 400)
        nu = _mesh_sims(
            SlottedNetworkSimulation, UniformDestinations, 4, 0.2, 3, NUMPY_BACKEND
        ).run(20, 400)
        assert nu.generated == py.generated
        assert nu.zero_hop == py.zero_hop
        assert nu.mean_delay == pytest.approx(py.mean_delay, rel=0.01)
        assert nu.mean_number == pytest.approx(py.mean_number, rel=0.01)

    def test_collected_delays_match_summary(self):
        for engine_cls, window in [
            (NetworkSimulation, (10.0, 300.0)),
            (SlottedNetworkSimulation, (10, 300)),
        ]:
            res = _mesh_sims(
                engine_cls, UniformDestinations, 4, 0.2, 5, NUMPY_BACKEND
            ).run(*window, collect_delays=True)
            assert res.delays is not None
            assert len(res.delays) == res.completed
            assert float(np.sum(res.delays)) / len(res.delays) == pytest.approx(
                res.mean_delay, rel=1e-9
            )

    def test_saturated_tracking_parity(self):
        """mean_remaining_saturated is supported (unlike the maxima)
        and must estimate the same R_s as the reference."""
        mesh = ArrayMesh(6)
        mask = np.zeros(mesh.num_edges, dtype=bool)
        mask[: mesh.num_edges // 2] = True
        kw = dict(saturated_mask=mask)
        py = NetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(36), 0.2, seed=1, **kw
        ).run(50.0, 1500.0)
        nu = NetworkSimulation(
            GreedyArrayRouter(mesh),
            UniformDestinations(36),
            0.2,
            seed=2,
            backend=NUMPY_BACKEND,
            **kw,
        ).run(50.0, 1500.0)
        assert nu.mean_remaining_saturated == pytest.approx(
            py.mean_remaining_saturated, abs=0.3 + 0.2 * py.mean_remaining_saturated
        )


class TestRandomizedRouterParity:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_randomized_greedy_is_refused_on_numpy(self, seed):
        """Coin-dependent routes have no closed-form levels: every seed
        is refused alike, never solved on some seeds and not others."""
        router = RandomizedGreedyArrayRouter(ArrayMesh(4))
        with pytest.raises(ValueError, match="backend='python'"):
            NetworkSimulation(
                router, UniformDestinations(16), 0.2, seed=seed,
                backend=NUMPY_BACKEND,
            )


# ----------------------------------------------------------------------
# Batched boundary draws (the side='right' contract, batch edition).


def _two_node_router():
    return GreedyKDRouter(LinearArray(2))  # 0 -> 1 is [0], 1 -> 0 is [1]


class TestBatchedSourceDrawBoundary:
    """node_rate=[0.0, 1.0]: a boundary draw in the blocked source batch
    must never pick the dead source (regression for the batched
    analogue of the side='left' bug)."""

    @pytest.mark.parametrize(
        "engine_cls, window",
        [(NetworkSimulation, (0.0, 300.0)), (SlottedNetworkSimulation, (0, 300))],
        ids=["fifo", "slotted"],
    )
    def test_zero_rate_source_never_generates(self, engine_cls, window, monkeypatch):
        real = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed=None: BoundaryRNG(real(seed))
        )
        sim = engine_cls(
            _two_node_router(),
            AlwaysNodeZero(),
            [0.0, 1.0],
            seed=11,
            backend=NUMPY_BACKEND,
        )
        res = sim.run(*window)
        # Packets from source 0 would be zero-hop (dst == 0); with the
        # boundary draw handled, every packet originates at source 1.
        assert res.generated > 0
        assert res.zero_hop == 0


# ----------------------------------------------------------------------
# Level cache, direct routing and path gather.


class TestKernelLevelCache:
    def test_cache_growth_matches_fresh_cache(self):
        """A router that served a narrower workload first, on a shared
        path cache that run grew, must produce the same trajectory as a
        fresh router."""
        mesh = ArrayMesh(5)
        router = GreedyArrayRouter(mesh)
        shared = path_cache_for(router)
        # Warm with a narrow workload, then run a wide one on the grown cache.
        NetworkSimulation(
            router,
            HotSpotDestinations(25, hot_node=3, h=0.9),
            0.1,
            seed=1,
            path_cache=shared,
            backend=NUMPY_BACKEND,
        ).run(0.0, 100.0)
        grown = NetworkSimulation(
            router, UniformDestinations(25), 0.2, seed=4,
            path_cache=shared, backend=NUMPY_BACKEND,
        ).run(10.0, 300.0)
        fresh = NetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(25), 0.2, seed=4,
            backend=NUMPY_BACKEND,
        ).run(10.0, 300.0)
        assert grown.mean_delay == fresh.mean_delay
        assert grown.mean_number == fresh.mean_number
        assert grown.mean_remaining == fresh.mean_remaining
        assert grown.generated == fresh.generated


class TestNumpyRunsLeaveThePathCacheEmpty:
    """The numpy kernels route each run straight from the router: the
    shared path cache (the interpreted loops' memo) is neither read nor
    grown, and the levels are the router's own, kept nowhere."""

    @pytest.mark.parametrize("engine", ["fifo", "slotted"])
    def test_deterministic_cache_stays_empty(self, engine):
        router = GreedyArrayRouter(ArrayMesh(5))
        cache = path_cache_for(router)
        args = (router, UniformDestinations(25), 0.2)
        kw = dict(seed=3, path_cache=cache, backend=NUMPY_BACKEND)
        if engine == "fifo":
            res = NetworkSimulation(*args, **kw).run(5.0, 100.0)
        else:
            res = SlottedNetworkSimulation(*args, **kw).run(5, 100)
        assert res.generated > 0
        assert len(cache) == 0 and len(cache.arena) == 0
        assert not hasattr(cache, "_kernel_levels")

    def test_randomized_cache_stays_empty(self):
        """A randomized router is refused at construction, before its
        cache is read or grown."""
        router = RandomizedGreedyArrayRouter(ArrayMesh(3), row_first_probability=1.0)
        cache = path_cache_for(router)
        with pytest.raises(ValueError, match="backend='python'"):
            NetworkSimulation(
                router, UniformDestinations(9), 0.2, seed=3,
                path_cache=cache, backend=NUMPY_BACKEND,
            )
        assert len(cache.arena) == 0
        assert len(cache.row_first) == len(cache.col_first) == 0


class TestGatherPaths:
    @staticmethod
    def _flat_with(paths):
        """The paths concatenated as one int32 array, and their offsets."""
        flat = np.array([e for p in paths for e in p], dtype=np.int32)
        offs = np.cumsum([0] + [len(p) for p in paths])[:-1]
        return flat, offs

    def test_fast_path_matches_concatenation(self):
        flat, offs = self._flat_with([[3, 1, 4], [1, 5], [9, 2, 6, 5]])
        got = gather_paths(flat, offs, np.array([3, 2, 4]))
        assert got.dtype == np.int32
        assert got.tolist() == [3, 1, 4, 1, 5, 9, 2, 6, 5]

    def test_zero_length_paths_use_fallback(self):
        flat, offs = self._flat_with([[3, 1, 4], [1, 5]])
        got = gather_paths(flat, [offs[0], offs[1], offs[0]], np.array([3, 0, 2]))
        assert got.tolist() == [3, 1, 4, 3, 1]

    def test_repeated_and_out_of_order_views(self):
        flat, offs = self._flat_with([[7, 8], [2, 4, 6]])
        got = gather_paths(flat, [offs[1], offs[0], offs[1]], np.array([3, 2, 3]))
        assert got.tolist() == [2, 4, 6, 7, 8, 2, 4, 6]

    def test_no_views(self):
        got = gather_paths(np.arange(4, dtype=np.int32), [], [])
        assert got.dtype == np.int32 and got.size == 0

    def test_many_blocks_match_concatenation(self):
        """An output of several blocks, with empty paths and one path
        longer than a block, matches plain concatenation."""
        from repro.routing.pathcache import _GATHER_CHUNK

        rng = np.random.default_rng(5)
        flat = rng.integers(0, 1000, 100_000).astype(np.int32)
        lens = rng.integers(0, 40, 8000)
        lens[[0, 3000]] = 0
        lens[5000] = _GATHER_CHUNK + 7
        offs = rng.integers(0, flat.size - lens + 1)
        got = gather_paths(flat, offs, lens)
        assert got.size > 3 * _GATHER_CHUNK
        want = np.concatenate([flat[o : o + n] for o, n in zip(offs, lens)])
        assert got.tolist() == want.tolist()


class TestKernelMemory:
    def test_fifo_peak_stays_within_25_bytes_per_visit(self, monkeypatch):
        """The numpy fifo kernel's traced peak on a fixed 8x8, rho=0.9
        grid-style cell (saturated edges tracked) stays within 25 bytes
        per visit: an int16/int32 level layout of edge and packet ids,
        one value per packet and per-level window sums (a per-visit value
        buffer with next-hop positions took ~26; the full-size departure,
        arrival and overlap arrays before it ~93)."""
        from repro.sim.kernels import numpy_backend

        visits = []
        route = numpy_backend.route_packets

        def counting_route(*args):
            out = route(*args)
            visits.append(out[0].size)
            return out

        monkeypatch.setattr(numpy_backend, "route_packets", counting_route)
        mesh = ArrayMesh(8)
        lam = lambda_for_load(8, 0.9)
        sim = NetworkSimulation(
            GreedyArrayRouter(mesh),
            UniformDestinations(64),
            lam,
            seed=13,
            backend=NUMPY_BACKEND,
            saturated_mask=saturated_edge_mask(array_edge_rates(mesh, lam)),
        )
        sim.run(0.0, 100.0)  # build the kernel level cache
        visits.clear()
        tracemalloc.start()
        try:
            sim.run(200.0, 2000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert visits[0] > 300_000
        assert peak / visits[0] <= 25.0


# ----------------------------------------------------------------------
# The interpreted kernels' clocks and deferred delay folds.


def _per_edge_rates(mesh):
    return 1.0 + 0.5 * (np.arange(mesh.num_edges) % 4 == 0)


def _interpreted_runs():
    """One small cell per interpreted loop: name -> thunk returning a
    SimResult (python backend throughout)."""
    m = ArrayMesh(4)
    dests = UniformDestinations(16)
    sat = np.arange(m.num_edges) % 3 == 0
    window = (5.0, 120.0)

    def fifo(rate=0.15, run_kw=(), router=None, **kw):
        router = router or GreedyArrayRouter(m)
        sim = NetworkSimulation(router, dests, rate, seed=3, **kw)
        return lambda: sim.run(*window, **dict(run_kw))

    return {
        # Torus routes are cyclic, so the plain run stays on the merge
        # loop rather than the python kernel's level path.
        "fifo-plain-merge": fifo(router=GreedyTorusRouter(Torus(4))),
        "fifo-general-merge": fifo(
            saturated_mask=sat,
            run_kw=dict(
                track_number_distribution=True,
                track_utilization=True,
                track_maxima=True,
            ),
        ),
        # Maxima keep the exponential run on the heap loop rather than
        # the python kernel's level path.
        "fifo-heap-exponential": fifo(
            0.10,
            service="exponential",
            run_kw=dict(track_utilization=True, track_maxima=True),
        ),
        "fifo-heap-peredge": fifo(service_rates=_per_edge_rates(m)),
        "finite-caps": lambda: FiniteBufferNetworkSimulation(
            GreedyArrayRouter(m), dests, 0.2, seed=4, buffer_size=1
        ).run(*window),
        "rushed-uniform": lambda: RushedNetworkSimulation(
            GreedyArrayRouter(m), dests, 0.12, seed=5
        ).run(*window),
        "rushed-peredge": lambda: RushedNetworkSimulation(
            GreedyArrayRouter(m), dests, 0.12, seed=6,
            service_rates=_per_edge_rates(m),
        ).run(*window),
        "slotted": lambda: SlottedNetworkSimulation(
            GreedyArrayRouter(m), dests, 0.12, seed=7
        ).run(5, 120),
        # Torus routes are cyclic, so the run stays on the heap loop
        # rather than the PS level path.
        "ps": lambda: PSNetworkSimulation(
            GreedyTorusRouter(Torus(4)), dests, 0.12, seed=8
        ).run(*window),
    }


_INTERPRETED = sorted(_interpreted_runs())


class TestInterpretedFloats:
    @pytest.mark.parametrize("name", _INTERPRETED)
    def test_clock_is_a_python_float(self, name):
        """The interpreted loops keep their clocks, heap keys and
        integrals as builtin floats: an RNG block indexed as a numpy
        array again would turn these into np.float64."""
        res = _interpreted_runs()[name]()
        assert res.completed > 0
        assert type(res.mean_number) is float
        assert type(res.mean_delay) is float


def _hex(v):
    return float(v).hex()


class TestDeferredDelayFold:
    """Folding the buffered (birth, delay) pairs every few pairs gives
    the same batch sums as one fold after the loop."""

    @pytest.fixture
    def small_folds(self, monkeypatch):
        """Fold every 7 pairs and record each fold's size."""
        sizes = []
        fold = measurement.TimeBatchAccumulator.fold

        def counting_fold(acc):
            sizes.append(len(acc.pending_times))
            fold(acc)

        def use():
            monkeypatch.setattr(measurement, "FOLD_PAIRS", 7)
            monkeypatch.setattr(
                measurement.TimeBatchAccumulator, "fold", counting_fold
            )
            return sizes

        return use

    @pytest.mark.parametrize(
        "name",
        ["fifo-plain-merge", "fifo-heap-exponential", "slotted", "ps"],
    )
    def test_chunked_fold_matches_default(self, name, small_folds):
        want = _interpreted_runs()[name]()
        sizes = small_folds()
        got = _interpreted_runs()[name]()
        assert len(sizes) > 10  # many flush boundaries crossed
        assert max(sizes) <= 7
        assert sum(sizes) == got.completed == want.completed
        assert _hex(got.mean_delay) == _hex(want.mean_delay)
        assert _hex(got.delay_half_width) == _hex(want.delay_half_width)

    @pytest.mark.parametrize("engine", ["fifo", "ps"])
    def test_chunked_fold_keeps_collected_delays(self, engine, small_folds):
        m = ArrayMesh(4)
        cls = NetworkSimulation if engine == "fifo" else PSNetworkSimulation
        # collect_delays keeps a fifo run on its loops; a torus keeps a PS
        # run on the heap loop.
        router = (
            GreedyArrayRouter(m) if engine == "fifo" else GreedyTorusRouter(Torus(4))
        )

        def run():
            sim = cls(router, UniformDestinations(16), 0.12, seed=9)
            return sim.run(5.0, 120.0, collect_delays=True)

        want = run()
        small_folds()
        got = run()
        assert got.delays.size == got.completed
        assert got.delays.tobytes() == want.delays.tobytes()

    @pytest.mark.parametrize("cls", [NetworkSimulation, PSNetworkSimulation])
    def test_empty_delay_window(self, cls, small_folds):
        """No packet is born in the window: every fold is empty and the
        delay estimate is nan, as with the default chunk. (The uncached
        interner keeps the fifo run on the merge loop.)"""
        router = GreedyArrayRouter(ArrayMesh(3))

        def run():
            sim = cls(
                router, UniformDestinations(9), 1e-6, seed=2,
                path_cache=SampledPathInterner(router),
            )
            return sim.run(1.0, 2.0)

        want = run()
        sizes = small_folds()
        got = run()
        assert got.completed == want.completed == 0
        assert sizes and set(sizes) == {0}
        assert math.isnan(got.mean_delay) and math.isnan(want.mean_delay)
        assert _hex(got.delay_half_width) == _hex(want.delay_half_width)


# ----------------------------------------------------------------------
# Optional-dependency boundary (subprocess isolation).


class TestOptionalDependencyBoundary:
    def _run(self, code):
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_python_backend_never_imports_numpy_backend(self):
        """backend='python' runs must not touch the vectorized module;
        a meta-path blocker turns any import attempt into a hard fail."""
        code = f"""
import sys
sys.path.insert(0, {SRC!r})

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name == "repro.sim.kernels.numpy_backend":
            raise ImportError("numpy_backend imported during a python-backend run")
        return None

sys.meta_path.insert(0, Blocker())

from repro.routing.greedy import GreedyArrayRouter
from repro.routing.destinations import UniformDestinations
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.slotted import SlottedNetworkSimulation
from repro.sim.finite_buffer import FiniteBufferNetworkSimulation
from repro.sim.rushed_network import RushedNetworkSimulation
from repro.topology.array_mesh import ArrayMesh

mesh = ArrayMesh(4)
args = (GreedyArrayRouter(mesh), UniformDestinations(16), 0.2)
assert NetworkSimulation(*args, seed=1).run(0, 100).generated > 0
assert SlottedNetworkSimulation(*args, seed=1).run(0, 100).generated > 0
assert FiniteBufferNetworkSimulation(*args, buffer_size=2, seed=1).run(0, 100).generated > 0
assert RushedNetworkSimulation(*args, seed=1).run(0, 100).generated > 0
assert "repro.sim.kernels.numpy_backend" not in sys.modules
print("BOUNDARY-OK")
"""
        proc = self._run(code)
        assert proc.returncode == 0, proc.stderr
        assert "BOUNDARY-OK" in proc.stdout

    def test_kernels_package_works_without_numpy(self):
        """With numpy unfindable, the selection layer still imports
        (loaded standalone — the engines themselves require numpy, the
        *selection module* is the numpy-free boundary), reports
        unavailability, and raises the actionable error."""
        kernels_init = str(
            Path(SRC) / "repro" / "sim" / "kernels" / "__init__.py"
        )
        code = f"""
import importlib.util
import sys
sys.path = [p for p in sys.path if "site-packages" not in p and "dist-packages" not in p]
spec = importlib.util.spec_from_file_location("kernels_standalone", {kernels_init!r})
kernels = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernels)
assert not kernels.numpy_available()
assert kernels.check_backend("python") == "python"
try:
    kernels.check_backend("numpy")
except ValueError as err:
    assert "fast" in str(err) and "backend='python'" in str(err), err
else:
    raise AssertionError("check_backend('numpy') should have raised")
print("NO-NUMPY-OK")
"""
        proc = self._run(code)
        assert proc.returncode == 0, proc.stderr
        assert "NO-NUMPY-OK" in proc.stdout


# ----------------------------------------------------------------------
# Registry and facade integration.


class TestRegistryBackendParam:
    def test_kernel_engines_advertise_both_backends(self):
        for name in ("fifo", "slotted", "finite"):
            assert get_engine(name).backends == KERNEL_BACKENDS
        for name in ("rushed", "ps"):
            assert get_engine(name).backends == (PYTHON_BACKEND,)

    def test_backend_param_listed(self):
        for name in ("fifo", "slotted", "finite"):
            param = get_engine(name).param("backend")
            assert param.choices == KERNEL_BACKENDS
            assert param.default == PYTHON_BACKEND

    def test_spec_rejects_numpy_with_track_maxima(self):
        with pytest.raises(ValueError, match="track_maxima"):
            CellSpec(
                scenario="uniform",
                n=4,
                node_rate=0.3,
                track_maxima=True,
                engine_params=(("backend", "numpy"),),
            )

    def test_spec_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="python/numpy"):
            CellSpec(
                scenario="uniform",
                n=4,
                node_rate=0.3,
                engine_params=(("backend", "mlx"),),
            )

    @pytest.mark.parametrize("engine", ["fifo", "slotted", "finite"])
    def test_numpy_replication_runs(self, engine):
        spec = CellSpec(
            scenario="uniform",
            n=4,
            node_rate=0.3,
            engine=engine,
            warmup=10,
            horizon=150,
            seeds=(0, 1),
            engine_params=(("backend", "numpy"),),
        )
        pooled = replicate(spec, processes=1)
        assert all(r.completed > 0 for r in pooled.replications)

    def test_slotted_cell_splits_constructor_and_run_params(self):
        """Every slotted engine param is a constructor param: the cell
        builder passes ``backend`` straight to the simulator."""
        spec = CellSpec(
            scenario="uniform",
            n=4,
            node_rate=0.3,
            engine="slotted",
            warmup=10,
            horizon=150,
            seeds=(0,),
            engine_params=(("backend", "python"),),
        )
        pooled = replicate(spec, processes=1)
        assert pooled.replications[0].completed > 0
