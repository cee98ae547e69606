"""Quick-tier mean-value checks: every engine against its closed form.

Each check runs a small replicated cell through the standard
``CellSpec``/``ReplicationEngine`` facade and scores the pooled means
against the exact analytic target with :func:`~repro.validation.framework.z_comparison`:

* ``mm1-delay`` — the fifo engine with exponential service on the
  isolated single-queue scenario *is* an M/M/1 queue: mean delay
  ``1/(1-rho)`` and mean number ``rho/(1-rho)``.
* ``md1-delay-fifo`` / ``md1-delay-slotted`` — deterministic service on
  the same cell is an M/D/1 queue (Pollaczek-Khinchin); the slotted
  engine at ``tau=1`` reproduces the same law, and both kernel backends
  of both engines are scored separately, so a biased vectorized solver
  is named individually.
* ``mm1k-loss`` — the finite engine with ``buffer_size=K`` on the single
  queue is an M/M/1/K system of capacity ``K+1``
  (:class:`repro.queueing.MM1KQueue`): loss probability and mean number.
* ``md1k-loss`` — the same cell with deterministic service is M/D/1/K
  (:class:`repro.queueing.MD1KQueue`, the truncated M/D/1
  departure-epoch chain), on both kernel backends: the numpy kernel's
  tail-drop admission is held to a queueing law, not only to a delay
  identity.
* ``jackson-mesh`` — fifo with exponential service on the uniform mesh
  is an open Jackson network: mean number from
  :class:`~repro.queueing.ProductFormNetwork` and mean delay via
  Little's Law against the total external rate (zero-hop packets
  included, per the paper's convention).
* ``productform-ps`` — the PS engine on the same workload reaches the
  same product form with *deterministic* service (insensitivity).
* ``rushed-number`` — Theorem 10's rushed system: every edge queue is an
  independent M/D/1, so ``E[N] = sum_e MD1(lam_e).mean_number()`` (its
  makespan delay statistic has no closed form and is bounded, not
  pinned).
* ``littles-law-*`` — for every engine whose registry entry claims
  ``littles_law``, the worst across-replication relative residual
  between the direct delay average and ``E[N]/rate`` must stay under
  :data:`~repro.validation.framework.LITTLE_GATE`.
"""

from __future__ import annotations

import numpy as np

from repro.core.rates import array_edge_rates, lambda_for_load
from repro.queueing import (
    MD1KQueue,
    MD1Queue,
    MM1KQueue,
    MM1Queue,
    ProductFormNetwork,
)
from repro.sim.fifo_network import DETERMINISTIC, EXPONENTIAL
from repro.sim.registry import available_engines
from repro.sim.replication import CellSpec
from repro.topology.array_mesh import ArrayMesh
from repro.validation.framework import (
    GATE,
    LITTLE_GATE,
    QUICK,
    Comparison,
    ValidationCheck,
    backend_engine_params,
    register_check,
    run_cell,
    z_comparison,
)

#: The single-queue reference load and the quick-tier cell window. Eight
#: replications keep the across-replication se estimate honest (the
#: z-gate's 1.96 multiplier is optimistic at small R).
RHO_SINGLE = 0.7
SINGLE = dict(scenario="single", n=2, warmup=300.0, horizon=8000.0,
              seeds=tuple(range(8)))

#: The mesh reference cell (Jackson / product-form / rushed checks).
N_MESH, RHO_MESH = 4, 0.6
MESH = dict(scenario="uniform", n=N_MESH, rho=RHO_MESH, warmup=200.0,
            horizon=2500.0, seeds=tuple(range(6)))


def _mesh_product_form() -> tuple[ProductFormNetwork, float]:
    """The exact Jackson equilibrium of the uniform mesh cell and its
    total external rate (the Little's-Law denominator, zero-hop packets
    included)."""
    lam = lambda_for_load(N_MESH, RHO_MESH, "exact")
    rates = array_edge_rates(ArrayMesh(N_MESH), lam)
    pf = ProductFormNetwork.from_rates(tuple(rates))
    return pf, lam * N_MESH * N_MESH


def _mm1_delay(backend: str, processes: int | None) -> list[Comparison]:
    q = MM1Queue(RHO_SINGLE)
    res = run_cell(
        CellSpec(engine="fifo", service=EXPONENTIAL,
                 rho=RHO_SINGLE, engine_params=backend_engine_params(backend),
                 **SINGLE),
        processes,
    )
    return [
        z_comparison("mean_delay", res.mean_delay, q.mean_delay(),
                     res.delay_half_width),
        z_comparison("mean_number", res.mean_number, q.mean_number(),
                     res.number_half_width),
    ]


def _md1_delay(engine: str):
    def runner(backend: str, processes: int | None) -> list[Comparison]:
        q = MD1Queue(RHO_SINGLE)
        res = run_cell(
            CellSpec(engine=engine, service=DETERMINISTIC, rho=RHO_SINGLE,
                     engine_params=backend_engine_params(backend), **SINGLE),
            processes,
        )
        return [
            z_comparison("mean_delay", res.mean_delay, q.mean_delay(),
                         res.delay_half_width),
            z_comparison("mean_number", res.mean_number, q.mean_number(),
                         res.number_half_width),
        ]

    return runner


#: Waiting room of the M/M/1/K and M/D/1/K loss cells (system capacity
#: K+1) and their offered load — high enough that ~17% (exponential) or
#: ~10% (deterministic) of packets drop, so the loss CI is tight at
#: quick-tier horizons.
BUFFER_K, RHO_LOSS = 2, 0.8


def _loss(service: str):
    """Loss probability and mean number of the finite single-queue cell
    against M/M/1/K (exponential service) or M/D/1/K (deterministic)."""
    queue = MM1KQueue if service == EXPONENTIAL else MD1KQueue

    def runner(backend: str, processes: int | None) -> list[Comparison]:
        q = queue.from_buffer(RHO_LOSS, BUFFER_K)
        res = run_cell(
            CellSpec(engine="finite", service=service, rho=RHO_LOSS,
                     engine_params=backend_engine_params(backend)
                     + (("buffer_size", BUFFER_K),),
                     **SINGLE),
            processes,
        )
        return [
            z_comparison("loss_probability", res.loss_probability,
                         q.blocking_probability(), res.loss_half_width),
            z_comparison("mean_number", res.mean_number, q.mean_number(),
                         res.number_half_width),
        ]

    return runner


def _jackson_mesh(backend: str, processes: int | None) -> list[Comparison]:
    pf, total_rate = _mesh_product_form()
    res = run_cell(
        CellSpec(engine="fifo", service=EXPONENTIAL,
                 engine_params=backend_engine_params(backend), **MESH),
        processes,
    )
    return [
        z_comparison("mean_number", res.mean_number, pf.mean_number(),
                     res.number_half_width),
        z_comparison("mean_delay", res.mean_delay,
                     pf.mean_delay(total_rate), res.delay_half_width),
    ]


def _productform_ps(backend: str, processes: int | None) -> list[Comparison]:
    pf, total_rate = _mesh_product_form()
    res = run_cell(
        CellSpec(engine="ps", service=DETERMINISTIC,
                 engine_params=backend_engine_params(backend), **MESH),
        processes,
    )
    return [
        z_comparison("mean_number", res.mean_number, pf.mean_number(),
                     res.number_half_width),
        z_comparison("mean_delay", res.mean_delay,
                     pf.mean_delay(total_rate), res.delay_half_width),
    ]


def _rushed_number(backend: str, processes: int | None) -> list[Comparison]:
    lam = lambda_for_load(N_MESH, RHO_MESH, "exact")
    rates = array_edge_rates(ArrayMesh(N_MESH), lam)
    expected = float(
        sum(MD1Queue(r).mean_number() for r in rates if r > 0)
    )
    res = run_cell(
        CellSpec(engine="rushed", service=DETERMINISTIC,
                 engine_params=backend_engine_params(backend), **MESH),
        processes,
    )
    return [
        z_comparison("mean_number", res.mean_number, expected,
                     res.number_half_width),
    ]


def _littles_law(engine: str, service: str):
    def runner(backend: str, processes: int | None) -> list[Comparison]:
        res = run_cell(
            CellSpec(engine=engine, service=service,
                     engine_params=backend_engine_params(backend), **MESH),
            processes,
        )
        gap = res.littles_law_gap
        return [
            Comparison(metric="littles_law_gap", observed=gap, expected=0.0,
                       statistic=gap if np.isfinite(gap) else float("inf"),
                       threshold=LITTLE_GATE),
        ]

    return runner


register_check(ValidationCheck(
    name="mm1-delay",
    description="fifo + exponential on the single queue is M/M/1 "
    "(mean delay and number)",
    severity=GATE, tier=QUICK, engine="fifo", backends=("python",),
    runner=_mm1_delay,
))
register_check(ValidationCheck(
    name="md1-delay-fifo",
    description="fifo + deterministic on the single queue is M/D/1 "
    "(Pollaczek-Khinchin), both kernel backends",
    severity=GATE, tier=QUICK, engine="fifo",
    backends=("python", "numpy"),
    runner=_md1_delay("fifo"),
))
register_check(ValidationCheck(
    name="md1-delay-slotted",
    description="slotted at tau=1 on the single queue is M/D/1, both "
    "kernel backends",
    severity=GATE, tier=QUICK, engine="slotted",
    backends=("python", "numpy"),
    runner=_md1_delay("slotted"),
))
register_check(ValidationCheck(
    name="md1-delay-finite",
    description="finite with buffer_size=None on the single queue is "
    "M/D/1 (the infinite-buffer identity), both kernel backends",
    severity=GATE, tier=QUICK, engine="finite",
    backends=("python", "numpy"),
    runner=_md1_delay("finite"),
))
register_check(ValidationCheck(
    name="mm1k-loss",
    description="finite + exponential on the single queue is M/M/1/K "
    "(loss probability and mean number)",
    severity=GATE, tier=QUICK, engine="finite", backends=("python",),
    runner=_loss(EXPONENTIAL),
))
register_check(ValidationCheck(
    name="md1k-loss",
    description="finite + deterministic on the single queue is M/D/1/K "
    "(loss probability and mean number), both kernel backends",
    severity=GATE, tier=QUICK, engine="finite",
    backends=("python", "numpy"),
    runner=_loss(DETERMINISTIC),
))
register_check(ValidationCheck(
    name="jackson-mesh",
    description="fifo + exponential on the uniform mesh matches the "
    "Jackson product form (mean number, Little delay)",
    severity=GATE, tier=QUICK, engine="fifo", backends=("python",),
    runner=_jackson_mesh,
))
register_check(ValidationCheck(
    name="productform-ps",
    description="the PS engine reaches the same product form with "
    "deterministic service (insensitivity)",
    severity=GATE, tier=QUICK, engine="ps", backends=("python",),
    runner=_productform_ps,
))
register_check(ValidationCheck(
    name="rushed-number",
    description="the rushed system's E[N] is the sum of independent "
    "M/D/1 edge queues (Theorem 10)",
    severity=GATE, tier=QUICK, engine="rushed", backends=("python",),
    runner=_rushed_number,
))

# One Little's-Law residual check per engine whose delay statistic obeys
# it — generated from the live registry, so a new engine claiming
# littles_law is gated automatically. Deterministic service runs on
# every engine and every kernel backend (the vectorized kernels do not
# implement exponential service), and Little's Law is service-law-blind.
for _engine in available_engines():
    if not _engine.littles_law:
        continue
    _service = _engine.services[0]
    register_check(ValidationCheck(
        name=f"littles-law-{_engine.name}",
        description=f"the {_engine.name} engine's mean delay agrees with "
        "E[N]/rate on every replication (Little's Law)",
        severity=GATE, tier=QUICK, engine=_engine.name,
        backends=_engine.backends,
        runner=_littles_law(_engine.name, _service),
    ))
