"""Loss vs. buffer size: how finite buffers erode the infinite-queue model.

The paper's bounds (and every other experiment here) assume infinite
FIFO buffers. Real routers have finite waiting room and drop packets
when it fills. This experiment sweeps the per-node buffer size ``K`` on
the standard uniform cell (the 16x16 mesh by default, the size the
finite-engine ROADMAP item calls out) through the
:class:`~repro.sim.replication.ReplicationEngine`, against the
infinite-buffer baseline (``buffer_size=None``, bit-identical to
``engine="fifo"``), and reports per-K:

* loss probability with across-replication ~95% CIs,
* the survivors' mean delay (dropped packets never complete, so tiny
  buffers *shed* exactly the packets that would have waited longest),
* mean number in system E[N].

Shape claims asserted by :func:`shape_checks`:

* conservation: every replication satisfies
  ``completed + dropped == generated``;
* the infinite-buffer baseline loses nothing;
* loss probability is non-increasing in K (up to CI slack), and the
  smallest swept buffer loses the most;
* survivor delay and E[N] never exceed the infinite-buffer baseline
  (a finite buffer can only truncate queues), and converge to it as K
  grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.backends import with_budget_backend
from repro.sim.replication import CellSpec, ReplicatedResult, ReplicationEngine
from repro.util.tables import Table


@dataclass(frozen=True)
class FiniteBufferConfig:
    """Sizing for the loss-vs-buffer-size sweep.

    ``buffer_sizes`` are the finite K values swept (ascending); the
    infinite-buffer baseline (``None``) is always appended.
    """

    n: int = 16
    rho: float = 0.9
    buffer_sizes: tuple[int, ...] = (0, 1, 2, 4, 8)
    scenario: str = "uniform"
    warmup: float = 50.0
    horizon: float = 400.0
    seeds: tuple[int, ...] = (11, 22, 33)


QUICK_FINITE = FiniteBufferConfig()
FULL_FINITE = FiniteBufferConfig(
    buffer_sizes=(0, 1, 2, 4, 8, 16, 32),
    warmup=300.0,
    horizon=3000.0,
    seeds=(11, 22, 33, 44, 55),
)


@dataclass(frozen=True)
class FiniteBufferResult:
    """Pooled results per buffer size; the last entry is the infinite
    baseline (``spec.engine_params_dict['buffer_size'] is None``)."""

    config: FiniteBufferConfig
    pooled: list[ReplicatedResult]

    @property
    def baseline(self) -> ReplicatedResult:
        return self.pooled[-1]

    def render(self) -> str:
        cfg = self.config
        t = Table(
            title=(
                f"Loss vs buffer size: {cfg.scenario} {cfg.n}x{cfg.n} at "
                f"rho={cfg.rho} (engine=finite, R={len(cfg.seeds)})"
            ),
            headers=["K", "loss", "+/-", "T (survivors)", "N", "dropped"],
        )
        for p in self.pooled:
            k = p.spec.engine_params_dict.get("buffer_size")
            t.add_row(
                [
                    "inf" if k is None else k,
                    p.loss_probability,
                    p.loss_half_width,
                    p.mean_delay,
                    p.mean_number,
                    p.dropped,
                ]
            )
        return t.render()


def to_cell_specs(config: FiniteBufferConfig = QUICK_FINITE) -> list[CellSpec]:
    """The sweep's cells: one per finite K, then the infinite baseline,
    each on the backend the shared visit budget picks (the numpy kernel
    applies tail-drop admission itself)."""
    return [
        with_budget_backend(
            CellSpec(
                scenario=config.scenario,
                n=config.n,
                rho=config.rho,
                engine="finite",
                warmup=config.warmup,
                horizon=config.horizon,
                seeds=config.seeds,
                engine_params=(("buffer_size", k),),
            )
        )
        for k in (*config.buffer_sizes, None)
    ]


def run(
    config: FiniteBufferConfig = QUICK_FINITE, *, processes: int | None = None
) -> FiniteBufferResult:
    """Sweep K (plus the infinite baseline) in one replication batch."""
    pooled = ReplicationEngine(processes=processes).run_many(
        to_cell_specs(config)
    )
    return FiniteBufferResult(config=config, pooled=pooled)


def shape_checks(result: FiniteBufferResult) -> list[str]:
    """Violated finite-buffer claims (empty = all hold)."""
    problems: list[str] = []
    base = result.baseline
    if base.dropped != 0:
        problems.append(
            f"infinite-buffer baseline dropped {base.dropped} packets"
        )
    for p in result.pooled:
        k = p.spec.engine_params_dict.get("buffer_size")
        for rep in p.replications:
            if rep.completed + rep.dropped != rep.generated:
                problems.append(
                    f"K={k}: seed {rep.seed} leaks packets "
                    f"({rep.completed}+{rep.dropped} != {rep.generated})"
                )
    finite = result.pooled[:-1]
    losses = [p.loss_probability for p in finite]
    slack = [
        p.loss_half_width if np.isfinite(p.loss_half_width) else 0.0
        for p in finite
    ]
    for a in range(len(finite) - 1):
        if losses[a] + slack[a] < losses[a + 1] - slack[a + 1]:
            problems.append(
                f"loss increased with buffer size: K="
                f"{finite[a].spec.engine_params_dict['buffer_size']} -> "
                f"{finite[a + 1].spec.engine_params_dict['buffer_size']} "
                f"({losses[a]:.4f} -> {losses[a + 1]:.4f})"
            )
    if finite and losses[0] <= 0:
        problems.append(
            "the smallest buffer lost nothing — the sweep carries no signal"
        )
    for p in finite:
        k = p.spec.engine_params_dict["buffer_size"]
        if p.mean_delay > base.mean_delay * 1.02 + base.delay_half_width:
            problems.append(
                f"K={k}: survivor delay {p.mean_delay:.3f} exceeds the "
                f"infinite-buffer baseline {base.mean_delay:.3f}"
            )
        if p.mean_number > base.mean_number * 1.02 + base.number_half_width:
            problems.append(
                f"K={k}: E[N] {p.mean_number:.2f} exceeds the baseline "
                f"{base.mean_number:.2f} (a finite buffer only truncates)"
            )
    return problems
