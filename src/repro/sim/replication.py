"""Multi-seed replication: one simulation cell, many seeds, pooled CIs.

Every table and figure of the paper is really "the same simulation cell,
replicated over seeds, over a grid of (n, rho) points". This module is the
single substrate for that pattern:

* :class:`CellSpec` — a declarative description of one cell: scenario
  (topology + router + destination law, resolved by
  :mod:`repro.scenarios`), load, engine (any name in
  :mod:`repro.sim.registry` — ``fifo``/``event``, ``slotted``,
  ``rushed``, ``ps``), service law, engine-specific knobs, measurement
  window and the seed set;
* :class:`ReplicationEngine` — fans the R seeded replications (of one cell
  or of a whole batch of cells at once) over the warm process pools of
  :mod:`repro.util.workerpool`, dispatching each replication through
  the engine registry;
* :class:`ReplicatedResult` — the pooled outcome: across-replication means
  with ~95% confidence half-widths, computed by the same
  :func:`repro.sim.measurement.batch_means` machinery the within-run delay
  CI uses (each replication is one "batch" of weight 1).

Replications are embarrassingly parallel — a cell is a pure function of
``(spec, seed)``. The parallel fan-out publishes each batch's read-only
cell state (path arena and dense path tables, pinned rates and CDF,
saturation mask) into shared memory once via
:mod:`repro.sim.sharedcells`, then streams tagged seed *chunks* through
``imap_unordered`` on a persistent warm pool, folding finished
replications back into ``spec.seeds`` order as they arrive. The serial
path (``processes=1``) never touches a pool or shared memory and is
bit-identical to the parallel path. The engine works identically for all
registered simulators; the slotted engine interprets the window in units
of ``tau``-slots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.sim.fifo_network import DETERMINISTIC
from repro.sim.measurement import BatchMeans, batch_means
#: SLOTTED is re-exported here for backward compatibility: it was this
#: module's public engine constant before the registry existed.
from repro.sim.registry import FIFO, canonical_engine, get_engine
from repro.sim.registry import SLOTTED as SLOTTED
from repro.sim.result import SimResult
from repro.sim.sharedcells import cell_network, publish_cells, run_seed_chunk
from repro.util.tables import Table
from repro.util.workerpool import get_pool, resolve_processes

#: Historical alias for the FIFO event-driven engine (still accepted by
#: ``CellSpec``; canonicalised to ``"fifo"`` on construction).
EVENT = "event"


@dataclass(frozen=True)
class CellSpec:
    """Declarative description of one replicated simulation cell.

    Attributes
    ----------
    scenario:
        Name in the :mod:`repro.scenarios` registry (topology, router and
        destination law; ``"uniform"`` is the paper's standard model).
    n:
        Scenario size parameter (mesh/torus side; hypercube dimension for
        the bit-reversal scenario).
    rho:
        Target network load ``max_e lam_e / phi_e``; resolved to a per-node
        rate by the scenario's calibration. Ignored when ``node_rate`` is
        given explicitly.
    node_rate:
        Explicit per-node rate (scalar, or a tuple aligned with the
        scenario's source nodes) overriding the ``rho`` calibration.
    convention:
        Load convention for the standard-model calibration (``"exact"`` or
        Table I's ``"table1"``); non-standard scenarios always calibrate
        exactly via the generic traffic solver.
    engine:
        Any name (or alias) in the engine registry
        (:mod:`repro.sim.registry`): ``"fifo"`` (alias ``"event"``, the
        event-driven FIFO simulator), ``"finite"`` (the finite-buffer
        loss variant), ``"slotted"``, ``"rushed"`` (Theorem 10 copies)
        or ``"ps"`` (the Theorem 5 processor-sharing comparator).
        Canonicalised on construction, so
        ``CellSpec(engine="event").engine == "fifo"``.
    service:
        Service law; each engine declares the laws it supports in the
        registry (only the FIFO engine supports ``"exponential"``).
    tau:
        Slot duration for the slotted engine.
    warmup, horizon:
        Measurement window in continuous time units; the slotted engine
        rounds to whole slots of duration ``tau``.
    seeds:
        One replication per seed. Defaults to 4 replications.
    track_saturated:
        Track R_s(t) against the scenario's saturated-edge mask
        (Table III); only engines whose registry entry sets
        ``supports_saturated`` accept this.
    track_maxima:
        Track the worst per-packet delay / longest queue (FIFO and
        slotted engines).
    collect_delays:
        Keep the raw per-packet delay samples on each replication's
        :class:`~repro.sim.result.SimResult` (engines whose registry
        entry sets ``supports_delays``); pooled across replications via
        :meth:`ReplicatedResult.pooled_delays`. The distribution-level
        validation checks (:mod:`repro.validation`) run on these samples.
    track_number_distribution:
        Record the time-weighted distribution of the number in system
        (engines with ``supports_number_distribution``; reference
        ``python`` backend only — the vectorized kernels never
        materialise the instantaneous N trajectory as a distribution).
    params:
        Scenario parameters as a tuple of ``(name, value)`` pairs, e.g.
        ``(("h", 0.3),)`` for the hot-spot mass (kept as a tuple so the
        spec stays hashable and picklable).
    engine_params:
        Engine-specific knobs as a tuple of ``(name, value)`` pairs,
        validated against the registry's typed :class:`EngineParam`
        metadata — e.g. ``(("backend", "numpy"),)`` for the FIFO, finite
        or slotted engines, ``(("buffer_size", 4),)`` for the finite
        engine, or ``(("service_rates", 2.0),)`` wherever per-edge rates
        apply.
        Unknown names or ill-typed values raise at spec construction,
        not inside a worker process. Like ``params``, kept as a sorted
        tuple so the spec stays hashable and picklable.
    """

    scenario: str = "uniform"
    n: int = 8
    rho: float | None = None
    node_rate: float | tuple[float, ...] | None = None
    convention: str = "exact"
    engine: str = FIFO
    service: str = DETERMINISTIC
    tau: float = 1.0
    warmup: float = 300.0
    horizon: float = 3000.0
    seeds: tuple[int, ...] = (0, 1, 2, 3)
    track_saturated: bool = False
    track_maxima: bool = False
    collect_delays: bool = False
    track_number_distribution: bool = False
    params: tuple[tuple[str, object], ...] = ()
    engine_params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        # Canonicalise the engine name through the registry ("event" is
        # the historical alias for "fifo"); unknown names raise here.
        object.__setattr__(self, "engine", canonical_engine(self.engine))
        info = get_engine(self.engine)
        if self.service not in info.services:
            raise ValueError(
                f"the {info.name} engine only supports "
                f"{'/'.join(info.services)} service, got {self.service!r}"
            )
        object.__setattr__(
            self,
            "engine_params",
            tuple(sorted(self.engine_params, key=lambda kv: kv[0])),
        )
        ep = self.engine_params_dict
        if len(ep) != len(self.engine_params):
            raise ValueError("duplicate engine_params names")
        info.validate_params(ep)
        if self.rho is not None and ep.get("service_rates", 1.0) != 1.0:
            # Both rho calibrations (the standard-model closed forms and
            # the generic traffic solver) assume unit service rates, so a
            # rescaled phi would silently make "rho" mean a different
            # load. Force the caller to state the rate explicitly.
            raise ValueError(
                "rho load calibration assumes unit service rates; pass "
                "node_rate explicitly when overriding service_rates"
            )
        if self.track_saturated and not info.supports_saturated:
            raise ValueError(
                f"the {info.name} engine does not track saturated edges"
            )
        if self.track_maxima and not info.supports_maxima:
            raise ValueError(
                f"the {info.name} engine does not track per-packet maxima"
            )
        if self.track_maxima and ep.get("backend") == "numpy":
            # The vectorized kernels solve whole trajectories and never
            # materialise the instantaneous queue-length maxima; fail at
            # spec construction, not inside a worker process.
            raise ValueError(
                "backend='numpy' does not support track_maxima; use the "
                "default backend='python' to track per-packet maxima"
            )
        if self.collect_delays and not info.supports_delays:
            raise ValueError(
                f"the {info.name} engine does not collect per-packet "
                "delay samples"
            )
        if self.track_number_distribution and not info.supports_number_distribution:
            raise ValueError(
                f"the {info.name} engine does not track the "
                "number-in-system distribution"
            )
        if self.track_number_distribution and ep.get("backend") == "numpy":
            # Same whole-trajectory limitation as track_maxima above.
            raise ValueError(
                "backend='numpy' does not support track_number_distribution; "
                "use the default backend='python'"
            )
        if self.rho is None and self.node_rate is None:
            raise ValueError("one of rho or node_rate is required")
        if not self.seeds:
            raise ValueError("at least one replication seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("replication seeds must be distinct")

    @property
    def replications(self) -> int:
        """Number of replications (one per seed)."""
        return len(self.seeds)

    @property
    def params_dict(self) -> dict:
        """Scenario parameters as a dict."""
        return dict(self.params)

    @property
    def engine_params_dict(self) -> dict:
        """Engine-specific parameters as a dict."""
        return dict(self.engine_params)

    def with_params(self, **params) -> "CellSpec":
        """Copy of this spec with the given scenario parameters merged in."""
        merged = {**self.params_dict, **params}
        return replace(self, params=tuple(sorted(merged.items())))

    def with_engine_params(self, **params) -> "CellSpec":
        """Copy of this spec with the given engine knobs merged in."""
        merged = {**self.engine_params_dict, **params}
        return replace(self, engine_params=tuple(sorted(merged.items())))


def _pm(mean: float, half_width: float, digits: int) -> str:
    """Format ``mean +/- half_width``, dropping an undefined half-width."""
    if np.isfinite(half_width):
        return f"{mean:.{digits}f}+/-{half_width:.{digits}f}"
    return f"{mean:.{digits}f}"


def _pooled(values: Sequence[float]) -> BatchMeans:
    """Across-replication batch-means pooling (one batch per replication)."""
    vals = np.asarray([v for v in values if not np.isnan(v)], dtype=float)
    return batch_means(vals, np.ones_like(vals))


@dataclass
class ReplicatedResult:
    """R seeded :class:`~repro.sim.result.SimResult` runs of one cell,
    pooled into across-replication means and ~95% confidence intervals.

    Per-replication results stay available in :attr:`replications` (seed
    order follows ``spec.seeds``); the properties below pool them. With a
    single replication the across-replication half-widths fall back to the
    run's own within-run batch-means half-width for the delay (and ``nan``
    for the time averages), so single-seed callers keep an honest CI.
    """

    spec: CellSpec
    node_rate: float | tuple[float, ...]
    replications: list[SimResult]

    def pooled(self, attr: str) -> BatchMeans:
        """Across-replication pooling of any scalar ``SimResult`` field."""
        return _pooled([getattr(r, attr) for r in self.replications])

    # -- delay ---------------------------------------------------------
    @property
    def mean_delay(self) -> float:
        return self.pooled("mean_delay").mean

    @property
    def delay_half_width(self) -> float:
        if len(self.replications) == 1:
            return self.replications[0].delay_half_width
        return self.pooled("mean_delay").half_width

    # -- time averages -------------------------------------------------
    @property
    def mean_number(self) -> float:
        return self.pooled("mean_number").mean

    @property
    def number_half_width(self) -> float:
        return self.pooled("mean_number").half_width

    @property
    def r(self) -> float:
        return self.pooled("r").mean

    @property
    def r_saturated(self) -> float:
        return self.pooled("r_saturated").mean

    @property
    def littles_law_gap(self) -> float:
        """Worst across-replication Little's-Law disagreement."""
        return max(r.littles_law_gap for r in self.replications)

    # -- loss (the finite-buffer engine) -------------------------------
    @property
    def dropped(self) -> int:
        """Total measured packets lost across replications (0 for the
        infinite-buffer engines)."""
        return sum(r.dropped for r in self.replications)

    @property
    def loss_probability(self) -> float:
        """Across-replication mean loss probability."""
        return self.pooled("loss_probability").mean

    @property
    def loss_half_width(self) -> float:
        """~95% across-replication half-width on the loss probability
        (``nan`` with a single replication)."""
        return self.pooled("loss_probability").half_width

    # -- collected samples (validation harness) ------------------------
    def pooled_delays(self) -> np.ndarray:
        """All per-packet delay samples, concatenated in ``spec.seeds``
        order (requires ``spec.collect_delays``)."""
        if not self.spec.collect_delays:
            raise ValueError(
                "delays were not collected; build the CellSpec with "
                "collect_delays=True"
            )
        return np.concatenate([r.delays for r in self.replications])

    def pooled_number_distribution(self) -> dict[int, float]:
        """Across-replication average of the time-weighted N distribution
        (requires ``spec.track_number_distribution``)."""
        if not self.spec.track_number_distribution:
            raise ValueError(
                "the number distribution was not tracked; build the "
                "CellSpec with track_number_distribution=True"
            )
        pooled: dict[int, float] = {}
        for rep in self.replications:
            for k, frac in rep.number_distribution.items():
                pooled[k] = pooled.get(k, 0.0) + frac
        return {k: v / len(self.replications) for k, v in sorted(pooled.items())}

    # -- counts and extremes -------------------------------------------
    @property
    def generated(self) -> int:
        return sum(r.generated for r in self.replications)

    @property
    def total_rate(self) -> float:
        return self.replications[0].total_rate

    @property
    def max_delay(self) -> float:
        return max(r.max_delay for r in self.replications)

    @property
    def max_queue_length(self) -> int:
        return max(r.max_queue_length for r in self.replications)

    def summary_line(self) -> str:
        """One-line pooled summary."""
        return (
            f"{self.spec.scenario}(n={self.spec.n}) R={len(self.replications)} "
            f"T={self.mean_delay:.3f}+/-{self.delay_half_width:.3f} "
            f"N={self.mean_number:.2f} packets={self.generated}"
        )

    def render(self) -> str:
        """Per-replication rows plus the pooled row, as a monospace table."""
        t = Table(
            title=(
                f"ReplicatedResult: scenario={self.spec.scenario} "
                f"n={self.spec.n} engine={self.spec.engine} "
                f"R={len(self.replications)}"
            ),
            headers=["rep", "seed", "T", "N", "r", "littles gap", "packets"],
        )
        for k, (seed, rep) in enumerate(zip(self.spec.seeds, self.replications)):
            t.add_row(
                [
                    k,
                    seed,
                    rep.mean_delay,
                    rep.mean_number,
                    rep.r,
                    rep.littles_law_gap,
                    rep.generated,
                ]
            )
        t.add_row(
            [
                "pooled",
                "-",
                _pm(self.mean_delay, self.delay_half_width, 3),
                _pm(self.mean_number, self.number_half_width, 2),
                self.r,
                self.littles_law_gap,
                self.generated,
            ]
        )
        return t.render()


#: Backward-compatible alias: the per-process (network, path cache) memo
#: now lives in :mod:`repro.sim.sharedcells` (both the parent-side
#: publisher and the serial path draw from the same memo).
_cell_network = cell_network


def _run_replication(job: tuple) -> SimResult:
    """Run one seeded replication of a cell (top-level for pickling).

    Dispatches through the engine registry: any engine registered in
    :mod:`repro.sim.registry` runs here with no per-engine code.
    """
    spec, seed, node_rate, mask = job
    net, cache = _cell_network(spec)
    return get_engine(spec.engine).run_cell(spec, seed, node_rate, mask, net, cache)


class ReplicationEngine:
    """Fan seeded replications of simulation cells over a warm process pool.

    Parameters
    ----------
    processes:
        Worker count (``None`` resolves via ``REPRO_PROCESSES`` then the
        cpu count; ``1`` = serial in-process, bit-identical to parallel
        runs). Parallel runs draw workers from the shared warm pools of
        :func:`repro.util.workerpool.get_pool`, so one pool's workers —
        and their per-cell memos — serve a whole sweep.

    Examples
    --------
    >>> from repro.sim.replication import CellSpec, ReplicationEngine
    >>> spec = CellSpec(scenario="uniform", n=4, rho=0.5,
    ...                 warmup=50, horizon=400, seeds=(0, 1, 2))
    >>> pooled = ReplicationEngine(processes=1).run(spec)
    >>> pooled.mean_delay > 0 and pooled.delay_half_width > 0
    True
    """

    def __init__(self, *, processes: int | None = None) -> None:
        self.processes = processes

    def run(self, spec: CellSpec) -> ReplicatedResult:
        """Run one cell's replications (possibly in parallel)."""
        return self.run_many([spec])[0]

    def run_many(
        self,
        specs: Sequence[CellSpec],
        *,
        on_result: Callable[[ReplicatedResult], None] | None = None,
    ) -> list[ReplicatedResult]:
        """Run a batch of cells, fanning *all* (cell, seed) pairs at once.

        Flattening the batch before the pool sees it keeps the pool busy
        even when cells have very different lengths (the heavy rho = 0.99
        cells of Table III would otherwise serialise behind each other).
        The parallel path publishes the batch's cell state into shared
        memory once (:mod:`repro.sim.sharedcells`) and streams tagged
        seed chunks through ``imap_unordered``, folding replications into
        their cells incrementally; returned results (and each cell's
        replications) always follow input/``spec.seeds`` order.

        Parameters
        ----------
        on_result:
            Optional callback fired once per *completed* cell, in
            completion order (input order on the serial path). Lets
            long sweeps checkpoint results as they land instead of
            waiting for the whole batch.
        """
        from repro.scenarios import resolve_cell  # late: scenarios imports us

        cells = [(spec, *resolve_cell(spec)) for spec in specs]
        nproc = resolve_processes(self.processes)
        total = sum(len(spec.seeds) for spec in specs)
        if nproc == 1 or total <= 1:
            # Serial in-process path: no pool, no shared memory — the
            # debuggable reference the parallel path is pinned against.
            out: list[ReplicatedResult] = []
            for spec, node_rate, mask in cells:
                net, cache = cell_network(spec)
                run_cell = get_engine(spec.engine).run_cell
                result = ReplicatedResult(
                    spec=spec,
                    node_rate=node_rate,
                    replications=[
                        run_cell(spec, seed, node_rate, mask, net, cache)
                        for seed in spec.seeds
                    ],
                )
                out.append(result)
                if on_result is not None:
                    on_result(result)
            return out

        # Chunk each cell's seeds so dispatch overhead amortises while
        # the pool still load-balances (~4 chunks per worker per cell).
        slots: list[list[SimResult | None]] = [
            [None] * len(spec.seeds) for spec in specs
        ]
        pending = [len(spec.seeds) for spec in specs]
        results: list[ReplicatedResult | None] = [None] * len(specs)
        with publish_cells(cells) as batch:
            jobs: list[tuple] = []
            for idx, (spec, _node_rate, _mask) in enumerate(cells):
                per = max(1, -(-len(spec.seeds) // (4 * nproc)))
                for pos in range(0, len(spec.seeds), per):
                    jobs.append(
                        (batch.token, idx, pos, spec.seeds[pos : pos + per])
                    )
            pool = get_pool(nproc)
            for idx, pos, reps in pool.imap_unordered(run_seed_chunk, jobs):
                slots[idx][pos : pos + len(reps)] = reps
                pending[idx] -= len(reps)
                if pending[idx] == 0:
                    spec, node_rate, _mask = cells[idx]
                    results[idx] = ReplicatedResult(
                        spec=spec,
                        node_rate=node_rate,
                        replications=list(slots[idx]),
                    )
                    if on_result is not None:
                        on_result(results[idx])
        return list(results)


def replicate(
    spec: CellSpec, *, processes: int | None = None
) -> ReplicatedResult:
    """Convenience wrapper: run one cell through a fresh engine."""
    return ReplicationEngine(processes=processes).run(spec)
