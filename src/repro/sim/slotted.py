"""Slotted-time simulation (Section 5.2's discrete-time variant).

"The results here also hold asymptotically for slotted time, where the
time axis is not continuous but instead consists of slots of some fixed
duration tau. Arrivals in this model are assumed to come in batches, the
number of arrivals at a slot being a Poisson random variable with mean
lam*tau." The paper argues the average delay differs from the continuous
model by at most tau.

Model implemented: at the start of each slot a Poisson batch of packets is
generated (sources/destinations as in the continuous model); during the
slot every non-empty edge transmits exactly its head-of-line packet, and
all deliveries land simultaneously at the end of the slot. Delays count
whole slots from the generation slot's start to the arrival instant.

Implementation notes:

* only non-empty edges are touched each slot (an active set), so quiet
  networks cost O(arrivals + moves), not O(E), per slot — the same
  lazy-work discipline as the event-driven engine;
* paths come from the shared :mod:`repro.routing.pathcache` arena and the
  packet record stores an ``(arena_offset, length)`` view;
* each slot's Poisson count comes from an 8192-size block of counts
  (like the event engine's exponential and id blocks), and its packets
  are drawn as batches: one ``integers(0, n, 2k)`` id-pair block when
  every node sources at equal rate to uniform destinations over an
  RNG-free path cache, else a source batch, a ``sample_batch``
  destination batch and, when the path cache draws router coins, a
  batched path lookup. An RNG-free cache is probed once per packet.
  The draw order is seed-stable and pinned by the ``slotted_*`` golden
  cells.
"""

from __future__ import annotations

from typing import Sequence

from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution
from repro.sim.enginecommon import EngineCommon, resolve_saturated_mask
from repro.sim.kernels import (
    NUMPY_BACKEND,
    PYTHON_BACKEND,
    SLOTTED_KERNEL,
    check_backend,
    check_numpy_router,
    get_kernel,
)
from repro.sim.result import SimResult
from repro.util.validation import check_positive


class SlottedNetworkSimulation:
    """Slotted-time FIFO network simulation with unit-slot transmission.

    Parameters mirror :class:`repro.sim.NetworkSimulation`; the slot
    duration ``tau`` scales the batch mean (``total_rate * tau`` packets
    per slot) and the reported times (delays are in the same units as the
    continuous model: slot index times ``tau``). ``path_cache`` controls
    the shared path-cache arena exactly as in the event engine.
    """

    def __init__(
        self,
        router: Router,
        destinations: DestinationDistribution,
        node_rate: float | Sequence[float],
        *,
        tau: float = 1.0,
        source_nodes: Sequence[int] | None = None,
        saturated_mask: Sequence[bool] | None = None,
        seed: int = 0,
        path_cache=None,
        backend: str = PYTHON_BACKEND,
    ) -> None:
        self.tau = check_positive(tau, "tau")
        self.seed = int(seed)
        # Kernel backend (see repro.sim.kernels): "python" is the
        # bit-identity reference loop, "numpy" the vectorized max-plus
        # kernel (distribution parity).
        self.backend = check_backend(backend)
        if self.backend == NUMPY_BACKEND:
            check_numpy_router(router)
        # Shared constructor policy (sources, rates, pinned source CDF,
        # fast-id predicate, path cache).
        EngineCommon(
            router,
            destinations,
            node_rate,
            source_nodes=source_nodes,
            path_cache=path_cache,
        ).install(self)
        self._sat = resolve_saturated_mask(
            saturated_mask, self.topology.num_edges
        )

    def run(
        self,
        warmup_slots: int,
        horizon_slots: int,
        *,
        track_maxima: bool = False,
        collect_delays: bool = False,
    ) -> SimResult:
        """Simulate ``warmup_slots + horizon_slots`` slots, then drain.

        All times in the result are in continuous units (slots * tau).

        Parameters
        ----------
        track_maxima:
            Also record the worst per-packet delay of measured packets and
            the longest queue observed during measurement-window slots;
            queues standing when the warmup ends seed the maximum at the
            crossing, mirroring the event engine's warmup-window
            semantics.
        collect_delays:
            Return the raw delay of every measured packet (one float per
            packet, in completion order — zero-hop packets at generation).
        """
        if warmup_slots < 0 or horizon_slots <= 0:
            raise ValueError("need warmup_slots >= 0 and horizon_slots > 0")
        return get_kernel(SLOTTED_KERNEL, self.backend)(
            self,
            warmup_slots,
            horizon_slots,
            track_maxima=track_maxima,
            collect_delays=collect_delays,
        )
