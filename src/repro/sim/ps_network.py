"""Processor-sharing network simulation (the Theorem 5 comparator).

Under PS, "all customers queued at a server receive an equal proportion of
the available service simultaneously": with ``k`` customers present at an
edge with rate ``phi``, each one's remaining work drains at ``phi / k``.
Every customer needs one unit of work (the paper's unit service times).

Theorem 1/5 asserts the PS network's total occupancy stochastically
dominates the FIFO network's on every sample path family — and its
equilibrium is the product-form/Jackson law. The dominance experiment
simulates both and checks ``E[N_FIFO] <= E[N_PS]`` plus the distributional
ordering.

Implementation: the classic virtual-completion-event scheme. Each queue
keeps its customers' remaining work in arrival order, a ``last update``
timestamp and a version counter; an arrival or departure at the queue
drains every customer's work by the same ``dt * phi / k`` and re-plans
the (single) next-completion event, bumping the version so stale entries
are skipped on pop.

Arrival-order invariant: the head of a queue always holds the least
remaining work, so it is the customer that completes next. Every
customer joins with one unit, at least what any earlier customer still
holds, and from then on all customers at the queue have the same amount
subtracted at every step; float subtraction is monotone, so the order
never inverts. Ties resolve to the head, as a first-index ``min`` scan
would. The head therefore replaces both minimum scans exactly: the
next-completion time reads ``works[0]`` and the departing customer is
``pop(0)``. A queue event costs one heap push plus one subtraction per
other customer at that queue; nothing scans for a minimum.

Because completions are re-planned (truly stochastic event times), this
engine needs a priority queue — the merge loop does not apply — so it
pops ``(time, seq)``-ordered events from a plain ``heapq`` list, like
the FIFO/rushed/finite stochastic loops. It shares the rest of the
hot-path architecture: paths come from the shared
:mod:`repro.routing.pathcache` arena, packet records store
``(arena_offset, length)`` views, and a non-uniform source draw uses
the pinned CDF with ``side='right'`` so a boundary draw can never
select a zero-rate source. Arrivals draw from RNG blocks the way the
python fifo kernel does: exponential gaps come from 8192-draw blocks,
and the ``(src, dst)`` pairs come 8192 at a time from
:func:`~repro.sim.enginecommon.draw_ids` (one uniform id block when the
fast-id predicate holds, else a source block and one destination
``sample_batch``). The PS golden cells in ``tests/golden/`` pin this stream
(``ps_loaded_peredge`` at a load where queues regularly hold several
customers). Measured ``(birth, delay)`` pairs are buffered and fold
into the delay batches in completion order every
``measurement.FOLD_PAIRS`` pairs and once after the loop, like the
other interpreted engines: the same sums as one ``add`` per
completion, in bounded memory.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution
from repro.sim.enginecommon import (
    EngineCommon,
    draw_id_lists,
    resolve_service_rates,
)
from repro.sim import measurement
from repro.sim.result import SimResult
from repro.sim.rng import make_rng
from repro.util.validation import check_window

_BLOCK = 8192


class PSNetworkSimulation:
    """Event-driven processor-sharing network simulation.

    Parameters mirror :class:`repro.sim.NetworkSimulation` (service is
    always unit-work PS; ``path_cache`` controls the shared path-cache
    arena exactly as there).
    """

    def __init__(
        self,
        router: Router,
        destinations: DestinationDistribution,
        node_rate: float | Sequence[float],
        *,
        service_rates: float | Sequence[float] = 1.0,
        source_nodes: Sequence[int] | None = None,
        seed: int = 0,
        path_cache=None,
    ) -> None:
        self.seed = int(seed)
        phi = resolve_service_rates(service_rates, router.topology.num_edges)
        self._phi = phi.tolist()
        # Shared constructor policy (fast ids, the pinned source CDF and
        # the path cache), as in the other engines.
        EngineCommon(
            router,
            destinations,
            node_rate,
            source_nodes=source_nodes,
            path_cache=path_cache,
        ).install(self)

    def run(
        self,
        warmup: float,
        horizon: float,
        *,
        collect_delays: bool = False,
        track_number_distribution: bool = False,
    ) -> SimResult:
        """Simulate ``warmup + horizon`` time units and drain (see
        :meth:`repro.sim.NetworkSimulation.run` for parameter meanings)."""
        check_window(warmup, horizon)
        rng = make_rng(self.seed, engine="ps")
        t_end = warmup + horizon
        num_nodes = self.topology.num_nodes
        num_edges = self.topology.num_edges
        phi = self._phi

        # Path cache bindings (see NetworkSimulation.run).
        cache = self.path_cache
        arena = cache.arena.edges  # extended in place; safe to bind once
        if cache.consumes_rng:
            det_get = None
            det_build = None
            sample_offlen = cache.sample_offlen
        else:
            det_get = cache.table.get
            det_build = cache.ensure
            sample_offlen = None

        # Per-queue PS state. Each queue lists its customers in arrival
        # order: works[e][i] is the i-th arrival's remaining work and
        # pkts[e][i] its packet record. Every customer at a queue drains
        # by the same amount per step, so the head holds the least work
        # (see the module docstring).
        works: list[list[float]] = [[] for _ in range(num_edges)]
        pkts: list[list[list]] = [[] for _ in range(num_edges)]
        last_up = [0.0] * num_edges
        version = [0] * num_edges

        # Events are (time, seq, edge, version); seq is unique, so the
        # heap order is total and never compares the payload. Edge -1
        # is the next external arrival.
        heap: list[tuple] = []
        seq = 0
        # Block RNG, drawn as in run_fifo: exponential(1) gaps, then the
        # (src, dst) id blocks of draw_id_lists, all as lists of builtin
        # numbers.
        BLK = _BLOCK
        exp_block = rng.exponential(size=BLK).tolist()
        exp_i = 0
        src_block, dst_block = draw_id_lists(self, BLK, rng)
        id_i = 0
        gap_scale = 1.0 / self.total_rate

        in_system = 0
        remaining = 0
        int_n = 0.0
        int_r = 0.0
        last_t = 0.0
        generated = completed = zero_hop = 0
        in_flight_at_horizon = 0
        delay_acc = measurement.TimeBatchAccumulator(
            warmup, t_end, keep_values=collect_delays
        )
        # Measured (birth time, delay) pairs in completion order, folded
        # into the batches every fold_max pairs and once after the loop.
        births = delay_acc.pending_times
        delays = delay_acc.pending_values
        fold_max = measurement.FOLD_PAIRS
        ndist: dict[int, float] | None = {} if track_number_distribution else None

        heappush(heap, (exp_block[exp_i] * gap_scale, seq, -1, 0))
        exp_i += 1
        seq += 1

        draining = False
        while heap:
            t, _s, e, ver = heappop(heap)
            # Integrate N and R up to this event (every event, stale ones
            # included: the integrals' float sums are pinned).
            if not draining:
                if t >= t_end:
                    draining = True
                    in_flight_at_horizon = in_system
                    lo = last_t if last_t > warmup else warmup
                    if t_end > lo:
                        dt = t_end - lo
                        int_n += in_system * dt
                        int_r += remaining * dt
                        if ndist is not None:
                            ndist[in_system] = ndist.get(in_system, 0.0) + dt
                    last_t = t_end
                elif t > warmup:
                    lo = last_t if last_t > warmup else warmup
                    dt = t - lo
                    if dt > 0.0:
                        int_n += in_system * dt
                        int_r += remaining * dt
                        if ndist is not None:
                            ndist[in_system] = ndist.get(in_system, 0.0) + dt
                    last_t = t
                else:
                    last_t = t

            # Each branch sets nxt: the edge the packet joins next, or -1.
            if e < 0:
                # ----- external arrival -----
                if draining:
                    continue
                if id_i >= BLK:
                    src_block, dst_block = draw_id_lists(self, BLK, rng)
                    id_i = 0
                src = src_block[id_i]
                dst = dst_block[id_i]
                id_i += 1
                measured = t >= warmup
                if measured:
                    generated += 1
                nxt = -1
                if src == dst:
                    if measured:
                        zero_hop += 1
                        completed += 1
                        births.append(t)
                        delays.append(0.0)
                        if len(births) >= fold_max:
                            delay_acc.fold()
                else:
                    if det_get is not None:
                        ol = det_get(src * num_nodes + dst)
                        if ol is None:
                            ol = det_build(src, dst)
                        off, ln = ol
                    else:
                        off, ln = sample_offlen(src, dst, rng)
                    in_system += 1
                    remaining += ln
                    # packet record: [birth, arena offset, length, hops
                    # done, measured]
                    # (fresh per-packet record — mutated in place)
                    pkt = [t, off, ln, 0, measured]  # replint: disable=hot-loop-alloc
                    nxt = arena[off]
            else:
                # ----- tentative completion at queue e -----
                if ver != version[e]:
                    continue  # stale event
                # The head (earliest arrival, least work) completes; the
                # others drain by the work served since the last update.
                w = works[e]
                k = len(w)
                w.pop(0)
                pkt = pkts[e].pop(0)
                dt = t - last_up[e]
                if dt > 0.0:
                    step = dt * (phi[e] / k)
                    for i in range(k - 1):
                        w[i] -= step
                last_up[e] = t
                remaining -= 1
                hop = pkt[3] + 1
                pkt[3] = hop
                nxt = -1
                if hop == pkt[2]:
                    in_system -= 1
                    if pkt[4]:
                        completed += 1
                        births.append(pkt[0])
                        delays.append(t - pkt[0])
                        if len(births) >= fold_max:
                            delay_acc.fold()
                else:
                    nxt = arena[pkt[1] + hop]

            if nxt >= 0:
                # ----- join queue nxt: drain it to t, add one unit of
                # work, re-plan its next completion -----
                w = works[nxt]
                k = len(w)
                if k:
                    dt = t - last_up[nxt]
                    if dt > 0.0:
                        step = dt * (phi[nxt] / k)
                        for i in range(k):
                            w[i] -= step
                last_up[nxt] = t
                w.append(1.0)  # unit work per customer
                pkts[nxt].append(pkt)
                v = version[nxt] + 1
                version[nxt] = v
                heappush(heap, (t + w[0] * (k + 1) / phi[nxt], seq, nxt, v))
                seq += 1

            if e < 0:
                # Next arrival.
                if exp_i >= BLK:
                    exp_block = rng.exponential(size=BLK).tolist()
                    exp_i = 0
                heappush(heap, (t + exp_block[exp_i] * gap_scale, seq, -1, 0))
                exp_i += 1
                seq += 1
            else:
                # Re-plan queue e's next completion.
                v = version[e] + 1
                version[e] = v
                w = works[e]
                if w:
                    heappush(heap, (t + w[0] * len(w) / phi[e], seq, e, v))
                    seq += 1

        if last_t < t_end:
            lo = last_t if last_t > warmup else warmup
            dt = t_end - lo
            int_n += in_system * dt
            int_r += remaining * dt
            if ndist is not None:
                ndist[in_system] = ndist.get(in_system, 0.0) + dt

        delay_acc.fold()
        mean_number = int_n / horizon
        summary = delay_acc.summary()
        if ndist is not None:
            total_dt = sum(ndist.values())
            ndist = {k: v / total_dt for k, v in sorted(ndist.items())}
        return SimResult(
            warmup=warmup,
            horizon=horizon,
            seed=self.seed,
            generated=generated,
            completed=completed,
            zero_hop=zero_hop,
            in_flight_at_end=in_flight_at_horizon,
            mean_number=mean_number,
            mean_remaining=int_r / horizon,
            mean_remaining_saturated=float("nan"),
            mean_delay=summary.mean,
            delay_half_width=summary.half_width,
            mean_delay_littles=mean_number / self.total_rate,
            total_rate=self.total_rate,
            delays=np.array(delay_acc.kept) if collect_delays else None,
            number_distribution=ndist,
        )
