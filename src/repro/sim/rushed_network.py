"""The "rushed" copy system Q1 of Theorem 10.

"The trick is to send a copy of a packet to all the queues it will visit
immediately, and have each duplicate exit the system after it has been
served by the single queue." Each queue, seen in isolation, is then an
M/D/1 queue with the original edge's arrival rate — the queues are
*dependent* (copies of one packet arrive simultaneously) but linearity of
expectation makes the expected total equal the independent-M/D/1 sum,
which is the pivot of the Theorem 10 proof.

This simulator exists to verify those two analytic claims empirically:

* ``E[N1]`` (time-averaged copies in system) equals
  ``sum_e MD1(lam_e).mean_number()``;
* every copy's queue, marginally, behaves like an M/D/1 queue (per-edge
  occupancy matches the M/D/1 closed form).

It also reports the "makespan" delay — the time until *all* copies of a
packet are served — which lower-bounds the original packet's delay on
matched sample paths (the rushed system is the faster one).

The engine shares the hot-path architecture of
:class:`repro.sim.NetworkSimulation` (see :mod:`repro.sim` docs): paths
come from the shared :mod:`repro.routing.pathcache` arena and the packet
record stores an ``(arena_offset, length)`` view; exponential gaps and
``(src, dst)`` id pairs are drawn in 8192-size blocks, the pairs through
:func:`~repro.sim.enginecommon.draw_ids`; uniform deterministic
service (the standard model) runs the monotone-merge event loop, and
per-edge deterministic service runs on a plain ``heapq`` event list.
As in the FIFO kernel (see :mod:`repro.sim.kernels.python_backend`),
the exponential block is a list of builtin floats, the per-edge
occupancy integral is updated inline in a Python list (converted to an
array once, for ``utilization``), and the makespans fold into the
delay batches in completion order every ``measurement.FOLD_PAIRS``
pairs; none of this moves a bit. The same-seed bit-identity contract
applies: the rushed golden cells in ``tests/golden/`` pin this
engine's outputs.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution
from repro.sim.enginecommon import (
    EngineCommon,
    draw_id_lists,
    resolve_saturated_mask,
    resolve_service_rates,
)
from repro.sim import measurement
from repro.sim.result import SimResult
from repro.sim.rng import make_rng
from repro.util.validation import check_window

_BLOCK = 8192


class RushedNetworkSimulation:
    """Simulate Q1: immediate copies at every queue on the route.

    Parameters mirror :class:`repro.sim.NetworkSimulation` (FIFO servers,
    deterministic service ``1/phi_e``; ``path_cache`` / ``saturated_mask``
    control the hot path and the optional R_s(t) tracking exactly as
    there).

    Notes
    -----
    In the returned :class:`SimResult`, ``mean_number`` is the time-averaged
    number of *copies* in the system (the paper's ``N1``); ``mean_delay``
    is the per-packet makespan (all copies served); ``mean_remaining``
    equals ``mean_number`` by construction (each copy needs exactly one
    service), so with a ``saturated_mask`` the tracked
    ``mean_remaining_saturated`` is simply the time-averaged number of
    copies sitting at saturated edges. ``utilization`` reports per-edge
    mean copy occupancy (not busy fraction) so tests can compare
    queue-by-queue against M/D/1. ``run(track_maxima=True)`` records the
    worst per-packet makespan and the longest copy queue inside the
    measurement window, mirroring the FIFO engine's option.
    """

    def __init__(
        self,
        router: Router,
        destinations: DestinationDistribution,
        node_rate: float | Sequence[float],
        *,
        service_rates: float | Sequence[float] = 1.0,
        source_nodes: Sequence[int] | None = None,
        saturated_mask: Sequence[bool] | None = None,
        seed: int = 0,
        path_cache=None,
    ) -> None:
        self.seed = int(seed)
        self._sat = resolve_saturated_mask(
            saturated_mask, router.topology.num_edges
        )
        phi = resolve_service_rates(service_rates, router.topology.num_edges)
        self._service_times: list[float] = (1.0 / phi).tolist()
        # Uniform deterministic service enables the monotone-merge event
        # loop (copies start service at the event time, so departures are
        # pushed with nondecreasing times).
        self._uniform_service = (
            self._service_times.count(self._service_times[0])
            == len(self._service_times)
        )
        # Shared constructor policy: same discipline as the event engine
        # (side='right' pinned-CDF draws can never pick a zero-rate
        # source).
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
        track_maxima: bool = False,
    ) -> SimResult:
        """Simulate ``warmup + horizon`` time units and drain.

        ``track_maxima`` additionally records the worst per-packet
        makespan and the longest copy queue observed in the measurement
        window (the FIFO engine's option, for the same Leighton-contrast
        purpose).
        """
        check_window(warmup, horizon)
        rng = make_rng(self.seed, engine="rushed")
        t_end = warmup + horizon
        st = self._service_times
        sat = self._sat
        num_nodes = self.topology.num_nodes
        num_edges = self.topology.num_edges
        queues: list[deque] = [deque() for _ in range(num_edges)]
        busy = bytearray(num_edges)
        seq = 0

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

        # Block RNG: exponential(1) variates, then the (src, dst) id blocks
        # of draw_id_lists, all as lists of builtin numbers (see the module
        # docstring).
        exp_block = rng.exponential(size=_BLOCK).tolist()
        exp_i = 0
        src_block, dst_block = draw_id_lists(self, _BLOCK, rng)
        id_i = 0
        gap_scale = 1.0 / self.total_rate
        BLK = _BLOCK

        copies_in_system = 0
        int_copies = 0.0
        int_rs = 0.0
        remaining_sat = 0  # copies currently at saturated edges
        int_per_edge = [0.0] * num_edges
        occupancy = [0] * num_edges  # current copies at each edge
        edge_last = [0.0] * num_edges  # lazy per-edge integration cursor
        last_t = 0.0
        generated = completed = zero_hop = 0
        in_flight_at_horizon = 0
        delay_acc = measurement.TimeBatchAccumulator(warmup, t_end)
        # Measured (birth, makespan) pairs in completion order, folded
        # into the batches every fold_max pairs and once after the loop.
        fold_births = delay_acc.pending_times
        add_birth = fold_births.append
        add_delay = delay_acc.pending_values.append
        fold_max = measurement.FOLD_PAIRS
        max_delay = 0.0
        max_queue = 0
        # Queues standing when the warmup ends are part of the measurement
        # window (same convention as the FIFO engine).
        maxima_seeded = not track_maxima or warmup == 0.0

        first_gap = exp_block[exp_i] * gap_scale
        exp_i += 1
        draining = False

        if self._uniform_service:
            # -------- monotone-merge event loop (standard model) --------
            # Replays the heap loop's (time, seq) pop order exactly. On
            # the quick validation tier's six rushed runs it took 0.69 s
            # against the heap loop's 0.94 s (outputs identical), so the
            # engine keeps both loops.
            service_c = st[0]
            dep_q: deque = deque()
            dep_pop = dep_q.popleft
            dep_append = dep_q.append
            arr_t = first_gap
            arr_seq = seq
            seq += 1
            have_arrival = True
            while True:
                if dep_q:
                    head = dep_q[0]
                    if have_arrival:
                        ht = head[0]
                        if arr_t < ht or (arr_t == ht and arr_seq < head[1]):
                            is_arrival = True
                            t = arr_t
                        else:
                            is_arrival = False
                            t, _s, e, parent = dep_pop()
                    else:
                        is_arrival = False
                        t, _s, e, parent = dep_pop()
                elif have_arrival:
                    is_arrival = True
                    t = arr_t
                else:
                    break
                if not maxima_seeded and t >= warmup:
                    maxima_seeded = True
                    for q in queues:
                        if len(q) > max_queue:
                            max_queue = len(q)
                if t >= t_end and not draining:
                    draining = True
                    in_flight_at_horizon = copies_in_system
                    lo = last_t if last_t > warmup else warmup
                    if t_end > lo:
                        dt = t_end - lo
                        int_copies += copies_in_system * dt
                        int_rs += remaining_sat * dt
                    last_t = t_end
                if not draining and t > warmup:
                    lo = last_t if last_t > warmup else warmup
                    dt = t - lo
                    if dt > 0.0:
                        int_copies += copies_in_system * dt
                        int_rs += remaining_sat * dt
                    last_t = t
                elif not draining:
                    last_t = t

                if is_arrival:
                    # ----- external packet generation: copies everywhere -----
                    if draining:
                        have_arrival = False
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
                    if src == dst:
                        if measured:
                            zero_hop += 1
                            completed += 1
                            add_birth(t)
                            add_delay(0.0)
                            if len(fold_births) >= fold_max:
                                delay_acc.fold()
                    else:
                        if det_get is not None:
                            ol = det_get(src * num_nodes + dst)
                            if ol is None:
                                ol = det_build(src, dst)
                            off, ln = ol
                        else:
                            off, ln = sample_offlen(src, dst, rng)
                        # parent record: [birth, copies_left, measured]
                        # (fresh per-packet record — mutated in place)
                        parent = [t, ln, measured]  # replint: disable=hot-loop-alloc
                        copies_in_system += ln
                        # Edge f's occupancy integral up to t (the lazy
                        # per-edge cursor), then the new copy.
                        hi = t if t < t_end else t_end
                        for k in range(off, off + ln):
                            f = arena[k]
                            occ = occupancy[f]
                            if occ:
                                lo = edge_last[f]
                                if lo <= warmup:
                                    lo = warmup
                                if hi > lo:
                                    int_per_edge[f] += occ * (hi - lo)
                            edge_last[f] = t
                            occupancy[f] = occ + 1
                            if sat is not None and sat[f]:
                                remaining_sat += 1
                            if busy[f]:
                                q = queues[f]
                                q.append(parent)
                                if (
                                    track_maxima
                                    and measured
                                    and not draining
                                    and len(q) > max_queue
                                ):
                                    max_queue = len(q)
                            else:
                                busy[f] = 1
                                dep_append((t + service_c, seq, f, parent))
                                seq += 1
                    # Next arrival.
                    if exp_i >= BLK:
                        exp_block = rng.exponential(size=BLK).tolist()
                        exp_i = 0
                    arr_t = t + exp_block[exp_i] * gap_scale
                    exp_i += 1
                    arr_seq = seq
                    seq += 1
                else:
                    # ----- copy finished service at edge e -----
                    copies_in_system -= 1
                    # Edge e's occupancy integral up to t; e holds the
                    # departing copy, so occ >= 1.
                    occ = occupancy[e]
                    lo = edge_last[e]
                    if lo <= warmup:
                        lo = warmup
                    hi = t if t < t_end else t_end
                    if hi > lo:
                        int_per_edge[e] += occ * (hi - lo)
                    edge_last[e] = t
                    occupancy[e] = occ - 1
                    if sat is not None and sat[e]:
                        remaining_sat -= 1
                    parent[1] -= 1
                    if parent[1] == 0 and parent[2]:
                        completed += 1
                        d = t - parent[0]
                        add_birth(parent[0])
                        add_delay(d)
                        if len(fold_births) >= fold_max:
                            delay_acc.fold()
                        if track_maxima and d > max_delay:
                            max_delay = d
                    q = queues[e]
                    if q:
                        dep_append((t + service_c, seq, e, q.popleft()))
                        seq += 1
                    else:
                        busy[e] = 0
        else:
            # ------------- event-queue loop (per-edge service) -------------
            # Per-edge deterministic service times break the monotone push
            # order, so a binary heap orders the departures.
            heap: list[tuple] = []
            heappush(heap, (first_gap, seq, -1, None))
            seq += 1
            while heap:
                t, _s, e, parent = heappop(heap)
                if not maxima_seeded and t >= warmup:
                    maxima_seeded = True
                    for q in queues:
                        if len(q) > max_queue:
                            max_queue = len(q)
                if t >= t_end and not draining:
                    draining = True
                    in_flight_at_horizon = copies_in_system
                    lo = last_t if last_t > warmup else warmup
                    if t_end > lo:
                        dt = t_end - lo
                        int_copies += copies_in_system * dt
                        int_rs += remaining_sat * dt
                    last_t = t_end
                if not draining and t > warmup:
                    lo = last_t if last_t > warmup else warmup
                    dt = t - lo
                    if dt > 0.0:
                        int_copies += copies_in_system * dt
                        int_rs += remaining_sat * dt
                    last_t = t
                elif not draining:
                    last_t = t

                if e < 0:
                    # ----- external packet generation: copies everywhere -----
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
                    if src == dst:
                        if measured:
                            zero_hop += 1
                            completed += 1
                            add_birth(t)
                            add_delay(0.0)
                            if len(fold_births) >= fold_max:
                                delay_acc.fold()
                    else:
                        if det_get is not None:
                            ol = det_get(src * num_nodes + dst)
                            if ol is None:
                                ol = det_build(src, dst)
                            off, ln = ol
                        else:
                            off, ln = sample_offlen(src, dst, rng)
                        # (fresh per-packet record — mutated in place)
                        parent = [t, ln, measured]  # replint: disable=hot-loop-alloc
                        copies_in_system += ln
                        # Edge f's occupancy integral up to t (the lazy
                        # per-edge cursor), then the new copy.
                        hi = t if t < t_end else t_end
                        for k in range(off, off + ln):
                            f = arena[k]
                            occ = occupancy[f]
                            if occ:
                                lo = edge_last[f]
                                if lo <= warmup:
                                    lo = warmup
                                if hi > lo:
                                    int_per_edge[f] += occ * (hi - lo)
                            edge_last[f] = t
                            occupancy[f] = occ + 1
                            if sat is not None and sat[f]:
                                remaining_sat += 1
                            if busy[f]:
                                q = queues[f]
                                q.append(parent)
                                if (
                                    track_maxima
                                    and measured
                                    and not draining
                                    and len(q) > max_queue
                                ):
                                    max_queue = len(q)
                            else:
                                busy[f] = 1
                                heappush(heap, (t + st[f], seq, f, parent))
                                seq += 1
                    if exp_i >= BLK:
                        exp_block = rng.exponential(size=BLK).tolist()
                        exp_i = 0
                    heappush(heap, (t + exp_block[exp_i] * gap_scale, seq, -1, None))
                    exp_i += 1
                    seq += 1
                else:
                    # ----- copy finished service at edge e -----
                    copies_in_system -= 1
                    # Edge e's occupancy integral up to t; e holds the
                    # departing copy, so occ >= 1.
                    occ = occupancy[e]
                    lo = edge_last[e]
                    if lo <= warmup:
                        lo = warmup
                    hi = t if t < t_end else t_end
                    if hi > lo:
                        int_per_edge[e] += occ * (hi - lo)
                    edge_last[e] = t
                    occupancy[e] = occ - 1
                    if sat is not None and sat[e]:
                        remaining_sat -= 1
                    parent[1] -= 1
                    if parent[1] == 0 and parent[2]:
                        completed += 1
                        d = t - parent[0]
                        add_birth(parent[0])
                        add_delay(d)
                        if len(fold_births) >= fold_max:
                            delay_acc.fold()
                        if track_maxima and d > max_delay:
                            max_delay = d
                    q = queues[e]
                    if q:
                        heappush(heap, (t + st[e], seq, e, q.popleft()))
                        seq += 1
                    else:
                        busy[e] = 0

        if last_t < t_end:
            lo = last_t if last_t > warmup else warmup
            dt = t_end - lo
            int_copies += copies_in_system * dt
            int_rs += remaining_sat * dt
            last_t = t_end
        # Close every edge's occupancy integral at the horizon.
        for eid in range(num_edges):
            occ = occupancy[eid]
            if occ:
                lo = edge_last[eid]
                if lo <= warmup:
                    lo = warmup
                if t_end > lo:
                    int_per_edge[eid] += occ * (t_end - lo)

        delay_acc.fold()
        mean_copies = int_copies / horizon
        summary = delay_acc.summary()
        return SimResult(
            warmup=warmup,
            horizon=horizon,
            seed=self.seed,
            generated=generated,
            completed=completed,
            zero_hop=zero_hop,
            in_flight_at_end=in_flight_at_horizon,
            mean_number=mean_copies,
            mean_remaining=mean_copies,
            mean_remaining_saturated=(
                int_rs / horizon if sat is not None else float("nan")
            ),
            mean_delay=summary.mean,
            delay_half_width=summary.half_width,
            mean_delay_littles=mean_copies / self.total_rate,
            total_rate=self.total_rate,
            utilization=np.asarray(int_per_edge) / horizon,
            max_delay=max_delay if track_maxima else float("nan"),
            max_queue_length=max_queue if track_maxima else -1,
        )
