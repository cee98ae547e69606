"""Reference implementation of the rushed engine's event loop.

:class:`~repro.sim.rushed_network.RushedNetworkSimulation` used to replay
Theorem 10's copy system as an interpreted event loop: a binary heap of
``(time, seq, edge, parent)`` events (and, for uniform service, a
monotone merge that replayed the same pop order), one copy queue per
edge, and every statistic integrated event by event. The engine now
solves each edge's FIFO queue in closed form; this is the heap loop,
kept as a test-only oracle (``tests/test_rushed_oracle.py``), its
delay pairs folded once after the loop rather than in chunks (the same
sums: the fold order, not the chunk size, fixes them).
It draws from the same stream in the same order — exponential gap block
``k``, id block ``k``, then the block's per-packet path draws — so a
same-seed run of either sees the same arrivals, ids and paths.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

import numpy as np

from repro.sim import measurement
from repro.sim.enginecommon import draw_id_lists
from repro.sim.result import SimResult
from repro.sim.rng import make_rng
from repro.util.validation import check_window

_BLOCK = 8192


def reference_run(
    sim, warmup: float, horizon: float, *, track_maxima: bool = False
) -> SimResult:
    """``sim.run(warmup, horizon, track_maxima=...)`` by the event loop.

    ``sim`` is a :class:`~repro.sim.rushed_network.RushedNetworkSimulation`;
    the loop reads its seed, service times, saturated mask, path cache
    and the arrival-id attributes :func:`draw_id_lists` needs.
    """
    check_window(warmup, horizon)
    rng = make_rng(sim.seed, engine="rushed")
    t_end = warmup + horizon
    st = [float(c) for c in sim._service_times]
    sat = None if sim._sat is None else [bool(s) for s in sim._sat]
    num_nodes = sim.topology.num_nodes
    num_edges = sim.topology.num_edges
    queues: list[deque] = [deque() for _ in range(num_edges)]
    busy = bytearray(num_edges)
    seq = 0

    cache = sim.path_cache
    arena = cache.arena.edges
    if cache.consumes_rng:
        det_get = None
        det_build = None
        sample_offlen = cache.sample_offlen
    else:
        det_get = cache.table.get
        det_build = cache.ensure
        sample_offlen = None

    exp_block = rng.exponential(size=_BLOCK).tolist()
    exp_i = 0
    src_block, dst_block = draw_id_lists(sim, _BLOCK, rng)
    id_i = 0
    gap_scale = 1.0 / sim.total_rate
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
    add_birth = delay_acc.pending_times.append
    add_delay = delay_acc.pending_values.append
    max_delay = 0.0
    max_queue = 0
    # Queues standing when the warmup ends are part of the measurement
    # window (same convention as the FIFO engine).
    maxima_seeded = not track_maxima or warmup == 0.0

    first_gap = exp_block[exp_i] * gap_scale
    exp_i += 1
    draining = False

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
                src_block, dst_block = draw_id_lists(sim, BLK, rng)
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
            else:
                if det_get is not None:
                    ol = det_get(src * num_nodes + dst)
                    if ol is None:
                        ol = det_build(src, dst)
                    off, ln = ol
                else:
                    off, ln = sample_offlen(src, dst, rng)
                # parent record: [birth, copies_left, measured]
                parent = [t, ln, measured]
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
        seed=sim.seed,
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
        mean_delay_littles=mean_copies / sim.total_rate,
        total_rate=sim.total_rate,
        utilization=np.asarray(int_per_edge) / horizon,
        max_delay=max_delay if track_maxima else float("nan"),
        max_queue_length=max_queue if track_maxima else -1,
    )
