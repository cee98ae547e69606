"""The level sweep: the layered solve the FIFO kernels and PS share.

At a single FIFO server with constant service time ``c_e`` the departure
of the ``k``-th arrival (in arrival order) is the Lindley recurrence
``d_k = max(x_k, d_{k-1}) + c_e``, which has the closed form
``d_k = (k+1) c_e + cummax_j<=k (x_j - j c_e)``: one segmented
cumulative maximum per edge, no loop over events. When every route
crosses strictly increasing edge levels (a layering, Theorem 1's first
hypothesis), edges are solved level by level: every hop-0 eligibility
time is a packet's creation time, a level's departures become the
eligibility times of the next hops, and so on. The levels are the
router's closed form (:meth:`~repro.routing.base.BaseRouter.edge_levels`:
Lemma 2 on greedy arrays, the dimension on the hypercube, the stage on
the butterfly), so they never depend on a run. Nothing here levels a
run's own visits: a router without closed-form levels (torus,
randomized, tabulated) never reaches the sweep.

Three solvers run here: the numpy FIFO kernel
(:mod:`repro.sim.kernels.numpy_backend`) on its own blocked draws, the
python FIFO kernel's level path
(:mod:`repro.sim.kernels.python_backend`) on its loops' draws, and
the PS engine's level path (:mod:`repro.sim.ps_network`) on its heap
loop's draws. :func:`solve_levels` takes a run's arrivals, a routing
callback (:func:`pair_routes` for the level paths) and a per-level
departure solver, and returns its :class:`~repro.sim.result.SimResult`
from the statistics all of them share; :func:`solve_fifo` passes it the
Lindley solve above (or, with per-visit service times, the busy-period
sums below), PS its lockstep solve (see below). The slotted numpy
kernel uses :func:`_sweep_levels` directly with integer join keys.

Memory layout (:func:`_sweep_levels`): per visit, only its edge id and
its packet id, as ``int16``/``int32`` arrays in level order, and its
service time where visits carry their own (exponential service); per
packet, the eligibility value of its next hop, which each level gathers
for its visits and overwrites once they are solved. All statistics
(occupancy/remaining-work integrals, delay batch means, in-flight
counts) are exact window-overlap reductions — the same integrals the
event loops accumulate incrementally — taken level by level as each
level is solved, so no other per-visit array is kept. That is about 30
bytes per visit at the peak (8 more with per-visit service), which
:data:`~repro.sim.kernels.NUMPY_VISIT_BUDGET` bounds.

Per-visit service
-----------------
With exponential service every visit carries its own service time
``s_k`` (:func:`_fifo_service_departures`), and the departures are
``d_k = max(x_k, d_{k-1}) + s_k``. The closed form ``S_k + cummax_j<=k
(x_j - S_{j-1})``, ``S`` being an edge's cumulative service, rounds on
the scale of the whole level's service, which loses digits on long
runs; it only cuts the busy periods. Each period's departures are then
summed in the event loop's own order, ``t + s`` from its first arrival,
all periods of the level in lockstep, longest first (as in
:func:`_tail_drop` and :func:`_ps_periods`), so a level takes its
longest busy period in steps and the departures are the heap loop's bit
for bit. Where rounding in the cut puts a period's last departure after
the next period's first arrival on its edge, the two are merged and the
level solved again, as for PS.

FIFO options
------------
* ``track_utilization``: a visit that leaves edge ``e`` at ``d`` kept it
  busy over ``[d - c_e, d]`` (``[d - s_k, d]`` with per-visit service); each solved level clips those intervals
  to the window and sums them per edge with one ``bincount``.
* Tail-drop caps (the finite-buffer engine): a visit arriving at ``a``
  finds ``ceil((d_last - a) / c_e)`` packets at its edge, where
  ``d_last`` is the departure of the edge's last admitted packet (the
  queue's departures are ``c_e`` apart within a busy period), so it is
  dropped iff ``d_last - a > cap_e * c_e``. Admission is therefore a
  scan over arrival rank (:func:`_tail_drop`), vectorized across the
  edges of one level and confined to the uncapped solve's busy periods
  that overflow: before a busy period's first overflow and after it
  drains the capped and uncapped queues coincide. A dropped packet's
  later visits are retired — skipped by every later solve, with the
  drop time standing in for their departures — so its remaining hop
  units end at the drop time in the N and R integrals, as in the
  reference loop. ``dropped`` and ``node_drops`` count measured packets
  only.

Processor sharing
-----------------
:func:`_ps_departures` solves one level of unit-work PS queues. PS is
work-conserving, so an edge's busy periods are those of the FIFO solve
with service time ``1 / phi_e``, and equal work means customers leave in
arrival order. Each busy period keeps its attained service ``S`` (what
every present customer has received; it grows at ``phi / N`` with ``N``
present) and ``N``; a customer arriving when ``S = S(a)`` leaves when
``S`` reaches ``T = S(a) + 1``, so the period's next event is its next
arrival or its head's departure at ``t + (T_head - S) N / phi``. All
busy periods of a level advance one event per step together, so a level
takes twice its longest busy period in steps, not its event count.
Rounding may put a period's last departure after the next period's
first arrival on its edge; those two are merged and the level solved
again. The PS heap loop drains each customer's remaining work instead,
so the two round differently: means agree to about 1e-13 relative, while a
single delay at high load (long busy periods, where a rounding error in
``S`` is multiplied by ``N``) may move by up to about 1e-11 of the
run's length.

The statistics (:func:`solve_levels`) are exact window-overlap
reductions over each packet's birth, final departure and per-hop
departures: the occupancy and remaining-work integrals, in-flight
counts, delay batches and collected delays (ordered by completion
time), and the time-weighted distribution of the number in the network
(``+1`` at each routed birth, ``-1`` at each final departure).
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np

from repro.routing.pathcache import gather_paths, route_pairs
from repro.sim.measurement import TimeBatchAccumulator
from repro.sim.result import SimResult

#: Visits per chunk of the level sort (bounds its temporaries).
_SORT_CHUNK = 1 << 16

_I16_MAX = np.iinfo(np.int16).max


def _solve_runs(
    e_sorted: np.ndarray,
    shifted: np.ndarray,
    scale: float | np.ndarray,
    lag: int,
) -> np.ndarray:
    """Max-plus solve of one level's visits, sorted by edge and then by
    queue order, with ``shifted`` holding their eligibility values: the
    ``k``-th visit of an edge's run leaves at
    ``(k + lag) * scale + cummax_j<=k (shifted_j - j * scale)``.
    ``scale`` is a scalar, or per visit (constant along each run).
    Solved in place: returns ``shifted``, overwritten. The cummax runs
    once per edge; a level holds a few hundred edges at most."""
    n = e_sorted.size
    diff = e_sorted[1:] != e_sorted[:-1]
    seg_id = np.zeros(n, dtype=np.int32)
    np.cumsum(diff, out=seg_id[1:])
    starts = np.flatnonzero(np.concatenate(([True], diff)))
    idx = np.arange(n, dtype=np.int32) - starts.astype(np.int32)[seg_id]
    shifted -= idx * scale
    ends = np.append(starts[1:], n)
    for s0, s1 in zip(starts.tolist(), ends.tolist()):
        run = shifted[s0:s1]
        np.maximum.accumulate(run, out=run)
    shifted += (idx + lag) * scale
    return shifted


def _sorted_by_edge_then(
    key: np.ndarray, e_s: np.ndarray, e_span: int, kind: Any = None
) -> np.ndarray:
    """Indices sorting by ``e_s`` with ``key``'s order inside each edge:
    one sort on ``key``, then a stable int16 radix pass on the edge ids
    when they fit (they are topology edge ids, so they do for every
    paper-scale network)."""
    o1 = np.argsort(key, kind=kind)
    e_o = e_s[o1]
    if e_span < _I16_MAX:
        e_o = e_o.astype(np.int16, copy=False)
    return o1[np.argsort(e_o, kind="stable")]


def _fifo_departures(
    e_s: np.ndarray,
    x_s: np.ndarray,
    c: float | np.ndarray,
    e_span: int,
    cap: np.ndarray | None = None,
) -> np.ndarray | None:
    """Solve one level in place: ``x_s`` holds its visits' eligibility
    times on entry and their departure times on return. FIFO order is
    arrival order. Equal eligibility times are common, not measure-zero:
    two times descended from one busy period differ by whole service
    times, so they can coincide exactly; such ties take the sort's
    order, where the event loops take their ``(time, seq)`` order. Which
    tied visit goes first changes no departure time at this edge, only
    which packet carries which one onward.

    ``c`` is the uniform service time or a per-edge array. With per-edge
    waiting-room caps ``cap``, tail-drop admission applies: a dropped
    visit's entry is left at its arrival (drop) time, and the visits'
    drop mask is returned when any were dropped (else ``None``)."""
    order = _sorted_by_edge_then(x_s, e_s, e_span)
    e_o = e_s[order]
    scale = c[e_o] if isinstance(c, np.ndarray) else c
    if cap is None:
        x_s[order] = _solve_runs(e_o, x_s[order], scale, 1)
        return None
    x_o = x_s[order]
    d = _solve_runs(e_o, x_o.copy(), scale, 1)
    dropped = _tail_drop(e_o, x_o, d, scale, cap[e_o] * scale)
    x_s[order] = d
    if dropped is None:
        return None
    mask = np.zeros(e_s.size, dtype=bool)
    mask[order[dropped]] = True
    return mask


def _fifo_service_departures(
    e_s: np.ndarray, x_s: np.ndarray, s_s: np.ndarray, e_span: int
) -> None:
    """Solve one level of FIFO queues in place, each visit carrying its
    own service time ``s_s`` (exponential service): ``x_s`` holds the
    visits' eligibility times on entry and their departure times on
    return, ``d_k = max(x_k, d_{k-1}) + s_k`` in arrival order.

    The closed form ``d_k = S_k + cummax_j<=k (x_j - S_{j-1})``, with
    ``S`` the cumulative service, only cuts the busy periods: it rounds
    on the scale of the whole level's service. Each period's departures
    are then summed in the loop's own order, ``t + s`` from its first
    arrival, all periods in lockstep (:func:`_fifo_periods`), so they
    are the event loop's bit for bit. Where rounding in the cut puts a
    period's last departure after the next period's first arrival on its
    edge, the two are merged and the level solved again, as in
    :func:`_ps_departures`."""
    order = _sorted_by_edge_then(x_s, e_s, e_span)
    e_o = e_s[order]
    x = x_s[order]
    s = s_s[order]
    new_edge = np.ones(x.size, dtype=bool)
    new_edge[1:] = e_o[1:] != e_o[:-1]
    # The level's cumulative service: its offset at an edge's first
    # visit cancels within the edge's run.
    cum = np.cumsum(s)
    d = x - (cum - s)
    starts = np.flatnonzero(new_edge)
    for s0, s1 in zip(starts.tolist(), np.append(starts[1:], x.size).tolist()):
        run = d[s0:s1]
        np.maximum.accumulate(run, out=run)
    d += cum
    opens = new_edge.copy()
    opens[1:] |= x[1:] >= d[:-1]
    while True:
        starts = np.flatnonzero(opens)
        d = _fifo_periods(x, s, starts)
        nxt = starts[1:]
        late = nxt[(d[nxt - 1] > x[nxt]) & ~new_edge[nxt]]
        if late.size == 0:
            break
        opens[late] = False
    x_s[order] = d


def _fifo_periods(x: np.ndarray, s: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Departures of FIFO busy periods: ``x[starts[i]:starts[i + 1]]``
    (the last running to the end) are one period's arrival times,
    ascending, and ``s`` their service times. Every period steps one
    customer at a time, ``d = max(x, d_prev) + s``, all of them
    together, longest first, so the periods still running at a step
    are a prefix."""
    n = x.size
    length = np.append(starts[1:], n) - starts
    by_len = np.argsort(-length, kind="stable")
    start, length = starts[by_len], length[by_len]
    active = np.searchsorted(-length, -np.arange(int(length[0])), side="left")
    last = np.full(start.size, -np.inf)
    d = np.empty(n)
    for k, m in enumerate(active.tolist()):
        pos = start[:m] + k
        dep = np.maximum(x[pos], last[:m])
        dep += s[pos]
        last[:m] = dep
        d[pos] = dep
    return d


def _ps_departures(
    e_s: np.ndarray, x_s: np.ndarray, phi: float | np.ndarray, e_span: int
) -> None:
    """Solve one level of unit-work processor-sharing queues in place:
    ``x_s`` holds its visits' arrival times on entry and their departure
    times on return. ``phi`` is the service rate, uniform or per edge.

    PS is work-conserving, so its busy periods are those of the FIFO
    solve with service time ``1 / phi``, and every customer needs the same
    work, so customers leave in arrival order. Each busy period is then
    advanced in *virtual time*: ``S``, the service each present customer
    has received, grows at ``phi / N`` with ``N`` customers present, and
    the customer arriving when it reads ``S(a)`` leaves when it reaches
    ``S(a) + 1``. The next event of a period is its next arrival, or the
    departure of its head at ``t + (T_head - S) * N / phi``. Every busy
    period of the level advances one event per step, all at once
    (:func:`_ps_periods`), so a level takes twice its longest busy
    period in steps. Where rounding puts a period's last departure after
    the next period's first arrival on its edge, the two periods are
    merged and the level is solved again."""
    order = _sorted_by_edge_then(x_s, e_s, e_span)
    e_o = e_s[order]
    a = x_s[order]
    rate = phi[e_o] if isinstance(phi, np.ndarray) else phi
    d = _solve_runs(e_o, a.copy(), 1.0 / rate, 1)
    new_edge = np.ones(a.size, dtype=bool)
    new_edge[1:] = e_o[1:] != e_o[:-1]
    opens = new_edge.copy()
    opens[1:] |= a[1:] >= d[:-1]
    while True:
        starts = np.flatnonzero(opens)
        d = _ps_periods(a, starts, rate)
        nxt = starts[1:]
        late = nxt[(d[nxt - 1] > a[nxt]) & ~new_edge[nxt]]
        if late.size == 0:
            break
        opens[late] = False
    x_s[order] = d


def _ps_periods(
    a: np.ndarray, starts: np.ndarray, phi: float | np.ndarray
) -> np.ndarray:
    """Departures of unit-work PS busy periods: ``a[starts[i]:starts[i +
    1]]`` (the last running to the end) are one period's arrival times,
    ascending, and ``phi`` is the service rate, a scalar or per visit
    (constant along a period). A period of ``L`` customers has ``2L - 1``
    events after its first arrival opens it; all periods step together,
    longest first, so the periods still running at a step are a prefix.
    A period that empties before its next arrival (rounding can make
    one) idles: ``S`` holds until that arrival."""
    n = a.size
    ends = np.append(starts[1:], n)
    by_len = np.argsort(starts - ends, kind="stable")
    head = starts[by_len]  # each period's next departure
    end = ends[by_len]
    steps = 2 * (end - head) - 1
    active = np.searchsorted(-steps, -np.arange(int(steps[0])), side="left")
    rate = np.broadcast_to(phi, n)[head]
    t = a[head]
    nxt = head + 1  # each period's next arrival
    served = np.zeros(head.size)  # S
    count = np.ones(head.size)  # N
    target = np.zeros(n)  # T_j = S(a_j) + 1
    target[head] = 1.0
    d = np.empty(n)
    for m in active.tolist():
        h, j, k, t_m, s_m, f = (
            head[:m], nxt[:m], count[:m], t[:m], served[:m], rate[:m]
        )
        t_arr = np.where(j < end[:m], a[np.minimum(j, n - 1)], np.inf)
        busy = k > 0.0
        t_dep = np.where(busy, t_m + (target[h] - s_m) * k / f, np.inf)
        arr = t_arr < t_dep
        dep = ~arr
        gain = np.where(busy, (t_arr - t_m) * (f / np.maximum(k, 1.0)), 0.0)
        s_new = np.where(arr, s_m + gain, target[h])
        target[j[arr]] = s_new[arr] + 1.0
        d[h[dep]] = t_dep[dep]
        t[:m] = np.where(arr, t_arr, t_dep)
        served[:m] = s_new
        count[:m] += np.where(arr, 1.0, -1.0)
        nxt[:m] += arr
        head[:m] += dep
    return d


def _tail_drop(
    e: np.ndarray,
    x: np.ndarray,
    d: np.ndarray,
    c: float | np.ndarray,
    room: np.ndarray,
) -> np.ndarray | None:
    """Tail-drop admission over one level's visits, sorted by edge and
    then by arrival time ``x``, given their *uncapped* departures ``d``
    (overwritten with the capped ones; a dropped visit gets its arrival
    time). ``c`` is the service time (a scalar or per visit) and
    ``room = cap * c`` the longest backlog an arrival may find, per
    visit. Returns the dropped positions, or ``None`` when nothing
    drops.

    A visit arriving at ``a`` is dropped iff the edge's last admitted
    departure ``d_last`` exceeds ``a + room``. Only busy periods of the
    uncapped solve in which some visit would be dropped need the scan:
    until their first such visit the capped queue is the uncapped one,
    and once the uncapped queue drains the capped one (never longer) has
    drained too. Each of those stretches is scanned from its first drop
    to the end of its busy period, one arrival rank per step, all of
    them at once."""
    n = e.size
    prev = np.empty(n)
    prev[0] = -np.inf
    prev[1:] = d[:-1]
    prev[np.flatnonzero(e[1:] != e[:-1]) + 1] = -np.inf
    over = np.flatnonzero(prev - x > room)
    if over.size == 0:
        return None
    idle = x >= prev  # the visit opens a busy period of the uncapped solve
    period = np.cumsum(idle) - 1
    period_end = np.append(np.flatnonzero(idle)[1:], n)
    first = np.ones(over.size, dtype=bool)
    first[1:] = period[over[1:]] != period[over[:-1]]
    start = over[first]
    length = period_end[period[start]] - start
    by_len = np.argsort(-length, kind="stable")
    start, length = start[by_len], length[by_len]
    # Stretches still running at each rank step (a prefix: longest first).
    active = np.searchsorted(-length, -np.arange(int(length[0])), side="left")
    last = prev[start]  # exact: nothing dropped before ``start``
    c_u = np.broadcast_to(c, n)[start]  # constant along each stretch
    room_u = room[start]
    drop = np.zeros(n, dtype=bool)
    for k, m in enumerate(active.tolist()):
        pos = start[:m] + k
        a = x[pos]
        d_last = last[:m]
        lost = d_last - a > room_u[:m]
        dep = np.maximum(a, d_last)
        dep += c_u[:m]
        np.copyto(d_last, dep, where=~lost)
        d[pos] = dep
        drop[pos] = lost
    dropped = np.flatnonzero(drop)
    d[dropped] = x[dropped]
    return dropped


def _level_layout(
    lvl_vis: np.ndarray,
    num_edges: int,
    visit_edge: np.ndarray,
    ends: np.ndarray,
    service: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Static per-run structure of the level sweep, in *level layout*
    (visits stably sorted by their levels ``lvl_vis``), so the solve
    loop reads it as contiguous slices. ``ends`` are the packets'
    cumulative path lengths.

    Returns ``(bounds, e_lv, pk_lv, s_lv)`` — per-level slice bounds and,
    per visit in level layout, its edge id (``int16`` where edge ids fit),
    its packet id (``int32``) and, given per-visit ``service`` times, its
    service time (else ``None``). The stable sort keeps visits in generation
    order inside each level (each packet appears at most once per level,
    so this is also packet order — the slotted tie-break relies on it).
    It runs as a chunked counting sort: each chunk is radix-sorted on its
    own and its visits' edge and packet ids are scattered to their
    levels' next free slots, so no full-size index array is built."""
    nvis = lvl_vis.size
    n_lvl = int(lvl_vis.max()) + 1
    cuts = range(0, nvis, _SORT_CHUNK)
    counts = np.array(
        [np.bincount(lvl_vis[i : i + _SORT_CHUNK], minlength=n_lvl) for i in cuts]
    )
    bounds = np.zeros(n_lvl + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=0), out=bounds[1:])
    # Level-layout slot of each chunk's first visit on each level.
    base = bounds[:-1] + np.cumsum(counts, axis=0) - counts
    e_lv = np.empty(nvis, dtype=np.int16 if num_edges < _I16_MAX else np.int32)
    pk_lv = np.empty(nvis, dtype=np.int32)
    s_lv = None if service is None else np.empty(nvis)
    for k, i in enumerate(cuts):
        chunk = lvl_vis[i : i + _SORT_CHUNK]
        j = i + chunk.size
        o = np.argsort(chunk, kind="stable")
        first = np.cumsum(counts[k]) - counts[k]  # in the sorted chunk
        slot = (base[k] - first).astype(np.int32)[chunk[o]]
        slot += np.arange(o.size, dtype=np.int32)
        e_lv[slot] = visit_edge[i:j][o]
        if service is not None and s_lv is not None:
            s_lv[slot] = service[i:j][o]
        # The chunk's packet ids: one more after each packet's last visit
        # (paths are non-empty, so packet ends are distinct).
        p0, p1 = np.searchsorted(ends, (i, j - 1), side="right")
        pk = np.zeros(chunk.size, dtype=np.int32)
        pk[ends[p0:p1] - i] = 1
        np.cumsum(pk, out=pk)
        pk += p0
        pk_lv[slot] = pk[o]
    return bounds, e_lv, pk_lv, s_lv


#: Tail-drop packet state bit: the packet was dropped.
_DROPPED = 2


class _Sweep(NamedTuple):
    """What :func:`_sweep_levels` returns."""

    #: Each packet's ``forward(d)`` of its last-hop departure ``d`` (of
    #: its drop time if dropped).
    final: np.ndarray
    #: Window sums of the clipped departures over all visits and over
    #: saturated-edge visits.
    sum_all: float
    sum_sat: float
    #: Each packet's number of saturated hops (``None`` without a mask).
    sat_hops: np.ndarray | None
    #: Tail-drop runs only: which packets were not dropped, and the
    #: measured packets dropped at each edge.
    drops: tuple[np.ndarray, np.ndarray] | None = None


def _sweep_levels(
    sim: Any,
    visits: list[np.ndarray],
    lens: np.ndarray,
    edge_lvl: np.ndarray,
    seed: np.ndarray,
    solve: Callable[..., np.ndarray | None],
    forward: Callable[[np.ndarray], np.ndarray],
    clip_lo: float,
    clip_hi: float,
    sat_arr: np.ndarray | None,
    measured: np.ndarray | None = None,
    service: Service | None = None,
) -> _Sweep:
    """The level sweep both kernels share.

    Takes the routed packets' visits out of their one-element list (the
    caller keeps no reference), lays them out by their edges' levels
    ``edge_lvl`` (valid for this run's routes: strictly increasing
    along each path), freeing the visit array, and solves level by
    level over one per-packet array
    ``cur`` of ``seed``'s dtype: the eligibility value of each packet's
    next hop, ``seed`` before its first hop and ``forward(d)`` after a
    hop departed at ``d``. A packet visits each level at most once, and
    its next hop always sits in a later level, so each level gathers
    ``cur`` for its visits, ``solve(edges, values)`` overwrites the
    gathered values with their departures, and ``forward`` of those is
    written back. ``cur`` ends up holding ``forward`` of every packet's
    last departure. Each solved level adds its visits' clipped
    departures ``max(min(d, clip_hi) - clip_lo, 0)`` to the window sums.

    Tail-drop runs pass each routed packet's ``measured`` flag, and
    ``solve`` returns the mask of the visits it dropped (or ``None``).
    A dropped packet is retired: its later visits skip every solve and
    carry the drop time forward as their "departure", which is where its
    remaining hop units end in the window sums.

    With ``service`` (per-visit service times, see :data:`Service`),
    each visit's time is laid out beside its edge and packet ids and
    ``solve(edges, values, services)`` gets the level's slice.
    """
    num_edges = sim.topology.num_edges
    visit_edge = visits.pop()
    edge_drops = np.zeros(num_edges, dtype=np.int64)
    if lens.size == 0:
        sat_hops = None if sat_arr is None else np.zeros(0, dtype=np.int64)
        drops = None
        if measured is not None:
            drops = (np.zeros(0, dtype=bool), edge_drops)
        return _Sweep(np.empty(0, dtype=seed.dtype), 0.0, 0.0, sat_hops, drops)
    ends = np.cumsum(lens)
    sat_hops = None
    if sat_arr is not None:
        cum_sat = np.cumsum(sat_arr[visit_edge], dtype=np.int32)
        sat_hops = np.diff(cum_sat[ends - 1], prepend=0)
        del cum_sat
    lvl_vis = edge_lvl[visit_edge]
    s_vis = None if service is None else service(lens, visit_edge)
    bounds, e_lv, pk_lv, s_lv = _level_layout(
        lvl_vis, num_edges, visit_edge, ends, s_vis
    )
    del lvl_vis, visit_edge, ends, s_vis
    cur = seed.copy()
    state: np.ndarray | None = None
    if measured is not None:
        # Per packet: bit 0 = measured, plus the _DROPPED bit.
        state = measured.astype(np.int8)
    sum_all = sum_sat = 0.0
    for lev in range(bounds.size - 1):
        lo, hi = int(bounds[lev]), int(bounds[lev + 1])
        if lo == hi:
            continue
        e = e_lv[lo:hi]
        pk = pk_lv[lo:hi]
        d = cur[pk]
        extra = () if s_lv is None else (s_lv[lo:hi],)
        if state is None:
            solve(e, d, *extra)
        else:
            st = state[pk]
            live = np.flatnonzero(st < _DROPPED)
            lost: np.ndarray | None = None
            if live.size:  # a level may hold only retired visits
                d_live = d[live]
                lost = solve(e[live], d_live, *(v[live] for v in extra))
                d[live] = d_live
            if lost is not None:
                hit = live[lost]
                edge_drops += np.bincount(
                    e[hit[st[hit] == 1]], minlength=num_edges
                )
                state[pk[hit]] |= _DROPPED
        cur[pk] = forward(d)
        clipped = np.minimum(d, clip_hi)
        clipped -= clip_lo
        np.maximum(clipped, 0, out=clipped)
        sum_all += clipped.sum().item()
        if sat_arr is not None:
            sum_sat += clipped[sat_arr[e]].sum().item()
    drops = None
    if state is not None:
        drops = (state < _DROPPED, edge_drops)
    return _Sweep(cur, sum_all, sum_sat, sat_hops, drops)


#: A run's routing callback for :func:`solve_fifo`: the routed packets'
#: ``(src, dst)`` arrays to their visit array (in a one-element list, see
#: :func:`_sweep_levels`), path lengths, and per-edge levels valid for
#: those routes.
Route = Callable[
    [np.ndarray, np.ndarray],
    tuple[list[np.ndarray], np.ndarray, np.ndarray],
]

#: A run's per-visit service times for :func:`solve_fifo`: the routed
#: packets' path lengths and visit edges (in generation order) to each
#: visit's service time.
Service = Callable[[np.ndarray, np.ndarray], np.ndarray]


def pair_routes(router: Any) -> Route:
    """The level paths' routing callback for a router with closed-form
    levels (:meth:`~repro.routing.base.BaseRouter.edge_levels`): each
    distinct ``(src, dst)`` pair is routed once
    (:func:`~repro.routing.pathcache.route_pairs`), and the levels are
    the router's."""

    def route(
        srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        edges, pair_lens, inverse = route_pairs(router, srcs, dsts)
        starts = np.cumsum(pair_lens) - pair_lens
        lens = pair_lens[inverse]
        visits = gather_paths(edges, starts[inverse], lens)
        return [visits], lens, router.edge_levels()

    return route


def solve_fifo(
    sim: Any,
    warmup: float,
    horizon: float,
    arrivals: list[np.ndarray],
    route: Route,
    *,
    track_utilization: bool = False,
    collect_delays: bool = False,
    track_number_distribution: bool = False,
    service: Service | None = None,
) -> SimResult:
    """A FIFO run, solved level by level (:func:`solve_levels`): with
    deterministic service by :func:`_fifo_departures`, taking service
    times, waiting-room caps and the saturated-edge mask from ``sim``;
    given per-visit ``service`` times (exponential service, no caps) by
    :func:`_fifo_service_departures`."""
    caps = sim._edge_caps
    t_end = warmup + horizon
    num_edges = sim.topology.num_edges
    # Uniform service keeps the scalar solve; per-edge service times are
    # gathered per visit.
    c = (
        sim._service_times[0]
        if sim._uniform_service
        else np.asarray(sim._service_times)
    )
    cap = None if caps is None else np.asarray(caps, dtype=np.float64)
    sat = sim._sat
    util = np.zeros(num_edges) if track_utilization else None

    def solve(
        e: np.ndarray, x: np.ndarray, s: np.ndarray | None = None
    ) -> np.ndarray | None:
        if s is None:
            lost = _fifo_departures(e, x, c, num_edges, cap)
        else:
            _fifo_service_departures(e, x, s, num_edges)
            lost = None
        if util is not None:
            if lost is not None:
                e, x = e[~lost], x[~lost]
            # Each served visit keeps its edge busy over [d - s, d].
            if s is None:
                start = x - (c[e] if isinstance(c, np.ndarray) else c)
            else:
                start = x - s
            busy = np.minimum(x, t_end)
            busy -= np.maximum(start, warmup)
            np.maximum(busy, 0.0, out=busy)
            util[:] += np.bincount(e, weights=busy, minlength=num_edges)
        return lost

    return solve_levels(
        sim,
        warmup,
        horizon,
        arrivals,
        route,
        solve,
        capped=caps is not None,
        sat_arr=None if sat is None else np.asarray(sat, dtype=bool),
        util=util,
        collect_delays=collect_delays,
        track_number_distribution=track_number_distribution,
        service=service,
    )


def solve_levels(
    sim: Any,
    warmup: float,
    horizon: float,
    arrivals: list[np.ndarray],
    route: Route,
    solve: Callable[..., np.ndarray | None],
    *,
    capped: bool = False,
    sat_arr: np.ndarray | None = None,
    util: np.ndarray | None = None,
    collect_delays: bool = False,
    track_number_distribution: bool = False,
    service: Service | None = None,
) -> SimResult:
    """A run solved level by level, given its per-level departure solver.

    ``arrivals`` holds the run's arrival times (ascending, all before
    ``warmup + horizon``) and their ``src`` and ``dst`` ids, in a list
    this function empties, so the arrays are freed as it goes. ``route``
    routes the packets with ``src != dst``. ``solve(edges, times)``
    overwrites one level's eligibility times with its departures (see
    :func:`_sweep_levels`); a ``capped`` solver returns the mask of the
    visits it dropped. ``sat_arr`` is the saturated-edge mask and
    ``util`` a per-edge busy-time array the solver fills, reported over
    the horizon. ``service`` gives the visits their own service times,
    which ``solve`` then takes as a third argument. Every statistic is an
    exact window-overlap reduction over the solved departures, so FIFO
    and PS share all of them.
    """
    t_end = warmup + horizon
    num_nodes = sim.topology.num_nodes

    r_t, srcs, dsts = arrivals
    arrivals.clear()
    measured = r_t >= warmup
    generated = int(measured.sum())
    zero = srcs == dsts
    zero_ts = r_t[measured & zero]

    nz = ~zero
    a_t = r_t[nz]  # routed packets' creation times
    mr = measured[nz]
    srcs, dsts = srcs[nz], dsts[nz]
    del r_t, measured, zero, nz
    visits, lens, edge_lvl = route(srcs, dsts)
    del srcs, dsts

    # ---- solve ----
    sweep = _sweep_levels(
        sim,
        visits,
        lens,
        edge_lvl,
        a_t,
        solve,
        lambda d: d,
        warmup,
        t_end,
        sat_arr,
        mr if capped else None,
        service,
    )
    d_final, sum_r, sum_rs, sat_hops = sweep[:4]

    # ---- exact window-overlap statistics ----
    int_n = float(
        np.maximum(
            np.minimum(d_final, t_end) - np.maximum(a_t, warmup), 0.0
        ).sum()
    )
    # Hop h's remaining-work unit exists over [a, d_h]; the sweep summed
    # its overlap with [warmup, t_end] as if every packet were born
    # before the warmup, so packets born inside the window give back
    # (a - warmup) per hop. (Products summed, not a float ``@``: that
    # goes to BLAS, whose threads may take every core.)
    lag = a_t[mr] - warmup
    int_r = sum_r - float((lens[mr] * lag).sum())
    int_rs = (
        0.0 if sat_hops is None else sum_rs - float((sat_hops[mr] * lag).sum())
    )
    in_flight = int((d_final >= t_end).sum())

    dropped = 0
    node_drops = None
    done = mr  # measured routed packets that complete
    if sweep.drops is not None:
        survived, edge_drops = sweep.drops
        done = mr & survived
        node_drops = np.bincount(
            sim._edge_tail, weights=edge_drops, minlength=num_nodes
        ).astype(np.int64)
        dropped = int(edge_drops.sum())

    delay_acc = TimeBatchAccumulator(warmup, t_end)
    routed_delay = d_final - a_t
    delay_acc.add_batch(a_t[done], routed_delay[done])
    delay_acc.add_batch(zero_ts, np.zeros(zero_ts.size))

    delays = None
    if collect_delays:
        comp_t = np.concatenate((zero_ts, d_final[done]))
        vals = np.concatenate((np.zeros(zero_ts.size), routed_delay[done]))
        delays = vals[np.argsort(comp_t, kind="stable")]

    mean_number = int_n / horizon
    summary = delay_acc.summary()
    return SimResult(
        warmup=warmup,
        horizon=horizon,
        seed=sim.seed,
        generated=generated,
        # Every measured packet that is not dropped completes after drain.
        completed=generated - dropped,
        zero_hop=zero_ts.size,
        in_flight_at_end=in_flight,
        mean_number=mean_number,
        mean_remaining=int_r / horizon,
        mean_remaining_saturated=(
            int_rs / horizon if sat_arr is not None else float("nan")
        ),
        mean_delay=summary.mean,
        delay_half_width=summary.half_width,
        mean_delay_littles=mean_number / sim.total_rate,
        total_rate=sim.total_rate,
        utilization=util / horizon if util is not None else None,
        delays=delays,
        number_distribution=(
            _number_distribution(a_t, d_final, warmup, t_end)
            if track_number_distribution
            else None
        ),
        dropped=dropped,
        node_drops=node_drops,
    )


def _number_distribution(
    born: np.ndarray, left: np.ndarray, warmup: float, t_end: float
) -> dict[int, float]:
    """The time-weighted distribution of the number of routed packets in
    the network over ``[warmup, t_end]``, as the event loops keep it:
    ``+1`` at each routed birth ``born``, ``-1`` at each final departure
    ``left``, and only the counts held for a positive time as keys, in
    ascending order."""
    if born.size == 0:
        return {0: 1.0}
    times = np.concatenate((born, left))
    step = np.ones(times.size, dtype=np.int64)
    step[born.size :] = -1
    # Births sort before departures at equal times, so the count never
    # dips below zero; such ties hold their count for no time.
    order = np.argsort(times, kind="stable")
    times = times[order]
    count = np.cumsum(step[order])
    # count[i] holds over [times[i], times[i + 1]), and the empty network
    # before the first event.
    hi = np.append(times[1:], t_end)
    np.minimum(hi, t_end, out=hi)
    span = hi - np.maximum(times, warmup)
    np.maximum(span, 0.0, out=span)
    held = np.bincount(count, weights=span)
    held[0] += max(min(times[0], t_end) - warmup, 0.0)
    keys = np.flatnonzero(held > 0.0)
    held = held[keys]
    held /= held.sum()
    return dict(zip(keys.tolist(), held.tolist()))
