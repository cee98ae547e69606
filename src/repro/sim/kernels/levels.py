"""The level sweep: the deterministic FIFO solve both kernels share.

At a single FIFO server with constant service time ``c_e`` the departure
of the ``k``-th arrival (in arrival order) is the Lindley recurrence
``d_k = max(x_k, d_{k-1}) + c_e``, which has the closed form
``d_k = (k+1) c_e + cummax_j<=k (x_j - j c_e)``: one segmented
cumulative maximum per edge, no loop over events. When the route set is
*feedforward* — the edge-precedence relation "``e`` is visited
immediately before ``f`` on some used path" is acyclic, as Lemma 2
shows for greedy routing on the array, and true on k-d arrays,
hypercubes and butterflies too — edges are solved level by level: every
hop-0 eligibility time is a packet's creation time, a level's
departures become the eligibility times of the next hops, and so on.
Torus wraparound or mixed-order randomized routes make precedence
cycles, which :func:`_edge_levels` detects (:class:`CyclicRoutes`).

Both kernels solve here: the numpy kernel
(:mod:`repro.sim.kernels.numpy_backend`) on its own blocked draws, and
the python kernel's level path
(:mod:`repro.sim.kernels.python_backend`) on the merge loop's draws.
:func:`solve_fifo` takes a run's arrivals and a routing callback and
returns its :class:`~repro.sim.result.SimResult`; the slotted numpy
kernel uses :func:`_sweep_levels` directly with integer join keys.

Memory layout (:func:`_sweep_levels`): per visit, only its edge id and
its packet id, as ``int16``/``int32`` arrays in level order; per packet,
the eligibility value of its next hop, which each level gathers for its
visits and overwrites once they are solved. All statistics
(occupancy/remaining-work integrals, delay batch means, in-flight
counts) are exact window-overlap reductions — the same integrals the
event loops accumulate incrementally — taken level by level as each
level is solved, so no other per-visit array is kept. That is about 30
bytes per visit at the peak, which
:data:`~repro.sim.kernels.NUMPY_VISIT_BUDGET` bounds.

FIFO options
------------
* ``track_utilization``: a visit that leaves edge ``e`` at ``d`` kept it
  busy over ``[d - c_e, d]``; each solved level clips those intervals
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
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.sim.measurement import TimeBatchAccumulator
from repro.sim.result import SimResult

#: Visits per chunk of the level sort and the precedence-pair dedup
#: (bounds their temporaries).
_SORT_CHUNK = 1 << 16

_I16_MAX = np.iinfo(np.int16).max


class CyclicRoutes(ValueError):
    """The used routes' edge-precedence relation has a cycle."""


def _edge_levels(
    num_edges: int, prev: np.ndarray, nxt: np.ndarray
) -> np.ndarray:
    """Topological level of every edge under the used-path precedence.

    ``lvl[e] = 0`` for edges never preceded on any used path, else one
    more than the deepest predecessor. Computed by peeling the distinct
    consecutive-visit pairs ``prev -> nxt`` in rounds (Kahn's algorithm,
    vectorized): round ``r`` removes the edges whose predecessors are all
    gone, and those are exactly the edges of level ``r``. A precedence
    cycle is never peeled, so a round that frees nothing while pairs
    remain proves one (:class:`CyclicRoutes`) — on a torus, at once.
    """
    lvl = np.zeros(num_edges, dtype=np.int64)
    if prev.size == 0:
        return lvl
    order = np.argsort(prev, kind="stable")
    succ = nxt[order]
    # Pairs out of edge e: succ[heads[e]:heads[e + 1]].
    heads = np.searchsorted(prev[order], np.arange(num_edges + 1))
    waiting = np.bincount(nxt, minlength=num_edges)
    frontier = np.flatnonzero(waiting == 0)
    peeled = 0
    level = 0
    while frontier.size:
        lvl[frontier] = level
        counts = heads[frontier + 1] - heads[frontier]
        total = int(counts.sum())
        if total == 0:
            break
        # The pairs out of the frontier, as one index array.
        starts = np.repeat(heads[frontier] - (np.cumsum(counts) - counts), counts)
        hit = np.bincount(succ[starts + np.arange(total)], minlength=num_edges)
        peeled += total
        waiting -= hit
        frontier = np.flatnonzero((waiting == 0) & (hit > 0))
        level += 1
    if peeled < prev.size:
        raise CyclicRoutes(
            "backend='numpy' requires feedforward routing (an acyclic "
            "edge-precedence relation over the used paths); this route set "
            "has a cycle — e.g. torus wraparound or mixed-order randomized "
            "routes — use backend='python'"
        )
    return lvl


def _precedence_levels(
    num_edges: int, visit_edge: np.ndarray, breaks: np.ndarray
) -> np.ndarray:
    """Edge levels under the consecutive visit pairs of ``visit_edge``.

    ``breaks`` are the sorted visits ``b`` whose pair ``(b, b + 1)``
    straddles two packets; the distinct pairs are found chunk by chunk.
    Raises :class:`CyclicRoutes` when the pairs have a cycle.
    """
    # Distinct precedence pairs as keys e * E + f (int32 while E^2
    # fits); the pairs that straddle two packets are masked out as -1.
    dtype = np.int32 if num_edges * num_edges < 2**31 else np.int64
    found = [np.empty(0, dtype=dtype)]
    last = visit_edge.size - 1
    for lo in range(0, last, _SORT_CHUNK):
        hi = min(lo + _SORT_CHUNK, last)
        key = visit_edge[lo:hi].astype(dtype)
        key *= num_edges
        key += visit_edge[lo + 1 : hi + 1]
        b0, b1 = np.searchsorted(breaks, (lo, hi))
        key[breaks[b0:b1] - lo] = -1
        found.append(np.unique(key))
    pairs = np.unique(np.concatenate(found))
    pairs = pairs[pairs >= 0].astype(np.int64)
    lvl = _edge_levels(num_edges, pairs // num_edges, pairs % num_edges)
    if int(lvl.max()) < _I16_MAX:
        # int16 levels: the level sort's radix pass then needs no cast.
        lvl = lvl.astype(np.int16)
    return lvl


#: Each router's last edge-level assignment (see :func:`_levels_for`).
_LEVEL_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _levels_for(
    router: Any, num_edges: int, visit_edge: np.ndarray, breaks: np.ndarray
) -> np.ndarray:
    """Per-visit edge levels for this run, memoized per router.

    A level assignment is valid for a run iff ``lvl[f] > lvl[e]`` for
    every consecutive visit pair ``e -> f`` the run actually uses, so an
    assignment memoized by an earlier run on the same router (a cell's
    seeds share one) is revalidated with one vectorized pass and only
    recomputed (:func:`_precedence_levels`) when a new seed routes a pair
    it does not cover.
    """
    cached = _LEVEL_MEMO.get(router)
    if cached is not None:
        lvl_vis = cached[visit_edge]
        ok = lvl_vis[1:] > lvl_vis[:-1]
        ok[breaks] = True
        if bool(ok.all()):
            return lvl_vis
        del lvl_vis, ok
    lvl = _precedence_levels(num_edges, visit_edge, breaks)
    _LEVEL_MEMO[router] = lvl
    return lvl[visit_edge]


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
    lvl_vis: np.ndarray, num_edges: int, visit_edge: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Static per-run structure of the level sweep, in *level layout*
    (visits stably sorted by their levels ``lvl_vis``), so the solve
    loop reads it as contiguous slices. ``ends`` are the packets'
    cumulative path lengths.

    Returns ``(bounds, e_lv, pk_lv)`` — per-level slice bounds and, per
    visit in level layout, its edge id (``int16`` where edge ids fit) and
    its packet id (``int32``). The stable sort keeps visits in generation
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
    for k, i in enumerate(cuts):
        chunk = lvl_vis[i : i + _SORT_CHUNK]
        j = i + chunk.size
        o = np.argsort(chunk, kind="stable")
        first = np.cumsum(counts[k]) - counts[k]  # in the sorted chunk
        slot = (base[k] - first).astype(np.int32)[chunk[o]]
        slot += np.arange(o.size, dtype=np.int32)
        e_lv[slot] = visit_edge[i:j][o]
        # The chunk's packet ids: one more after each packet's last visit
        # (paths are non-empty, so packet ends are distinct).
        p0, p1 = np.searchsorted(ends, (i, j - 1), side="right")
        pk = np.zeros(chunk.size, dtype=np.int32)
        pk[ends[p0:p1] - i] = 1
        np.cumsum(pk, out=pk)
        pk += p0
        pk_lv[slot] = pk[o]
    return bounds, e_lv, pk_lv


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
    seed: np.ndarray,
    solve: Callable[[np.ndarray, np.ndarray], np.ndarray | None],
    forward: Callable[[np.ndarray], np.ndarray],
    clip_lo: float,
    clip_hi: float,
    sat_arr: np.ndarray | None,
    measured: np.ndarray | None = None,
    edge_lvl: np.ndarray | None = None,
) -> _Sweep:
    """The level sweep both kernels share.

    Takes the routed packets' visits out of their one-element list (the
    caller keeps no reference), lays them out by level, freeing the
    visit array, and solves level by level over one per-packet array
    ``cur`` of ``seed``'s dtype: the eligibility value of each packet's
    next hop, ``seed`` before its first hop and ``forward(d)`` after a
    hop departed at ``d``. A packet visits each level at most once, and
    its next hop always sits in a later level, so each level gathers
    ``cur`` for its visits, ``solve(edges, values)`` overwrites the
    gathered values with their departures, and ``forward`` of those is
    written back. ``cur`` ends up holding ``forward`` of every packet's
    last departure. Each solved level adds its visits' clipped
    departures ``max(min(d, clip_hi) - clip_lo, 0)`` to the window sums.

    The levels are ``edge_lvl`` (per edge, valid for this run's routes)
    when given, else the router's memoized assignment
    (:func:`_levels_for`).

    Tail-drop runs pass each routed packet's ``measured`` flag, and
    ``solve`` returns the mask of the visits it dropped (or ``None``).
    A dropped packet is retired: its later visits skip every solve and
    carry the drop time forward as their "departure", which is where its
    remaining hop units end in the window sums.
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
    if edge_lvl is None:
        lvl_vis = _levels_for(sim.router, num_edges, visit_edge, ends[:-1] - 1)
    else:
        lvl_vis = edge_lvl[visit_edge]
    bounds, e_lv, pk_lv = _level_layout(lvl_vis, num_edges, visit_edge, ends)
    del lvl_vis, visit_edge, ends
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
        if state is None:
            solve(e, d)
        else:
            st = state[pk]
            live = np.flatnonzero(st < _DROPPED)
            lost: np.ndarray | None = None
            if live.size:  # a level may hold only retired visits
                d_live = d[live]
                lost = solve(e[live], d_live)
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
#: those routes (``None``: the router's memoized assignment).
Route = Callable[
    [np.ndarray, np.ndarray],
    tuple[list[np.ndarray], np.ndarray, "np.ndarray | None"],
]


def solve_fifo(
    sim: Any,
    warmup: float,
    horizon: float,
    arrivals: list[np.ndarray],
    route: Route,
    *,
    track_utilization: bool = False,
    collect_delays: bool = False,
) -> SimResult:
    """A deterministic-service FIFO run, solved level by level.

    ``arrivals`` holds the run's arrival times (ascending, all before
    ``warmup + horizon``) and their ``src`` and ``dst`` ids, in a list
    this function empties, so the arrays are freed as it goes. ``route``
    routes the packets with ``src != dst``. Service times, waiting-room
    caps and the saturated-edge mask come from ``sim``.
    """
    caps = sim._edge_caps
    capped = caps is not None
    t_end = warmup + horizon
    num_nodes = sim.topology.num_nodes
    num_edges = sim.topology.num_edges
    # Uniform service keeps the scalar solve; per-edge service times are
    # gathered per visit.
    c = (
        sim._service_times[0]
        if sim._uniform_service
        else np.asarray(sim._service_times)
    )
    cap = np.asarray(caps, dtype=np.float64) if capped else None
    sat = sim._sat
    sat_arr = None if sat is None else np.asarray(sat, dtype=bool)
    util = np.zeros(num_edges) if track_utilization else None

    def solve(e: np.ndarray, x: np.ndarray) -> np.ndarray | None:
        lost = _fifo_departures(e, x, c, num_edges, cap)
        if util is not None:
            if lost is not None:
                e, x = e[~lost], x[~lost]
            # Each served visit keeps its edge busy over [d - c_e, d].
            start = x - (c[e] if isinstance(c, np.ndarray) else c)
            busy = np.minimum(x, t_end)
            busy -= np.maximum(start, warmup)
            np.maximum(busy, 0.0, out=busy)
            util[:] += np.bincount(e, weights=busy, minlength=num_edges)
        return lost

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
        a_t,
        solve,
        lambda d: d,
        warmup,
        t_end,
        sat_arr,
        mr if capped else None,
        edge_lvl,
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
        dropped=dropped,
        node_drops=node_drops,
    )
