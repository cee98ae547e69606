"""Shared path-cache arena and direct routing: the per-packet routing hot path.

Both simulation engines used to rebuild every packet's path hop by hop
(``GreedyArrayRouter.path`` does one NumPy scalar index per hop), which at
32x32 mesh sizes is a noticeable slice of the whole run. Paths, however,
are pure functions of ``(src, dst)`` for every deterministic router, and a
mixture of two such functions for the Section 6 randomized scheme — so the
work is memoizable. This module provides that memo as a *flat shared
arena* for the interpreted loops, and a memo-free batch router for the
vectorized kernels:

* :class:`PathArena` — an append-only flat edge-id store. The engines
  bind its plain Python list (:attr:`PathArena.edges`), where list
  indexing beats NumPy scalar indexing by an order of magnitude.
* :class:`PathCache` — a ``(src, dst) -> (offset, length)`` memo over an
  arena for deterministic routers. Lookups are one dict probe; a scalar
  miss builds the path once with ``router.path`` — the one scalar
  definition of each scheme's walk — and appends it to the arena. For
  small networks a dense ``offset``/``length`` pair of arrays is kept
  alongside the dict so batch lookups are a single NumPy gather.
* Closed-form *batch* builders for the greedy mesh and k-d arrays
  (:func:`_mesh_batch_builder`, :func:`_kd_batch_builder`: each path is
  one arithmetic run of edge ids per axis). :meth:`PathCache._fill`, the
  one miss-fill routine behind batch lookups and
  :meth:`PathCache.precompute_all`, builds misses with them in bulk once
  there are at least :data:`BULK_MIN_MISSES`, and otherwise pair by pair
  with ``router.path``. :class:`repro.core.routetable.RouteTable` builds
  its all-pairs routes through :func:`build_paths`, on the same builders.
* :class:`RandomizedGreedyPathCache` — the cache for
  :class:`~repro.routing.randomized_greedy.RandomizedGreedyArrayRouter`:
  two :class:`PathCache` tables over the router's row-first and
  column-first greedy routers, on one arena. The per-packet coin is the
  same single ``rng.random()`` draw the uncached router makes, so
  same-seed runs are bit-identical.
* :class:`SampledPathInterner` — the no-memo fallback for routers the
  cache layer does not recognise (and the uncached baseline, passed to
  an engine as its ``path_cache``): it rebuilds the sampled path per
  packet, exactly like the pre-cache engines, but still interns the
  result into an arena so the engines can keep uniform ``(offset,
  length)`` packet records.
* :func:`route_packets` — the vectorized kernels' memo-free router: one
  run's packets straight to a flat ``int32`` visit array, drawing exactly
  what the caches above draw.

The interpreted loops never call ``Router.sample_path`` directly; they go
through :func:`path_cache_for`, which picks the right flavour. Caches only
ever *grow* and cache state never influences results, so one cache can
serve many runs; :func:`repro.sim.sharedcells.cell_network` shares one
across a cell's replications on networks of at most 128 nodes, where
runs revisit their pairs, and on larger ones lets each run build its own.

Bit-identity contract
---------------------
Path caching must not change any simulation output: deterministic lookups
consume no RNG (as before), and the randomized variant draws exactly the
coin the uncached scheme drew. The golden-result tests
(``tests/test_golden_results.py``) pin this.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from repro.routing.base import BaseRouter, Router
from repro.routing.greedy import GreedyArrayRouter, GreedyKDRouter
from repro.routing.randomized_greedy import RandomizedGreedyArrayRouter

#: Below this many nodes a cache also maintains dense ``n*n`` offset and
#: length arrays (1 MiB at the limit), enabling single-gather batch
#: lookups; larger networks stay dict-only to keep memory proportional to
#: the pairs actually routed.
DENSE_NODE_LIMIT = 256

#: Fewest misses in one batch lookup that are built in bulk. The bulk
#: fill has a fixed cost of ~50-100 us (unique keys, the builder's array
#: ops, the arena append) against ~2-10 us per pair for the ``ensure``
#: loop. Alone, on 12x12-32x32 meshes, it costs 1.5-1.9x the loop at 16
#: misses, the same at 32 and 0.5-0.6x at 96. Interleaved with per-pair
#: fills (per-slot batch lookups on a 16x16 mesh at load 0.5) it still
#: lost at 32 (1.13-1.2x the loop's time) and broke even at 64, so below
#: 64 misses a batch fills pair by pair. The python kernels make no batch
#: lookups on deterministic caches; the randomized cache does per table
#: (the slotted kernel's per-slot batches), and
#: :meth:`PathCache.precompute_all` fills a whole table through the same
#: rule. Per-slot batches make fills of 1-63 misses, and those keep the
#: per-pair loop. The numpy kernels route through :func:`route_packets`
#: and never fill a cache.
BULK_MIN_MISSES = 64

#: Pairs per batch-builder call in :func:`build_paths`: bounds the
#: builders' per-leg temporaries (a few int64 arrays per pair and leg) at
#: a few MiB, where one call on the ~1M pairs of a 4^5 array held ~300 MiB.
BUILD_BLOCK_PAIRS = 1 << 16

#: Edges per object gather in :meth:`PathArena.extend_array`, and about
#: the visits per block of :func:`gather_paths`: bounds their temporaries.
_GATHER_CHUNK = 65_536


class PathArena:
    """Append-only flat store of path edge ids with ``(offset, length)`` views.

    The arena is shared: several caches (e.g. the two tables of the
    randomized scheme) may append to one arena. ``edges`` is the Python
    list the engines' interpreter loops index and is only ever extended
    in place — engines may safely bind it to a local once.
    """

    __slots__ = ("edges", "_ints")

    def __init__(self) -> None:
        self.edges: list[int] = []
        #: ``_ints[e] is`` the one int object every bulk-filled ``edges``
        #: entry ``e`` references (grown on demand, never rebuilt).
        self._ints = np.empty(0, dtype=object)

    def add(self, path: Sequence[int]) -> int:
        """Append ``path`` and return its offset."""
        off = len(self.edges)
        self.edges.extend(path)
        return off

    def extend_array(self, flat: np.ndarray) -> int:
        """Append a bulk fill of edge ids and return its offset.

        ``edges`` gets references to one shared int object per edge id
        (an object gather), so a large fill costs a list slot per edge,
        not a fresh int.
        """
        off = len(self.edges)
        flat = np.asarray(flat)
        if flat.size == 0:
            return off
        top = int(flat.max()) + 1
        if top > self._ints.size:
            self._ints = np.concatenate(
                [self._ints, np.arange(self._ints.size, top, dtype=object)]
            )
        ints, edges = self._ints, self.edges
        for lo in range(0, flat.size, _GATHER_CHUNK):
            edges.extend(ints[flat[lo : lo + _GATHER_CHUNK]].tolist())
        return off

    def view(self, offset: int, length: int) -> tuple[int, ...]:
        """Materialise one ``(offset, length)`` slice as an edge tuple."""
        return tuple(self.edges[offset : offset + length])

    def __len__(self) -> int:
        return len(self.edges)


class PathCache:
    """Memoized ``(src, dst) -> (offset, length)`` views for a deterministic router.

    Parameters
    ----------
    router:
        A deterministic router (``sample_path`` must not consume RNG).
    arena:
        Shared :class:`PathArena`; a private one is created if omitted.

    Scalar misses are built with ``router.path``. Greedy mesh and k-d
    routers also get a closed-form batch builder (:func:`_batch_builder`),
    which :meth:`_fill` uses for large batches of dense-table misses.
    Lookups memoize lazily; :meth:`precompute_all` builds every pair.
    """

    #: Engines check this to decide whether lookups need the packet RNG.
    consumes_rng = False

    def __init__(self, router: Router, *, arena: PathArena | None = None) -> None:
        self.router = router
        self.topology = router.topology
        self.num_nodes = int(self.topology.num_nodes)
        self.arena = arena if arena is not None else PathArena()
        self._build_batch = _batch_builder(router)
        self.table: dict[int, tuple[int, int]] = {}
        n = self.num_nodes
        if n <= DENSE_NODE_LIMIT:
            self._dense_off: np.ndarray | None = np.full(n * n, -1, dtype=np.int64)
            self._dense_len: np.ndarray | None = np.zeros(n * n, dtype=np.int64)
        else:
            self._dense_off = self._dense_len = None

    # -- scalar lookups (the event-engine hot path) --------------------
    def ensure(self, src: int, dst: int) -> tuple[int, int]:
        """Miss handler: build, append to the arena, memoize."""
        path = self.router.path(src, dst)
        off = self.arena.add(path)
        ol = (off, len(path))
        key = src * self.num_nodes + dst
        self.table[key] = ol
        if self._dense_off is not None:
            self._dense_off[key] = ol[0]
            self._dense_len[key] = ol[1]
        return ol

    def offlen(self, src: int, dst: int) -> tuple[int, int]:
        """The ``(offset, length)`` view of the cached path."""
        ol = self.table.get(src * self.num_nodes + dst)
        return ol if ol is not None else self.ensure(src, dst)

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """The cached path as an edge tuple (tests / analysis)."""
        off, length = self.offlen(src, dst)
        return self.arena.view(off, length)

    # -- batch lookups (randomized per-slot batches, bulk fills) --------
    def offlen_batch(
        self, srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(offsets, lengths)`` for parallel ``(src, dst)`` arrays.

        With dense tables this is one NumPy gather (misses are filled
        first, see :meth:`_fill`); dict-only caches fall back to a Python
        loop, still one dict probe per pair.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if self._dense_off is not None:
            keys = srcs * self.num_nodes + dsts
            offs = self._dense_off[keys]
            miss = offs < 0
            if miss.any():
                self._fill(keys[miss])
                offs = self._dense_off[keys]
            return offs, self._dense_len[keys]
        offs = np.empty(srcs.size, dtype=np.int64)
        lens = np.empty(srcs.size, dtype=np.int64)
        offlen = self.offlen
        for i, (s, d) in enumerate(zip(srcs.tolist(), dsts.tolist())):
            offs[i], lens[i] = offlen(s, d)
        return offs, lens

    def precompute_all(self) -> None:
        """Materialise every ``(src, dst)`` pair (small networks only).

        One :meth:`_fill` over the missing keys in ascending order, so the
        arena is laid out as a pair-by-pair fill in ``(src, dst)`` order
        lays it out; meshes and k-d arrays build in bulk.
        """
        table = self.table
        missing = [key for key in range(self.num_nodes**2) if key not in table]
        self._fill(np.array(missing, dtype=np.int64))

    def _fill(self, keys: np.ndarray) -> None:
        """Build and memoize the missing pairs ``keys`` (``src * n + dst``
        in lookup order, repeats allowed), each exactly once and in
        first-occurrence order, so the arena is laid out as a scalar
        fill of the same pairs would lay it out. With a batch builder and
        at least :data:`BULK_MIN_MISSES` keys they are built in one call;
        otherwise pair by pair with :meth:`ensure`. The callers are
        batch lookups (the randomized cache's per-table batches) and
        :meth:`precompute_all`; the python kernels fill scalar misses
        with :meth:`ensure`."""
        n = self.num_nodes
        if self._build_batch is None or keys.size < BULK_MIN_MISSES:
            table = self.table
            for key in keys.tolist():
                # Re-check per pair: a batch may repeat a missing pair,
                # and a duplicate ensure() would append a dead copy of
                # the path to the append-only shared arena.
                if key not in table:
                    self.ensure(*divmod(key, n))
            return
        uniq, first = np.unique(keys, return_index=True)
        keys = uniq[np.argsort(first)]
        flat, lens = self._build_batch(*np.divmod(keys, n))
        offs = self.arena.extend_array(flat) + np.cumsum(lens) - lens
        self.table.update(zip(keys.tolist(), zip(offs.tolist(), lens.tolist())))
        if self._dense_off is not None:
            self._dense_off[keys] = offs
            self._dense_len[keys] = lens

    @property
    def complete(self) -> bool:
        """Every ``(src, dst)`` pair is cached (nothing left to build)."""
        n = self.num_nodes
        return len(self.table) == n * n

    def __len__(self) -> int:
        return len(self.table)


class RandomizedGreedyPathCache:
    """Path cache for the Section 6 randomized greedy scheme.

    Holds two :class:`PathCache` tables on one shared arena, over the
    router's row-first and column-first greedy routers: each table builds
    its scalar misses with that router's ``path`` and fills large batches
    of misses with the closed-form mesh builder of its order (see
    :meth:`PathCache._fill`). ``sample_offlen`` draws exactly the one coin
    ``RandomizedGreedyArrayRouter.sample_path`` draws, keeping same-seed
    runs bit-identical to the uncached scheme.
    """

    consumes_rng = True

    def __init__(self, router: RandomizedGreedyArrayRouter) -> None:
        self.router = router
        self.topology = router.topology
        self.arena = PathArena()
        self.row_first_probability = router.row_first_probability
        self.row_first = PathCache(router._row_first, arena=self.arena)
        self.col_first = PathCache(router._col_first, arena=self.arena)

    def sample_offlen(
        self, src: int, dst: int, rng: np.random.Generator
    ) -> tuple[int, int]:
        """One coin (same draw as the uncached scheme), one dict probe."""
        if rng.random() < self.row_first_probability:
            return self.row_first.offlen(src, dst)
        return self.col_first.offlen(src, dst)

    def sample_offlen_batch(
        self, srcs: np.ndarray, dsts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batch coins, then gather from the two tables.

        The coins are one ``rng.random(k)`` call — bit-identical to the
        per-packet scalar coins because building paths consumes no RNG
        between them.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        heads = rng.random(srcs.size) < self.row_first_probability
        offs = np.empty(srcs.size, dtype=np.int64)
        lens = np.empty(srcs.size, dtype=np.int64)
        for table, mask in (
            (self.row_first, heads),
            (self.col_first, ~heads),
        ):
            if mask.any():
                offs[mask], lens[mask] = table.offlen_batch(srcs[mask], dsts[mask])
        return offs, lens

    def precompute_all(self) -> None:
        """Materialise both order tables for every pair (small meshes)."""
        self.row_first.precompute_all()
        self.col_first.precompute_all()

    @property
    def complete(self) -> bool:
        """Both order tables cover every ``(src, dst)`` pair."""
        return self.row_first.complete and self.col_first.complete

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Canonical (row-first) cached path."""
        return self.row_first.path(src, dst)


def _lay_out_runs(legs) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``int32`` edge ids and per-pair lengths of paths made of
    arithmetic runs.

    ``legs`` lists one ``(start, step, size)`` triple of per-pair arrays
    per leg, in path order: leg ``l`` of pair ``p`` is the ``size[p]``
    edges ``start[p] + step[p] * t``. Runs are interleaved per pair,
    empty ones dropped, and laid out with one ``repeat`` and one
    ``cumsum``: ``+step`` inside a run, and a jump from the previous
    run's last edge to each run's first.
    """
    start, step, size = (np.column_stack(p).ravel() for p in zip(*legs))
    lens = sum(leg[2] for leg in legs)
    keep = size > 0
    start, step, size = start[keep], step[keep], size[keep]
    if size.size == 0:
        return np.empty(0, dtype=np.int32), lens
    flat = np.repeat(step.astype(np.int32), size)
    heads = np.cumsum(size) - size
    flat[0] = start[0]
    flat[heads[1:]] = start[1:] - (start[:-1] + step[:-1] * (size[:-1] - 1))
    return np.cumsum(flat, out=flat), lens


def _mesh_batch_builder(router: GreedyArrayRouter):
    """Closed-form batch builder for both greedy mesh orders.

    On :class:`~repro.topology.array_mesh.ArrayMesh`'s edge-id layout a
    greedy path is two arithmetic runs: the row leg steps by ``±1``
    through the RIGHT or LEFT block, the column leg by ``±cols`` through
    the DOWN or UP block. Each run's first edge comes from the router's
    per-direction grids, and :func:`_lay_out_runs` lays all pairs' runs
    out — the edge sequences ``router.path`` walks hop by hop.
    """
    cols = router.mesh.cols
    right, left, down, up = router._right, router._left, router._down, router._up
    column_first = router.column_first

    def build_mesh_paths(
        srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        i1, j1 = np.divmod(srcs, cols)
        i2, j2 = np.divmod(dsts, cols)
        di, dj = i2 - i1, j2 - j1
        # The row leg runs along row r, the column leg along column c.
        r, c = (i2, j1) if column_first else (i1, j2)
        row_start = np.where(dj > 0, right[r, j1], left[r, j1])
        col_start = np.where(di > 0, down[i1, c], up[i1, c])
        row = (row_start, np.sign(dj), np.abs(dj))
        col = (col_start, np.sign(di) * cols, np.abs(di))
        return _lay_out_runs((col, row) if column_first else (row, col))

    return build_mesh_paths


def _kd_batch_builder(router: GreedyKDRouter):
    """Closed-form batch builder for dimension-order k-d walks.

    On :class:`~repro.topology.array_mesh.KDArray`'s edge-id layout the
    leg correcting one axis is one arithmetic run inside that axis's
    ``(axis, +)`` or ``(axis, -)`` block: both blocks list their edges in
    node order, so consecutive edges of a leg differ by the axis's
    node-id stride, ``±strides[axis]``. Each leg's first edge comes from
    per-block tables of the edge leaving every node, and
    :func:`_lay_out_runs` lays the legs out in ``dimension_order`` — the
    edge sequences ``router.path`` walks hop by hop.
    """
    array = router.array
    n = array.num_nodes
    order = router.dimension_order
    out_edge = {}
    for axis in order:
        for sign in (+1, -1):
            lo, hi = array.block(axis, sign)
            table = np.full(n, -1, dtype=np.int64)
            table[array.edge_source[lo:hi]] = np.arange(lo, hi)
            out_edge[axis, sign] = table
    axes = [(axis, array.strides[axis], array.dims[axis]) for axis in order]

    def build_kd_paths(
        srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        at = np.array(srcs, dtype=np.int64)
        legs = []
        for axis, stride, side in axes:
            delta = dsts // stride % side - srcs // stride % side
            start = np.where(
                delta > 0, out_edge[axis, +1][at], out_edge[axis, -1][at]
            )
            legs.append((start, np.sign(delta) * stride, np.abs(delta)))
            at += delta * stride
        return _lay_out_runs(legs)

    return build_kd_paths


def _batch_builder(router: Router):
    """The closed-form batch builder for ``router`` (greedy mesh and k-d
    arrays), or ``None`` when paths can only be built pair by pair."""
    if isinstance(router, GreedyArrayRouter):
        return _mesh_batch_builder(router)
    if isinstance(router, GreedyKDRouter):
        return _kd_batch_builder(router)
    return None


def build_paths(
    router: Router, srcs: np.ndarray, dsts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The canonical paths of the pairs ``(srcs[i], dsts[i])``, flat.

    Returns ``(edges, lens)``: the paths' ``int32`` edge ids concatenated
    in pair order and each path's length. Built by the closed-form batch builder
    where one exists (greedy mesh and k-d arrays), one call per
    :data:`BUILD_BLOCK_PAIRS` pairs, else pair by pair with
    ``router.path``. Nothing is memoized, and randomized routers
    contribute their canonical ``path``.
    """
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    batch = _batch_builder(router)
    if batch is not None:
        blocks = [
            batch(srcs[lo : lo + BUILD_BLOCK_PAIRS], dsts[lo : lo + BUILD_BLOCK_PAIRS])
            for lo in range(0, max(srcs.size, 1), BUILD_BLOCK_PAIRS)
        ]
        return tuple(np.concatenate(part) for part in zip(*blocks))
    return _flatten([router.path(s, d) for s, d in zip(srcs.tolist(), dsts.tolist())])


def _flatten(paths: list[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The ``int32`` edge ids of ``paths`` concatenated, and their lengths."""
    lens = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    edges = np.fromiter(
        chain.from_iterable(paths), dtype=np.int32, count=int(lens.sum())
    )
    return edges, lens


def gather_paths(
    edges: np.ndarray, offs: np.ndarray, lens: np.ndarray
) -> np.ndarray:
    """Flat per-visit edge ids for parallel ``(offset, length)`` views
    into the flat edge array ``edges``.

    Returns one array (of ``edges``' dtype) concatenating the viewed
    paths in order: visit ``k`` of path ``i`` sits at
    ``cumsum(lens)[i-1] + k``. The output is filled a block of whole
    paths at a time, about :data:`_GATHER_CHUNK` visits each, so the
    index temporaries never span the whole output.
    """
    offs = np.asarray(offs, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    cum = np.cumsum(lens)
    out = np.empty(int(cum[-1]) if cum.size else 0, dtype=edges.dtype)
    # Output slot v of path i reads edges[v + shift[i]].
    shift = offs - cum + lens
    cuts = np.searchsorted(
        cum, np.arange(_GATHER_CHUNK, out.size, _GATHER_CHUNK), side="right"
    )
    lo = 0
    for hi in [*cuts.tolist(), offs.size]:
        if hi > lo:
            start, stop = int(cum[lo] - lens[lo]), int(cum[hi - 1])
            index = np.repeat(shift[lo:hi], lens[lo:hi])
            index += np.arange(start, stop)
            out[start:stop] = edges[index]
            lo = hi
    return out


def route_packets(
    router: Router,
    srcs: np.ndarray,
    dsts: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Route packets ``(srcs[i], dsts[i])`` directly, with no memo.

    Returns ``(visits, lens)``: the packets' paths as one flat ``int32``
    edge-id array in packet order, and each path's length — the visits
    a cache lookup gathered from the arena would produce, from the same
    RNG draws:

    * deterministic routers: each distinct pair is built once with
      :func:`build_paths` (the closed-form batch builder for greedy mesh
      and k-d arrays, else ``router.path``) and expanded with
      :func:`gather_paths`;
    * the randomized greedy scheme: one ``rng.random(len(srcs))`` coin block
      (the draw :meth:`RandomizedGreedyPathCache.sample_offlen_batch`
      makes), each order's packets routed as above, then merged back
      into packet order;
    * any other router: ``router.sample_path`` per packet, in packet
      order (the draws :class:`SampledPathInterner` makes).
    """
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    if isinstance(router, RandomizedGreedyArrayRouter):
        heads = rng.random(srcs.size) < router.row_first_probability
        lens = np.empty(srcs.size, dtype=np.int64)
        offs = np.empty(srcs.size, dtype=np.int64)
        parts, base = [], 0
        for order, mask in ((router._row_first, heads), (router._col_first, ~heads)):
            part, part_lens = route_packets(order, srcs[mask], dsts[mask], rng)
            lens[mask] = part_lens
            offs[mask] = base + np.cumsum(part_lens) - part_lens
            base += part.size
            parts.append(part)
        return gather_paths(np.concatenate(parts), offs, lens), lens
    if not _is_deterministic(router):
        ids = zip(srcs.tolist(), dsts.tolist())
        return _flatten([router.sample_path(s, d, rng) for s, d in ids])
    n = int(router.topology.num_nodes)
    pairs, inverse = np.unique(srcs * n + dsts, return_inverse=True)
    edges, pair_lens = build_paths(router, *np.divmod(pairs, n))
    lens = pair_lens[inverse]
    pair_offs = np.cumsum(pair_lens) - pair_lens
    return gather_paths(edges, pair_offs[inverse], lens), lens


def _is_deterministic(router: Router) -> bool:
    """A :class:`BaseRouter` that does not override ``sample_path``: its
    packets' paths are ``router.path`` and consume no RNG."""
    sample = getattr(type(router), "sample_path", None)
    return isinstance(router, BaseRouter) and sample is BaseRouter.sample_path


class SampledPathInterner:
    """Uncached adapter: per-packet rebuild, arena-interned records.

    Used for routers :func:`path_cache_for` does not recognise, and as the
    engines' uncached baseline (``path_cache=SampledPathInterner(router)``). Every lookup calls
    ``router.sample_path`` — identical RNG consumption and per-packet cost
    to the pre-cache engines — then interns the resulting edge tuple so
    packet records stay ``(offset, length)``. Interning bounds arena
    growth by the number of *distinct* paths, not packets.
    """

    consumes_rng = True

    def __init__(self, router: Router) -> None:
        self.router = router
        self.topology = router.topology
        self.arena = PathArena()
        self._seen: dict[tuple[int, ...], tuple[int, int]] = {}

    def sample_offlen(
        self, src: int, dst: int, rng: np.random.Generator
    ) -> tuple[int, int]:
        path = tuple(self.router.sample_path(src, dst, rng))
        ol = self._seen.get(path)
        if ol is None:
            ol = self._seen[path] = (self.arena.add(path), len(path))
        return ol

    def sample_offlen_batch(
        self, srcs: np.ndarray, dsts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        offs = np.empty(len(srcs), dtype=np.int64)
        lens = np.empty(len(srcs), dtype=np.int64)
        for i, (s, d) in enumerate(
            zip(np.asarray(srcs).tolist(), np.asarray(dsts).tolist())
        ):
            offs[i], lens[i] = self.sample_offlen(s, d, rng)
        return offs, lens


def path_cache_for(router: Router):
    """Build the right cache flavour for ``router``.

    Deterministic routers (any :class:`BaseRouter` subclass that does not
    override ``sample_path``) get a :class:`PathCache`, which builds its
    misses with ``router.path`` — and, for the greedy mesh and k-d
    routers, large batches of misses in bulk with a closed-form batch
    builder. The randomized greedy scheme gets its two-table
    :class:`RandomizedGreedyPathCache`; anything else falls back to the
    :class:`SampledPathInterner`, which preserves pre-cache behaviour
    exactly.
    """
    if isinstance(router, RandomizedGreedyArrayRouter):
        return RandomizedGreedyPathCache(router)
    if _is_deterministic(router):
        return PathCache(router)
    return SampledPathInterner(router)


def resolve_path_cache(router: Router, *, path_cache=None):
    """Resolve an engine's path cache — the one constructor policy all four
    simulators share.

    An externally supplied ``path_cache`` must have been built for this
    very ``router`` *instance*: an equal-sized topology is not enough,
    since a cache built for a different scheme (say the column-first
    mesh order) would silently simulate the wrong routing. Otherwise
    build the right flavour via :func:`path_cache_for`. Passing a
    :class:`SampledPathInterner` selects the uncached per-packet rebuild.
    """
    if path_cache is not None:
        if path_cache.router is not router:
            raise ValueError(
                "path_cache was built for a different router instance; "
                "share the router object along with its cache"
            )
        return path_cache
    return path_cache_for(router)
