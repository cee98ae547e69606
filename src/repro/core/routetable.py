"""Every routed ``(src, dst)`` pair's canonical path as flat numpy arrays.

The exact route-structure ingredients of the generic bounds are sums and
maxima over the canonical routes of the routed pairs: the per-edge rates
(:mod:`repro.core.rates`), the mean and maximal route length (Theorem 10's
``d``), the expected remaining distances (Theorem 12's ``d-bar``) and the
saturated-edge counts (Theorem 14's ``s`` and ``s-bar``).
:class:`RouteTable` routes each pair once and stores the routes flat, so
each ingredient is one ordered numpy reduction:

* per pair: ``row`` (the source's index in the caller's ``sources``),
  ``dst`` and ``lens``;
* per visit: ``edges``, ``pair`` (the visiting pair's index) and ``pos``
  (the edge's 0-based position on that pair's path).

Pairs are laid out source-major in the caller's ``sources`` order with
destinations ascending, and visits in path order: the order of a Python
double loop over ``(src, dst)`` and then along the path. ``np.add.at``
adds in input order (and, unlike ``np.bincount``, without an ``intp``
copy of the visit indices), and the mean is a sequential
``np.add.accumulate`` (``np.sum`` is pairwise), so every reduction is
bit-identical to that loop's float accumulation. Pair weights are
``w_src * pmf[dst]``; a pair of weight zero adds exactly ``+0.0``.

Routes come from :func:`repro.routing.pathcache.build_paths`: the
closed-form batch builders where one exists (greedy mesh and k-d arrays:
one vectorized call), else ``router.path``, pair by pair. The table does not go through a
:class:`~repro.routing.pathcache.PathCache`: the randomized router's
cache samples coins while these ingredients use its canonical ``path``,
and a one-shot build has no use for the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution
from repro.routing.pathcache import build_paths


def pmf_matrix(
    destinations: DestinationDistribution, sources: Sequence[int], num_nodes: int
) -> np.ndarray:
    """Row ``r`` is ``destinations.pmf(sources[r])``."""
    out = np.empty((len(sources), num_nodes))
    for r, src in enumerate(sources):
        out[r] = destinations.pmf(src)
    return out


def node_mask(num_nodes: int, nodes: Sequence[int] | None) -> np.ndarray:
    """Boolean mask of ``nodes`` (every node when ``None``)."""
    if nodes is None:
        return np.ones(num_nodes, dtype=bool)
    mask = np.zeros(num_nodes, dtype=bool)
    mask[list(nodes)] = True
    return mask


@dataclass(frozen=True, eq=False)
class RouteTable:
    """Flat canonical routes of a set of ``(src, dst)`` pairs (see the
    module docstring for the layout). Index arrays are ``int32`` where
    they fit."""

    num_edges: int
    row: np.ndarray
    dst: np.ndarray
    lens: np.ndarray
    edges: np.ndarray
    pair: np.ndarray
    pos: np.ndarray

    @classmethod
    def build(
        cls, router: Router, sources: Sequence[int], keep: np.ndarray
    ) -> RouteTable:
        """Route every pair ``(sources[r], d)`` with ``keep[r, d]`` true
        and ``sources[r] != d``; ``keep`` broadcasts to
        ``(len(sources), num_nodes)``."""
        topo = router.topology
        src_of = np.asarray(sources, dtype=np.int64).reshape(-1)
        keep = np.broadcast_to(keep, (src_of.size, topo.num_nodes))
        row, dst = np.nonzero(keep)
        src = src_of[row]
        routed = src != dst
        row, src, dst = row[routed], src[routed], dst[routed]
        edges, lens = build_paths(router, src, dst)
        fits = max(edges.size, lens.size, topo.num_edges, topo.num_nodes) < 2**31
        index = np.int32 if fits else np.int64
        lens = lens.astype(index)
        heads = np.cumsum(lens, dtype=index) - lens
        pair = np.repeat(np.arange(lens.size, dtype=index), lens)
        pos = np.arange(edges.size, dtype=index) - np.repeat(heads, lens)
        return cls(
            num_edges=int(topo.num_edges),
            row=row.astype(index),
            dst=dst.astype(index),
            lens=lens,
            edges=edges.astype(index, copy=False),
            pair=pair,
            pos=pos,
        )

    def gather(self, matrix: np.ndarray) -> np.ndarray:
        """Per-pair entries ``matrix[row, dst]`` of a sources-by-nodes matrix."""
        return matrix[self.row, self.dst]

    def edge_rates(self, w: np.ndarray) -> np.ndarray:
        """Per edge, the sum of the weights ``w`` of the pairs crossing it."""
        return _edge_sum(self.num_edges, self.edges, w[self.pair])

    def mean_length(self, w: np.ndarray) -> float:
        """``sum_pairs w * len``, summed in pair order."""
        terms = w * self.lens
        return float(np.add.accumulate(terms)[-1]) if terms.size else 0.0

    def max_length(self) -> int:
        """The longest route (0 without pairs)."""
        return int(self.lens.max()) if self.lens.size else 0

    def remaining_distances(self, w: np.ndarray) -> np.ndarray:
        """Per edge, the ``w``-weighted mean of ``len - pos`` over the
        visits crossing it (NaN where no pair of nonzero weight does)."""
        wv = w[self.pair]
        denom = _edge_sum(self.num_edges, self.edges, wv)
        remaining = self.lens[self.pair]
        remaining -= self.pos
        wv *= remaining
        numer = _edge_sum(self.num_edges, self.edges, wv)
        return _ratio(numer, denom, denom > 0)

    def max_saturated(self, mask: np.ndarray) -> int:
        """The most ``mask`` edges any route crosses (0 without pairs)."""
        sat = np.asarray(mask, dtype=bool)[self.edges]
        counts = np.bincount(self.pair[sat], minlength=self.lens.size)
        return int(counts.max()) if counts.size else 0

    def saturated_remaining(self, w: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Per ``mask`` edge, the ``w``-weighted mean number of ``mask``
        edges left on the routes crossing it, itself included (NaN
        elsewhere and where no pair of nonzero weight crosses)."""
        mask = np.asarray(mask, dtype=bool)
        sat = mask[self.edges]
        owner, at = self.pair[sat], self.edges[sat]
        # Pairs' saturated visits are contiguous and in pair order, and
        # ends[p] counts those of pairs 0..p, so the j-th saturated visit
        # (over all pairs) has ends[its pair] - j left, itself included.
        ends = np.cumsum(np.bincount(owner, minlength=self.lens.size))
        remaining = ends.astype(owner.dtype)[owner]
        remaining -= np.arange(owner.size, dtype=owner.dtype)
        wv = w[owner]
        denom = _edge_sum(self.num_edges, at, wv)
        wv *= remaining
        numer = _edge_sum(self.num_edges, at, wv)
        return _ratio(numer, denom, (denom > 0) & mask)


def _edge_sum(num_edges: int, edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.zeros(num_edges)
    np.add.at(out, edges, values)
    return out


def _ratio(numer: np.ndarray, denom: np.ndarray, where: np.ndarray) -> np.ndarray:
    out = np.full(numer.size, np.nan)
    out[where] = numer[where] / denom[where]
    return out
