"""Destination distributions.

Every distribution exposes three views of the same law:

* :meth:`~DestinationDistribution.sample` — draw one destination for a
  packet born at ``src``: the protocol every law must implement, and the
  engines' fallback for a law that has no batch draw;
* ``sample_batch(srcs, rng)`` — draw one destination per entry of a source
  array with vectorized NumPy calls. Every engine uses it: the shared
  arrival-id draw (:func:`repro.sim.enginecommon.draw_ids`) samples each
  block of sources' destinations in one call;
* :meth:`~DestinationDistribution.pmf` — the exact probability vector over
  all nodes (used by the analytic traffic solver and by tests, which check
  the views agree).

Batch-draw contract
-------------------
``sample_batch`` always agrees with repeated ``sample`` calls *in
distribution*. Laws whose class attribute ``batch_stream_identical`` is
true make a stronger promise: a batch draw consumes the underlying RNG
stream exactly like the same number of consecutive scalar draws, so
replacing a scalar loop with one batch call is *bit-identical* (NumPy
``Generator`` array fills are sequential draws of the same routine). Laws
with data-dependent draw counts (hot-spot's conditional uniform draw, the
geometric stopping chain) cannot make that promise and set the flag false.

The paper's standard model is :class:`UniformDestinations`; Section 4.5
uses :class:`PBiasedHypercubeDestinations`, and Section 5.2's
"more likely to travel to nearby destinations" law is
:class:`GeometricStopDestinations`, built from the Lemma 3 stopping chain.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.topology.array_mesh import ArrayMesh
from repro.topology.hypercube import Hypercube
from repro.util.validation import check_probability, pinned_cdf


@runtime_checkable
class DestinationDistribution(Protocol):
    """Protocol: a per-source law over destination nodes.

    Built-in laws additionally provide ``sample_batch(srcs, rng)`` (see
    the module docstring); the engines' id draw probes for it with
    ``getattr`` and falls back to one ``sample`` call per packet, so
    ad-hoc laws that only implement the scalar protocol keep working.
    """

    num_nodes: int

    def sample(self, src: int, rng: np.random.Generator) -> int:
        """Draw a destination for a packet generated at ``src``."""
        ...

    def pmf(self, src: int) -> np.ndarray:
        """Exact destination probabilities (length ``num_nodes``) from ``src``."""
        ...


class UniformDestinations:
    """Uniform over all nodes, destination may equal the source (the paper's
    convention: "we allow a packet's destination to be the same as its
    starting point")."""

    batch_stream_identical = True

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = int(num_nodes)

    def sample(self, src: int, rng: np.random.Generator) -> int:
        return int(rng.integers(self.num_nodes))

    def sample_batch(self, srcs, rng: np.random.Generator) -> np.ndarray:
        """One bounded-integer block draw; sources are ignored."""
        return rng.integers(0, self.num_nodes, size=len(srcs))

    def pmf(self, src: int) -> np.ndarray:
        return np.full(self.num_nodes, 1.0 / self.num_nodes)


class MatrixDestinations:
    """An arbitrary row-stochastic destination matrix ``P[src, dst]``.

    Used for hand-crafted non-uniform laws in tests and for freezing any
    other distribution into explicit form.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        p = np.asarray(matrix, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError(f"matrix must be square, got shape {p.shape}")
        if np.any(p < 0):
            raise ValueError("matrix entries must be non-negative")
        rowsums = p.sum(axis=1)
        if not np.allclose(rowsums, 1.0, atol=1e-9):
            raise ValueError("every row must sum to 1")
        self._p = p / rowsums[:, None]  # exact renormalisation
        self.num_nodes = p.shape[0]
        # Per-row pinned CDFs so sampling is one uniform draw plus a
        # bisection, instead of rng.choice rebuilding the distribution
        # every packet (see util.validation.pinned_cdf for the boundary
        # handling).
        self._cdf = np.vstack([pinned_cdf(row) for row in self._p])

    batch_stream_identical = True

    def sample(self, src: int, rng: np.random.Generator) -> int:
        # side="right" so a draw landing exactly on a CDF boundary never
        # selects a zero-probability destination.
        return int(np.searchsorted(self._cdf[src], rng.random(), side="right"))

    def sample_batch(self, srcs, rng: np.random.Generator) -> np.ndarray:
        """One uniform block draw, then a per-row CDF bisection.

        ``(row <= u).sum()`` over a sorted row equals
        ``searchsorted(row, u, side="right")``, so batch and scalar draws
        pick identical destinations from identical uniforms.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        u = rng.random(srcs.size)
        return (self._cdf[srcs] <= u[:, None]).sum(axis=1)

    def pmf(self, src: int) -> np.ndarray:
        return self._p[src].copy()


class PBiasedHypercubeDestinations:
    """Section 4.5's product-form law on the hypercube.

    A node at Hamming distance ``k`` from the source is the destination
    with probability ``p^k (1-p)^(d-k)``; equivalently, each bit of the
    destination differs from the source independently with probability
    ``p``. ``p = 1/2`` recovers the uniform distribution.
    """

    batch_stream_identical = True

    def __init__(self, cube: Hypercube, p: float) -> None:
        self.cube = cube
        self.p = check_probability(p, "p")
        self.num_nodes = cube.num_nodes

    def sample(self, src: int, rng: np.random.Generator) -> int:
        flips = rng.random(self.cube.d) < self.p
        dst = int(src)
        for k in range(self.cube.d):
            if flips[k]:
                dst ^= 1 << k
        return dst

    def sample_batch(self, srcs, rng: np.random.Generator) -> np.ndarray:
        """One ``(k, d)`` uniform draw (row-major fill, so bit-identical
        to ``k`` consecutive scalar ``rng.random(d)`` draws)."""
        srcs = np.asarray(srcs, dtype=np.int64)
        d = self.cube.d
        flips = rng.random((srcs.size, d)) < self.p
        masks = (flips * (np.int64(1) << np.arange(d, dtype=np.int64))).sum(axis=1)
        return srcs ^ masks

    def pmf(self, src: int) -> np.ndarray:
        d, p = self.cube.d, self.p
        out = np.empty(self.num_nodes)
        for dst in range(self.num_nodes):
            k = self.cube.hamming_distance(src, dst)
            out[dst] = (p**k) * ((1.0 - p) ** (d - k))
        return out


class GeometricStopDestinations:
    """Section 5.2's distance-biased law on the array mesh.

    Per dimension, the packet picks a direction (uniformly among those
    available at its coordinate) and then "stops movement in that direction
    at each point with probability ``stop``, except at the edge of the
    array (where the packet must stop)" — i.e. the per-dimension offset is
    geometric with parameter ``stop``, truncated at the border. The two
    dimensions are independent. Smaller ``stop`` spreads packets further;
    the paper's example uses ``stop = 1/2``.

    The law is Markovian in the edge sense required by Theorem 1: the
    stopping decision depends only on the current node and the direction
    of travel (i.e. the arc just traversed).
    """

    batch_stream_identical = False  # the stopping chain's draw count varies

    def __init__(self, mesh: ArrayMesh, stop: float = 0.5) -> None:
        self.mesh = mesh
        self.stop = check_probability(stop, "stop", open_interval=True)
        self.num_nodes = mesh.num_nodes
        self._row_cdfs: np.ndarray | None = None
        self._col_cdfs: np.ndarray | None = None

    def _axis_pmf(self, coord: int, size: int) -> np.ndarray:
        """Exact offset law along one axis from coordinate ``coord``."""
        s = self.stop
        pmf = np.zeros(size)
        pmf[coord] = s  # stop immediately at the starting point
        moving = 1.0 - s
        directions = [d for d in (-1, +1) if 0 <= coord + d < size]
        if not directions:  # size == 1: must stop in place
            pmf[coord] = 1.0
            return pmf
        share = moving / len(directions)
        for d in directions:
            mass = share
            j = coord + d
            while True:
                at_border = not (0 <= j + d < size)
                stop_p = 1.0 if at_border else s
                pmf[j] += mass * stop_p
                mass *= 1.0 - stop_p
                if at_border or mass == 0.0:
                    break
                j += d
        return pmf

    def _axis_sample(self, coord: int, size: int, rng: np.random.Generator) -> int:
        """Draw an offset destination along one axis (runs the chain)."""
        s = self.stop
        if rng.random() < s:
            return coord
        directions = [d for d in (-1, +1) if 0 <= coord + d < size]
        if not directions:
            return coord
        d = directions[int(rng.integers(len(directions)))]
        j = coord + d
        while 0 <= j + d < size and rng.random() >= s:
            j += d
        return j

    def sample(self, src: int, rng: np.random.Generator) -> int:
        i, j = self.mesh.node_coords(src)
        i2 = self._axis_sample(i, self.mesh.rows, rng)
        j2 = self._axis_sample(j, self.mesh.cols, rng)
        return self.mesh.node_id(i2, j2)

    def sample_batch(self, srcs, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF batch draw from the exact per-axis offset laws.

        Agrees with :meth:`sample` in distribution (same axis pmfs) but
        not in RNG stream — the scalar chain consumes a variable number of
        uniforms per packet, the batch draw exactly two.
        """
        if self._row_cdfs is None:
            self._row_cdfs = np.vstack(
                [
                    pinned_cdf(self._axis_pmf(c, self.mesh.rows))
                    for c in range(self.mesh.rows)
                ]
            )
            self._col_cdfs = np.vstack(
                [
                    pinned_cdf(self._axis_pmf(c, self.mesh.cols))
                    for c in range(self.mesh.cols)
                ]
            )
        srcs = np.asarray(srcs, dtype=np.int64)
        i, j = np.divmod(srcs, self.mesh.cols)
        u_i = rng.random(srcs.size)
        u_j = rng.random(srcs.size)
        i2 = (self._row_cdfs[i] <= u_i[:, None]).sum(axis=1)
        j2 = (self._col_cdfs[j] <= u_j[:, None]).sum(axis=1)
        return i2 * self.mesh.cols + j2

    def pmf(self, src: int) -> np.ndarray:
        i, j = self.mesh.node_coords(src)
        row_pmf = self._axis_pmf(i, self.mesh.rows)
        col_pmf = self._axis_pmf(j, self.mesh.cols)
        return np.outer(row_pmf, col_pmf).reshape(-1)


class HotSpotDestinations:
    """Hot-spot traffic: extra probability mass ``h`` on one hot node.

    With probability ``h`` the packet heads to ``hot_node``; otherwise the
    destination is uniform over all nodes (the hot node included, matching
    the paper's convention that destinations may equal sources). ``h = 0``
    recovers :class:`UniformDestinations`. The classic shared-resource
    workload: the hot node's incoming edges saturate first, so calibrating
    the load by the max edge rate (see :mod:`repro.scenarios`) keeps the
    system stable while concentrating queueing near the hot spot.
    """

    def __init__(self, num_nodes: int, hot_node: int = 0, h: float = 0.25) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        if not 0 <= int(hot_node) < self.num_nodes:
            raise ValueError(
                f"hot_node {hot_node} outside 0..{self.num_nodes - 1}"
            )
        self.hot_node = int(hot_node)
        self.h = check_probability(h, "h")

    batch_stream_identical = False  # uniform draw happens only when not hot

    def sample(self, src: int, rng: np.random.Generator) -> int:
        if rng.random() < self.h:
            return self.hot_node
        return int(rng.integers(self.num_nodes))

    def sample_batch(self, srcs, rng: np.random.Generator) -> np.ndarray:
        """One coin block plus one uniform block for the non-hot packets."""
        k = len(srcs)
        hot = rng.random(k) < self.h
        out = np.full(k, self.hot_node, dtype=np.int64)
        cold = ~hot
        ncold = int(cold.sum())
        if ncold:
            out[cold] = rng.integers(0, self.num_nodes, size=ncold)
        return out

    def pmf(self, src: int) -> np.ndarray:
        out = np.full(self.num_nodes, (1.0 - self.h) / self.num_nodes)
        out[self.hot_node] += self.h
        return out


class PermutationDestinations:
    """Fixed-permutation traffic: every packet born at ``src`` goes to
    ``perm[src]``.

    The classic adversarial workloads for dimension-order routing —
    transpose and bit-reversal — are provided as constructors. The law is
    degenerate (a one-hot pmf per source), which exercises the analytic
    rate solver and dominance checks on maximally non-uniform input.
    """

    batch_stream_identical = True

    def __init__(self, perm) -> None:
        p = np.asarray(perm, dtype=np.int64)
        if p.ndim != 1 or not np.array_equal(np.sort(p), np.arange(p.size)):
            raise ValueError("perm must be a permutation of 0..n-1")
        self._perm = p.tolist()
        self._perm_array = p.copy()
        self.num_nodes = int(p.size)

    @classmethod
    def transpose(cls, mesh: ArrayMesh) -> "PermutationDestinations":
        """Matrix-transpose traffic on a square mesh: ``(i, j) -> (j, i)``."""
        if mesh.rows != mesh.cols:
            raise ValueError("transpose traffic needs a square mesh")
        perm = [
            mesh.node_id(j, i)
            for v in range(mesh.num_nodes)
            for i, j in [mesh.node_coords(v)]
        ]
        return cls(perm)

    @classmethod
    def bit_reversal(cls, num_nodes: int) -> "PermutationDestinations":
        """Bit-reversal traffic on ``num_nodes = 2^d`` nodes: node ``v``
        maps to the reversal of its ``d``-bit address."""
        n = int(num_nodes)
        if n < 1 or n & (n - 1):
            raise ValueError(f"num_nodes must be a power of two, got {num_nodes}")
        d = n.bit_length() - 1
        perm = [int(f"{v:0{d}b}"[::-1], 2) if d else 0 for v in range(n)]
        return cls(perm)

    def sample(self, src: int, rng: np.random.Generator) -> int:
        return self._perm[src]

    def sample_batch(self, srcs, rng: np.random.Generator) -> np.ndarray:
        """One gather; consumes no randomness (degenerate law)."""
        return self._perm_array[np.asarray(srcs, dtype=np.int64)]

    def pmf(self, src: int) -> np.ndarray:
        out = np.zeros(self.num_nodes)
        out[self._perm[src]] = 1.0
        return out

