"""Layered networks (Theorem 1's first hypothesis; Lemma 2, Figure 1).

A labelling of the arcs *layers* the network if every packet crosses arcs
with strictly increasing labels. Lemma 2's labelling of the array (paper's
1-based coordinates):

=========================  =========
edge                       label
=========================  =========
``((i, j), (i, j+1))``     ``j``
``((i, j+1), (i, j))``     ``n - j``
``((i, j), (i+1, j))``     ``n + i - 1``
``((i+1, j), (i, j))``     ``2n - i - 1``
=========================  =========

Row labels lie in ``1..n-1`` and increase along any one-directional row
leg; column labels lie in ``n..2n-2`` and increase along any column leg —
so a row-first greedy route is strictly increasing (Figure 1).

These labels, less one, are the router's own closed-form levels
(:meth:`~repro.routing.greedy.GreedyKDRouter.edge_levels`, which also
covers rectangular and k-d arrays), and the simulation kernels solve
layered runs level by level in that order (:mod:`repro.sim.kernels.levels`).

The torus, by contrast, cannot be layered under greedy routing (for tori
of side at least 4): its route legs chain around directed rings — e.g. on
a 4-ring the legs 0->1->2, 1->2->3, 2->3->0, 3->0->1 force the cyclic
precedence e01 < e12 < e23 < e30 < e01 — so a strictly-increasing
labelling cannot exist. :func:`find_layering_obstruction` finds such a
cycle constructively in the "follows" relation of consecutively-used edge
pairs, which is the machine-checkable form of the paper's Section 6
remark. (Degenerate exception, found by this reproduction's tests: on the
3x3 torus shortest-way greedy legs are at most one edge, so no two
same-dimension edges are ever consecutive and a layering *does* exist —
the paper's non-layerability claim concerns routes that actually traverse
rings.)
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.routing.base import Router
from repro.routing.greedy import GreedyArrayRouter
from repro.topology.array_mesh import DOWN, LEFT, RIGHT, UP, ArrayMesh
from repro.util.validation import check_side


def array_layering_labels(mesh: ArrayMesh) -> np.ndarray:
    """Lemma 2's labels for every edge of a square mesh, by edge id: the
    row-first router's levels plus one."""
    if not mesh.is_square:
        raise ValueError("Lemma 2's labelling is stated for square meshes")
    return GreedyArrayRouter(mesh).edge_levels() + 1


def _routes(
    router: Router,
    source_nodes: Sequence[int] | None,
    dest_nodes: Sequence[int] | None,
):
    """The canonical route of every listed ``src != dst`` pair (all nodes
    when a list is ``None``), sources outermost."""
    nodes = range(router.topology.num_nodes)
    dests = list(nodes if dest_nodes is None else dest_nodes)
    for src in nodes if source_nodes is None else source_nodes:
        for dst in dests:
            if dst != src:
                yield router.path(src, dst)


def verify_layering(
    router: Router,
    labels: np.ndarray,
    *,
    source_nodes: Sequence[int] | None = None,
    dest_nodes: Sequence[int] | None = None,
) -> bool:
    """True iff labels strictly increase along every canonical route."""
    topo = router.topology
    labels = np.asarray(labels)
    if labels.shape != (topo.num_edges,):
        raise ValueError(
            f"labels must have one entry per edge ({topo.num_edges}), "
            f"got shape {labels.shape}"
        )
    for path in _routes(router, source_nodes, dest_nodes):
        for a, b in zip(path, path[1:]):
            if labels[b] <= labels[a]:
                return False
    return True


def _follows(
    router: Router,
    source_nodes: Sequence[int] | None = None,
    dest_nodes: Sequence[int] | None = None,
) -> dict[int, dict[int, None]]:
    """The "follows" relation on edge ids as an adjacency map: ``b`` is in
    ``succ[a]`` iff some canonical route crosses ``b`` immediately after
    ``a``. Each edge's successors keep the order routes first cross
    them."""
    succ: dict[int, dict[int, None]] = {
        e: {} for e in range(router.topology.num_edges)
    }
    for path in _routes(router, source_nodes, dest_nodes):
        for a, b in zip(path, path[1:]):
            succ[int(a)][int(b)] = None
    return succ


def follows_digraph(
    router: Router,
    *,
    source_nodes: Sequence[int] | None = None,
    dest_nodes: Sequence[int] | None = None,
):
    """The "follows" digraph on edge ids: arc ``a -> b`` iff some canonical
    route crosses ``b`` immediately after ``a``. A layering exists iff this
    digraph is acyclic (labels = any topological order)."""
    import networkx as nx

    g = nx.DiGraph()
    succ = _follows(router, source_nodes, dest_nodes)
    g.add_nodes_from(succ)
    g.add_edges_from((a, b) for a, nbrs in succ.items() for b in nbrs)
    return g


def find_layering_obstruction(
    router: Router,
    *,
    source_nodes: Sequence[int] | None = None,
    dest_nodes: Sequence[int] | None = None,
) -> list[int] | None:
    """A cycle of edge ids witnessing that no layering exists, or None.

    Returns None exactly when a layering exists (the follows relation is
    acyclic). On the greedy torus this returns a directed ring of edges,
    mechanising the paper's "any network containing a ring of directed
    edges cannot be layered" for the concrete routing scheme in use.
    The cycle is the first one an iterative depth-first search meets,
    taking edges and their successors in ascending id and first-crossing
    order.
    """
    succ = _follows(router, source_nodes, dest_nodes)
    state = dict.fromkeys(succ, 0)  # 0 unseen, 1 on the path, 2 done
    for root in succ:
        if state[root]:
            continue
        state[root] = 1
        path, todo = [root], [iter(succ[root])]
        while todo:
            for nxt in todo[-1]:
                if state[nxt] == 1:
                    return path[path.index(nxt) :]
                if state[nxt] == 0:
                    state[nxt] = 1
                    path.append(nxt)
                    todo.append(iter(succ[nxt]))
                    break
            else:
                state[path.pop()] = 2
                todo.pop()
    return None


def layering_from_follows(router: Router) -> np.ndarray | None:
    """Construct a valid layering by topological sort, or None if impossible.

    This gives an alternative, machine-generated labelling for any layered
    scheme (tests check it validates alongside Lemma 2's hand labelling).
    Kahn's order: an edge is labelled once every edge it follows is.
    """
    succ = _follows(router)
    waiting = Counter(b for nbrs in succ.values() for b in nbrs)
    order = [e for e in succ if not waiting[e]]
    for e in order:  # grows while it is walked
        for b in succ[e]:
            waiting[b] -= 1
            if not waiting[b]:
                order.append(b)
    if len(order) < len(succ):
        return None
    labels = np.zeros(len(succ), dtype=np.int64)
    labels[order] = np.arange(1, len(order) + 1)
    return labels


def render_figure1(n: int) -> str:
    """ASCII rendering of Figure 1 (the layered labelling) for side ``n``.

    Each cell shows the labels of the four edges leaving the node:
    ``R`` right, ``L`` left, ``D`` down, ``U`` up (dashes at borders).
    """
    check_side(n, "n")
    mesh = ArrayMesh(n)
    labels = array_layering_labels(mesh)
    lines = [f"Figure 1: layering the {n}x{n} array (Lemma 2 labels)"]
    for i in range(n):
        row_cells = []
        for j in range(n):
            parts = []
            for tag, direction, ok in (
                ("R", RIGHT, j < n - 1),
                ("L", LEFT, j > 0),
                ("D", DOWN, i < n - 1),
                ("U", UP, i > 0),
            ):
                if ok:
                    parts.append(
                        f"{tag}{labels[mesh.directed_edge_id(i, j, direction)]}"
                    )
                else:
                    parts.append(f"{tag}-")
            row_cells.append("[" + " ".join(f"{p:>4}" for p in parts) + "]")
        lines.append(" ".join(row_cells))
    return "\n".join(lines)
