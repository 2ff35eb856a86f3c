"""Intersection graphs on proper non-trivial subgroups.

Three flavors share one structure: the full graph (edge iff the two
subgroups meet non-trivially), restricted graphs over a chosen vertex set S
(edge iff the intersection itself belongs to S), and graphs of group
actions (vertices are the distinct proper non-trivial point stabilizers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import Lattice


@dataclass(frozen=True)
class IntersectionGraph:
    """Symmetric loop-free graph whose vertices carry subgroup masks."""

    vertices: tuple[int, ...]       # lattice indices, or -1 for ad-hoc vertices
    masks: tuple[int, ...]          # element bitmask per vertex
    adjacency: np.ndarray           # bool matrix
    mode: str                       # "full" | "restricted" | "gset"
    labels: tuple[str, ...]

    def __post_init__(self):
        self.adjacency.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.masks)

    def degree_multiset(self) -> tuple[int, ...]:
        if self.n == 0:
            return ()
        return tuple(sorted(int(d) for d in self.adjacency.sum(axis=1)))

    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.adjacency[i, j]:
                    out.append((i, j))
        return out


def _adjacency_from_masks(masks: Sequence[int]) -> np.ndarray:
    m = len(masks)
    adj = np.zeros((m, m), dtype=bool)
    for i in range(m):
        mi = masks[i]
        for j in range(i + 1, m):
            if mi & masks[j] != 1:
                adj[i, j] = adj[j, i] = True
    return adj


def intersection_graph(L: Lattice) -> IntersectionGraph:
    """The full intersection graph on all proper non-trivial subgroups."""
    verts = L.vertex_set
    masks = tuple(L.subgroups[i].mask for i in verts)
    return IntersectionGraph(vertices=verts, masks=masks,
                             adjacency=_adjacency_from_masks(masks),
                             mode="full", labels=L.labels(verts))


def restricted_graph(L: Lattice, selector) -> IntersectionGraph:
    """Graph on S = selected vertices; edge iff the intersection lies in S.

    ``selector`` is either an iterable of lattice indices or a predicate
    over Subgroup.  Note the edge rule is membership of the intersection in
    S, which for general S differs from the induced subgraph.
    """
    if callable(selector):
        verts = tuple(i for i in L.vertex_set if selector(L.subgroups[i]))
    else:
        verts = tuple(sorted(set(selector)))
    vert_set = set(verts)
    masks = tuple(L.subgroups[i].mask for i in verts)
    m = len(verts)
    adj = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(i + 1, m):
            inter = masks[i] & masks[j]
            k = L.index.get(inter)
            if k is not None and k in vert_set:
                adj[i, j] = adj[j, i] = True
    return IntersectionGraph(vertices=verts, masks=masks, adjacency=adj,
                             mode="restricted", labels=L.labels(verts))


def p_subgroup_indices(L: Lattice, p: int) -> tuple[int, ...]:
    """Vertex indices of the proper non-trivial p-subgroups."""
    out = []
    for i in L.vertex_set:
        o = L.subgroups[i].order
        while o % p == 0:
            o //= p
        if o == 1:
            out.append(i)
    return tuple(out)


def gset_intersection_graph(L: Lattice, bases: Sequence[int] | str) -> IntersectionGraph:
    """Intersection graph of a G-set given as a disjoint union of coset
    spaces G/H for the subgroups listed in ``bases`` (lattice indices).

    ``bases="sigma"`` means one coset space per conjugacy class of
    subgroups.  Stabilizers of points of G/H are the conjugates of H; the
    whole group and the trivial subgroup contribute no vertices.
    """
    classes, class_of = L.classes, L.class_of
    if bases == "sigma":
        base_indices = [c.rep for c in classes]
    else:
        base_indices = list(bases)
    top = len(L.subgroups) - 1
    # lattice order is (order, mask) order, so sorted indices sort the masks
    verts = tuple(sorted({j for i in base_indices if 0 < i < top
                          for j in classes[class_of[i]].members}))
    masks = tuple(L.subgroups[v].mask for v in verts)
    return IntersectionGraph(vertices=verts, masks=masks,
                             adjacency=_adjacency_from_masks(masks),
                             mode="gset", labels=L.labels(verts))


def graphs_equal(a: IntersectionGraph, b: IntersectionGraph) -> bool:
    """Same vertex masks and same edges between them."""
    if a.masks != b.masks:
        return False
    return bool(np.array_equal(a.adjacency, b.adjacency))


def to_dot(graph: IntersectionGraph) -> str:
    lines = ["graph intersection_graph {"]
    for lbl in graph.labels:
        lines.append(f'  "{lbl}";')
    for i, j in graph.edges():
        lines.append(f'  "{graph.labels[i]}" -- "{graph.labels[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
