"""Intersection graphs on proper non-trivial subgroups.

Three flavors share one structure: the full graph (edge iff the two
subgroups meet non-trivially), restricted graphs over a chosen vertex set S
(edge iff the intersection itself belongs to S), and graphs of group
actions (vertices are the distinct proper non-trivial point stabilizers).
The full and G-set graphs read adjacency from the atom incidence
(``Lattice.atoms_in``): H ∩ K is non-trivial iff some atom lies in both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import Lattice


@dataclass(frozen=True)
class IntersectionGraph:
    """Symmetric loop-free graph whose vertices carry subgroup masks."""

    vertices: tuple[int, ...]       # lattice indices
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
        """Pairs i < j of adjacent positions, in row-major order."""
        rows, cols = np.nonzero(np.triu(self.adjacency, 1))
        return list(zip(rows.tolist(), cols.tolist()))


def _meet_graph(L: Lattice, verts: tuple[int, ...], mode: str) -> IntersectionGraph:
    """Graph on ``verts`` with an edge iff the two subgroups share an atom.
    The shared-atom counts are a float32 product of atom incidence rows,
    exact since a count is at most the number of atoms, far below 2^24."""
    a = L.atoms_in(verts).astype(np.float32)
    adj = a @ a.T > 0
    np.fill_diagonal(adj, False)
    return IntersectionGraph(vertices=verts, masks=tuple(L.subgroups[i].mask for i in verts),
                             adjacency=adj, mode=mode, labels=L.labels(verts))


def intersection_graph(L: Lattice) -> IntersectionGraph:
    """The full intersection graph on all proper non-trivial subgroups."""
    return _meet_graph(L, L.vertex_set, "full")


def restricted_graph(L: Lattice, selector) -> IntersectionGraph:
    """Graph on S = selected vertices; edge iff the intersection lies in S.

    ``selector`` is either an iterable of vertex indices (ValueError for
    any outside ``L.vertex_set``) or a predicate over Subgroup.  Note the
    edge rule is membership of the intersection in S, which for general S
    differs from the induced subgraph.
    """
    if callable(selector):
        verts = tuple(i for i in L.vertex_set if selector(L.subgroups[i]))
    else:
        verts = tuple(sorted(set(selector)))
    vert_set = set(verts)
    if bad := vert_set - set(L.vertex_set):
        raise ValueError(f"not proper non-trivial subgroup indices: {sorted(bad)}")
    masks = tuple(L.subgroups[i].mask for i in verts)
    m = len(verts)
    adj = np.zeros((m, m), dtype=bool)
    # H ~ K iff H ∩ K is a member of S: a lattice lookup, not an incidence
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
    spaces G/H for the subgroups listed in ``bases`` (lattice indices;
    ValueError for any that is not an int in ``range(len(L))``).

    ``bases="sigma"`` means one coset space per conjugacy class of
    subgroups, and any other string is refused.  Stabilizers of points of
    G/H are the conjugates of H; the whole group and the trivial subgroup
    contribute no vertices.
    """
    classes, class_of = L.classes, L.class_of
    if isinstance(bases, str):
        if bases != "sigma":
            raise ValueError(f"bases is 'sigma' or lattice indices, not {bases!r}")
        base_indices = [c.rep for c in classes]
    else:
        base_indices = list(bases)
    top = len(L.subgroups) - 1
    if bad := [i for i in base_indices
               if not isinstance(i, (int, np.integer)) or not 0 <= i <= top]:
        raise ValueError(f"not lattice indices: {bad}")
    # lattice order is (order, mask) order, so sorted indices sort the masks
    verts = tuple(sorted({j for i in base_indices if 0 < i < top
                          for j in classes[class_of[i]].members}))
    return _meet_graph(L, verts, "gset")


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
