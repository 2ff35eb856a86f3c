"""The intersection graph's adjacency and edge list by a loop over every
pair of vertices, as ``graphs`` formed them before it read adjacency from
the atom incidence (``Lattice.atoms_in``): H ~ K iff their masks share a
bit other than the identity's."""

from typing import Sequence

import numpy as np


def adjacency_from_masks(masks: Sequence[int]) -> np.ndarray:
    m = len(masks)
    adj = np.zeros((m, m), dtype=bool)
    for i in range(m):
        mi = masks[i]
        for j in range(i + 1, m):
            if mi & masks[j] != 1:
                adj[i, j] = adj[j, i] = True
    return adj


def pair_loop_edges(adjacency: np.ndarray) -> list[tuple[int, int]]:
    n = len(adjacency)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if adjacency[i, j]:
                out.append((i, j))
    return out
