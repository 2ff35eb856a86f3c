"""The graph-level brute-force domination oracle, as the reference for
``gamma_exact`` and ``gamma_graph``, which solve domination as a set cover.

It reads only the adjacency matrix: a vertex set dominates when every other
vertex has a neighbour in it, and the oracle tries vertex subsets in
lexicographic order, smallest first.
"""

from itertools import combinations

from groupdom.domination import ALEPH0, Gamma
from groupdom.graphs import IntersectionGraph


def is_dominating(graph: IntersectionGraph, dset) -> bool:
    """Purely graph-theoretic membership test for a dominating set."""
    chosen = set(dset)
    for v in range(graph.n):
        if v in chosen:
            continue
        if not any(graph.adjacency[v, u] for u in chosen):
            return False
    return True


def domination_oracle(graph: IntersectionGraph, k_max: int) -> Gamma | None:
    """Brute-force search over all vertex subsets of size <= k_max, in
    lexicographic order.  None means no dominating set of that size."""
    if graph.n == 0:
        return ALEPH0
    for k in range(1, min(k_max, graph.n) + 1):
        for cand in combinations(range(graph.n), k):
            if is_dominating(graph, cand):
                return Gamma.of(k)
    return None
