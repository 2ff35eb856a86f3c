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


def lower_bound_visiting_every_point(inst, uncovered: int, banned: int, limit: int) -> int:
    """The set-cover node bound as ``_Instance.lower_bound`` once computed
    it, for an instance ``inst`` with its ``covers`` and ``sets``: the
    k-largest coverage bound over all sets first, then a greedy packing
    that visits every uncovered point in index order and keeps it when it
    shares no unbanned set with the points kept before."""
    if not uncovered:
        return 0
    need = uncovered.bit_count()
    coverage = 0
    for size in sorted(((uncovered & s).bit_count() for s in inst.sets), reverse=True):
        coverage += 1
        need -= size
        if need <= 0 or coverage > limit:
            break
    if coverage > limit:
        return coverage
    used = 0
    packing = 0
    for a in range(uncovered.bit_length()):
        if packing > limit:
            break
        if not uncovered >> a & 1:
            continue
        c = inst.covers[a] & ~banned
        if not c:
            return limit + 1
        if c & used == 0:
            packing += 1
            used |= c
    return max(coverage, packing)
