"""Two independent enumerations of the subgroup lattice, as the references
for ``enumerate_subgroups``, which builds lattices by cyclic extension over
conjugacy class representatives, and the one-join breadth-first search,
``_join``, as the reference for the batched join closure
``lattice._close_joins``.

Both start from the cyclic subgroups, each walked from its own generator's
powers over the multiplication table, so neither shares the fast path's
cyclic seeds.  The all-pairs strategy closes them under pairwise joins of
subgroups; the brute-force oracle tries every union of cyclic subgroups
and keeps the closed ones.
"""

import numpy as np

from groupdom.groups import GroupTable, _bools_to_mask, array_to_mask, mask_to_array
from groupdom.lattice import close_subset


def _close_join(G: GroupTable, base: np.ndarray, add: np.ndarray) -> int:
    """Closure of (closed subgroup base) union add, skipping base x base."""
    n = G.order
    in_set = np.zeros(n, dtype=bool)
    in_set[base] = True
    in_set[add] = True
    members = np.flatnonzero(in_set)
    new = add
    while True:
        if len(members) > n // 2:
            return (1 << n) - 1
        prods = np.concatenate([G.mul[np.ix_(new, members)].ravel(),
                                G.mul[np.ix_(members, new)].ravel()])
        novel = prods[~in_set[prods]]
        if novel.size == 0:
            return array_to_mask(members, n)
        in_set[novel] = True
        new = np.unique(novel)
        members = np.flatnonzero(in_set)


def _join(G: GroupTable, h_members: np.ndarray, c_members: np.ndarray,
          gens: tuple[int, ...], top: int) -> int:
    """Mask of <H, C> for subgroups H and C of the subgroup ``top`` given by
    their members, where ``gens`` generate H and include a generator of C.

    Starts from the product set HC and closes it by a breadth-first search
    under right multiplication by ``gens``, so each element is multiplied
    once per generator.  ``top`` is the solvable residual R = G^(∞), which
    is perfect, so the search stops once the set passes |R|/5: a proper
    subgroup of R of index k < 5 would map R, by its action on the k
    cosets, onto a transitive perfect subgroup of S_k, and S_k is
    solvable for k <= 4.
    """
    n = G.order
    fifth = top.bit_count() // 5
    prods = G.mul[h_members[:, None], c_members].ravel()
    gens = np.array(gens)
    in_set = np.zeros(n, dtype=bool)
    in_set[h_members] = True
    size = len(h_members)
    while True:
        novel = prods[~in_set[prods]]
        if novel.size == 0:
            break
        fresh = np.zeros(n, dtype=bool)
        fresh[novel] = True
        frontier = fresh.nonzero()[0]
        size += frontier.size
        # a subgroup of the perfect top of order greater than |top|/5 is top
        if size > fifth:
            return top
        in_set |= fresh
        prods = G.mul[frontier[:, None], gens].ravel()
    return _bools_to_mask(in_set)


def cyclic_subgroup_masks(G: GroupTable) -> list[int]:
    """Masks of all cyclic subgroups, trivial one excluded, deduplicated.
    Every non-identity g gives <g> from its own power walk g, g^2, ...
    until the identity."""
    n = G.order
    found = set()
    for g in range(1, n):
        powers = [0, g]
        while (x := int(G.mul[powers[-1], g])) != 0:
            powers.append(x)
        found.add(array_to_mask(powers, n))
    return sorted(found, key=lambda m: (m.bit_count(), m))


def enumerate_subgroups_allpairs(G: GroupTable) -> set[int]:
    """Independent enumeration strategy: close the cyclic seeds under
    pairwise joins of subgroups.  Returns the set of subgroup masks."""
    n = G.order
    full = (1 << n) - 1
    known = {1, full}
    known.update(cyclic_subgroup_masks(G))
    frontier = sorted(known)
    seen_seeds = set()
    while frontier:
        current = sorted(known)
        next_frontier = []
        for h in frontier:
            h_members = None
            for k in current:
                if k & ~h == 0 or h & ~k == 0:
                    continue
                seed = h | k
                if seed in seen_seeds:
                    continue
                seen_seeds.add(seed)
                if seed in known:
                    continue
                if h.bit_count() * k.bit_count() // (h & k).bit_count() > n // 2:
                    j = full
                else:
                    if h_members is None:
                        h_members = mask_to_array(h, n)
                    j = _close_join(G, h_members, mask_to_array(k & ~h, n))
                if j not in known:
                    known.add(j)
                    next_frontier.append(j)
        frontier = next_frontier
    return known


def subgroups_bruteforce(G: GroupTable) -> set[int]:
    """Brute-force oracle: every subgroup is a union of cyclic subgroups, so
    try all unions and keep the ones that are closed.  The unions are
    walked depth first, each one OR from its prefix, and a union already
    tried is not closed again.  Only sane for small groups (at most 20
    cyclic subgroups)."""
    cyclic = cyclic_subgroup_masks(G)
    if len(cyclic) > 20:
        raise ValueError(f"too many cyclic subgroups ({len(cyclic)}) for brute force")
    n = G.order
    found = {1, (1 << n) - 1}
    tried = set(found)
    stack = [(0, 1)]  # (first cyclic subgroup still to add, union so far)
    while stack:
        start, prefix = stack.pop()
        for i in range(start, len(cyclic)):
            m = prefix | cyclic[i]
            stack.append((i + 1, m))
            if m in tried:
                continue
            tried.add(m)
            if n % m.bit_count() == 0 and close_subset(G, m) == m:
                found.add(m)
    return found
