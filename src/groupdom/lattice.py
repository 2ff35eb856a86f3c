"""Subgroup lattice enumeration and subgroup-level invariants.

Subgroups are bitmasks over element indices (bit 0, the identity, is always
set).  The enumeration seeds with all cyclic subgroups and closes under
"join with a cyclic subgroup", which reaches every subgroup because each
subgroup is generated by its cyclic subgroups.  Every subgroup it finds
carries a short generating set, so a join <H, C> is closed by a
breadth-first search under right multiplication by those generators; in
an abelian group the join is the product set HC and needs no search.
Conjugacy orbits and normalizers come from one vectorised kernel,
``conjugates``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BudgetExceeded
from .groups import (GroupTable, _bools_to_mask, array_to_mask, is_prime,
                     mask_to_array)


@dataclass(frozen=True)
class Subgroup:
    mask: int
    order: int

    @staticmethod
    def from_mask(mask: int) -> "Subgroup":
        return Subgroup(mask=mask, order=mask.bit_count())


def close_subset(G: GroupTable, seed_mask: int) -> int:
    """Smallest subgroup mask containing the seed elements."""
    n = G.order
    full = (1 << n) - 1
    members = mask_to_array(seed_mask | 1, n)
    size = len(members)
    while True:
        if size > n // 2:
            return full
        prod = np.unique(G.mul[np.ix_(members, members)])
        if len(prod) == size:
            return array_to_mask(prod, n)
        members = prod
        size = len(members)


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


def generated_subgroup(G: GroupTable, seed_mask: int) -> Subgroup:
    if seed_mask == 0:
        raise ValueError("seed must be non-empty")
    return Subgroup.from_mask(close_subset(G, seed_mask))


def _cyclic_generators(G: GroupTable) -> dict[int, int]:
    """Mask of every non-trivial cyclic subgroup -> its smallest generator."""
    out: dict[int, int] = {}
    for g in range(1, G.order):
        m = 1 | (1 << g)
        x = g
        while x != 0:
            x = int(G.mul[x, g])
            m |= 1 << x
        out.setdefault(m, g)
    return out


def cyclic_subgroup_masks(G: GroupTable) -> list[int]:
    """Masks of all cyclic subgroups, trivial one excluded, deduplicated."""
    return sorted(_cyclic_generators(G), key=lambda m: (m.bit_count(), m))


def _pack(masks, n: int) -> np.ndarray:
    words = (n + 63) // 64 or 1
    out = np.zeros((len(masks), words), dtype=np.uint64)
    for i, m in enumerate(masks):
        out[i] = np.frombuffer(m.to_bytes(words * 8, "little"), dtype="<u8")
    return out


class Lattice:
    """The complete subgroup lattice of a group.

    ``subgroups`` is sorted by (order, mask): index 0 is the trivial
    subgroup and the last index is the whole group.  Immutable once built.
    """

    def __init__(self, G: GroupTable, masks: set[int]):
        self.group = G
        self.subgroups = [Subgroup.from_mask(m) for m in sorted(masks, key=lambda m: (m.bit_count(), m))]
        self.index = {s.mask: i for i, s in enumerate(self.subgroups)}

    def __len__(self) -> int:
        return len(self.subgroups)

    def leq(self, i: int, j: int) -> bool:
        """Is subgroup i contained in subgroup j?"""
        return self.subgroups[i].mask & ~self.subgroups[j].mask == 0

    @cached_property
    def atoms(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.subgroups) if is_prime(s.order))

    @cached_property
    def coatoms(self) -> tuple[int, ...]:
        """Maximal subgroups, in one pass by decreasing (order, mask): a
        proper subgroup is maximal iff no maximal subgroup met before it
        contains it."""
        packed = _pack([s.mask for s in self.subgroups], self.group.order)
        found = packed[:0]
        out = []
        for i in range(len(self.subgroups) - 2, -1, -1):
            row = packed[i]
            if not ((found & row) == row).all(axis=1).any():
                out.append(i)
                found = packed[out]
        return tuple(reversed(out))

    @cached_property
    def vertex_set(self) -> tuple[int, ...]:
        top = len(self.subgroups) - 1
        return tuple(i for i in range(len(self.subgroups)) if 0 < i < top)


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = prime_factors(n)
    return len(p) == 1


def conjugate_rows(G: GroupTable, members: np.ndarray, g) -> np.ndarray:
    """Row i holds g_i h g_i^-1 for each h in ``members``, where ``g`` is an
    index array or a slice of elements: one |g| x |H| fancy-index.  This is
    the library's one conjugation kernel."""
    return G.mul[G.mul[g][:, members], G.inv[g][:, None]]


def conjugates(G: GroupTable, mask: int) -> tuple[dict[int, int], int]:
    """The conjugacy orbit and the normalizer of subgroup ``mask``.

    ``conjugate_rows`` over all g gives the |G| x |H| array of g h g^-1;
    its distinct rows are the orbit and the rows equal to H give N_G(H).
    Returns ({conjugate mask: smallest g with g H g^-1 equal to it},
    normalizer mask).  Temporaries stay at |G| x |H| entries.
    """
    n = G.order
    members = mask_to_array(mask, n)
    rows = conjugate_rows(G, members, slice(None))
    rows.sort(axis=1)
    normalizer = _bools_to_mask((rows == members).all(axis=1))
    _, first = np.unique(rows, axis=0, return_index=True)
    orbit = {array_to_mask(rows[g], n): int(g) for g in first}
    return orbit, normalizer


def _join(G: GroupTable, h_members: np.ndarray, c_members: np.ndarray,
          gens: tuple[int, ...], abelian: bool) -> int:
    """Mask of <H, C> for subgroups H and C given by their members, where
    ``gens`` generate H and include a generator of C.

    Starts from the product set HC, which is the join when G is abelian,
    and otherwise closes it by a breadth-first search under right
    multiplication by ``gens``, so each element is multiplied once per
    generator.
    """
    n = G.order
    prods = G.mul[h_members[:, None], c_members].ravel()
    if abelian:
        return array_to_mask(prods, n)
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
        # a subgroup of order greater than n/2 is the whole group
        if size > n // 2:
            return (1 << n) - 1
        in_set |= fresh
        prods = G.mul[frontier[:, None], gens].ravel()
    return _bools_to_mask(in_set)


def enumerate_subgroups(G: GroupTable, budget_ms: float | None = None,
                        max_subgroups: int | None = None) -> Lattice:
    """All subgroups of G via cyclic seeds plus join-with-cyclic closure.

    Two shortcuts keep this tractable: joining with prime-power cyclic
    subgroups suffices (every cyclic subgroup is the join of the
    prime-power cyclics in it), and joins only need to extend conjugacy
    class representatives, because a conjugate of a join is the join of
    the conjugates and conjugates of cyclics are cyclic.  Every discovered
    subgroup's whole conjugacy orbit is added.

    Each representative carries a generating set: (g,) for a cyclic
    subgroup <g>, gens(H) + (c,) for a join <H, <c>>, conjugated along
    with the subgroup when the orbit's representative is a conjugate of
    the join found.  A join is closed by ``_join``: the product set HC in
    an abelian group, a breadth-first search under those generators
    otherwise.
    """
    t0 = time.monotonic()
    n = G.order
    full = (1 << n) - 1
    abelian = G.is_abelian()
    cyclic = _cyclic_generators(G)
    seeds = sorted(cyclic, key=lambda m: (m.bit_count(), m))
    joiners = [(c, c.bit_count(), cyclic[c], mask_to_array(c, n)) for c in seeds
               if _is_prime_power(c.bit_count())]

    known = {1, full}
    gens_of: dict[int, tuple[int, ...]] = {}

    def admit(mask: int, gens: tuple[int, ...]) -> int:
        """Add a subgroup and its conjugacy orbit; return the orbit rep,
        whose generating set is recorded in ``gens_of``."""
        if abelian:
            known.add(mask)
            gens_of[mask] = gens
            return mask
        orbit, _ = conjugates(G, mask)
        known.update(orbit)
        rep = min(orbit)
        g = orbit[rep]
        gens_of[rep] = tuple(int(x) for x in conjugate_rows(G, list(gens), [g])[0])
        return rep

    def check_size():
        if max_subgroups is not None and len(known) > max_subgroups:
            raise BudgetExceeded(
                f"subgroup count exceeded {max_subgroups}", partial=len(known))

    frontier = []
    seen_reps = set()
    for c in seeds:
        if c in known:
            continue
        rep = admit(c, (cyclic[c],))
        if rep not in seen_reps:
            seen_reps.add(rep)
            frontier.append(rep)
    check_size()
    seen_seeds = set()
    while frontier:
        next_frontier = []
        for h in frontier:
            h_count = h.bit_count()
            h_members = None
            for c, c_count, c_gen, c_members in joiners:
                if c & ~h == 0:
                    continue
                seed = h | c
                if seed in seen_seeds:
                    continue
                seen_seeds.add(seed)
                if seed in known:
                    continue
                gens = gens_of[h] + (c_gen,)
                # |<H,C>| >= |HC| = |H||C|/|H&C|, and a subgroup of order
                # greater than n/2 is the whole group
                if h_count * c_count // (h & c).bit_count() > n // 2:
                    j = full
                else:
                    if h_members is None:
                        h_members = mask_to_array(h, n)
                    j = _join(G, h_members, c_members, gens, abelian)
                if j not in known:
                    rep = admit(j, gens)
                    if rep not in seen_reps:
                        seen_reps.add(rep)
                        next_frontier.append(rep)
                    check_size()
            if budget_ms is not None and (time.monotonic() - t0) * 1000 > budget_ms:
                raise BudgetExceeded(
                    f"lattice enumeration exceeded {budget_ms} ms", partial=len(known))
        frontier = next_frontier
    return Lattice(G, known)


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
    try all unions and keep the ones that are closed.  Only sane for small
    groups (|G| <= 24 or so)."""
    cyclic = cyclic_subgroup_masks(G)
    if len(cyclic) > 20:
        raise ValueError(f"too many cyclic subgroups ({len(cyclic)}) for brute force")
    n = G.order
    found = {1, (1 << n) - 1}
    for bits in range(1, 1 << len(cyclic)):
        m = 1
        b = bits
        while b:
            low = b & -b
            m |= cyclic[low.bit_length() - 1]
            b ^= low
        if m in found or n % m.bit_count():
            continue
        if close_subset(G, m) == m:
            found.add(m)
    return found


# ---------------------------------------------------------------------------
# Characteristic subgroups and classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacteristicSubgroups:
    atom_join: Subgroup          # subgroup generated by all minimal subgroups
    frattini: Subgroup           # intersection of all maximal subgroups
    nilpotent_residual: Subgroup  # limit of the lower central series
    center: Subgroup
    derived: Subgroup
    atom_elements: int           # mask: identity plus every element of prime order


@dataclass(frozen=True)
class GroupClassification:
    is_abelian: bool
    is_nilpotent: bool
    is_solvable: bool
    is_supersolvable: bool
    is_p_group: bool
    p: int
    exponent: int
    squarefree_part: int


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def squarefree_part(n: int) -> int:
    r = 1
    for p in prime_factors(n):
        r *= p
    return r


def _commutator_mask(G: GroupTable, a_mask: int, b_mask: int) -> int:
    """Mask of [A, B], the subgroup generated by the commutators
    a^-1 b^-1 a b with a in A and b in B (element masks)."""
    n = G.order
    a = mask_to_array(a_mask, n)
    b = mask_to_array(b_mask, n)
    inverses = G.mul[np.ix_(G.inv[a], G.inv[b])]
    comms = G.mul[inverses, G.mul[np.ix_(a, b)]]
    return close_subset(G, array_to_mask(comms.ravel(), n))


def lower_central_series(G: GroupTable) -> list[int]:
    """Masks of the lower central series G = g_1 > g_2 = [g_1, G] > ...,
    down to its stable term."""
    full = (1 << G.order) - 1
    series = [full]
    while True:
        nxt = _commutator_mask(G, series[-1], full)
        if nxt == series[-1]:
            return series
        series.append(nxt)
        if nxt == 1:
            return series


def characteristic_subgroups(G: GroupTable, L: Lattice) -> CharacteristicSubgroups:
    atom_mask = 1
    for i in L.atoms:
        atom_mask |= L.subgroups[i].mask
    atom_join = Subgroup.from_mask(close_subset(G, atom_mask))

    frat = (1 << G.order) - 1
    for i in L.coatoms:
        frat &= L.subgroups[i].mask
    frattini = Subgroup.from_mask(frat)

    series = lower_central_series(G)
    residual = Subgroup.from_mask(series[-1])

    full = (1 << G.order) - 1
    center_mask = _bools_to_mask((G.mul == G.mul.T).all(axis=1))
    derived = Subgroup.from_mask(_commutator_mask(G, full, full))
    return CharacteristicSubgroups(
        atom_join=atom_join, frattini=frattini, nilpotent_residual=residual,
        center=Subgroup.from_mask(center_mask), derived=derived,
        atom_elements=atom_mask)


def sylow_counts(G: GroupTable, L: Lattice) -> dict[int, int]:
    """Number of Sylow p-subgroups per prime p dividing |G|."""
    n = G.order
    counts = {}
    for p in prime_factors(n):
        pa = 1
        while n % (pa * p) == 0:
            pa *= p
        counts[p] = sum(1 for s in L.subgroups if s.order == pa)
    return counts


def classify_group(G: GroupTable, L: Lattice) -> GroupClassification:
    n = G.order
    primes = prime_factors(n)
    abelian = G.is_abelian()
    is_p_group = len(primes) == 1
    p = primes[0] if is_p_group else 0

    # nilpotent: every Sylow subgroup is normal, i.e. unique
    nilpotent = all(c == 1 for c in sylow_counts(G, L).values()) if n > 1 else True

    # solvable: the derived series D_{i+1} = [D_i, D_i] reaches 1
    mask = (1 << n) - 1
    while (nxt := _commutator_mask(G, mask, mask)) != mask:
        mask = nxt
    solvable = mask == 1

    # supersolvable: every maximal subgroup has prime index
    supersolvable = n > 1 and all(
        is_prime(n // L.subgroups[i].order) for i in L.coatoms)

    exponent = G.exponent
    return GroupClassification(
        is_abelian=abelian, is_nilpotent=nilpotent, is_solvable=solvable,
        is_supersolvable=supersolvable, is_p_group=is_p_group, p=p,
        exponent=exponent, squarefree_part=squarefree_part(n))


# ---------------------------------------------------------------------------
# Conjugacy classes of subgroups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubgroupClass:
    rep: int                  # lattice index of the representative (smallest mask)
    members: tuple[int, ...]  # lattice indices, sorted
    normalizer: Subgroup


def subgroup_classes(G: GroupTable, L: Lattice) -> list[SubgroupClass]:
    """Conjugacy classes of subgroups; classes sorted by (order, rep mask)."""
    if G.is_abelian():
        full = Subgroup.from_mask((1 << G.order) - 1)
        return [SubgroupClass(rep=i, members=(i,), normalizer=full)
                for i in range(len(L.subgroups))]

    assigned = [False] * len(L.subgroups)
    classes = []
    for i, s in enumerate(L.subgroups):
        if assigned[i]:
            continue
        # subgroups are sorted by (order, mask), so the first unassigned
        # member of a class is its smallest mask and classes come out sorted
        orbit, norm = conjugates(G, s.mask)
        member_idx = tuple(sorted(L.index[m] for m in orbit))
        for j in member_idx:
            assigned[j] = True
        classes.append(SubgroupClass(rep=i, members=member_idx,
                                     normalizer=Subgroup.from_mask(norm)))
    return classes


def class_of_subgroup(L: Lattice, classes: list[SubgroupClass]) -> np.ndarray:
    """Array mapping lattice index -> class index."""
    out = np.full(len(L.subgroups), -1, dtype=np.int64)
    for ci, cls in enumerate(classes):
        for j in cls.members:
            out[j] = ci
    return out
