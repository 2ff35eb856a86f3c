"""Subgroup lattice enumeration and subgroup-level invariants.

Subgroups are bitmasks over element indices (bit 0, the identity, is always
set).  The enumeration seeds with all cyclic subgroups and closes under
"join with a cyclic subgroup", which reaches every subgroup because each
subgroup is generated by its cyclic subgroups.  Only conjugacy class
representatives H are extended, each with one cyclic subgroup C per
N_G(H)-orbit: for n in N_G(H), <H, nCn^-1> = n<H, C>n^-1, and every
subgroup found enters with its whole conjugacy orbit.  Every subgroup it
finds carries a short generating set, so a join <H, C> is closed by a
breadth-first search under right multiplication by those generators; in
an abelian group the join is the product set HC and needs no search.
Conjugacy orbits and normalizers come from one vectorised kernel,
``conjugates``, which reads the orbit of H from the left cosets of
N_G(H).
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


def _cyclic_generators(G: GroupTable) -> tuple[dict[int, int], list[int]]:
    """Mask of every non-trivial cyclic subgroup -> its smallest generator,
    and the mask of <g> for every element g (1 for the identity)."""
    out: dict[int, int] = {}
    of_element = [1]
    for g in range(1, G.order):
        m = 1 | (1 << g)
        x = g
        while x != 0:
            x = int(G.mul[x, g])
            m |= 1 << x
        out.setdefault(m, g)
        of_element.append(m)
    return out, of_element


def cyclic_subgroup_masks(G: GroupTable) -> list[int]:
    """Masks of all cyclic subgroups, trivial one excluded, deduplicated."""
    return sorted(_cyclic_generators(G)[0], key=lambda m: (m.bit_count(), m))


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

    @cached_property
    def containment(self) -> np.ndarray:
        """Boolean matrix, [i, j] true iff subgroup i lies in subgroup j:
        no word of i's packed mask outside j's.  Upper triangular, since a
        subgroup's subgroups come before it in (order, mask) order."""
        packed = _pack([s.mask for s in self.subgroups], self.group.order)
        out = np.zeros((len(packed), len(packed)), dtype=bool)
        for j in range(len(packed)):
            out[:j + 1, j] = ~(packed[:j + 1] & ~packed[j]).any(axis=1)
        return out


def mobius(L: Lattice) -> list[int]:
    """μ(1, H) of the subgroup lattice for every subgroup H, by index.

    μ(1, 1) = 1 and μ(1, H) = -Σ_{K<H} μ(1, K), over exact containment
    (``Lattice.containment``), in Python ints.  P. Hall (1936, "The
    Eulerian functions of a group", Q. J. Math.) showed that μ(1, G) is
    the reduced Euler characteristic of the order complex of the proper
    non-trivial subgroups, and so of each complex homotopy equivalent to it.
    """
    below = L.containment
    mu = [1]
    for h in range(1, len(below)):
        mu.append(-sum(mu[k] for k in np.flatnonzero(below[:h, h]).tolist()))
    return mu


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
    the rows that lie inside H give N = N_G(H).  Two elements g and g'
    conjugate H to the same subgroup iff gN = g'N, so the orbit is read
    from the left cosets of N: the smallest element of each coset gN is
    the smallest g giving its conjugate.  Returns ({conjugate mask:
    smallest g with g H g^-1 equal to it}, normalizer mask).  Temporaries
    stay at |G| x max(|H|, |N|) entries.
    """
    n = G.order
    members = mask_to_array(mask, n)
    rows = conjugate_rows(G, members, slice(None))
    in_h = np.zeros(n, dtype=bool)
    in_h[members] = True
    normalizes = in_h[rows].all(axis=1)
    firsts = np.unique(G.mul[:, normalizes].min(axis=1))
    orbit = {array_to_mask(rows[g], n): int(g) for g in firsts}
    return orbit, _bools_to_mask(normalizes)


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

    Three shortcuts keep this tractable: joining with prime-power cyclic
    subgroups suffices (every cyclic subgroup is the join of the
    prime-power cyclics in it); joins only need to extend conjugacy class
    representatives, because a conjugate of a join is the join of the
    conjugates and conjugates of cyclics are cyclic; and a representative
    H needs only one joiner C from each N_G(H)-orbit, because
    <H, nCn^-1> = n<H, C>n^-1 for n in N_G(H).  Every discovered
    subgroup's whole conjugacy orbit is added, so the pruned joins find
    nothing new.  The joiner kept from an orbit is the one listed first:
    the generators of all joiners are conjugated by every element of
    N_G(H) in one fancy-index, mapped to joiner positions, and joiner j is
    kept iff its column's minimum is j.

    Each representative carries a generating set: (g,) for a cyclic
    subgroup <g>, gens(H) + (c,) for a join <H, <c>>, conjugated along
    with the subgroup when the orbit's representative is a conjugate of
    the join found.  Its normalizer is conjugated the same way from the
    one ``conjugates`` returns.  A join is closed by ``_join``: the
    product set HC in an abelian group, a breadth-first search under those
    generators otherwise.
    """
    t0 = time.monotonic()
    n = G.order
    full = (1 << n) - 1
    abelian = G.is_abelian()
    cyclic, cyclic_of = _cyclic_generators(G)
    seeds = sorted(cyclic, key=lambda m: (m.bit_count(), m))
    joiners = [(c, c.bit_count(), cyclic[c], mask_to_array(c, n)) for c in seeds
               if _is_prime_power(c.bit_count())]
    # joiner position of <g> for every element g; other elements map past the end
    position = {c: j for j, (c, *_) in enumerate(joiners)}
    joiner_of = np.array([position.get(m, len(joiners)) for m in cyclic_of])
    joiner_gens = np.array([c_gen for _, _, c_gen, _ in joiners], dtype=np.int64)
    first_in_orbit = np.arange(len(joiners))

    known = {1, full}
    gens_of: dict[int, tuple[int, ...]] = {}
    normalizer_of: dict[int, np.ndarray] = {}

    def admit(mask: int, gens: tuple[int, ...]) -> int:
        """Add a subgroup and its conjugacy orbit, which is not yet known;
        return the orbit rep, whose generating set is recorded in
        ``gens_of`` and whose normalizer's members in ``normalizer_of``."""
        if abelian:
            known.add(mask)
            gens_of[mask] = gens
            return mask
        orbit, normalizer = conjugates(G, mask)
        known.update(orbit)
        rep = min(orbit)
        g = [orbit[rep]]
        gens_of[rep] = tuple(int(x) for x in conjugate_rows(G, list(gens), g)[0])
        normalizer_of[rep] = conjugate_rows(G, mask_to_array(normalizer, n), g)[0]
        return rep

    def check_size():
        if max_subgroups is not None and len(known) > max_subgroups:
            raise BudgetExceeded(
                f"subgroup count exceeded {max_subgroups}", partial=len(known))

    frontier = [admit(c, (cyclic[c],)) for c in seeds if c not in known]
    check_size()
    seen_seeds = set()
    while frontier:
        next_frontier = []
        for h in frontier:
            h_count = h.bit_count()
            h_members = None
            h_joiners = joiners
            if not abelian:
                images = joiner_of[conjugate_rows(G, joiner_gens, normalizer_of[h])]
                kept = np.flatnonzero(images.min(axis=0) == first_in_orbit)
                h_joiners = [joiners[j] for j in kept]
            for c, c_count, c_gen, c_members in h_joiners:
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
                    next_frontier.append(admit(j, gens))
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
