"""Subgroup lattice enumeration and subgroup-level invariants.

Subgroups are bitmasks over element indices (bit 0, the identity, is always
set).  Subgroups are built by cyclic extension (Neubüser 1960; Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 2005, section 3): a
subgroup K with a normal subgroup H of prime index p is
H u Hg u ... u Hg^(p-1) for any g in K outside H, so from the trivial
subgroup up, the subgroups of each order are read off the conjugacy class
representatives of smaller ones as unions of cosets, with no closure
search.  That reaches every solvable subgroup.  The perfect subgroups all
lie in the solvable residual G^(∞); when G is not solvable, a
join-with-cyclic closure inside it finds them, the joins of each frontier
round closed together by one breadth-first search under each subgroup's
carried generators, and cyclic extension continues from there.
Conjugacy orbits and normalizers come from one vectorised kernel,
``conjugates``, which conjugates H by its left-coset representatives
only; the enumeration calls it once per class and records the classes on
the lattice.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .errors import BudgetExceeded
from .groups import (GroupTable, _bools_to_mask, _pack, array_to_mask, inclusion_matrix,
                     is_prime, left_cosets, mask_to_array, masks_to_rows, rows_to_masks)


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
        closed = np.zeros(n, dtype=bool)
        closed[G.mul[np.ix_(members, members)]] = True
        prod = np.flatnonzero(closed)
        if len(prod) == size:
            return _bools_to_mask(closed)
        members = prod
        size = len(members)


def generated_subgroup(G: GroupTable, seed_mask: int) -> Subgroup:
    if seed_mask == 0:
        raise ValueError("seed must be non-empty")
    return Subgroup.from_mask(close_subset(G, seed_mask))


def _cyclic_generators(G: GroupTable) -> tuple[dict[int, int], list[int]]:
    """Mask of every non-trivial cyclic subgroup -> its smallest generator,
    and the mask of <g> for every element g (1 for the identity).  The
    generators of <g> are the g^k with k prime to |g|, so each cyclic
    subgroup is walked once, from its smallest generator."""
    n = G.order
    out: dict[int, int] = {}
    of_element = [1] * n
    for g in range(1, n):
        if of_element[g] != 1:
            continue
        powers = [0, g]
        while (x := int(G.mul[powers[-1], g])) != 0:
            powers.append(x)
        m = array_to_mask(powers, n)
        out[m] = g
        for k, x in enumerate(powers):
            if gcd(k, len(powers)) == 1:
                of_element[x] = m
    return out, of_element


class Lattice:
    """The complete subgroup lattice of a group.

    ``subgroups`` is sorted by (order, mask): index 0 is the trivial
    subgroup and the last index is the whole group.  ``orbits`` maps the
    representative (smallest mask) of each conjugacy class of subgroups of
    a non-abelian group to (its orbit, the normalizer mask of the
    representative), as ``enumerate_subgroups`` records them; the orbit
    maps each conjugate m to an element conjugating one fixed member onto
    m.  The facts its readers share are read-only cached properties, each
    computed once: ``classes``, ``class_of``, ``containment`` and
    ``derived_series``, which the enumeration of a non-solvable G hands over.
    """

    def __init__(self, G: GroupTable, masks, orbits=None):
        self.group = G
        self.subgroups = [Subgroup.from_mask(m) for m in sorted(masks, key=lambda m: (m.bit_count(), m))]
        self.index = {s.mask: i for i, s in enumerate(self.subgroups)}
        self.orbits = orbits

    def __len__(self) -> int:
        return len(self.subgroups)

    def labels(self, indices) -> tuple[str, ...]:
        """``H{order}_{index}`` for each lattice index: the one subgroup
        label of every document."""
        return tuple(f"H{self.subgroups[i].order}_{i}" for i in indices)

    def leq(self, i: int, j: int) -> bool:
        """Is subgroup i contained in subgroup j?"""
        return self.subgroups[i].mask & ~self.subgroups[j].mask == 0

    @cached_property
    def atoms(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.subgroups) if is_prime(s.order))

    @cached_property
    def coatoms(self) -> tuple[int, ...]:
        """Maximal subgroups, by order layers from the top: a proper
        subgroup is maximal iff no maximal subgroup above it contains it.
        Subgroups of one order cannot contain each other, and by Lagrange a
        layer of order o lies only in subgroups whose order o divides, so
        each layer is tested at once against those maximal subgroups."""
        orders = [s.order for s in self.subgroups]
        packed = _pack([s.mask for s in self.subgroups], self.group.order)
        out: list[int] = []
        end = len(orders) - 1
        while end > 0:
            o = orders[end - 1]
            start = bisect_left(orders, o)
            rows = np.arange(start, end)
            for c in out:
                if orders[c] % o == 0:
                    rows = rows[(packed[rows] & ~packed[c]).any(axis=1)]
            out.extend(rows.tolist())
            end = start
        return tuple(sorted(out))

    @cached_property
    def frattini(self) -> int:
        """Mask of the Frattini subgroup, the intersection of the maximal
        subgroups (G itself when there are none)."""
        mask = (1 << self.group.order) - 1
        for i in self.coatoms:
            mask &= self.subgroups[i].mask
        return mask

    @cached_property
    def vertex_set(self) -> tuple[int, ...]:
        top = len(self.subgroups) - 1
        return tuple(i for i in range(len(self.subgroups)) if 0 < i < top)

    @cached_property
    def containment(self) -> np.ndarray:
        """Boolean matrix, [i, j] true iff subgroup i lies in subgroup j:
        iff |H_i & H_j| = |H_i|.  Upper triangular, since a subgroup's
        subgroups come before it in (order, mask) order: one
        ``inclusion_matrix`` of the membership rows."""
        out = inclusion_matrix(masks_to_rows([s.mask for s in self.subgroups], self.group.order))
        out.flags.writeable = False
        return out

    def atoms_in(self, indices) -> np.ndarray:
        """Boolean matrix, [k, a] true iff the a-th atom lies in subgroup
        ``indices[k]``.  An atom has prime order, so any of its non-identity
        elements generates it: it lies in H iff its least one does, and the
        matrix is one column gather on the membership rows of ``indices``."""
        least = [((m := self.subgroups[a].mask & ~1) & -m).bit_length() - 1 for a in self.atoms]
        rows = masks_to_rows([self.subgroups[i].mask for i in indices], self.group.order)
        return rows[:, least]

    @cached_property
    def derived_series(self) -> tuple[int, ...]:
        """G's ``derived_series``."""
        return tuple(derived_series(self.group))

    @cached_property
    def classes(self) -> tuple[SubgroupClass, ...]:
        """Conjugacy classes of subgroups, sorted by (order, rep mask): for
        a non-abelian G read from ``orbits``, and for an abelian G one
        class per subgroup, with normalizer G."""
        if self.group.is_abelian():
            full = self.subgroups[-1]
            return tuple(SubgroupClass(rep=i, members=(i,), normalizer=full)
                         for i in range(len(self.subgroups)))
        # subgroups are sorted by (order, mask), so sorting classes by their
        # smallest member's index sorts them by (order, rep mask)
        return tuple(sorted((SubgroupClass(rep=self.index[rep],
                                           members=tuple(sorted(self.index[m] for m in orbit)),
                                           normalizer=Subgroup.from_mask(norm))
                             for rep, (orbit, norm) in self.orbits.items()),
                            key=lambda c: c.rep))

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        """The index in ``classes`` of each subgroup's class, by lattice index."""
        of = {j: ci for ci, c in enumerate(self.classes) for j in c.members}
        return tuple(of[j] for j in range(len(self.subgroups)))


def mobius(L: Lattice) -> list[int]:
    """μ(1, H) of the subgroup lattice for every subgroup H, by index.

    μ(1, 1) = 1 and μ(1, H) = -Σ_{K<H} μ(1, K), over exact containment
    (``Lattice.containment``), in Python ints.  P. Hall (1936, "The
    Eulerian functions of a group", Q. J. Math.) showed that μ(1, G) is
    the reduced Euler characteristic of the order complex of the proper
    non-trivial subgroups, and so of each complex homotopy equivalent to it.
    """
    return _mobius_from_least(L.containment)


def mobius_to_top(L: Lattice) -> list[int]:
    """μ(H, G) of the subgroup lattice for every subgroup H, by index.

    The recursion of ``mobius`` run from the top, μ(G, G) = 1 and
    μ(H, G) = -Σ_{H<K} μ(K, G): on the transposed containment, with the
    indices reversed so that G comes first."""
    return _mobius_from_least(L.containment[::-1, ::-1].T)[::-1]


def _mobius_from_least(below: np.ndarray) -> list[int]:
    """μ(0, x) for every element x of a poset with least element 0 at index
    0, whose order ``below`` holds ([i, j] true iff i <= j) is upper
    triangular."""
    mu = [1]
    for h in range(1, len(below)):
        mu.append(-sum(mu[k] for k in np.flatnonzero(below[:h, h]).tolist()))
    return mu


def conjugate_rows(G: GroupTable, members: np.ndarray, g) -> np.ndarray:
    """Row i holds g_i h g_i^-1 for each h in ``members``, where ``g`` is an
    index array or a slice of elements: one |g| x |H| fancy-index.  This is
    the library's one conjugation kernel."""
    return G.mul[G.mul[g][:, members], G.inv[g][:, None]]


def conjugates(G: GroupTable, mask: int) -> tuple[dict[int, int], int]:
    """The conjugacy orbit and the normalizer of subgroup ``mask``.

    Every element of a left coset rH conjugates H alike, since
    (rh) H (rh)^-1 = r H r^-1, so only the |G:H| coset representatives r
    of ``left_cosets``, each the least element of its coset, are
    conjugated (Holt, Eick and O'Brien 2005, orbits and stabilizers from
    a transversal).  A representative normalizes H exactly when its whole
    coset does, which gives N = N_G(H) through each element's coset
    minimum.  The elements sending H to one conjugate form a coset gN, a
    union of H-cosets, so the smallest of them is the first
    representative, in ascending order, whose row gives that conjugate.
    Returns ({conjugate mask: smallest g with g H g^-1 equal to it},
    normalizer mask).  That is about |G| |H| + 2 |G| gathers, and the
    membership rows of all representatives are packed at once.
    """
    n = G.order
    members = mask_to_array(mask, n)
    coset_min, reps = left_cosets(G, members)
    rows = conjugate_rows(G, members, reps)
    in_h = np.zeros(n, dtype=bool)
    in_h[members] = True
    normalizes = in_h[rows].all(axis=1)[np.searchsorted(reps, coset_min)]
    orbit: dict[int, int] = {}
    for m, r in zip(_membership(rows, n)[1], reps.tolist()):
        orbit.setdefault(m, r)
    return orbit, _bools_to_mask(normalizes)


def _close_joins(G: GroupTable, joins: list, top: int) -> list[int]:
    """Masks of the joins <H, C>, one per (H members, C members, gens)
    triple of ``joins``, for subgroups H and C of the subgroup ``top``,
    where gens generate H and include a generator of C.

    All joins are closed by one breadth-first search.  Its state is one
    flat membership array of k |G| entries, row r's element x at
    r |G| + x.  Row r starts from H_r and the products H_r C_r, gathered
    at once from member matrices padded with the identity, which every H
    and C contains.  Each step keeps the products not yet present,
    dedupes them by scattering into a fresh flat array and multiplies
    the new elements on the right by their row's generators, padded by
    repetition; so each element of a row is multiplied once per
    generator.  ``top`` is the solvable residual R = G^(∞), which is
    perfect, so a row retires as ``top`` once it passes |R|/5: a proper
    subgroup of R of index k < 5 would map R, by its action on the k
    cosets, onto a transitive perfect subgroup of S_k, and S_k is
    solvable for k <= 4.  The rows that never retire close, and become
    masks at once.
    """
    n = G.order
    k = len(joins)
    fifth = top.bit_count() // 5
    hs, cs, gens = zip(*joins)

    def padded(rows, fill=None):
        """Ragged rows as a matrix, padded with ``fill`` or by repeating
        each row's first entry."""
        lengths = np.array([len(row) for row in rows])
        flat = np.concatenate(rows)
        out = np.empty((k, lengths.max()), dtype=np.intp)
        out[:] = flat[np.cumsum(lengths) - lengths, None] if fill is None else fill
        out[np.arange(out.shape[1]) < lengths[:, None]] = flat
        return out

    offset = np.arange(k) * n
    h_rows = padded(hs, 0)
    gen_rows = padded(gens)
    in_set = np.zeros(k * n, dtype=bool)
    in_set[(h_rows + offset[:, None]).ravel()] = True
    size = np.array([len(h) for h in hs])
    out = [top] * k
    prods = (G.mul[h_rows[:, :, None], padded(cs, 0)[:, None, :]] + offset[:, None, None]).ravel()
    while True:
        novel = prods[~in_set[prods]]
        if novel.size == 0:
            break
        fresh = np.zeros(k * n, dtype=bool)
        fresh[novel] = True
        frontier = fresh.nonzero()[0]
        rows = frontier // n
        size += np.bincount(rows, minlength=k)
        # a subgroup of the perfect top of order greater than |top|/5 is
        # top: such a row retires, and its frontier goes no further
        growing = (size <= fifth)[rows]
        frontier, rows = frontier[growing], rows[growing]
        in_set[frontier] = True
        start = rows * n
        prods = (G.mul[(frontier - start)[:, None], gen_rows[rows]] + start[:, None]).ravel()
    closed = np.flatnonzero(size <= fifth)
    for r, mask in zip(closed.tolist(), rows_to_masks(in_set.reshape(k, n)[closed])):
        out[r] = mask
    return out


def _cyclic_extensions(G: GroupTable, members: np.ndarray, inside: np.ndarray,
                       normal: np.ndarray, gens: np.ndarray, tops: np.ndarray,
                       cosets: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Members of every K = <H, g> in which H is normal of prime index p,
    over class representatives H of one order, one row per covering pair
    H < K.

    Row h of ``inside`` is H's membership, row h of ``normal`` N_G(H)'s
    (``normal`` is None when G is abelian, so every N_G(H) is G), and row
    h of ``members`` lists H's elements.  ``gens`` holds one
    generator g of each cyclic p-subgroup, ``tops`` their p-th powers, and
    row j of ``cosets`` is 1, g, ..., g^(p-1).  When g normalizes H, is not
    in H and g^p is, K is the union of the cosets H g^i for i < p.  Since
    K/H has order p, every element of K outside H whose order is a prime
    power is a p-element, so each K over H is kept once: from the pair
    whose g has the least ``rank`` (its position in ``gens``) outside H.
    """
    size = members.shape[1]
    fits = inside[:, tops] > inside[:, gens]  # g^p in H, g not in H
    if normal is not None:
        fits &= normal[:, gens]
    hs, js = np.nonzero(fits)
    rows = G.mul[members[hs][:, None, :], cosets[js][:, :, None]]
    rows = rows.reshape(len(hs), cosets.shape[1] * size)
    first = rank[rows[:, size:]].min(axis=1)
    return rows[first == js]


def _extension_steps(G: GroupTable, cyclic: dict[int, int]):
    """Per prime p, the smallest generator g of each cyclic p-subgroup, g^p
    and the powers 1, g, ..., g^(p-1) as arrays, and every element's
    position among its prime's generators (n for the other elements)."""
    n = G.order
    steps: dict[int, tuple[list, list, list]] = {}
    for mask, g in cyclic.items():
        factors = prime_factors(mask.bit_count())
        if len(factors) > 1:
            continue
        p = factors[0]
        powers = [0, g]
        while len(powers) <= p:
            powers.append(int(G.mul[powers[-1], g]))
        gens, tops, cosets = steps.setdefault(p, ([], [], []))
        gens.append(g)
        tops.append(powers.pop())
        cosets.append(powers)
    rank = np.full(n, n)
    for p, (gens, tops, cosets) in steps.items():
        rank[gens] = np.arange(len(gens))
        steps[p] = (np.array(gens), np.array(tops), np.array(cosets, dtype=G.mul.dtype))
    return steps, rank


def _membership(rows: np.ndarray, n: int) -> tuple[np.ndarray, list[int]]:
    """Membership rows over n elements of the element index rows ``rows``,
    one bool row each, and their masks, packed at once."""
    found = np.zeros((len(rows), n), dtype=bool)
    found[np.arange(len(rows))[:, None], rows] = True
    return found, rows_to_masks(found)


def _new_class(G: GroupTable, mask: int, known: dict[int, int],
               orbits: dict[int, tuple[dict[int, int], int]]) -> int:
    """Record the conjugacy class of a subgroup not yet in ``known`` and
    return its representative, the smallest mask in the orbit.  The
    representative's normalizer is conjugated from the one ``conjugates``
    returns, so the class costs one call."""
    orbit, normalizer = conjugates(G, mask)
    rep = min(orbit)
    if rep != mask:
        normalizer = array_to_mask(
            conjugate_rows(G, mask_to_array(normalizer, G.order), [orbit[rep]])[0], G.order)
    orbits[rep] = (orbit, normalizer)
    known.update(dict.fromkeys(orbit, rep))
    return rep


def _extend(G: GroupTable, layers: dict[int, list], steps, rank,
            known: dict[int, int], orbits, check) -> bool:
    """Extend class representatives by cyclic extension, layer by layer.

    ``layers`` maps an order to the representatives of that order still to
    be extended: their masks, or for an abelian group (``orbits`` None,
    every subgroup its own class with normalizer G) arrays of their
    membership rows.  Layers are taken in increasing order; each is
    extended by every prime p (``_cyclic_extensions``), and every subgroup
    found that is not in ``known`` enters it with its whole conjugacy
    class, whose representative joins the layer of its order.  ``check``
    runs after each layer.  Returns whether G itself was reached, which is
    the case exactly when G is solvable.
    """
    n = G.order
    reached = False
    normal = None
    while layers:
        size = min(layers)
        reps = layers.pop(size)
        if orbits is None:
            inside = np.concatenate(reps)
        else:
            inside = masks_to_rows(reps, n)
            normal = masks_to_rows([orbits[h][1] for h in reps], n)
        members = np.nonzero(inside)[1].reshape(len(inside), size)
        for p, step in steps.items():
            if n % (size * p):
                continue
            rows = _cyclic_extensions(G, members, inside, normal, *step, rank)
            reached |= size * p == n and len(rows) > 0
            found, masks = _membership(rows, n)
            keep = []
            for r, mask in enumerate(masks):
                if mask in known:
                    continue
                if orbits is None:
                    known[mask] = mask
                    keep.append(r)
                else:
                    layers.setdefault(size * p, []).append(_new_class(G, mask, known, orbits))
            if keep:
                layers.setdefault(size * p, []).append(found[keep])
        check()
    return reached


def _join_closure(G: GroupTable, top: int, cyclic: dict[int, int],
                  cyclic_of: list[int], known: dict[int, int], orbits,
                  check) -> dict[int, list[int]]:
    """Find every subgroup of ``top``, the solvable residual G^(∞) of the
    non-solvable group G, by join-with-cyclic closure from the cyclic
    subgroups inside it; classes not in ``known`` are recorded, and their
    representatives are returned by order.  ``check`` runs after each new
    subgroup and each frontier round's closure.

    Three shortcuts keep this tractable: joining with prime-power cyclic
    subgroups suffices (every cyclic subgroup is the join of the
    prime-power cyclics in it); joins only need to extend conjugacy class
    representatives, because a conjugate of a join is the join of the
    conjugates and conjugates of cyclics are cyclic; and a representative
    H needs only one joiner C from each N_G(H)-orbit, because
    <H, nCn^-1> = n<H, C>n^-1 for n in N_G(H).  Every subgroup reached
    brings its whole conjugacy orbit, so the pruned joins find nothing new.
    The joiner kept from an orbit is the one listed first: the generators
    of all joiners are conjugated by every element of N_G(H) in one
    fancy-index, mapped to joiner positions, and joiner j is kept iff its
    column's minimum is j.

    Each representative carries a generating set: (g,) for a cyclic
    subgroup <g>, gens(H) + (c,) for a join <H, <c>>, conjugated onto the
    representative when the orbit's representative is a conjugate of the
    subgroup reached.  A join is closed by a breadth-first search under
    those generators, unless |HC| already shows it is ``top``: ``top`` is
    perfect, so, as ``_close_joins`` argues, none of its proper subgroups
    has index below 5.  Which subgroups the closure has reached is kept
    apart from ``known``, so its frontier does not depend on what cyclic
    extension found before it.

    The joins of one frontier round are picked first, in order, and
    closed by one ``_close_joins`` call; their results are then admitted
    in that order, so the round finds what joining and admitting one at
    a time would.  Only the ``reached`` test of a seed H | C could see an
    admit of the same round, and it cannot: a group is never the union of
    two proper subgroups, so H | C is a subgroup, and can be reached,
    only when H < C, and then it is the cyclic seed C, reached before the
    first round.  An admit reaches only representatives not yet reached,
    so the generators and normalizers of the round's own representatives
    stay as they were.
    """
    n = G.order
    seeds = sorted((c for c in cyclic if c & ~top == 0), key=lambda m: (m.bit_count(), m))
    joiners = [(c, c.bit_count(), cyclic[c], mask_to_array(c, n)) for c in seeds
               if len(prime_factors(c.bit_count())) == 1]
    # joiner position of <g> for every element g; other elements map past the end
    position = {c: j for j, (c, *_) in enumerate(joiners)}
    joiner_of = np.array([position.get(m, len(joiners)) for m in cyclic_of])
    joiner_gens = np.array([c_gen for _, _, c_gen, _ in joiners], dtype=np.int64)
    first_in_orbit = np.arange(len(joiners))

    new: dict[int, list[int]] = {}
    if top not in known:  # top is normal: its class is itself
        known[top] = top
        orbits[top] = ({top: 0}, (1 << n) - 1)
        new[top.bit_count()] = [top]
    reached = {1, top}
    gens_of: dict[int, tuple[int, ...]] = {}
    normalizer_of: dict[int, np.ndarray] = {}

    def admit(mask: int, gens: tuple[int, ...]) -> int:
        """Reach a subgroup and its conjugacy orbit; return the orbit rep,
        whose generating set is recorded in ``gens_of`` and whose
        normalizer's members in ``normalizer_of``."""
        if mask not in known:
            new.setdefault(mask.bit_count(), []).append(_new_class(G, mask, known, orbits))
        rep = known[mask]
        orbit, normalizer = orbits[rep]
        reached.update(orbit)
        # orbit[m] conjugates one fixed member onto m, so this maps mask onto rep
        g = [G.mul[orbit[rep], G.inv[orbit[mask]]]]
        gens_of[rep] = tuple(int(x) for x in conjugate_rows(G, list(gens), g)[0])
        normalizer_of[rep] = mask_to_array(normalizer, n)
        return rep

    frontier = [admit(c, (cyclic[c],)) for c in seeds if c not in reached]
    check()
    seen_seeds = set()
    fifth = top.bit_count() // 5
    while frontier:
        picked = []  # (gens, whether |HC| already shows the join is top), in order
        joins = []
        for h in frontier:
            h_count = h.bit_count()
            h_members = None
            images = joiner_of[conjugate_rows(G, joiner_gens, normalizer_of[h])]
            kept = np.flatnonzero(images.min(axis=0) == first_in_orbit)
            for c, c_count, c_gen, c_members in (joiners[j] for j in kept):
                if c & ~h == 0:
                    continue
                seed = h | c
                if seed in seen_seeds:
                    continue
                seen_seeds.add(seed)
                if seed in reached:
                    continue
                gens = gens_of[h] + (c_gen,)
                # |<H,C>| >= |HC| = |H||C|/|H&C|, and a subgroup of the
                # perfect top of order greater than |top|/5 is top
                is_top = h_count * c_count // (h & c).bit_count() > fifth
                picked.append((gens, is_top))
                if not is_top:
                    if h_members is None:
                        h_members = mask_to_array(h, n)
                    joins.append((h_members, c_members, gens))
        closed = iter(_close_joins(G, joins, top) if joins else ())
        check()
        frontier = []
        for gens, is_top in picked:
            j = top if is_top else next(closed)
            if j not in reached:
                frontier.append(admit(j, gens))
                check()
    return new


def enumerate_subgroups(G: GroupTable, deadline: float | None = None) -> Lattice:
    """All subgroups of G, with the conjugacy classes of a non-abelian G.

    Cyclic extension from the trivial subgroup (``_extend``) finds every
    solvable subgroup, and reaches G iff G is solvable.  Otherwise every
    perfect subgroup P lies in the solvable residual R = G^(∞), since
    P = P^(k) <= G^(k); ``_join_closure`` finds the subgroups of R, and
    cyclic extension continues from the classes it adds, because every
    subgroup K is reached from the perfect group K^(∞) by normal steps of
    prime index.  Past ``deadline``, a ``time.monotonic()`` instant, this
    raises ``BudgetExceeded`` with the number of subgroups found so far.
    """
    n = G.order
    full = (1 << n) - 1
    known = {1: 1, full: full}  # subgroup mask -> its class representative
    orbits = None if G.is_abelian() else {1: ({1: 0}, full), full: ({full: 0}, full)}

    def check():
        if deadline is not None and time.monotonic() >= deadline:
            raise BudgetExceeded("lattice enumeration ran past the deadline",
                                 partial=len(known))

    cyclic, cyclic_of = _cyclic_generators(G)
    steps, rank = _extension_steps(G, cyclic)
    trivial = [np.eye(1, n, dtype=bool)] if orbits is None else [1]
    series = None
    if not _extend(G, {1: trivial}, steps, rank, known, orbits, check) and n > 1:
        series = derived_series(G)
        new = _join_closure(G, series[-1], cyclic, cyclic_of, known, orbits, check)
        _extend(G, new, steps, rank, known, orbits, check)
    L = Lattice(G, known, orbits)
    if series is not None:  # a cached property takes a value set before its first read
        L.derived_series = tuple(series)
    return L


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


def _commutator_subgroup(G: GroupTable, mask: int, gens: np.ndarray) -> tuple[int, np.ndarray]:
    """The subgroup generated by the commutators [x, s] = x^-1 s^-1 x s for
    x in subgroup ``mask`` and s in ``gens``, and those commutators,
    distinct, without the identity and ascending, as an index array."""
    n = G.order
    x = mask_to_array(mask, n)
    seed = array_to_mask(G.mul[G.mul[np.ix_(G.inv[x], G.inv[gens])], G.mul[np.ix_(x, gens)]], n)
    return close_subset(G, seed), mask_to_array(seed & ~1, n)


def derived_series(G: GroupTable) -> list[int]:
    """Masks of the derived series G = D_0 > D_1 = [D_0, D_0] > ..., down
    to its stable term, which is 1 iff G is solvable.  Its readers take it
    from ``Lattice.derived_series``, which computes it once per group.

    [D, D] is formed as the subgroup H generated by the commutators [x, s]
    for x in D and s in a generating set S of D: ``G.generators`` for D_0,
    and for each later term the distinct commutators that generated it.
    H is normal in D, since [x, s]^y = [xy, s][y, s]^-1, and D/H is
    generated by the images of S, each central, so D/H is abelian and
    [D, D] <= H <= [D, D].  That takes |D| |S| products, never more than
    the |D|^2 of all commutators: 1,440 instead of 518,400 for S6's first
    term."""
    series = [(1 << G.order) - 1]
    gens = np.array(G.generators, dtype=np.intp)
    while series[-1] != 1:
        nxt, gens = _commutator_subgroup(G, series[-1], gens)
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def lower_central_series(G: GroupTable, commutator: int | None = None) -> list[int]:
    """Masks of the lower central series G = g_1 > g_2 = [g_1, G] > ...,
    down to its stable term.  ``commutator`` is g_2 = [G, G] when the
    caller already has it.

    [N, G] is formed as the subgroup K generated by the commutators
    [x, s] for x in N and s in ``G.generators``.  K is normal in G: each
    of its generators h = x^-1 x^s lies in N, so h^s = h [h, s] is a
    product of two of them, and K^s <= K gives K^s = K.  Each xK commutes
    with the image of every generator, so xK is central in G/K and
    [N, G] <= K <= [N, G].  That takes |N| |S| commutators instead of
    |N| |G|: 5,040 instead of 12.7 M for S7's [A7, S7]."""
    gens = np.array(G.generators, dtype=np.intp)
    series = [(1 << G.order) - 1]
    nxt = _commutator_subgroup(G, series[0], gens)[0] if commutator is None else commutator
    while nxt != series[-1]:
        series.append(nxt)
        if nxt == 1:
            break
        nxt = _commutator_subgroup(G, nxt, gens)[0]
    return series


def characteristic_subgroups(G: GroupTable, L: Lattice) -> CharacteristicSubgroups:
    series = L.derived_series
    commutator = series[1] if len(series) > 1 else series[0]  # [G, G]
    atom_mask = 1
    for i in L.atoms:
        atom_mask |= L.subgroups[i].mask
    atom_join = Subgroup.from_mask(close_subset(G, atom_mask))

    frattini = Subgroup.from_mask(L.frattini)

    residual = Subgroup.from_mask(lower_central_series(G, commutator)[-1])
    return CharacteristicSubgroups(
        atom_join=atom_join, frattini=frattini, nilpotent_residual=residual,
        center=Subgroup.from_mask(G.center),
        derived=Subgroup.from_mask(commutator), atom_elements=atom_mask)


def sylow_counts(G: GroupTable, L: Lattice) -> dict[int, int]:
    """Number of Sylow p-subgroups per prime p dividing |G|, from one count
    of the subgroup orders."""
    n = G.order
    per_order = Counter(s.order for s in L.subgroups)
    counts = {}
    for p in prime_factors(n):
        pa = 1
        while n % (pa * p) == 0:
            pa *= p
        counts[p] = per_order[pa]
    return counts


def classify_group(G: GroupTable, L: Lattice) -> GroupClassification:
    n = G.order
    primes = prime_factors(n)
    abelian = G.is_abelian()
    is_p_group = len(primes) == 1
    p = primes[0] if is_p_group else 0

    # nilpotent: every Sylow subgroup is normal, i.e. unique
    nilpotent = all(c == 1 for c in sylow_counts(G, L).values()) if n > 1 else True

    solvable = L.derived_series[-1] == 1

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
    """Conjugacy classes of subgroups, sorted by (order, rep mask): a list
    of ``Lattice.classes``."""
    return list(L.classes)
