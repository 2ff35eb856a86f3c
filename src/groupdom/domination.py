"""Exact domination numbers via set cover.

A set of proper subgroups dominates the intersection graph exactly when
their union contains every minimal subgroup, and an optimal dominating set
can be taken inside the maximal subgroups.  That turns domination of the
full graph into a minimum set cover with the atoms as universe and the
coatoms as candidate sets.  Restricted graphs get no such shortcut and are
solved at the graph level (universe = vertices, sets = closed
neighborhoods).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial, reduce
from operator import or_

import numpy as np

from .graphs import IntersectionGraph
from .groups import mask_to_array, mask_to_indices, masks_to_rows, rows_to_masks
from .lattice import Lattice, _membership, conjugate_rows


@dataclass(frozen=True)
class Gamma:
    """A domination number: a positive integer or aleph-0 (empty graph)."""

    finite: int | None  # None encodes aleph-0

    @staticmethod
    def of(k: int) -> "Gamma":
        return Gamma(finite=int(k))

    @property
    def is_aleph0(self) -> bool:
        return self.finite is None

    def __le__(self, other: "Gamma") -> bool:
        if other.finite is None:
            return True
        if self.finite is None:
            return False
        return self.finite <= other.finite

    def __lt__(self, other: "Gamma") -> bool:
        return self <= other and self != other

    def __str__(self) -> str:
        return "aleph0" if self.finite is None else str(self.finite)

    def to_json(self):
        return "aleph0" if self.finite is None else self.finite


ALEPH0 = Gamma(finite=None)


@dataclass(frozen=True)
class DominationCertificate:
    gamma: Gamma
    witness: tuple[int, ...]  # lattice indices (setcover) or graph positions
    optimal: bool
    method: str


@dataclass(frozen=True)
class CoverResult:
    value: Gamma
    witness: tuple[int, ...]
    optimal: bool
    bracket: tuple[int, int] | None = None  # (lower, upper) when not optimal


class _Instance:
    """A weighted set-cover instance reduced by point dominance.

    A point's mask is the bitmask of the sets containing it.  Of the
    points with equal masks only the one of smallest index is kept, and a
    point whose mask strictly contains another's is dropped: every set
    covering the other point covers it too.  The kept points are
    renumbered by (number of sets, index), so the lowest uncovered bit is
    the uncovered point in the fewest sets, smallest index on ties.
    ``covers[a]`` is the mask of kept point ``a`` and ``sets[si]`` the
    kept points in set ``si``.  ``lightest[a]`` is the least weight of a
    set containing kept point ``a``, and ``least`` the least weight of any
    set; with unit weights both are 1.
    """

    def __init__(self, universe_size: int, sets: list[int], weights: list[int]):
        full = (1 << universe_size) - 1
        covers = rows_to_masks(masks_to_rows([s & full for s in sets], universe_size).T)
        if 0 in covers:
            raise ValueError("sets do not cover the universe")
        first: dict[int, int] = {}
        for a, c in enumerate(covers):
            first.setdefault(c, a)
        minimal: list[int] = []
        for c in sorted(first, key=int.bit_count):
            if not any(m & ~c == 0 for m in minimal):
                minimal.append(c)
        minimal.sort(key=lambda c: (c.bit_count(), first[c]))
        self.covers = minimal
        rows = masks_to_rows(minimal, len(sets))  # rows[a, si]: is kept point a in set si
        self.sets = rows_to_masks(rows.T)
        self.full = (1 << len(minimal)) - 1
        # near[a]: the kept points sharing a set with point a
        self.near = [reduce(or_, (self.sets[si] for si in mask_to_indices(c))) for c in minimal]
        # the defaults and ``initial`` serve the empty instance, no sets
        top = max(weights, default=1)
        self.lightest = np.where(rows, weights, top).min(axis=1, initial=top).tolist()
        self.least = min(weights, default=1)

    def lower_bound(self, uncovered: int, banned: int, limit: int) -> int:
        """A lower bound on the weight needed to cover ``uncovered`` without
        the sets in ``banned``: the larger of a greedy packing of points no
        two of which share an unbanned set, each needing its own set of at
        least its ``lightest`` weight, and the coverage bound, the least k
        such that the k largest |S & U| sum to at least |U| (over all sets,
        banned or not, so k is at least ceil(|U| / max_S |S & U|)), times
        the ``least`` set weight.  The packing takes the uncovered
        points in index order and keeps a point when none of its unbanned
        sets is used yet.  A kept point none of whose sets is banned drops
        its ``near`` points from the rest at once: each shares an unbanned
        set with it, so the packing would visit and refuse it, and no such
        point has all its sets banned.  A visited point whose sets are all
        banned makes the cover impossible: ``limit + 1``.  Returns as soon
        as the bound is known to exceed ``limit``, the packing first, so
        such a node skips the sort.  Callers read only whether the value
        exceeds ``limit``, except at the root, where nothing is banned and
        ``limit`` is at least the bound, so the value is the full bound."""
        if not uncovered:
            return 0
        used = 0
        packing = 0
        rest = uncovered
        while rest and packing <= limit:
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            c = self.covers[a] & ~banned
            if not c:
                return limit + 1
            if c & used == 0:
                packing += self.lightest[a]
                used |= c
                if c == self.covers[a]:
                    rest &= ~self.near[a]
        if packing > limit:
            return packing
        need = uncovered.bit_count()
        coverage = 0
        for size in sorted(map(int.bit_count, map(uncovered.__and__, self.sets)), reverse=True):
            coverage += self.least
            need -= size
            if need <= 0 or coverage > limit:
                break
        return max(coverage, packing)


def set_cover_lower_bound(universe_size: int, sets: list[int]) -> int:
    """Lower bound on the size of any cover of the whole universe: the
    bound ``min_set_cover`` prunes its root with."""
    inst = _Instance(universe_size, sets, [1] * len(sets))
    return inst.lower_bound(inst.full, 0, universe_size)


def coatom_action(L: Lattice) -> np.ndarray:
    """The conjugation action of G on its coatoms, one permutation of
    coatom positions (indices into ``L.coatoms``) per row, identity first.

    Each coatom is conjugated by G's generators through ``conjugate_rows``;
    the generators' permutations are then closed by levels, each level
    composed with every generator at once.  The rows are the distinct
    permutations G induces, so their number is |G| over the kernel of the
    action (360 of A6's 52 coatoms, 720 of S6's 53)."""
    G, n, m = L.group, L.group.order, len(L.coatoms)
    position = {L.subgroups[c].mask: i for i, c in enumerate(L.coatoms)}
    gens = list(G.generators)
    conjugated = [_membership(conjugate_rows(G, mask_to_array(L.subgroups[c].mask, n), gens), n)[1]
                  for c in L.coatoms]
    steps = np.array([[position[mask] for mask in row] for row in conjugated],
                     dtype=np.min_scalar_type(m)).T
    # steps[s, i]: coatom i conjugated by gens[s]; rows maps each
    # permutation's bytes to it, in the order found
    identity = np.arange(m, dtype=steps.dtype)
    rows = {identity.tobytes(): identity}
    level = [identity]
    while level:
        images = steps[:, np.array(level)].reshape(-1, m)
        level = [rows.setdefault(p.tobytes(), p) for p in images if p.tobytes() not in rows]
    return np.array(list(rows.values()))


def _set_bits(perms: np.ndarray) -> np.ndarray:
    """``bits[p, s] = 2**perms[p, s]`` as uint64: the bit of set p(s) in
    a one-word mask of at most 64 sets.  Both shift operands are uint64,
    so the result is uint64 under every NumPy promotion rule; NumPy 1's
    value-based casting makes ``np.uint64(1)`` shifted by a uint8 array a
    uint8 array, which loses every bit from 8 up."""
    return np.uint64(1) << perms.astype(np.uint64)


def min_set_cover(universe_size: int, sets: list[int],
                  deadline: float | None = None,
                  symmetry: Callable[[], np.ndarray] | None = None,
                  start: list[int] | None = None,
                  weights: list[int] | None = None) -> tuple[list[int], bool]:
    """Minimum-weight set cover by branch and bound.

    ``sets`` are bitmasks over a universe of ``universe_size`` points.
    ``weights``, if given, holds one positive int per set, and a cover's
    weight is the sum of its sets' weights; the default, unit weights,
    makes the weight the number of sets.  Anything else raises
    ``ValueError``.  ``deadline`` is a ``time.monotonic()`` instant, checked
    at every search node.  ``symmetry``, if given, returns an array whose
    rows are a group of permutations of the set indices, each induced by a
    permutation of the points that maps the instance, weights included, to
    itself; it is called at most once.  ``start``, if given, holds distinct
    indices of sets that cover the universe; anything else raises
    ``ValueError``.  Returns (chosen indices, optimal); ``optimal`` is False
    only when the deadline passed, and the chosen sets are then the best
    cover found.

    The incumbent starts as the greedy cover of the whole universe,
    ``class_cover`` on single sets, whatever the weights.  A ``start``
    lighter than the greedy cover replaces it at its own weight h, so the
    search looks only for covers lighter than h; when there is none,
    ``sorted(start)`` comes back as optimal.
    The search then runs over the points kept by the dominance reduction of
    ``_Instance``; a cover of the kept points covers every point.  A node
    with uncovered set U branches on the uncovered point lying in the
    fewest sets (smallest index on ties), trying those sets in index
    order.  Branching is by exclusion: a node carries a mask B of banned
    sets, its children take the point's sets s1 < s2 < ... not in B, and
    child i also bans s1 .. s(i-1), so each combination of sets is
    searched once.  Let ``allowed`` = incumbent weight - 1 - weight chosen
    so far, the most weight a strictly lighter cover may still add.  A node
    is pruned when ``_Instance.lower_bound(U, B)`` exceeds ``allowed`` (the
    larger of the weighted k-largest coverage bound and the weighted
    packing bound, or infeasible when a point it visits has only banned
    sets), or when the failure memo holds ``fail[U] >= allowed``.  A
    subtree searched to the end without improving the incumbent and before
    the deadline shows that U has no cover of weight ``allowed``, and
    records ``fail[U] = allowed``.

    Why the memo is keyed on U alone, though the subtree only tried covers
    avoiding B: let node N have chosen sets X and ban B, and suppose U has
    a cover C of weight at most ``allowed`` that uses a set of B.  Then
    T = X + C covers everything and is strictly lighter than the
    incumbent.  Its canonical path takes, at each node, the first set of T
    containing the branching point; that path avoids every ban along it,
    and leaves N's path for an earlier sibling, so it was searched before
    N.  Only valid prunes cut it, so the incumbent at N would weigh at most
    T, a contradiction.  So at N a cover avoiding B exists exactly when any
    cover exists, and a failed subtree proves the unrestricted claim.

    With ``symmetry``, a second failure memo is keyed on the chosen sets X
    up to the symmetry: the least of the bitmasks p(X) over the rows p, as
    one 64-bit word, so it is used only for at most 64 sets.  Why it is
    sound: what a failed subtree proves, "U has no cover of weight
    ``allowed``", is a claim about X alone, "X has no completion of weight
    ``allowed``", since X determines U and a cover of U's kept points
    covers every point.  An automorphism g of the instance maps the
    completions of X to those of gX, weights kept, so the claim holds for X
    exactly when it holds for gX.  Equal keys p(X) = q(Y) make
    Y = q^-1 p(X) such an image, so a failure of X refutes the subtree of
    any Y with that key chosen later with no more weight allowed; and
    since the rows form a group, every image of X has X's key.  The rows
    are built the first time a node survives the memo on U and the bound,
    and only such nodes look up their key, so a search settled at the root
    never pays for the action.

    Which cover is returned.  Without a ``start``, the one a plain
    depth-first search returns: a dropped point is never the branching
    point, since whenever it is uncovered so is a kept point in fewer
    sets, or in as many with a smaller index; and it never decides whether
    a node is a full cover.  So the search tree is the same up to
    exclusion.  By the argument above the first optimum's path never uses
    a banned set, so exclusion does not cut it.  Every prune, by either
    bound, infeasibility or either memo, removes only subtrees with no
    cover lighter than the incumbent, and the incumbent changes only on a
    strict improvement, so the first optimum in search order is still the
    one returned.  That holds for any starting incumbent weight above the
    optimum: no earlier cover is as light as the first optimum, so until
    it is met the incumbent stays above the optimum and no prune cuts its
    path.  A ``start`` lighter than the greedy cover is such a weight
    unless it is optimal, and then the same first optimum comes back.  An
    optimal ``start`` admits no strictly lighter cover, so the incumbent
    never changes and the start itself is returned.  The memo arguments
    above hold for any incumbent, so they cover both cases.
    """
    if weights is None:
        weights = [1] * len(sets)
    elif len(weights) != len(sets) or not all(isinstance(w, int) and w > 0 for w in weights):
        raise ValueError("weights must be one positive int per set")
    inst = _Instance(universe_size, sets, weights)
    covers, reduced = inst.covers, inst.sets
    if len(sets) > 64:
        symmetry = None

    full = (1 << universe_size) - 1
    # cut to the universe, so that a bit outside it cannot change a pick
    incumbent = class_cover([s & full for s in sets], [[i] for i in range(len(sets))])
    best = sum(weights[si] for si in incumbent)
    if start is not None:
        if len(set(start)) < len(start) or not all(0 <= si < len(sets) for si in start):
            raise ValueError("start repeats a set or names one out of range")
        if reduce(or_, (sets[si] for si in start), 0) & full != full:
            raise ValueError("start does not cover the universe")
        start_weight = sum(weights[si] for si in start)
        if start_weight < best:
            incumbent, best = list(start), start_weight
    optimal = True
    fail: dict[int, int] = {}
    orbit_fail: dict[int, int] = {}
    bits = None  # bits[p, s]: the bit of set p(s), once the action is built

    def branch(uncovered: int, banned: int, chosen: list[int], spent: int):
        nonlocal incumbent, best, optimal, bits
        if uncovered == 0:
            if spent < best:
                best = spent
                incumbent = list(chosen)
            return
        if not optimal or (deadline is not None and time.monotonic() >= deadline):
            optimal = False
            return
        allowed = best - 1 - spent
        if (fail.get(uncovered, -1) >= allowed
                or inst.lower_bound(uncovered, banned, allowed) > allowed):
            return
        key = None
        if symmetry is not None:
            if bits is None:
                bits = _set_bits(symmetry())
            key = int(bits[:, chosen].sum(axis=1).min())
            if orbit_fail.get(key, -1) >= allowed:
                return
        best_before = best
        low = uncovered & -uncovered
        m = covers[low.bit_length() - 1] & ~banned
        while m:
            low = m & -m
            si = low.bit_length() - 1
            m ^= low
            chosen.append(si)
            branch(uncovered & ~reduced[si], banned, chosen, spent + weights[si])
            chosen.pop()
            banned |= low
        if best == best_before and optimal:
            fail[uncovered] = allowed
            if key is not None:
                orbit_fail[key] = allowed

    branch(inst.full, 0, [], 0)
    # ``branch`` holds itself through its closure; breaking that cycle
    # frees the memos and the action on return, not at a later full
    # garbage collection
    del branch
    return sorted(incumbent), optimal


def gamma_exact(L: Lattice, deadline: float | None = None) -> DominationCertificate:
    """Exact domination number of the full intersection graph.

    Returns aleph-0 when there are no proper non-trivial subgroups.  The
    witness holds lattice indices of maximal subgroups forming an optimal
    dominating set; past ``deadline`` it is the best found and
    ``optimal`` is False.
    """
    if not L.vertex_set:
        return DominationCertificate(gamma=ALEPH0, witness=(), optimal=True, method="setcover")
    sets = rows_to_masks(L.atoms_in(L.coatoms))
    chosen, optimal = min_set_cover(len(L.atoms), sets, deadline=deadline)
    witness = tuple(sorted(L.coatoms[i] for i in chosen))
    return DominationCertificate(gamma=Gamma.of(len(chosen)), witness=witness,
                                 optimal=optimal, method="setcover")


def gamma_graph(graph: IntersectionGraph) -> DominationCertificate:
    """Exact domination number of an arbitrary intersection graph, solved
    as set cover by closed neighborhoods.  Witness holds graph positions."""
    n = graph.n
    if n == 0:
        return DominationCertificate(gamma=ALEPH0, witness=(), optimal=True, method="setcover")
    sets = rows_to_masks(graph.adjacency | np.eye(n, dtype=bool))
    chosen, optimal = min_set_cover(n, sets)
    return DominationCertificate(gamma=Gamma.of(len(chosen)), witness=tuple(chosen),
                                 optimal=optimal, method="setcover")


def class_cover(sets: list[int], classes: list[list[int]]) -> list[int]:
    """A cover made of whole classes of sets, as sorted set indices.
    ``classes`` partitions the indices of ``sets``; classes are taken
    greedily by the number of newly covered points per member, the first
    class on ties, until the union of ``sets`` is covered.  ``sum_number``
    passes the conjugacy classes of maximal subgroups: on A6 that is one
    class of A5 (6) and the class of 3^2:4 (10), Cohn's 16, where the
    greedy cover by single subgroups takes 18."""
    unions = [reduce(or_, (sets[i] for i in members)) for members in classes]
    uncovered = reduce(or_, sets, 0)
    chosen: list[int] = []
    while uncovered:
        best, best_gain = 0, -1
        for ci, members in enumerate(classes):
            gain = (unions[ci] & uncovered).bit_count()
            # gain / |members| > best_gain / |classes[best]|, in integers
            if gain * len(classes[best]) > best_gain * len(members):
                best, best_gain = ci, gain
        chosen += classes[best]
        uncovered &= ~unions[best]
    return sorted(chosen)


def sum_number(G, L: Lattice, deadline: float | None = None) -> CoverResult:
    """Least number of proper subgroups whose union is the whole group;
    aleph-0 for cyclic groups.  Solved exactly over the maximal subgroups,
    the search of a non-abelian G started from ``class_cover``: a class
    cover shorter than the greedy cover is the incumbent, so the search
    only has to prove it optimal (A6's 16), and is then the witness;
    otherwise the witness is the first optimum in depth-first order.  Past
    ``deadline`` the result carries a (lower, upper) bracket."""
    if G.elem_order.max() == G.order:  # cyclic; S3's exponent is 6 = |S3| too
        return CoverResult(value=ALEPH0, witness=(), optimal=True)
    n = G.order
    sets = [L.subgroups[c].mask >> 1 for c in L.coatoms]  # drop the identity bit
    # conjugation fixes the identity and permutes the coatoms; on an abelian
    # G it is trivial, every class is one coatom and the class cover is the
    # greedy cover
    symmetry = start = None
    if not G.is_abelian():
        classes: dict[int, list[int]] = {}
        for i, c in enumerate(L.coatoms):
            classes.setdefault(L.class_of[c], []).append(i)
        symmetry, start = partial(coatom_action, L), class_cover(sets, list(classes.values()))
    chosen, optimal = min_set_cover(n - 1, sets, deadline=deadline, symmetry=symmetry,
                                    start=start)
    witness = tuple(sorted(L.coatoms[i] for i in chosen))
    bracket = None
    if not optimal:
        bracket = (set_cover_lower_bound(n - 1, sets), len(chosen))
    return CoverResult(value=Gamma.of(len(chosen)), witness=witness,
                       optimal=optimal, bracket=bracket)
