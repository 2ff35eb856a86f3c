"""Subgroup complexes and their rational homology.

Four constructions: the intersection complex (faces = sets of proper
subgroups with a common non-trivial intersection), the order complex of
the proper non-trivial subgroup poset (faces = chains), and the two
nerves, of the atom-upset covering and the coatom-downset covering.  K
and both nerves are maximal rows of one relation, "atom a lies in H"
(``Lattice.atoms_in``); the order complex reads ``Lattice.containment``.
All four are homotopy equivalent, which the library checks by computing
their reduced rational Betti numbers.

Faces are bitmasks over a local vertex list.  Betti numbers have one
exact path, whose steps each preserve the homotopy type or the homology:
the facets are reduced by strong collapses to a core (Barmak-Minian
2012), which needs no face enumeration: each round deletes at once every
vertex v that a vertex w lying in every facet with v dominates with a
larger (facet count, index), and keeps the maximal rows of the incidence
left, until a round deletes nothing.  If the core has more faces than
the budget, the nerve of the core's facets takes its place (any set of
facets meets in a simplex, so by the nerve lemma that nerve is homotopy
equivalent to the complex, and it has no dominated vertex); if neither
fits, BudgetExceeded is raised.  The faces of the chosen core are shrunk
by elementary collapses, the free face of least number first
(``_collapse``), and what they leave by coreductions, breadth first
(``_coreduce``); the boundary ranks among the cells left, over the
rationals by fraction-free integer elimination, finish the job.  The
Euler characteristic is taken from the face counts of the input when
they fit the budget, and otherwise from those of the chosen core before
its elementary collapses; its agreement with the Betti numbers checks
the reductions.

The per-group report (``topology_report``) computes two of the four
profiles, the intersection complex K's and the order complex's, and reads
the two nerves' off K's.  It enumerates the faces of no whole complex,
only of the cores it ranks: every model's faces are counted from the
lattice (``lattice_f_vectors``), so the Betti numbers check μ(1, G).  It
collapses K's strong core once, for the homology and the collapse probe
(see ``_collapse_probe``).  K strong-collapses onto the coatom nerve, and
K and the atom nerve are the two nerves of one relation (Dowker 1952), so
both nerves take K's Betti numbers.  The order complex's homology comes
from the order complex of Stong's core of the poset (``poset_core``),
which is the strong core of the order complex.
"""

from __future__ import annotations

import heapq
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from math import comb, gcd

import numpy as np

from .domination import Gamma
from .errors import BudgetExceeded
from .groups import inclusion_matrix, mask_to_indices, masks_to_rows, rows_to_masks
from .lattice import Lattice, mobius, mobius_to_top

DEFAULT_FACE_BUDGET = 2_000_000


@dataclass(frozen=True)
class SimplicialComplex:
    vertex_labels: tuple[str, ...]
    facets: tuple[int, ...]  # inclusion-maximal faces as vertex bitmasks

    @staticmethod
    def from_facets(labels, masks) -> "SimplicialComplex":
        masks = list(masks)
        width = max((m.bit_length() for m in masks), default=0)
        return SimplicialComplex(tuple(labels), _maximal_rows(masks_to_rows(masks, width)))

    def strong_core(self) -> "SimplicialComplex":
        """The core left by strong collapses (Barmak-Minian 2012), on its
        own vertices: those its facets use, renumbered in ascending order
        with their labels kept.

        A vertex w other than v dominates v when every facet containing v
        contains w, that is when w lies in common[v], the AND of the
        facets containing v; deleting v (the subcomplex induced on the
        other vertices) is a strong collapse, which preserves the homotopy
        type and is a sequence of elementary collapses.  Each round
        deletes at once every v dominated by a w of larger key (facet
        count, index): w lies in more facets than v, or in the same ones
        with a higher index, so of vertices with equal facet columns the
        highest index stays.  One pass over the facets, their vertices
        placed in ascending key order, gives every common[v], and v goes
        when common[v] has a bit above v's place.  The round is a sequence
        of strong collapses in any order: each v deleted keeps a dominator
        that stays, the w in common[v] of largest key (a u that would
        delete w lies in every facet with w, so in common[v], with a
        larger key), and a domination holds in every induced subcomplex
        that keeps both vertices (a facet of it that contains v is cut
        from a facet that contains v, so it contains w).  The facets left
        are the maximal rows of the incidence on the vertices kept
        (``_maximal_rows``).  Rounds repeat until one deletes nothing; the
        core is unique up to isomorphism.
        """
        labels, facets = self.vertex_labels, self.facets
        while True:
            rows = masks_to_rows(facets, len(labels))
            order = np.argsort(rows.sum(axis=0), kind="stable")
            common: dict[int, int] = {}
            for f in rows_to_masks(rows[:, order]):
                for p in mask_to_indices(f):
                    common[p] = common.get(p, f) & f
            keep = sorted(order[[p for p, c in common.items() if c >> p == 1]].tolist())
            if len(keep) == len(labels):
                return SimplicialComplex(labels, facets)
            facets = _maximal_rows(rows[:, keep])
            labels = tuple(labels[v] for v in keep)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_labels)

    def dim(self) -> int:
        if not self.facets:
            return -1
        return max(f.bit_count() for f in self.facets) - 1

    def is_empty(self) -> bool:
        return not self.facets

    def is_simplex(self) -> bool:
        """One facet containing every vertex."""
        return len(self.facets) == 1 and self.facets[0].bit_count() == self.n_vertices

    def faces(self, budget: int = DEFAULT_FACE_BUDGET) -> set[int]:
        """All non-empty faces.  Raises BudgetExceeded past the budget, at
        once for a facet that alone has more faces than the budget."""
        out: set[int] = set()
        for f in self.facets:
            if (1 << f.bit_count()) - 1 > budget:
                raise BudgetExceeded("facet has more faces than the budget",
                                     partial=len(out))
            sub = f
            while True:
                if sub and sub not in out:
                    out.add(sub)
                    if len(out) > budget:
                        raise BudgetExceeded("face budget exceeded", partial=len(out))
                if sub == 0:
                    break
                sub = (sub - 1) & f
        return out

    def f_vector(self, budget: int = DEFAULT_FACE_BUDGET) -> tuple[int, ...]:
        return _f_vector(self.faces(budget))

    def edges(self) -> set[tuple[int, int]]:
        out = set()
        for f in self.facets:
            verts = mask_to_indices(f)
            for i in range(len(verts)):
                for j in range(i + 1, len(verts)):
                    out.add((verts[i], verts[j]))
        return out


@dataclass(frozen=True)
class HomologyProfile:
    betti: tuple[int, ...]  # reduced Betti numbers b0..b_dim
    euler: int              # from face counts
    dim: int
    model: str = ""
    # faces per dimension; None from ``betti`` past the face budget, never
    # in ``topology_report``, which counts them (``lattice_f_vectors``)
    f_vector: tuple[int, ...] | None = None
    # the model whose Betti numbers these are, when not computed on this
    # complex (``_read_off``)
    betti_from: str | None = None

    def reduced(self) -> tuple[int, ...]:
        """Betti vector with trailing zeros stripped, for comparisons."""
        b = list(self.betti)
        while b and b[-1] == 0:
            b.pop()
        return tuple(b)


# ---------------------------------------------------------------------------
# Complex constructions
# ---------------------------------------------------------------------------


def _maximal_rows(rows: np.ndarray) -> tuple[int, ...]:
    """The inclusion-maximal distinct non-empty rows of a bool incidence,
    as masks in (size, mask) order: the facets of the complex spanned by
    the rows.  In that order a row lies in no earlier row, so one
    ``inclusion_matrix`` finds those that lie in no row but themselves."""
    masks = sorted(set(rows_to_masks(rows)) - {0}, key=lambda m: (m.bit_count(), m))
    inside = inclusion_matrix(masks_to_rows(masks, rows.shape[1])).sum(axis=1)
    return tuple(m for m, n in zip(masks, inside.tolist()) if n == 1)


def intersection_complex(L: Lattice, vertices: tuple[int, ...] | None = None) -> SimplicialComplex:
    """Faces are sets of proper non-trivial subgroups with non-trivial
    common intersection; facets are indexed by atoms (a common
    intersection always contains some atom): the maximal atom up-sets."""
    verts = tuple(vertices) if vertices is not None else L.vertex_set
    return SimplicialComplex(L.labels(verts), _maximal_rows(L.atoms_in(verts).T))


def lattice_f_vectors(L: Lattice) -> dict[str, tuple[int, ...]]:
    """Faces per dimension of the four models, counted from the lattice
    without enumerating a face.  The order complex's are the chains of
    proper non-trivial subgroups (``_chain_counts``).

    A set of k+1 vertices of K is a face unless its intersection is
    trivial.  The (k+1)-sets whose vertices all contain E number
    C(u(E), k+1), where u(E) counts the proper non-trivial subgroups
    containing E; Möbius inversion over the lattice counts those whose
    intersection is exactly 1 as Σ_E μ(1, E)·C(u(E), k+1), so
    f_k = -Σ_{1<E<G} μ(1, E)·C(u(E), k+1).  The coatom nerve's count is
    the same with c(E), the number of coatoms containing E, in place of
    u(E).  Dually (Rota 1964, the crosscut complex), a set of atoms is a
    face of the atom nerve unless its join is G, and inversion from the
    top gives f_k = -Σ_{H<G} μ(H, G)·C(a(H), k+1), where a(H) counts the
    atoms in H.  Every count is positive on the proper non-trivial
    subgroups, so each alternating sum is 1 + μ(1, G) when G is not
    trivial, as μ(1, ·) and μ(·, G) sum to 0 over the lattice.  The
    largest count is taken at an atom (u, c) or a coatom (a), whose μ is
    -1, so the counts stop at the dimension.
    """
    mu, mu_top = mobius(L), mobius_to_top(L)
    top = len(mu) - 1
    inc = L.containment
    return {
        "intersection": _counted_f_vector(mu[1:], inc[1:, 1:top].sum(axis=1).tolist()),
        "coatom_nerve": _counted_f_vector(mu[1:], inc[1:, list(L.coatoms)].sum(axis=1).tolist()),
        "atom_nerve": _counted_f_vector(mu_top[:top],
                                        inc[list(L.atoms), :top].sum(axis=0).tolist()),
        "order": _chain_counts(inc[1:top, 1:top]),
    }


def _chain_counts(order: np.ndarray) -> tuple[int, ...]:
    """Chains of k+1 elements, k = 0, 1, ..., of the partial order whose
    bool matrix ``order`` has [u, w] iff u <= w: Σ N_k, with N_0 = 1 and
    N_{k+1} = N_k·S, S the order less its diagonal.  N_k·S sums distinct
    entries of N_k, so its int64 ``einsum`` (which casts ``order`` in its
    buffer, no copy) is exact while Σ N_k < 2^63; past that, OverflowError."""
    counts, chains = [], np.ones(len(order), dtype=np.int64)
    while chains.any():
        counts.append(sum(chains.tolist()))
        if counts[-1] >> 63:
            raise OverflowError("chain counts past 2^63")
        chains = np.einsum("u,uw->w", chains, order, dtype=np.int64) - chains
    return tuple(counts)


def _counted_f_vector(mu: list[int], counts: list[int]) -> tuple[int, ...]:
    """f_k = -Σ_E mu[E]·C(counts[E], k+1), for k up to the largest count
    whose coefficient is not zero (``lattice_f_vectors``)."""
    terms = [(m, c) for m, c in zip(mu, counts) if m and c]
    width = max((c for _, c in terms), default=0)
    return tuple(-sum(m * comb(c, k + 1) for m, c in terms) for k in range(width))


def _covers(L: Lattice, verts) -> tuple[np.ndarray, np.ndarray]:
    """Strict containment S among the lattice indices ``verts`` and its
    covers: w covers u iff S[u, w] and no vertex lies strictly between,
    which one matrix product finds, as (S S)[u, w] counts those vertices."""
    strict = L.containment[np.ix_(verts, verts)] & ~np.eye(len(verts), dtype=bool)
    as_float = strict.astype(np.float32)  # exact counts below 2^24 vertices
    return strict, strict & ((as_float @ as_float) == 0)


def poset_core(L: Lattice) -> tuple[int, ...]:
    """Stong's core of the poset of proper non-trivial subgroups, as
    lattice indices: the poset left when no vertex is a beat point, one
    with exactly one upper cover or exactly one lower cover.

    Removing a beat point is a strong collapse of the order complex, and
    the order complex of a poset without beat points has no dominated
    vertex (Barmak-Minian 2012), so ``order_complex(L, poset_core(L))`` is
    the strong core of ``order_complex(L)`` (Stong 1966: the core is
    unique up to isomorphism).  Each round scans the beat points in
    ascending order, removes each one that is not protected, and protects
    its unique covers.  This is valid in the order of the scan: a beat
    point x with unique upper cover y keeps y as its only upper cover
    while vertices other than y go, and if y went earlier in the round, y
    went as a beat point with unique upper cover y' (had its unique lower
    cover been x, x would be protected), which y protected, so y' is then
    x's only upper cover; dually for lower covers.  Rounds repeat until
    one removes nothing."""
    alive = np.array(L.vertex_set, dtype=np.intp)
    while True:
        _, covers = _covers(L, alive)
        up, down = covers.sum(axis=1), covers.sum(axis=0)
        keep = np.ones(len(alive), dtype=bool)
        protected = np.zeros(len(alive), dtype=bool)
        for v in np.flatnonzero((up == 1) | (down == 1)).tolist():
            if protected[v]:
                continue
            keep[v] = False
            if up[v] == 1:
                protected |= covers[v]
            if down[v] == 1:
                protected |= covers[:, v]
        if keep.all():
            return tuple(alive.tolist())
        alive = alive[keep]


def order_complex(L: Lattice, vertices: tuple[int, ...] | None = None) -> SimplicialComplex:
    """Facets are the maximal chains of the chosen subposet (default: all
    proper non-trivial subgroups); BudgetExceeded past
    ``DEFAULT_FACE_BUDGET`` of them.  Maximal chains are the paths of
    covers (``_covers``) from a minimal vertex to a maximal one."""
    verts = tuple(vertices) if vertices is not None else L.vertex_set
    strict, cover_matrix = _covers(L, verts)
    covers = [np.flatnonzero(row).tolist() for row in cover_matrix]
    facets = []
    stack = [(1 << v, v) for v in np.flatnonzero(~strict.any(axis=0)).tolist()]
    while stack:
        chain_mask, last = stack.pop()
        nxt = covers[last]
        if not nxt:
            facets.append(chain_mask)
            if len(facets) > DEFAULT_FACE_BUDGET:
                raise BudgetExceeded("maximal chain budget exceeded", partial=len(facets))
            continue
        stack.extend((chain_mask | (1 << w), w) for w in nxt)
    # saturated chains from a minimal to a maximal element are maximal and
    # distinct: only from_facets' order is needed, not its maximality test
    return SimplicialComplex(L.labels(verts),
                             tuple(sorted(facets, key=lambda m: (m.bit_count(), m))))


def nerve(cover_sets: list[int], labels: tuple[str, ...] | None = None) -> SimplicialComplex:
    """Nerve of a covering given as bitmasks over an arbitrary point set.

    J is a face iff the members indexed by J have a common point, so the
    facets are the inclusion-maximal witness sets {i : point in C_i}, the
    maximal rows of the point-by-member incidence.
    """
    labels = tuple(f"C{i}" for i in range(len(cover_sets))) if labels is None else labels
    width = max((c.bit_length() for c in cover_sets), default=0)
    return SimplicialComplex(tuple(labels), _maximal_rows(masks_to_rows(cover_sets, width).T))


def atom_nerve(L: Lattice) -> SimplicialComplex:
    """Nerve of the covering of the proper non-trivial subgroups by atom
    up-sets: its facets are the maximal atom sets of vertices, and every
    vertex lies in a coatom, so they are the maximal atom sets of coatoms."""
    labels = tuple(f"A{L.subgroups[a].order}_{a}" for a in L.atoms)
    return SimplicialComplex(labels, _maximal_rows(L.atoms_in(L.coatoms)))


def coatom_nerve(L: Lattice) -> SimplicialComplex:
    """Nerve of the covering by coatom down-sets: its facets are the
    maximal coatom sets above vertices, and every vertex contains an
    atom, so they are the maximal coatom sets above atoms."""
    labels = tuple(f"M{L.subgroups[c].order}_{c}" for c in L.coatoms)
    return SimplicialComplex(labels, _maximal_rows(L.atoms_in(L.coatoms).T))


# ---------------------------------------------------------------------------
# Collapses
# ---------------------------------------------------------------------------


_BITS_SET = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _collapse(faces) -> list[int]:
    """The collapse kernel: elementary collapses on ``faces`` (closed under
    taking non-empty subfaces, else ValueError), the free face of least
    number first, until none is free; returns the faces left, in ascending
    (dimension, mask) order.

    Each face has a fixed-width byte key, its vertex count and then its
    mask in big-endian bytes, so byte order of the keys is (dimension,
    mask) order and a face's number is its key's position in the sorted
    keys.  Boundaries, the numbers of the codimension-1 faces with the
    lowest removed vertex first, lie end to end in one flat array.  They
    are built one vertex v at a time, in ascending order, from one scan
    per byte column split by bit: the keys of the faces containing v,
    with v cleared and the count lowered by one, are searched in the
    sorted keys.  Per number the kernel keeps the count of
    live cofaces and the xor of their numbers (the coface itself when the
    count is 1: the face is then free, and removing the pair preserves the
    homotopy type).  A removed face gets count -1.  The coface g of a free
    face f is maximal (a coface of g would give f a second coface), so the
    live faces stay closed under taking subfaces and every boundary face
    of f and g but f is live: a dead face's count only falls, so
    ``count != 1`` skips stale entries and ``count >= 0`` marks the faces
    left.  Free faces wait in a heap.
    """
    if not faces:
        return []
    n, nb = len(faces), (max(faces).bit_length() + 7) // 8
    rows = np.empty((n, nb + 1), dtype=np.uint8)
    rows[:, 1:] = np.frombuffer(b"".join([f.to_bytes(nb, "big") for f in faces]),
                                dtype=np.uint8).reshape(n, nb)
    size = _BITS_SET[rows[:, 1:]].sum(axis=1)
    if size.max() > 255:  # such a face has more subfaces than memory holds
        raise ValueError("faces are not closed under taking subfaces")
    rows[:, 0] = size
    keys = np.sort(rows.view(f"S{nb + 1}").ravel())  # the numbering
    rows = keys.view(np.uint8).reshape(n, nb + 1)
    size = rows[:, 0].astype(np.int64)
    size[size < 2] = 0  # a vertex has no boundary
    start = np.zeros(n + 1, dtype=np.int64)  # boundary of i: start[i]:start[i+1]
    np.cumsum(size, out=start[1:])
    flat = np.empty(int(start[-1]), dtype=np.int32)
    fill = start[:-1].copy()  # where each face's next boundary face goes
    count = np.zeros(n, dtype=np.int32)
    cx = np.zeros(n, dtype=np.int32)
    lo = int(np.searchsorted(rows[:, 0], 2))  # the first face of two or more vertices
    for col in range(nb, 0, -1):  # vertices in ascending order: low bytes first
        in_col = np.flatnonzero(rows[lo:, col]) + lo
        byte = rows[in_col, col]
        for bit in (1, 2, 4, 8, 16, 32, 64, 128):
            with_v = in_col[(byte & bit) != 0]
            if not len(with_v):
                continue
            sub = rows[with_v]
            sub[:, 0] -= 1
            sub[:, col] ^= bit
            query = sub.view(keys.dtype).ravel()
            j = np.searchsorted(keys, query)
            if not np.array_equal(keys[np.minimum(j, n - 1)], query):
                raise ValueError("faces are not closed under taking subfaces")
            flat[fill[with_v]] = j
            fill[with_v] += 1
            # clearing v in distinct faces gives distinct faces: j has no repeats
            count[j] += 1
            cx[j] ^= with_v.astype(np.int32)
    del size, fill
    start, flat = array("q", start.tobytes()), array("i", flat.tobytes())
    count, cx = count.tolist(), cx.tolist()
    free = [i for i in range(n) if count[i] == 1]  # ascending: already a heap
    while free:
        f = heapq.heappop(free)
        if count[f] != 1:
            continue
        g = cx[f]
        count[f] = count[g] = -1
        for r in (g, f):
            for s in flat[start[r]:start[r + 1]]:
                c = count[s] = count[s] - 1
                cx[s] ^= r
                if c == 1:
                    heapq.heappush(free, s)
    rest = rows[[i for i in range(n) if count[i] >= 0], 1:].tobytes()
    return [int.from_bytes(rest[k:k + nb], "big") for k in range(0, len(rest), nb)]


def _collapse_probe(n_faces: int, rest: list[int]) -> dict:
    """The collapse probe's block for a complex K of ``n_faces`` faces
    that collapses to the faces ``rest`` (``_collapse`` of K's faces or of
    its strong core's, on any vertex numbering).

    Deleting a dominated vertex is a sequence of elementary collapses
    (Barmak-Minian 2012), and the core is the subcomplex that K induces on
    the vertices left, so K collapses to the core and the kernel then
    collapses the core to ``rest``.  Each collapse removes two faces, so
    every collapse sequence from K to those faces has (|K| - |rest|) / 2
    steps: ``steps`` counts the collapses of K, not only those of the
    core."""
    removed = n_faces - len(rest)
    if removed % 2:
        raise AssertionError("a collapse sequence removes faces in pairs")
    return {"collapsed_to_point": len(rest) == 1, "steps": removed // 2,
            "remaining_faces": len(rest)}


# ---------------------------------------------------------------------------
# Exact homology
# ---------------------------------------------------------------------------


def _exact_pivots(columns: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Column reduction over the rationals of a matrix given by sparse
    integer columns; returns the reduced columns by pivot row, their
    lowest row.

    Fraction-free elimination: a column whose lowest row holds a pivot is
    replaced by a*col - b*pivot, with a and b the two entries of that row
    divided by their gcd, and then divided by the gcd of its entries.
    Scaling by non-zero integers does not change the rank over Q.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        cur = {r: v for r, v in col.items() if v}
        while cur:
            r = min(cur)
            pivot = pivots.get(r)
            if pivot is None:
                pivots[r] = cur
                break
            d = gcd(pivot[r], cur[r])
            a, b = pivot[r] // d, cur[r] // d
            if a != 1:
                cur = {pr: a * v for pr, v in cur.items()}
            for pr, pv in pivot.items():
                nv = cur.get(pr, 0) - b * pv
                if nv:
                    cur[pr] = nv
                else:
                    del cur[pr]
            d = gcd(*cur.values())
            if d > 1:
                cur = {pr: v // d for pr, v in cur.items()}
    return pivots


def _f_vector(faces) -> tuple[int, ...]:
    """Faces per dimension, 0 up to the largest face."""
    counts = Counter(map(int.bit_count, faces))  # faces per vertex count
    return tuple(counts[k] for k in range(1, max(counts, default=0) + 1))


def _coreduce(faces) -> tuple[list[list[dict[int, int]]], int]:
    """Coreduction (Mrozek-Batko 2009) of the complex spanned by ``faces``
    (closed under taking non-empty subfaces): returns, per dimension, the
    boundary columns of the cells left, restricted to the cells left with
    sign (-1)^position in the full face, and the number of vertices
    removed after the first, one per connected component past the first.

    In the chain complex augmented by the empty face, whose homology is
    the reduced homology, a pair (a, b) in which b is the only live face
    of a has incidence ±1: removing it keeps the homology over Z, and
    every other cell's boundary is its boundary restricted to the cells
    left.  The least vertex goes first, with the empty face; then, breadth
    first from the cofaces of the cells removed, every such pair.  A live
    vertex w keeps every coface: a pair that takes a cell containing w has
    a containing w, and an a of three or more vertices has two faces
    containing w, live by induction, so a is an edge and b is w itself.
    So when the queue runs dry the neighbours of a live vertex are live
    (an edge to a dead one would have been queued) and its component is
    untouched: a direct summand with b_0 = 1, which removing the vertex
    starts as the first vertex did.  Cells that lose every live face stay,
    as cycles.  The collapse kernel's smallest-first order would leave
    far more cells than breadth first (of the faces the collapse leaves of
    A7's order core, 60,734 against 3,960).
    """
    faces = sorted(faces, key=lambda f: (f.bit_count(), f))
    number = {f: i for i, f in enumerate(faces)}
    boundary = [[number[f ^ (1 << v)] for v in mask_to_indices(f)] if f & (f - 1) else []
                for f in faces]
    cofaces: list[list[int]] = [[] for _ in faces]
    for g, bd in enumerate(boundary):
        for s in bd:
            cofaces[s].append(g)
    n_faces = [len(bd) for bd in boundary]  # live faces per cell
    live, queue = [True] * len(faces), deque()

    def remove(r):
        live[r] = False
        for s in cofaces[r]:
            n_faces[s] -= 1
            if n_faces[s] == 1:
                queue.append(s)

    restarts = -1
    for v in (v for v, f in enumerate(faces) if f.bit_count() == 1):
        if not live[v]:
            continue
        restarts += 1
        remove(v)
        while queue:
            a = queue.popleft()
            if live[a] and n_faces[a] == 1:
                remove(a)
                remove(next(b for b in boundary[a] if live[b]))
    columns: list[list[dict[int, int]]] = [[] for _ in range(faces[-1].bit_count())]
    for g in (g for g, alive in enumerate(live) if alive):
        columns[faces[g].bit_count() - 1].append(
            {s: -1 if i % 2 else 1 for i, s in enumerate(boundary[g]) if live[s]})
    return columns, restarts


def _reduced_betti(rest: list[int], top_dim: int) -> tuple[int, ...]:
    """Reduced Betti numbers b_0..b_top_dim of the complex spanned by
    ``rest``, the faces that the collapse kernel left (``_collapse``),
    which is homotopy equivalent to a complex of dimension ``top_dim``:
    the cells that coreduction leaves (``_coreduce``) less the ranks of
    the boundary maps among them, by ``_exact_pivots``, and one more in
    b_0 per component past the first."""
    columns, restarts = _coreduce(rest)
    columns += [[] for _ in range(top_dim + 2 - len(columns))]
    ranks = [len(_exact_pivots(c)) for c in columns[:top_dim + 2]]
    b = [len(columns[k]) - ranks[k] - ranks[k + 1] for k in range(top_dim + 1)]
    b[0] += restarts
    return tuple(b)


def _faces_within(complex_: SimplicialComplex, budget: int) -> set[int] | None:
    """The faces of the complex, or None when they exceed the budget."""
    try:
        return complex_.faces(budget)
    except BudgetExceeded:
        return None


def betti(complex_: SimplicialComplex, face_budget: int = DEFAULT_FACE_BUDGET,
          model: str = "") -> HomologyProfile:
    """Reduced rational Betti numbers and Euler characteristic.

    The homology is computed on the complex's strong-collapse core
    (``SimplicialComplex.strong_core``), or, when the core has more faces
    than the budget, on the nerve of the core's facets, which is homotopy
    equivalent to it and is its own strong core; BudgetExceeded is raised
    when neither fits.  The faces used are reduced by the collapse kernel
    and coreduction before the ranks (``_reduced_betti``).  The dimension
    comes from the facets.  The Euler characteristic and the f-vector come
    from the face counts of the complex itself when they fit the budget;
    otherwise the f-vector is None and the Euler characteristic comes from
    the face counts of the core used.  Agreement of the Euler
    characteristic with the alternating Betti sum is asserted.
    """
    faces = _faces_within(complex_, face_budget)
    return _profile(complex_, None if faces is None else _f_vector(faces),
                    face_budget, model)[0]


def _profile(complex_: SimplicialComplex, f_vector: tuple[int, ...] | None,
             budget: int, model: str, core: SimplicialComplex | None = None
             ) -> tuple[HomologyProfile, list[int]]:
    """``betti`` of a complex whose f-vector (None past the budget) is
    given, and the faces that the collapse kernel leaves of its homology
    faces: those of the strong core (``core`` when given), or, past the
    budget, those of the nerve of the core's facets.  That nerve needs no
    core of its own: its facets are the core's vertex columns, the sets
    of facets containing a vertex, distinct and maximal as no vertex of
    the core is dominated, and a facet F of the core is dominated in the
    nerve only if every vertex of F lies in another facet, which would
    contain F.  The Euler characteristic past the budget comes from the
    homology faces, not from what the kernel leaves: from those its check
    against the Betti numbers would hold by construction."""
    if core is None:
        core = complex_.strong_core()
    used = _faces_within(core, budget)
    if used is None:
        used = nerve(list(core.facets)).faces(budget)
    rest = _collapse(used)
    dim = complex_.dim()
    b = _reduced_betti(rest, dim) if dim >= 0 else ()
    return _checked_profile(b, f_vector or _f_vector(used), dim, model=model,
                            f_vector=f_vector), rest


def _checked_profile(b: tuple, counts: tuple, dim: int, **fields) -> HomologyProfile:
    """The profile of a complex of dimension ``dim`` with reduced Betti
    numbers ``b``; its Euler characteristic, from the faces per dimension
    ``counts``, must equal the alternating Betti sum unless it is empty."""
    euler = sum((-1) ** k * c for k, c in enumerate(counts))
    if dim >= 0 and euler != 1 + sum((-1) ** k * bk for k, bk in enumerate(b)):
        raise AssertionError("Euler characteristic disagrees with Betti numbers")
    return HomologyProfile(betti=b, euler=euler, dim=dim, **fields)


def _read_off(source: HomologyProfile | None, f_vector: tuple[int, ...],
              model: str) -> HomologyProfile | None:
    """The profile of a complex with faces per dimension ``f_vector``,
    homotopy equivalent to the one ``source`` profiles (None when
    ``source`` is): ``source``'s Betti numbers cut or padded with zeros to
    this complex's dimension, the length of ``f_vector`` less one (the
    entries cut off must be zero), checked by ``_checked_profile``."""
    if source is None:
        return None
    dim = len(f_vector) - 1
    if any(source.betti[dim + 1:]):
        raise AssertionError("homology above the dimension of a homotopy equivalent complex")
    b = (source.betti + (0,) * dim)[:dim + 1]
    return _checked_profile(b, f_vector, dim, model=model, f_vector=f_vector,
                            betti_from=source.model)


# ---------------------------------------------------------------------------
# Per-group topology report
# ---------------------------------------------------------------------------


@dataclass
class TopologyReport:
    group: str
    complexes: dict         # model name -> SimplicialComplex
    profiles: dict          # model name -> HomologyProfile or None
    simplex_atom_nerve: bool
    simplex_coatom_nerve: bool
    frattini_nontrivial: bool
    gamma_is_one: bool
    profiles_agree: bool | None
    betti_vanish: bool | None   # for gamma = 1 groups, on K's profile
    # greedy collapse probe of the intersection complex K, run on K's strong
    # core (``_collapse_probe``; ``steps`` counts collapses of K), None
    # when K has no faces or more than ``DEFAULT_FACE_BUDGET``
    collapse: dict | None
    checks: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "profiles": {k: (None if p is None else {
                "betti": list(p.betti), "euler": p.euler, "dim": p.dim,
                **({"betti_from": p.betti_from} if p.betti_from else {})})
                for k, p in sorted(self.profiles.items())},
            "simplex_atom_nerve": self.simplex_atom_nerve,
            "simplex_coatom_nerve": self.simplex_coatom_nerve,
            "frattini_nontrivial": self.frattini_nontrivial,
            "gamma_is_one": self.gamma_is_one,
            "profiles_agree": self.profiles_agree,
            "betti_vanish": self.betti_vanish,
            "collapse": self.collapse,
            "checks": {k: v for k, v in sorted(self.checks.items())},
        }


def topology_report(L: Lattice, gamma: Gamma) -> TopologyReport:
    """Build the four complexes, compare Betti profiles, and evaluate the
    simplex criteria: the coatom nerve is a simplex iff the Frattini
    subgroup (the intersection of the coatoms) is non-trivial, and the atom
    nerve is a simplex iff gamma is 1.  The report keeps the complexes it
    built; BudgetExceeded propagates when the order complex's maximal
    chains exceed ``DEFAULT_FACE_BUDGET``.  A profile is None when neither
    its complex's strong core nor the nerve of the core's facets fits the
    face budget.

    Two profiles are computed: the intersection complex K's and the order
    complex's, the last on the order complex of ``poset_core(L)``.  Every
    f-vector, the order complex's too, is counted from the lattice
    (``lattice_f_vectors``), and the nerves' Betti numbers are read off
    K's (``_read_off``).  A vertex H of K that is not a coatom is dominated
    by any coatom M above it (every atom up-set containing H contains M),
    in every induced subcomplex that keeps M, and K induced on the coatoms
    is the coatom nerve, so K strong-collapses onto it.  K and the atom
    nerve are the two nerves of the relation "atom a lies in the proper
    subgroup H", so they are homotopy equivalent (Dowker 1952), and the
    strong core of the atom nerve is the nerve of the facets of K's strong
    core (Barmak-Minian 2012): the atom nerve would fit the budget exactly
    when K does, and its profile is None with K's.  ``profiles_agree``
    compares the two computed profiles when neither is None, which checks
    that K and the order complex are homotopy equivalent."""
    complexes = {name: build(L) for name, build in (
        ("atom_nerve", atom_nerve), ("coatom_nerve", coatom_nerve),
        ("intersection", intersection_complex), ("order", order_complex))}
    profiles: dict[str, HomologyProfile | None] = dict.fromkeys(complexes)
    collapse = None
    f_vectors = lattice_f_vectors(L)  # no whole complex's faces are enumerated
    try:
        # one collapse of the core's faces for the profile and the probe
        f_vector = f_vectors["intersection"]
        profiles["intersection"], rest = _profile(complexes["intersection"], f_vector,
                                                  DEFAULT_FACE_BUDGET, "intersection")
        n_faces = sum(f_vector)
        if 0 < n_faces <= DEFAULT_FACE_BUDGET:  # the core's faces, a subset of K's
            collapse = _collapse_probe(n_faces, rest)
    except BudgetExceeded:
        pass
    for name in ("atom_nerve", "coatom_nerve"):
        profiles[name] = _read_off(profiles["intersection"], f_vectors[name], name)
    try:
        profiles["order"] = _profile(complexes["order"], f_vectors["order"], DEFAULT_FACE_BUDGET,
                                     "order", core=order_complex(L, poset_core(L)))[0]
    except BudgetExceeded:
        pass

    k, order = profiles["intersection"], profiles["order"]
    agree = None if k is None or order is None else k.reduced() == order.reduced()

    gamma_is_one = gamma == Gamma.of(1)
    frattini_nontrivial = L.frattini.bit_count() > 1

    betti_vanish: bool | None = None
    if gamma_is_one and k is not None:
        betti_vanish = all(bk == 0 for bk in k.betti)

    na, nm = complexes["atom_nerve"], complexes["coatom_nerve"]
    checks = {
        "coatom_nerve_simplex_iff_frattini": nm.is_simplex() == frattini_nontrivial,
        "atom_nerve_simplex_iff_gamma_one": na.is_simplex() == gamma_is_one,
    }
    return TopologyReport(
        group=L.group.label, complexes=complexes, profiles=profiles,
        simplex_atom_nerve=na.is_simplex(), simplex_coatom_nerve=nm.is_simplex(),
        frattini_nontrivial=frattini_nontrivial, gamma_is_one=gamma_is_one,
        profiles_agree=agree, betti_vanish=betti_vanish, collapse=collapse,
        checks=checks)
