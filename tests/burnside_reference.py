"""The Burnside product by double cosets, as the reference for
``BurnsideRing.product``, which peels products off the table of marks; and
the pooled family search, as the reference for ``BurnsideRing.index_bound``,
which finds the least-weight family with ``min_set_cover``; and the meets
matrix from every column of the table of marks, as the reference for
``BurnsideRing.meets_matrix``, which reads the atom classes' columns only.

[G/H][G/K] is the sum of [G/(H meet gKg^-1)] over (H,K)-double coset
representatives g (Mackey's decomposition).  This route reads the double
cosets, one conjugation per representative and the lattice's class index,
never the marks.  ``double_cosets`` labels every element with the least
element of its double coset.
"""

from dataclasses import dataclass

import numpy as np

from groupdom.groups import GroupTable, array_to_mask, mask_to_array, rows_to_masks
from groupdom.lattice import Subgroup, conjugate_rows

# pooled_index_bound searches families of up to three classes exhaustively
# among this many classes of least normalizer index
_EXHAUSTIVE_POOL = 40


@dataclass(frozen=True)
class DoubleCosetSet:
    reps: tuple[int, ...]   # minimal-index element of each (H,K)-double coset
    sizes: tuple[int, ...]  # |HgK| per representative


def double_cosets(G: GroupTable, H: Subgroup, K: Subgroup) -> DoubleCosetSet:
    """(H,K)-double cosets, each represented by its smallest element, in
    increasing order.  Every g is labelled with min HgK, the least of
    min hgK over h in H."""
    n = G.order
    coset_min = G.mul[:, mask_to_array(K.mask, n)].min(axis=1)  # min gK
    label = coset_min[G.mul[mask_to_array(H.mask, n), :]].min(axis=0)
    reps, sizes = np.unique(label, return_counts=True)
    return DoubleCosetSet(reps=tuple(reps.tolist()), sizes=tuple(sizes.tolist()))


def reference_product(ring, ca: int, cb: int) -> tuple[tuple[int, int], ...]:
    """Sorted (class index, multiplicity) pairs of [G/H][G/K], for H and K
    the representatives of classes ``ca`` and ``cb``."""
    G = ring.G
    n = G.order
    h = ring.rep_subgroup(ca)
    k = ring.rep_subgroup(cb)
    reps = np.array(double_cosets(G, h, k).reps)
    counts: dict[int, int] = {}
    for row in conjugate_rows(G, mask_to_array(k.mask, n), reps):
        ci = ring.class_index_of_mask(h.mask & array_to_mask(row, n))
        counts[ci] = counts.get(ci, 0) + 1
    return tuple(sorted(counts.items()))


def reference_meets_matrix(ring) -> np.ndarray:
    """[k, h] true iff M[k, j] M[h, j] > 0 for some class j > 0 of the
    table of marks M: K meets some conjugate of H non-trivially."""
    fixed = (ring.marks_matrix()[:, 1:] > 0).astype(np.float32)
    return fixed @ fixed.T > 0


def pooled_index_bound(ring) -> dict:
    """``index_bound`` as it was before the exact search: every family of
    up to three classes among the ``_EXHAUSTIVE_POOL`` classes of least
    weight, plus a weighted greedy cover, the least (weight, sorted
    family) kept.  Its bound is an upper bound on the least weight."""
    L = ring.L
    top = len(L.subgroups) - 1
    vcls = [ci for ci, c in enumerate(ring.classes) if 0 < c.rep < top]
    if not vcls:
        return {"family": [], "bound": None, "gamma1_criterion": False}
    meets = reference_meets_matrix(ring)
    n = ring.G.order
    weight = {ci: n // ring.classes[ci].normalizer.order for ci in vcls}
    cover = dict(zip(vcls, rows_to_masks(meets[np.ix_(vcls, vcls)].T)))
    full = (1 << len(vcls)) - 1

    best: tuple[int, list[int]] | None = None

    def consider(family):
        nonlocal best
        m = 0
        for ci in family:
            m |= cover[ci]
        if m != full:
            return
        w = sum(weight[ci] for ci in family)
        if best is None or (w, sorted(family)) < (best[0], best[1]):
            best = (w, sorted(family))

    pool = sorted(vcls, key=lambda ci: (weight[ci], ci))[:_EXHAUSTIVE_POOL]
    for i, a in enumerate(pool):
        consider([a])
        for j in range(i + 1, len(pool)):
            consider([a, pool[j]])
            for k in range(j + 1, len(pool)):
                consider([a, pool[j], pool[k]])

    # weighted greedy over the full class list as a fallback
    uncovered = full
    fam = []
    while uncovered:
        pick = None
        for ci in vcls:
            gain = (cover[ci] & uncovered).bit_count()
            if gain == 0:
                continue
            score = (weight[ci] / gain, weight[ci], ci)
            if pick is None or score < pick[0]:
                pick = (score, ci)
        if pick is None:
            break
        fam.append(pick[1])
        uncovered &= ~cover[pick[1]]
    if not uncovered:
        consider(fam)

    gamma1 = any(len(ring.classes[ci].members) == 1 and cover[ci] == full
                 for ci in vcls)
    if best is None:
        return {"family": [], "bound": None, "gamma1_criterion": gamma1}
    return {"family": best[1], "bound": best[0], "gamma1_criterion": gamma1}
