"""The Burnside product by double cosets, as the reference for
``BurnsideRing.product``, which peels products off the table of marks.

[G/H][G/K] is the sum of [G/(H meet gKg^-1)] over (H,K)-double coset
representatives g (Mackey's decomposition).  This route reads the double
cosets, one conjugation per representative and the lattice's class index,
never the marks.  ``double_cosets`` labels every element with the least
element of its double coset.
"""

from dataclasses import dataclass

import numpy as np

from groupdom.groups import GroupTable, array_to_mask, mask_to_array
from groupdom.lattice import Subgroup, conjugate_rows


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
