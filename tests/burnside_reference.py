"""The Burnside product by double cosets, as the reference for
``BurnsideRing.product``, which peels products off the table of marks.

[G/H][G/K] is the sum of [G/(H meet gKg^-1)] over (H,K)-double coset
representatives g (Mackey's decomposition).  This route reads the double
cosets, one conjugation per representative and the lattice's class index,
never the marks.
"""

import numpy as np

from groupdom.burnside import double_cosets
from groupdom.groups import array_to_mask, mask_to_array
from groupdom.lattice import conjugate_rows


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
