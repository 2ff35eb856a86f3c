"""The derived series from all commutators, as ``lattice.derived_series``
formed it before it took commutators against a generating set only.

Each term D_(k+1) is the closure of the |D_k|^2 commutators
x^-1 y^-1 x y with x and y in D_k.  They are formed a block of rows of x at
a time, so S7's 25.4 M first-term commutators stay a few MB at once.
"""

import numpy as np

from groupdom.groups import GroupTable, array_to_mask, mask_to_array
from groupdom.lattice import close_subset

ROWS = 256


def derived_series_all_commutators(G: GroupTable) -> list[int]:
    """Masks of G = D_0 > D_1 > ... down to the stable term."""
    n = G.order
    series = [(1 << n) - 1]
    while series[-1] != 1:
        members = mask_to_array(series[-1], n)
        seen = np.zeros(n, dtype=bool)
        for start in range(0, len(members), ROWS):
            x = members[start:start + ROWS]
            inverses = G.mul[np.ix_(G.inv[x], G.inv[members])]
            seen[G.mul[inverses, G.mul[np.ix_(x, members)]]] = True
        nxt = close_subset(G, array_to_mask(np.flatnonzero(seen), n))
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series
