"""The derived and lower central series from all commutators, as
``lattice`` formed them before it took commutators against a generating
set only.

Each term D_(k+1) = [D_k, D_k] is the closure of the |D_k|^2 commutators
x^-1 y^-1 x y with x and y in D_k, and each term g_(k+1) = [g_k, G] the
closure of the |g_k| |G| commutators with x in g_k and y in G.  They are
formed a block of rows of x at a time, so S7's 25.4 M first-term
commutators stay a few MB at once.
"""

import numpy as np

from groupdom.groups import GroupTable, array_to_mask, mask_to_array
from groupdom.lattice import close_subset

ROWS = 256


def _all_commutators(G: GroupTable, a_mask: int, b_mask: int) -> int:
    """Mask of [A, B], the closure of every x^-1 y^-1 x y with x in A and y
    in B."""
    n = G.order
    a, b = mask_to_array(a_mask, n), mask_to_array(b_mask, n)
    seen = np.zeros(n, dtype=bool)
    for start in range(0, len(a), ROWS):
        x = a[start:start + ROWS]
        inverses = G.mul[np.ix_(G.inv[x], G.inv[b])]
        seen[G.mul[inverses, G.mul[np.ix_(x, b)]]] = True
    return close_subset(G, array_to_mask(np.flatnonzero(seen), n))


def _series(G: GroupTable, step) -> list[int]:
    series = [(1 << G.order) - 1]
    while series[-1] != 1:
        nxt = step(series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def derived_series_all_commutators(G: GroupTable) -> list[int]:
    """Masks of G = D_0 > D_1 > ... down to the stable term."""
    return _series(G, lambda d: _all_commutators(G, d, d))


def lower_central_series_all_commutators(G: GroupTable) -> list[int]:
    """Masks of G = g_1 > g_2 > ... down to the stable term."""
    return _series(G, lambda g: _all_commutators(G, g, (1 << G.order) - 1))
