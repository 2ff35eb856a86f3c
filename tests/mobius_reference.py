"""The Möbius function μ(1, G) of a subgroup lattice by two routes, as
oracles for ``lattice.mobius`` and the Euler characteristics of the
subgroup complexes.

P. Hall (1936, "The Eulerian functions of a group", Q. J. Math.) showed
that μ(1, G) is the reduced Euler characteristic of the order complex of
the proper non-trivial subgroups, so by the homotopy equivalence of the
four models it is that of each of them.  Route A, the recursion, reads
only the subgroup masks; route B reads only the table of marks.  Neither
uses the complexes code or ``lattice.mobius``.
"""

from fractions import Fraction

from groupdom.burnside import BurnsideRing


def mobius_one_to_top(L) -> int:
    """μ(1, G) by μ(1, 1) = 1 and μ(1, H) = -Σ_{K < H} μ(1, K)."""
    subgroups = sorted(L.subgroups, key=lambda s: s.order)
    mu = {}
    for h in subgroups:
        below = [mu[k.mask] for k in subgroups
                 if k.order < h.order and k.mask & ~h.mask == 0]
        mu[h.mask] = -sum(below) if below else 1
    return mu[subgroups[-1].mask]


def mobius_from_marks(L) -> int:
    """μ(1, G) from the table of marks (Gluck 1981, "Idempotent formula for
    the Burnside algebra with applications to the p-subgroup simplicial
    complex", Illinois J. Math.): the primitive idempotent e_G of the
    Burnside algebra has coefficient μ(1, G)/|G| on [G/1].  Its marks are 1
    at G and 0 elsewhere, so its coefficients c solve c·M = δ_G for the
    marks matrix M (classes in (order, mask) order, the last one G's),
    which is lower triangular: back substitution over Fraction, from the
    class of G down to the class of 1."""
    ring = BurnsideRing(L.group, L)
    M = ring.marks_matrix()
    m = len(M)
    c = [Fraction(0)] * m
    for j in range(m - 1, -1, -1):
        rest = sum(c[i] * int(M[i, j]) for i in range(j + 1, m))
        c[j] = (Fraction(int(j == m - 1)) - rest) / int(M[j, j])
    mu = L.group.order * c[0]  # class 0 is that of the trivial subgroup
    assert mu.denominator == 1, mu
    return int(mu)
