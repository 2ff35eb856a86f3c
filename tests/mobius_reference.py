"""The Möbius function μ(1, G) of a subgroup lattice, as an oracle for the
Euler characteristics of the subgroup complexes.

P. Hall (1936, "The Eulerian functions of a group", Q. J. Math.) showed
that μ(1, G) is the reduced Euler characteristic of the order complex of
the proper non-trivial subgroups, so by the homotopy equivalence of the
four models it is that of each of them.  The recursion below reads only
the subgroup masks, and none of the complexes code.
"""


def mobius_one_to_top(L) -> int:
    """μ(1, G) by μ(1, 1) = 1 and μ(1, H) = -Σ_{K < H} μ(1, K)."""
    subgroups = sorted(L.subgroups, key=lambda s: s.order)
    mu = {}
    for h in subgroups:
        below = [mu[k.mask] for k in subgroups
                 if k.order < h.order and k.mask & ~h.mask == 0]
        mu[h.mask] = -sum(below) if below else 1
    return mu[subgroups[-1].mask]
