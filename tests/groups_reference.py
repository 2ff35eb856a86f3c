"""The table builders of the groups layer as they were before the tables
were read from the closure's right action and from coset minima, kept as
plain copies so every table can be checked byte for byte against them.

The permutation closure builds one ``Permutation`` per product, keys each
element as an integer in base degree+1 (exact below degree 16) and fills
each row with its own search.  Cyclic and abelian tables are built row by
row from mixed-radix digits.  The quotient walks the cosets gN in element
order and takes the first element of each as its representative.
"""

import numpy as np

from groupdom import groups
from groupdom.errors import CapExceeded
from groupdom.groups import Permutation, mask_to_array


def reference_perm_closure_table(gens, degree, cap):
    """(table, generator indices) of the group generated by ``gens``."""
    ident = Permutation.identity(degree)
    seen = {ident.images: 0}
    elems = [ident.images]
    level = [ident]
    while level:
        nxt = []
        for x in level:
            for g in gens:
                y = x * g
                if y.images not in seen:
                    seen[y.images] = -1
                    nxt.append(y)
        nxt.sort(key=lambda perm: perm.images)
        for y in nxt:
            seen[y.images] = len(elems)
            elems.append(y.images)
            if len(elems) > cap:
                raise CapExceeded(cap, len(elems))
        level = nxt

    n = len(elems)
    arr = np.array(elems, dtype=np.int64)
    powers = (degree + 1) ** np.arange(degree, dtype=np.int64)
    keys = arr @ powers
    sorting = np.argsort(keys)
    sorted_keys = keys[sorting]
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        comp = arr[i][arr]          # (p_i . p_j)(x) = p_i[p_j[x]]
        table[i] = sorting[np.searchsorted(sorted_keys, comp @ powers)]
    return table, [seen[g.images] for g in gens]


def reference_cyclic_table(n):
    i = np.arange(n, dtype=np.int32)
    return (i[:, None] + i[None, :]) % n


def reference_abelian_table(factors):
    n = 1
    for f in factors:
        n *= f
    digits = np.zeros((n, len(factors)), dtype=np.int64)
    rem = np.arange(n)
    for pos in range(len(factors) - 1, -1, -1):
        digits[:, pos] = rem % factors[pos]
        rem //= factors[pos]
    weights = np.ones(len(factors), dtype=np.int64)
    for pos in range(len(factors) - 2, -1, -1):
        weights[pos] = weights[pos + 1] * factors[pos + 1]
    mods = np.array(factors, dtype=np.int64)
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        table[i] = ((digits[i] + digits) % mods) @ weights
    return table


def _abelian_generators(factors):
    weight = 1
    gens = []
    for f in reversed(factors):
        if f > 1:
            gens.append(weight)
        weight *= f
    return sorted(gens) or [0]


def reference_table(spec, cap=groups.DEFAULT_ELEMENT_CAP):
    """(table, generator indices) for a spec of a kind whose builder is
    mirrored here, else None."""
    if spec.kind == "cyclic":
        return reference_cyclic_table(spec.n), [1] if spec.n > 1 else [0]
    if spec.kind == "abelian":
        return reference_abelian_table(spec.factors), _abelian_generators(spec.factors)
    if spec.kind == "symmetric":
        gens = groups._symmetric_generators(spec.degree)
    elif spec.kind == "alternating":
        gens = groups._alternating_generators(spec.degree)
    elif spec.kind == "semidirect":
        gens = groups._semidirect_generators(spec.p, spec.q)
    elif spec.kind == "perm":
        gens = list(spec.generators)
    else:
        return None
    return reference_perm_closure_table(gens, gens[0].degree, cap)


def reference_quotient(G, normal_mask):
    """(quotient table, projection) of G by the normal subgroup
    ``normal_mask``."""
    n = G.order
    members = mask_to_array(normal_mask, n)
    coset_rep = np.full(n, -1, dtype=np.int64)
    reps = []
    for g in range(n):
        if coset_rep[g] == -1:
            coset_rep[G.mul[g, members]] = g
            reps.append(g)
    reps = np.array(sorted(reps))
    rep_to_idx = {int(r): i for i, r in enumerate(reps)}
    projection = np.array([rep_to_idx[int(coset_rep[g])] for g in range(n)], dtype=np.int32)
    q = len(reps)
    mul_q = np.empty((q, q), dtype=np.int32)
    for a in range(q):
        mul_q[a] = projection[G.mul[reps[a], reps]]
    return mul_q, projection
