"""
Burnside ring arithmetic
========================

Transitive G-sets are coset spaces G/H indexed by subgroup conjugacy
classes.  The table of marks (fixed-point counts) embeds the ring into a
product of integers, and products are computed through it.
"""

import numpy as np

from groupdom import (BurnsideRing, build_group, enumerate_subgroups,
                      gamma_exact, parse_group_spec)

G = build_group(parse_group_spec("S3"))
L = enumerate_subgroups(G)
ring = BurnsideRing(G, L)
labels = ring.labels()
print("S3 subgroup classes:", labels)

# The 9 pairs of points of the 3-point set G/K2 split into one regular
# orbit and the diagonal: a product peeled off the table of marks.
dec = ring.product(1, 1)
print(f"[G/{labels[1]}][G/{labels[1]}] =",
      " + ".join(f"{m}*[G/{labels[c]}]" for c, m in dec.coeffs),
      f"({ring.decomposition_points(dec)} points)")

print("\nall products [G/H][G/K]:")
for a in range(len(labels)):
    for b in range(a, len(labels)):
        dec = ring.product(a, b)
        pretty = " + ".join(f"{m}*[G/{labels[c]}]" for c, m in dec.coeffs)
        print(f"  [G/{labels[a]}][G/{labels[b]}] = {pretty}")

M = ring.marks_matrix()
print("\ntable of marks (rows: G-sets, columns: acting classes):")
print(M)

# marks are multiplicative: the mark vector of a product is the pointwise
# product of mark vectors
a, b = 1, 2
dec = ring.product(a, b)
assert np.array_equal(ring.mark_vector_of(dec), M[a] * M[b])
print("\nmark multiplicativity holds for", labels[a], "*", labels[b])

# The ring also bounds the domination number: a family of classes meeting
# every vertex class gives gamma <= sum of normalizer indices.
for text in ["Q8", "D8", "S3", "A4"]:
    G = build_group(parse_group_spec(text))
    L = enumerate_subgroups(G)
    ring = BurnsideRing(G, L)
    ib = ring.index_bound()
    print(f"{text:4s} index bound {ib['bound']}  gamma {gamma_exact(L).gamma}  "
          f"gamma1 criterion {ib['gamma1_criterion']}")
