"""
Subgroup complexes and rational homology
========================================

Four homotopy-equivalent complexes attach to a group: the intersection
complex (faces = subgroup sets with common non-trivial intersection), the
order complex of the proper non-trivial subgroup poset, and the nerves of
the atom and coatom coverings.  Reduced rational Betti numbers are
computed exactly, after shrinking each complex by elementary collapses.
"""

from groupdom import (atom_nerve, betti, build_group, coatom_nerve,
                      enumerate_subgroups, gamma_exact, intersection_complex,
                      order_complex, parse_group_spec, topology_report)

# Q8: the intersection complex is a solid tetrahedron, but the order
# complex is a star; both are contractible.
L = enumerate_subgroups(build_group(parse_group_spec("Q8")))
kq = intersection_complex(L)
print("K(Q8) facets:", [[kq.vertex_labels[v] for v in range(4) if f >> v & 1]
                        for f in kq.facets])
# The collapse probe removes the smallest free face first.  topology_report
# starts it from K's strong core, which K collapses to, and still counts the
# collapses of K.
print("collapse:", topology_report(L, gamma_exact(L).gamma).collapse)

# The elementary abelian group of order 8: all four models are homotopy
# equivalent to a wedge of 8 circles.
L = enumerate_subgroups(build_group(parse_group_spec("C2xC2xC2")))
for name, cx in [("intersection", intersection_complex(L)),
                 ("order", order_complex(L)),
                 ("atom nerve", atom_nerve(L)),
                 ("coatom nerve", coatom_nerve(L))]:
    p = betti(cx)
    print(f"C2^3 {name:13s} f-vector {cx.f_vector()}  betti {p.betti}  "
          f"chi {p.euler}")

# Rank 4 doubles the dimension: a wedge of 64 two-spheres.  The
# half-million-face intersection complex is first shrunk by strong
# collapses of its facets to a core of 1,535 faces; the collapse kernel
# (faces numbered in (dimension, mask) order, the free face of least number
# popped first from a heap) then
# reduces the core, coreduction shrinks what is left, breadth first, and
# exact ranks over the rationals finish on the cells that remain.
L = enumerate_subgroups(build_group(parse_group_spec("C2xC2xC2xC2")))
p = betti(intersection_complex(L))
print(f"\nC2^4 intersection complex betti: {p.betti}")

# The two simplex criteria: the coatom nerve is a simplex iff the Frattini
# subgroup is non-trivial; the atom nerve is a simplex iff gamma is 1.
print("\nsimplex criteria:")
for text in ["Q8", "D8", "C2xC2", "S4", "C12"]:
    L = enumerate_subgroups(build_group(parse_group_spec(text)))
    rep = topology_report(L, gamma_exact(L).gamma)
    print(f"  {text:6s} N(M) simplex={rep.simplex_coatom_nerve!s:5s} "
          f"Phi>1={rep.frattini_nontrivial!s:5s} | "
          f"N(A) simplex={rep.simplex_atom_nerve!s:5s} "
          f"gamma=1={rep.gamma_is_one!s:5s} | checks pass: "
          f"{all(rep.checks.values())} | collapses to a point: "
          f"{rep.collapse['collapsed_to_point']}")
