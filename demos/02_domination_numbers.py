"""
Intersection graphs and exact domination numbers
================================================

The intersection graph has one vertex per proper non-trivial subgroup and
an edge where two subgroups meet non-trivially.  A set of vertices
dominates exactly when the union of the subgroups contains every minimal
subgroup, so the optimum is a minimum set cover of the atoms by the
coatoms.  The solver returns its certificate: a witness and whether the
search proved it optimal.
"""

from groupdom import (build_group, enumerate_subgroups, gamma_exact,
                      gset_intersection_graph, intersection_graph,
                      parse_group_spec, sum_number, to_dot)

for text in ["Q8", "D8", "C2xC2", "S3", "S4", "A4", "D36", "C3"]:
    G = build_group(parse_group_spec(text))
    L = enumerate_subgroups(G)
    cert = gamma_exact(L)
    print(f"gamma({text}) = {cert.gamma}  witness {list(L.labels(cert.witness))}")

# The convention: no proper non-trivial subgroups means an empty graph and
# domination number aleph-0 (C3 above).

# The certificate: the witness subgroups contain every minimal subgroup,
# and the set-cover search proved that no smaller set does.
G = build_group(parse_group_spec("D8"))
L = enumerate_subgroups(G)
cert = gamma_exact(L)
print(f"\nD8 certificate: gamma {cert.gamma}, witness {list(L.labels(cert.witness))}, "
      f"optimal {cert.optimal}, method {cert.method}")

# Sum numbers: the least number of proper subgroups covering the group.
for text in ["D36", "C2xC2", "C3xC3", "C12"]:
    G = build_group(parse_group_spec(text))
    L = enumerate_subgroups(G)
    print(f"sum_number({text}) = {sum_number(G, L).value}")

# Group actions: the pentagon under the dihedral group of order 10 has
# five isolated point stabilizers.
G = build_group(parse_group_spec("D10"))
L = enumerate_subgroups(G)
refl = next(i for i in L.vertex_set if L.subgroups[i].order == 2)
pentagon = gset_intersection_graph(L, [refl])
print(f"\npentagon action: {pentagon.n} stabilizers, "
      f"{pentagon.edge_count()} edges")

# DOT export for graph viewers.
print("\n" + to_dot(intersection_graph(enumerate_subgroups(
    build_group(parse_group_spec("Q8"))))))
