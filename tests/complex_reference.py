"""The order complex and the two nerves built by pairwise containment tests
on subgroup masks (``Lattice.leq`` and mask loops), as the reference for
the constructions that read ``Lattice.containment``."""

from groupdom.complexes import SimplicialComplex, nerve


def _labels(L, vertices):
    return tuple(f"H{L.subgroups[i].order}_{i}" for i in vertices)


def _upsets(L, atoms, verts):
    out = []
    for a in atoms:
        am = L.subgroups[a].mask
        m = 0
        for k, v in enumerate(verts):
            if am & ~L.subgroups[v].mask == 0:
                m |= 1 << k
        out.append(m)
    return out


def reference_order_complex(L, vertices=None):
    verts = tuple(vertices) if vertices is not None else L.vertex_set
    pos = {v: k for k, v in enumerate(verts)}
    by_order = sorted(verts, key=lambda v: (L.subgroups[v].order, L.subgroups[v].mask))
    strict_sups = {v: [w for w in by_order
                       if L.subgroups[w].order > L.subgroups[v].order and L.leq(v, w)]
                   for v in verts}
    covers = {v: [w for w in sups if not any(u != w and L.leq(u, w) for u in sups)]
              for v, sups in strict_sups.items()}
    minimal = [v for v in by_order if not any(u != v and L.leq(u, v) for u in verts)]
    facets = []

    def extend(chain_mask, last):
        if not covers[last]:
            facets.append(chain_mask)
        for w in covers[last]:
            extend(chain_mask | (1 << pos[w]), w)

    for v in minimal:
        extend(1 << pos[v], v)
    # saturated chains are maximal and distinct, so sorting is all
    # from_facets would add, at O(F^2) cost
    return SimplicialComplex(_labels(L, verts),
                             tuple(sorted(facets, key=lambda m: (m.bit_count(), m))))


def reference_atom_nerve(L):
    labels = tuple(f"A{L.subgroups[a].order}_{a}" for a in L.atoms)
    return nerve(_upsets(L, L.atoms, L.vertex_set), labels)


def reference_coatom_nerve(L):
    covers = []
    for c in L.coatoms:
        cm = L.subgroups[c].mask
        m = 0
        for k, v in enumerate(L.vertex_set):
            if L.subgroups[v].mask & ~cm == 0:
                m |= 1 << k
        covers.append(m)
    labels = tuple(f"M{L.subgroups[c].order}_{c}" for c in L.coatoms)
    return nerve(covers, labels)
