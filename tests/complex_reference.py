"""The complexes built by pairwise containment tests on subgroup masks
(``Lattice.leq`` and mask loops), and the nerve of a covering built by a
loop over its points, each keeping its maximal faces by a pairwise
filter, as the reference for the constructions that read the lattice's
incidences and keep the maximal rows of one subset product; and the
strong core found one dominated vertex at a time, as the reference for
the core that deletes every dominated vertex of a round at once."""

from groupdom.complexes import SimplicialComplex
from groupdom.groups import mask_to_indices


def _labels(L, vertices):
    return tuple(f"H{L.subgroups[i].order}_{i}" for i in vertices)


def reference_maximal(masks):
    """The inclusion-maximal distinct non-zero masks in (size, mask) order."""
    uniq = sorted(set(m for m in masks if m), key=lambda m: (m.bit_count(), m))
    return tuple(m for m in uniq if not any(m != o and m & ~o == 0 for o in uniq))


def reference_nerve(cover_sets, labels=None):
    """J is a face iff the members indexed by J have a common point: the
    facets are the maximal witness sets {i : point in C_i}, point by point."""
    if labels is None:
        labels = tuple(f"C{i}" for i in range(len(cover_sets)))
    union = 0
    for c in cover_sets:
        union |= c
    witnesses = set()
    rest = union
    while rest:
        low = rest & -rest
        rest ^= low
        j = 0
        for i, c in enumerate(cover_sets):
            if c & low:
                j |= 1 << i
        witnesses.add(j)
    return SimplicialComplex(tuple(labels), reference_maximal(witnesses))


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
    # reference_maximal would add, at O(F^2) cost
    return SimplicialComplex(_labels(L, verts),
                             tuple(sorted(facets, key=lambda m: (m.bit_count(), m))))


def reference_intersection_complex(L):
    verts = L.vertex_set
    return SimplicialComplex(_labels(L, verts), reference_maximal(_upsets(L, L.atoms, verts)))


def reference_atom_nerve(L):
    labels = tuple(f"A{L.subgroups[a].order}_{a}" for a in L.atoms)
    return reference_nerve(_upsets(L, L.atoms, L.vertex_set), labels)


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
    return reference_nerve(covers, labels)


def reference_strong_core(cx):
    """The core left by strong collapses (Barmak-Minian 2012).

    A vertex v is dominated when the facets containing v share a vertex
    other than v.  Deleting it (clearing v in every facet and keeping the
    inclusion-maximal results) is a strong collapse.  Vertices are scanned
    lowest index first, and the scan restarts after each deletion, until
    none is dominated.  Deleted vertices keep their labels but lie in no
    facet.
    """
    facets = list(cx.facets)
    deleted = True
    while deleted:
        deleted = False
        union = 0
        for f in facets:
            union |= f
        for v in mask_to_indices(union):
            bit = 1 << v
            with_v, without_v = [], []
            common = -1
            for f in facets:
                if f & bit:
                    with_v.append(f ^ bit)
                    common &= f
                else:
                    without_v.append(f)
            if common == bit:
                continue
            # each f - v is maximal unless a facet without v contains
            # it; a facet with v containing it would contain f
            facets = without_v + [g for g in with_v
                                  if not any(g & ~h == 0 for h in without_v)]
            deleted = True
    # already maximal and distinct (g < g' among with_v would give f < f'):
    # only from_facets' order is needed, not its maximality test
    return SimplicialComplex(cx.vertex_labels,
                             tuple(sorted(facets, key=lambda m: (m.bit_count(), m))))
