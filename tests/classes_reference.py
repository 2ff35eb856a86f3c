"""Conjugacy classes of subgroups by one ``conjugates`` call per class, in
lattice order, as the reference for the classes ``enumerate_subgroups``
records on the lattice and ``subgroup_classes`` reads back."""

from groupdom.lattice import Subgroup, SubgroupClass, conjugates


def reference_classes(G, L) -> list[SubgroupClass]:
    assigned = [False] * len(L.subgroups)
    classes = []
    for i, s in enumerate(L.subgroups):
        if assigned[i]:
            continue
        # subgroups are sorted by (order, mask), so the first unassigned
        # member of a class is its smallest mask and classes come out sorted
        orbit, norm = conjugates(G, s.mask)
        members = tuple(sorted(L.index[m] for m in orbit))
        for j in members:
            assigned[j] = True
        classes.append(SubgroupClass(rep=i, members=members,
                                     normalizer=Subgroup.from_mask(norm)))
    return classes
