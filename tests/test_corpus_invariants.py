"""Corpus-wide invariant sweeps at the scopes the contracts state."""

import random

import numpy as np
import pytest

from groupdom.corpus import corpus, get_gamma, get_lattice
from groupdom.domination import Gamma, sum_number
from groupdom.formulas import VIOLATION, verify_bounds
from groupdom.graphs import intersection_graph
from groupdom.lattice import (array_to_mask, characteristic_subgroups,
                              classify_group, mask_to_array, subgroup_classes)
from classes_reference import reference_classes
from domination_reference import is_dominating

LEQ48 = [e.label for e in corpus() if e.order <= 48]
ALL = [e.label for e in corpus()]


def test_product_formula_all_pairs_leq_48():
    # |XY| |X&Y| = |X| |Y| whenever the product set XY is itself a subgroup
    for label in LEQ48:
        L = get_lattice(label)
        G = L.group
        n = G.order
        members = [mask_to_array(s.mask, n) for s in L.subgroups]
        for i, x in enumerate(L.subgroups):
            for j, y in enumerate(L.subgroups):
                if j < i:
                    continue
                prod = np.unique(G.mul[np.ix_(members[i], members[j])])
                if array_to_mask(prod, n) in L.index:
                    inter = (x.mask & y.mask).bit_count()
                    assert len(prod) * inter == x.order * y.order, (label, i, j)


def test_subgroup_classes_match_one_conjugates_call_per_class_all():
    # the classes recorded during enumeration, against conjugates called
    # afresh on every class representative in lattice order
    for label in ALL:
        L = get_lattice(label)
        assert subgroup_classes(L.group, L) == reference_classes(L.group, L), label


def test_every_proper_subgroup_below_a_coatom_leq_48():
    for label in LEQ48:
        L = get_lattice(label)
        top = len(L.subgroups) - 1
        for i in range(top):
            mask = L.subgroups[i].mask
            assert any(mask & ~L.subgroups[c].mask == 0 for c in L.coatoms), (label, i)


def test_atom_join_is_smallest_essential_leq_48():
    for label in LEQ48:
        L = get_lattice(label)
        ch = characteristic_subgroups(L.group, L)
        for s in L.subgroups:
            if all(L.subgroups[a].mask & ~s.mask == 0 for a in L.atoms):
                assert ch.atom_join.mask & ~s.mask == 0, label


def test_gamma_one_iff_atom_join_proper_iff_nonsplit_leq_48():
    for label in LEQ48:
        L = get_lattice(label)
        G = L.group
        if not L.vertex_set:
            continue
        ch = characteristic_subgroups(G, L)
        is_one = get_gamma(label).gamma == Gamma.of(1)
        assert is_one == (ch.atom_join.order < G.order), label
        split = any(s.order > 1 and s.mask & ch.atom_join.mask == 1
                    and s.order * ch.atom_join.order == G.order
                    for s in L.subgroups)
        if ch.atom_join.order < G.order:
            assert not split, label


def test_gamma_at_most_sum_number_leq_48():
    for label in LEQ48:
        L = get_lattice(label)
        assert get_gamma(label).gamma <= sum_number(L.group, L).value, label


def test_domination_iff_atom_coverage_random_subsets_leq_48():
    rng = random.Random(20260808)
    for label in LEQ48:
        L = get_lattice(label)
        if not L.vertex_set:
            continue
        g = intersection_graph(L)
        atom_masks = [L.subgroups[a].mask for a in L.atoms]
        for _ in range(200):
            d = rng.sample(range(g.n), rng.randint(1, g.n))
            covered = all(any(am & ~g.masks[v] == 0 for v in d)
                          for am in atom_masks)
            assert is_dominating(g, d) == covered, label


def test_no_bound_violations_full_corpus():
    for label in ALL:
        L = get_lattice(label)
        G = L.group
        reports = verify_bounds(G, L, classify_group(G, L),
                                characteristic_subgroups(G, L),
                                get_gamma(label))
        for r in reports:
            assert r.verdict != VIOLATION, (label, r.theorem)
