"""Burnside ring: double cosets, products, marks, characterizations."""

import numpy as np
import pytest
from burnside_reference import (abelian_marks, double_cosets, pooled_index_bound,
                                reference_meets_matrix, reference_product)

from groupdom.burnside import BurnsideRing
from groupdom.corpus import corpus, get_group
from groupdom.domination import Gamma
from groupdom.graphs import graphs_equal, gset_intersection_graph, intersection_graph
from groupdom.lattice import mask_to_array


def ring_for(lattice, label):
    L = lattice(label)
    return BurnsideRing(L.group, L)


class TestDoubleCosets:
    def test_abelian_single_coset(self, lattice):
        L = lattice("C6")
        H = next(s for s in L.subgroups if s.order == 2)
        K = next(s for s in L.subgroups if s.order == 3)
        dc = double_cosets(L.group, H, K)
        assert dc.sizes == (6,)

    def test_normal_subgroup_gives_cosets(self, lattice):
        L = lattice("S3")
        A3 = next(s for s in L.subgroups if s.order == 3)
        dc = double_cosets(L.group, A3, A3)
        assert len(dc.reps) == 2

    def test_s3_transposition_pair(self, lattice):
        # hand enumeration: H = <(1,2)>, K = <(1,3)> split S3 into double
        # cosets of sizes 4 and 2
        L = lattice("S3")
        c2s = [s for s in L.subgroups if s.order == 2]
        dc = double_cosets(L.group, c2s[0], c2s[1])
        assert sorted(dc.sizes) == [2, 4]
        # independent check: the double cosets partition the group
        assert sum(dc.sizes) == 6

    def test_sizes_sum_to_group_order(self, lattice):
        for label in ["S4", "D12", "Q8"]:
            L = lattice(label)
            for H in L.subgroups[:6]:
                for K in L.subgroups[:6]:
                    assert sum(double_cosets(L.group, H, K).sizes) == L.group.order

    def test_reps_are_minimal_and_inequivalent(self, lattice):
        L = lattice("S4")
        H = L.subgroups[5]
        K = L.subgroups[12]
        dc = double_cosets(L.group, H, K)
        G = L.group
        hm = mask_to_array(H.mask, G.order)
        km = mask_to_array(K.mask, G.order)
        seen = set()
        for g in dc.reps:
            coset = frozenset(int(x) for x in
                              np.unique(G.mul[np.ix_(G.mul[hm, g], km)]))
            assert min(coset) == g
            assert coset not in seen
            seen.add(coset)


class TestProducts:
    def test_klein_maximal_times_atom_inside(self, lattice):
        # [G/H][G/A] = |G:H| [G/A] when the atom lies in the maximal H
        ring = ring_for(lattice, "C2xC2")
        L = ring.L
        # classes: 0 trivial, 1..3 the three C2s, 4 = G
        a = 1
        dec = ring.product(a, a)  # A <= A
        assert dec.coeffs == ((a, 2),)

    def test_klein_distinct_maximals_give_regular(self, lattice):
        ring = ring_for(lattice, "C2xC2")
        dec = ring.product(1, 2)
        assert dec.coeffs == ((0, 1),)  # [G/1]

    def test_s3_a3_times_transposition_is_regular(self, lattice):
        ring = ring_for(lattice, "S3")
        L = ring.L
        ca3 = ring.class_index_of_mask(next(s.mask for s in L.subgroups if s.order == 3))
        cc2 = ring.class_index_of_mask(
            min(s.mask for s in L.subgroups if s.order == 2))
        dec = ring.product(cc2, ca3)
        assert dec.coeffs == ((0, 1),)
        assert ring.decomposition_points(dec) == 6

    def test_cardinality_identity(self, lattice):
        for label in ["S4", "D24", "Q8", "C2xC2xC3", "SD(7,3)", "A4"]:
            ring = ring_for(lattice, label)
            n = ring.G.order
            m = len(ring.classes)
            for a in range(m):
                for b in range(m):
                    dec = ring.product(a, b)
                    lhs = (n // ring.class_order(a)) * (n // ring.class_order(b))
                    assert ring.decomposition_points(dec) == lhs, (label, a, b)

    @pytest.mark.parametrize("label", ["S5", "A6"])
    def test_every_product_matches_double_cosets(self, lattice, label):
        ring = ring_for(lattice, label)
        m = len(ring.classes)
        for a in range(m):
            for b in range(a, m):
                assert ring.product(a, b).coeffs == reference_product(ring, a, b), (a, b)

    def test_marks_that_do_not_peel_raise(self, lattice, monkeypatch):
        # S3's C2 row is (3, 1, 0, 0); with (3, 2, 0, 0) the square's marks
        # (9, 4, 0, 0) peel 2 at class 1 and leave 3, which |G| = 6 does
        # not divide
        ring = ring_for(lattice, "S3")
        M = ring.marks_matrix().copy()
        assert M[1].tolist() == [3, 1, 0, 0]
        M[1, 1] = 2
        monkeypatch.setattr(ring, "marks_matrix", lambda: M)
        with pytest.raises(ArithmeticError, match="class 0"):
            ring.product(1, 1)


class TestMarks:
    def test_trivial_and_full_rows(self, lattice):
        for label in ["S4", "C12", "Q8"]:
            ring = ring_for(lattice, label)
            M = ring.marks_matrix()
            n = ring.G.order
            # m(1, G/K) = |G:K| and m(G, G/K) = 0 for proper K
            for i in range(len(ring.classes)):
                assert M[i, 0] == n // ring.class_order(i)
                expected = 1 if ring.class_order(i) == n else 0
                assert M[i, -1] == expected

    def test_c4_matrix_by_hand(self, lattice):
        # cosets and fixed points enumerated by hand for C4 > C2 > 1
        ring = ring_for(lattice, "C4")
        M = ring.marks_matrix()
        assert M.tolist() == [[4, 0, 0], [2, 2, 0], [1, 1, 1]]

    def test_lower_triangular(self, lattice):
        for label in ["S4", "D12", "C2xC2xC2"]:
            M = ring_for(lattice, label).marks_matrix()
            assert np.array_equal(M, np.tril(M))

    def test_mark_multiplicativity(self, lattice):
        # non-abelian products are peeled off the marks, so their marks
        # multiply by construction; double cosets check every product instead
        for label in ["S4", "D24", "Q8", "C2xC2xC3", "SD(7,3)", "A4", "C2xC4"]:
            ring = ring_for(lattice, label)
            m = len(ring.classes)
            for a in range(m):
                for b in range(a, m):
                    assert ring.product(a, b).coeffs == reference_product(ring, a, b), label


class TestCharacterizations:
    def test_abelian_biconditionals_hold(self, lattice):
        for label in ["C2xC2", "C12", "C2xC4", "C2xC2xC3", "C3xC3", "C36",
                      "C2xC2xC2", "C5xC5", "C8", "C2xC6"]:
            ring = ring_for(lattice, label)
            rep = ring.characterization_report()
            assert all(rep["biconditional_holds"].values()), label

    def test_s3_normality_bullet(self, lattice):
        ring = ring_for(lattice, "S3")
        rep = ring.characterization_report()
        by_class = {e["class"]: e for e in rep["bullets"]["normal"]}
        ca3 = next(ci for ci in range(len(ring.classes))
                   if ring.class_order(ci) == 3)
        cc2 = next(ci for ci in range(len(ring.classes))
                   if ring.class_order(ci) == 2)
        assert by_class[ca3]["predicted"] and by_class[ca3]["actual"]
        # the transposition class is not normal and the predicate fails too
        assert not by_class[cc2]["predicted"] and not by_class[cc2]["actual"]

    def test_normality_bullet_agrees_with_truth_on_sample(self, lattice):
        for label in ["S3", "S4", "D12", "Q8", "A4"]:
            ring = ring_for(lattice, label)
            rep = ring.characterization_report()
            for e in rep["bullets"]["normal"]:
                assert e["predicted"] == e["actual"], (label, e)


class TestIndexBound:
    def test_q8(self, lattice, gamma_of):
        ring = ring_for(lattice, "Q8")
        ib = ring.index_bound()
        assert ib["bound"] == 1
        assert ib["gamma1_criterion"] is True
        fam = ib["family"]
        assert len(fam) == 1 and ring.class_order(fam[0]) == 2

    def test_d8(self, lattice):
        ring = ring_for(lattice, "D8")
        ib = ring.index_bound()
        assert ib["bound"] == 2
        assert ib["gamma1_criterion"] is False
        assert all(ring.class_order(c) == 4 for c in ib["family"])

    def test_s3(self, lattice):
        ring = ring_for(lattice, "S3")
        ib = ring.index_bound()
        assert ib["bound"] == 4
        orders = sorted(ring.class_order(c) for c in ib["family"])
        assert orders == [2, 3]

    def test_bound_dominates_gamma(self, lattice, gamma_of):
        for label in ["Q8", "D8", "S3", "S4", "A4", "C2xC2", "C12", "D36",
                      "SD(7,3)", "C2xC2xC2"]:
            ring = ring_for(lattice, label)
            ib = ring.index_bound()
            if ib["bound"] is None:
                continue
            assert gamma_of(label).gamma <= Gamma.of(ib["bound"]), label

    def test_criterion_iff_gamma_one(self, lattice, gamma_of):
        for label in ["Q8", "D8", "S3", "S4", "A4", "C4", "C12", "C2xC4",
                      "C2xC2", "D36", "SD(7,3)", "C16"]:
            ring = ring_for(lattice, label)
            if not ring.L.vertex_set:
                continue
            ib = ring.index_bound()
            assert ib["gamma1_criterion"] == (gamma_of(label).gamma == Gamma.of(1)), label


@pytest.mark.parametrize("label", [e.label for e in corpus()
                                   if e.order <= 100 and get_group(e.label).is_abelian()])
def test_abelian_marks_match_containment(lattice, label):
    # one coset count for every group; on abelian input (C2^5 has 374
    # classes) it is checked against |G:K| for H in K and 0 otherwise
    ring = ring_for(lattice, label)
    assert np.array_equal(ring.marks_matrix(), abelian_marks(ring)), label


@pytest.mark.parametrize("label", [e.label for e in corpus() if e.order <= 200])
def test_meets_matrix_reads_the_atom_classes(lattice, label):
    # a non-trivial K meet gHg^-1 contains an atom: the atom classes'
    # columns of the marks give the product over every column
    ring = ring_for(lattice, label)
    assert np.array_equal(ring.meets_matrix(), reference_meets_matrix(ring)), label


@pytest.mark.parametrize("label", [e.label for e in corpus() if e.order <= 200]
                         + ["S5", "A6", "S6"])
def test_index_bound_is_the_least_family(lattice, label):
    # the pooled search's family meets every vertex class, so its weight
    # bounds the least weight from above; on these groups it is the least
    ring = ring_for(lattice, label)
    ib, pooled = ring.index_bound(), pooled_index_bound(ring)
    assert ib["gamma1_criterion"] == pooled["gamma1_criterion"], label
    if pooled["bound"] is None:
        assert ib == pooled, label
        return
    assert ib["bound"] <= pooled["bound"], label
    assert ib["bound"] == pooled["bound"], label
    top = len(ring.L.subgroups) - 1
    vcls = [ci for ci, c in enumerate(ring.classes) if 0 < c.rep < top]
    meets = ring.meets_matrix()
    assert set(ib["family"]) <= set(vcls), label
    assert all(meets[ib["family"], h].any() for h in vcls), label
    weights = [ring.G.order // ring.classes[ci].normalizer.order for ci in ib["family"]]
    assert sum(weights) == ib["bound"], label


class TestSigmaGraph:
    def test_sigma_equals_full(self, lattice):
        for label in ["S4", "D12", "Q8", "SD(7,3)", "C2xC2xC2"]:
            L = lattice(label)
            assert graphs_equal(gset_intersection_graph(L, "sigma"),
                                intersection_graph(L)), label
