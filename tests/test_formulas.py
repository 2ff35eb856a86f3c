"""Closed formulas and the structural bound suite."""

import pytest
from residual_quotient_reference import (reference_residual_quotient,
                                         residual_quotient_report)

from groupdom.corpus import corpus
from groupdom.domination import Gamma
from groupdom.formulas import (BOUND_HOLDS, MATCH, VIOLATION,
                               detect_frobenius, gamma_abelian_formula,
                               gamma_dihedral_formula, symmetric_cover_bound,
                               verify_bounds)
from groupdom.groups import is_prime
from groupdom.lattice import characteristic_subgroups, classify_group


def reports_for(label, lattice, gamma_of):
    L = lattice(label)
    G = L.group
    cls = classify_group(G, L)
    chars = characteristic_subgroups(G, L)
    return verify_bounds(G, L, cls, chars, gamma_of(label))


class TestAbelianFormula:
    @pytest.mark.parametrize("label,expected", [
        ("C4", 1), ("C6", 2), ("C3xC3", 4), ("C12", 1), ("C2xC2", 3),
        ("C2xC2xC3", 2), ("C5xC5", 6), ("C30", 2), ("C2xC4", 1),
    ])
    def test_cases(self, lattice, label, expected):
        L = lattice(label)
        cls = classify_group(L.group, L)
        assert gamma_abelian_formula(L.group, cls) == Gamma.of(expected)

    def test_not_applicable(self, lattice):
        for label in ["C7", "S3"]:
            L = lattice(label)
            cls = classify_group(L.group, L)
            assert gamma_abelian_formula(L.group, cls) is None

    def test_formula_matches_solver_sample(self, lattice, gamma_of):
        for label in ["C4", "C6", "C3xC3", "C2xC2xC3", "C36", "C2xC2xC2xC2"]:
            L = lattice(label)
            cls = classify_group(L.group, L)
            assert gamma_abelian_formula(L.group, cls) == gamma_of(label).gamma


class TestDihedralFormula:
    @pytest.mark.parametrize("n,expected", [
        (4, 2), (18, 3), (15, 4), (2, 3), (3, 4), (9, 3), (12, 2), (30, 3),
    ])
    def test_cases(self, n, expected):
        assert gamma_dihedral_formula(n) == Gamma.of(expected)

    def test_d30_cross_check(self, gamma_of):
        # n = 15: smallest prime 3, 9 does not divide 15, so 4
        assert gamma_of("D30").gamma == Gamma.of(4)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            gamma_dihedral_formula(1)


class TestSymmetricBound:
    @pytest.mark.parametrize("n,expected", [
        (6, 16),   # n = 2k, k odd, n-1 prime
        (9, 9),    # odd composite
        (7, 8),    # odd prime
        (5, 6),
        (4, 5),    # n = 2k, k even
        (8, 9),
        (10, 45),  # n = 2k, k odd, n-1 composite
        (14, 92),  # n = 2k, k odd, n-1 prime
        (15, 15),
        (3, 4),
    ])
    def test_cases(self, n, expected):
        assert symmetric_cover_bound(n) == expected

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            symmetric_cover_bound(1)


class TestFrobeniusDetection:
    def test_a4(self, lattice):
        L = lattice("A4")
        frob = detect_frobenius(L.group, L)
        assert frob is not None
        assert (frob.p, frob.r, frob.q) == (2, 2, 3)

    def test_semidirect(self, lattice):
        L = lattice("SD(7,3)")
        frob = detect_frobenius(L.group, L)
        assert frob is not None
        assert (frob.p, frob.r, frob.q) == (7, 1, 3)

    def test_non_frobenius(self, lattice):
        for label in ["S4", "Q8", "C12", "D8"]:
            L = lattice(label)
            assert detect_frobenius(L.group, L) is None

    def test_structures_on_the_corpus_up_to_order_200(self, lattice):
        # no other corpus group of order <= 200 has one
        expected = {f"D{2 * p}": (p, 1, 2) for p in range(3, 98) if is_prime(p)}
        expected |= {"S3": (3, 1, 2), "A4": (2, 2, 3), "SD(3,2)": (3, 1, 2),
                     "SD(5,2)": (5, 1, 2), "SD(7,2)": (7, 1, 2), "SD(7,3)": (7, 1, 3),
                     "SD(13,3)": (13, 1, 3), "S4/V4": (3, 1, 2)}
        found = {}
        for entry in corpus():
            if entry.order <= 200:
                L = lattice(entry.label)
                frob = detect_frobenius(L.group, L)
                if frob is not None:
                    found[entry.label] = (frob.p, frob.r, frob.q)
        assert len(expected) == 32
        assert found == expected


class TestVerifyBounds:
    def test_a4_frobenius_report(self, lattice, gamma_of):
        reports = reports_for("A4", lattice, gamma_of)
        frob = next(r for r in reports if r.theorem == "frobenius-minimal-kernel")
        assert frob.verdict == MATCH
        assert frob.predicted == 5
        assert frob.witness["exceeds_p_plus_1"]
        assert frob.witness["exceeds_q_plus_1"]

    def test_d8_supersolvable_bound(self, lattice, gamma_of):
        reports = reports_for("D8", lattice, gamma_of)
        sup = next(r for r in reports if r.theorem == "supersolvable")
        assert sup.verdict == BOUND_HOLDS
        dih = next(r for r in reports if r.theorem == "dihedral-formula")
        assert dih.verdict == MATCH and dih.predicted == 2

    def test_s4_quotient_chain(self, lattice, gamma_of):
        # gamma(S4) <= gamma(S4/V4) = gamma(S3) = 4
        assert gamma_of("S4").gamma <= gamma_of("S4/V4").gamma
        assert gamma_of("S4/V4").gamma == Gamma.of(4)

    def test_nilpotent_reports(self, lattice, gamma_of):
        reports = reports_for("Q8", lattice, gamma_of)
        nil = next(r for r in reports if r.theorem == "nilpotent-p-group")
        assert nil.verdict == BOUND_HOLDS
        reports = reports_for("C6", lattice, gamma_of)
        nil = next(r for r in reports if r.theorem == "nilpotent-multi-prime")
        assert nil.verdict == BOUND_HOLDS

    def test_residual_quotient_report_on_even_dihedral(self, lattice, gamma_of):
        # D24 has residual C3, so the quotient is a 2-group of order 8
        reports = reports_for("D24", lattice, gamma_of)
        res = next(r for r in reports if r.theorem.startswith("residual-quotient"))
        assert res.theorem == "residual-quotient-p-group"
        assert res.verdict == BOUND_HOLDS

    def test_residual_quotient_matches_quotient_lattice(self, lattice, gamma_of):
        # the report read from |G:R| equals the one built from G/R's lattice
        for label in [e.label for e in corpus() if e.order <= 48]:
            L = lattice(label)
            chars = characteristic_subgroups(L.group, L)
            reports = reports_for(label, lattice, gamma_of)
            expected = reference_residual_quotient(L.group, chars, gamma_of(label).gamma)
            assert residual_quotient_report(reports) == expected, label

    def test_symmetric_reports(self, lattice, gamma_of):
        reports = reports_for("S4", lattice, gamma_of)
        bound = next(r for r in reports if r.theorem == "symmetric-cover-bound")
        assert bound.verdict == BOUND_HOLDS
        not1 = next(r for r in reports if r.theorem == "symmetric-not-one")
        assert not1.verdict == MATCH

    def test_s2_theta_not_asserted(self, lattice, gamma_of):
        # S2 is prime cyclic: the empty graph gets no cover-bound claim
        reports = reports_for("S2", lattice, gamma_of)
        assert not any(r.theorem == "symmetric-cover-bound" for r in reports)
        not1 = next(r for r in reports if r.theorem == "symmetric-not-one")
        assert not1.verdict == MATCH  # aleph0 != 1

    def test_solvable_pair_reports(self, lattice, gamma_of):
        reports = reports_for("S4", lattice, gamma_of)
        pairs = [r for r in reports if r.theorem == "solvable-coprime-pair"]
        assert pairs and all(r.verdict == BOUND_HOLDS for r in pairs)

    def test_no_violations_across_sample(self, lattice, gamma_of):
        for label in ["C2", "C4", "C6", "C2xC2", "C3xC3", "C12", "D8", "D36",
                      "Q8", "S3", "S4", "A4", "SD(7,3)", "SD(5,2)", "C2xC4"]:
            reports = reports_for(label, lattice, gamma_of)
            for r in reports:
                assert r.verdict != VIOLATION, (label, r.theorem)

    def test_reports_serialize(self, lattice, gamma_of):
        import json
        for r in reports_for("A4", lattice, gamma_of):
            json.dumps(r.to_json())
