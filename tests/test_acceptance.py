"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line through the terminal-summary hook in
conftest.  Runtime-limited criteria measure wall-clock time on cold
caches (this module sorts first, so nothing is pre-warmed).
"""

import time
from itertools import combinations
from math import comb

import numpy as np
from burnside_reference import reference_product
from collapse_reference import greedy_collapse
from domination_reference import domination_oracle, is_dominating

from groupdom.burnside import BurnsideRing
from groupdom.complexes import (atom_nerve, betti, coatom_nerve,
                                intersection_complex, order_complex)
from groupdom.corpus import corpus, get_gamma, get_lattice
from groupdom.domination import Gamma, gamma_exact, gamma_graph, sum_number
from groupdom.formulas import (gamma_abelian_formula, gamma_dihedral_formula,
                               symmetric_cover_bound)
from groupdom.graphs import (graphs_equal, gset_intersection_graph,
                             intersection_graph, p_subgroup_indices,
                             restricted_graph)
from groupdom.groups import quotient_group
from groupdom.lattice import (characteristic_subgroups, classify_group,
                              enumerate_subgroups, prime_factors,
                              subgroup_classes)

ABELIAN_LABELS = [e.label for e in corpus() if e.spec_text and e.spec_text.startswith("C")]
DIHEDRAL_LABELS = [f"D{2 * n}" for n in range(2, 101)]
ALL_LABELS = [e.label for e in corpus()]


def corpus_leq(max_order):
    return [e.label for e in corpus() if e.order <= max_order]


def test_criterion_1_abelian_formula(acceptance_record):
    """Every abelian isomorphism type of order <= 100 matches the
    three-case formula; under 60 seconds."""
    t0 = time.monotonic()
    checked = 0
    for label in ABELIAN_LABELS:
        L = get_lattice(label)
        cls = classify_group(L.group, L)
        predicted = gamma_abelian_formula(L.group, cls)
        gamma = get_gamma(label).gamma
        if predicted is None:
            assert gamma.is_aleph0, label
        else:
            assert gamma == predicted, label
            checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 60
    acceptance_record(1, "abelian formula, order <= 100", ok,
                      f"{checked} non-degenerate types, {elapsed:.1f}s")
    assert ok, f"abelian sweep took {elapsed:.1f}s"


def test_criterion_2_dihedral_formula(acceptance_record):
    """gamma(D_2n) matches the smallest-prime formula for 2 <= n <= 100,
    including the published D8 and D36 values and the D36 sum number."""
    t0 = time.monotonic()
    for n in range(2, 101):
        label = f"D{2 * n}"
        gamma = get_gamma(label).gamma
        assert gamma == gamma_dihedral_formula(n), label
    assert get_gamma("D8").gamma == Gamma.of(2)
    assert get_gamma("D36").gamma == Gamma.of(3)
    L36 = get_lattice("D36")
    assert sum_number(L36.group, L36).value == Gamma.of(3)
    elapsed = time.monotonic() - t0
    ok = elapsed < 120
    acceptance_record(2, "dihedral formula, n <= 100", ok, f"{elapsed:.1f}s")
    assert ok, f"dihedral sweep took {elapsed:.1f}s"


def test_criterion_3_symmetric_groups(acceptance_record):
    """S3/S4 regression values agree with the brute-force oracle; S5 and
    S6 bounds hold; no symmetric or alternating group has gamma 1; the
    S6 lattice enumerates to 1455 subgroups within 10 minutes."""
    t0 = time.monotonic()
    L6 = get_lattice("S6")
    enum_elapsed = time.monotonic() - t0
    assert len(L6.subgroups) == 1455
    assert enum_elapsed < 600, f"S6 enumeration took {enum_elapsed:.0f}s"

    for label, expected in [("S3", 4), ("S4", 4)]:
        cert = get_gamma(label)
        assert cert.gamma == Gamma.of(expected)
        graph = intersection_graph(get_lattice(label))
        assert domination_oracle(graph, expected) == Gamma.of(expected), label

    assert get_gamma("S5").gamma <= Gamma.of(symmetric_cover_bound(5))
    assert symmetric_cover_bound(5) == 6
    g6 = get_gamma("S6").gamma
    assert g6 <= Gamma.of(7)
    assert g6 <= Gamma.of(symmetric_cover_bound(6))
    assert symmetric_cover_bound(6) == 16

    for n in range(2, 7):
        assert get_gamma(f"S{n}").gamma != Gamma.of(1), f"S{n}"
    for n in range(3, 7):
        assert get_gamma(f"A{n}").gamma != Gamma.of(1), f"A{n}"
    acceptance_record(3, "symmetric groups", True,
                      f"S6: 1455 subgroups in {enum_elapsed:.0f}s, gamma(S6)={g6}")


def test_criterion_4_frobenius_counterexample(acceptance_record):
    """gamma(A4) = 5 = 2^2 + 1, exceeding both p+1 and q+1."""
    from groupdom.formulas import verify_bounds
    L = get_lattice("A4")
    G = L.group
    cert = get_gamma("A4")
    assert cert.gamma == Gamma.of(5)
    reports = verify_bounds(G, L, classify_group(G, L),
                            characteristic_subgroups(G, L), cert)
    frob = next(r for r in reports if r.theorem == "frobenius-minimal-kernel")
    assert frob.verdict == "match" and frob.predicted == 5
    assert frob.witness["exceeds_p_plus_1"] and frob.witness["exceeds_q_plus_1"]
    acceptance_record(4, "Frobenius counterexample A4", True, "gamma = 5 = 2^2+1")


def _oracle_agrees(graph, gamma: Gamma) -> bool:
    """Graph-level brute force, using monotonicity of domination when the
    full lexicographic sweep is infeasible."""
    if graph.n == 0:
        return gamma.is_aleph0
    if gamma.is_aleph0:
        return False
    k = gamma.finite
    budget = 400_000
    if sum(comb(graph.n, i) for i in range(1, k + 1)) <= budget:
        return domination_oracle(graph, k) == gamma
    if k > 1:
        assert comb(graph.n, k - 1) <= budget, "oracle check infeasible"
        if any(is_dominating(graph, c)
               for c in combinations(range(graph.n), k - 1)):
            return False
    assert comb(graph.n, k) <= budget, "oracle check infeasible"
    return any(is_dominating(graph, c) for c in combinations(range(graph.n), k))


def test_criterion_5_oracle_equivalence(acceptance_record):
    """Graph-level brute force equals the set-cover solver on every corpus
    group with at most 25 vertices."""
    checked = 0
    for label in ALL_LABELS:
        L = get_lattice(label)
        if len(L.vertex_set) > 25:
            continue
        graph = intersection_graph(L)
        assert _oracle_agrees(graph, get_gamma(label).gamma), label
        checked += 1
    acceptance_record(5, "oracle equivalence, <= 25 vertices", True,
                      f"{checked} groups")
    assert checked > 100


def test_criterion_6_quotient_lemma(acceptance_record):
    """gamma(G) <= gamma(G/N) for every normal N of every corpus group of
    order <= 48, aleph-0 on top."""
    pairs = 0
    for label in corpus_leq(48):
        L = get_lattice(label)
        G = L.group
        gamma = get_gamma(label).gamma
        for c in subgroup_classes(G, L):
            if len(c.members) != 1:
                continue
            Q, _ = quotient_group(G, L.subgroups[c.rep].mask)
            gq = gamma_exact(enumerate_subgroups(Q)).gamma
            assert gamma <= gq, (label, L.subgroups[c.rep].order)
            pairs += 1
    acceptance_record(6, "quotient lemma, order <= 48", True, f"{pairs} quotients")
    assert pairs > 500


def test_criterion_7_burnside(acceptance_record):
    """Cardinality identity for all class pairs (order <= 48); non-abelian
    products equal the double-coset products, abelian ones are
    multiplicative on marks; the index bound dominates gamma; the product
    criterion detects gamma = 1 exactly; the all-classes G-set graph is the
    full intersection graph."""
    labels = corpus_leq(48)
    for label in labels:
        L = get_lattice(label)
        G = L.group
        ring = BurnsideRing(G, L)
        n = G.order
        m = len(ring.classes)
        M = ring.marks_matrix()
        for a in range(m):
            for b in range(a, m):
                dec = ring.product(a, b)
                points = (n // ring.class_order(a)) * (n // ring.class_order(b))
                assert ring.decomposition_points(dec) == points, (label, a, b)
                if ring.abelian:
                    # the closed form never reads the marks, so they check it
                    assert np.array_equal(ring.mark_vector_of(dec), M[a] * M[b]), (label, a, b)
                else:
                    assert dec.coeffs == reference_product(ring, a, b), (label, a, b)
        gamma = get_gamma(label).gamma
        if L.vertex_set:
            ib = ring.index_bound()
            assert ib["bound"] is not None, label
            assert gamma <= Gamma.of(ib["bound"]), label
            assert ib["gamma1_criterion"] == (gamma == Gamma.of(1)), label
        assert graphs_equal(gset_intersection_graph(L, "sigma"),
                            intersection_graph(L)), label
    acceptance_record(7, "Burnside ring, order <= 48", True, f"{len(labels)} groups")


def test_criterion_8_topology(acceptance_record):
    """Betti profiles of all four complexes agree (order <= 24); the
    simplex criteria hold corpus-wide; gamma = 1 forces vanishing reduced
    homology; the named Q8 and C2^3 examples come out exactly."""
    agree_checked = 0
    for label in corpus_leq(24):
        L = get_lattice(label)
        profiles = [betti(intersection_complex(L), model="K"),
                    betti(order_complex(L), model="order"),
                    betti(atom_nerve(L), model="NA"),
                    betti(coatom_nerve(L), model="NM")]
        first = profiles[0].reduced()
        assert all(p.reduced() == first for p in profiles[1:]), label
        agree_checked += 1

    vanish_checked = 0
    for label in ALL_LABELS:
        L = get_lattice(label)
        gamma = get_gamma(label).gamma
        na = atom_nerve(L)
        nm = coatom_nerve(L)
        chars = characteristic_subgroups(L.group, L)
        assert nm.is_simplex() == (chars.frattini.order > 1), label
        assert na.is_simplex() == (gamma == Gamma.of(1)), label
        if gamma == Gamma.of(1):
            if L.group.order <= 24:
                profile = betti(intersection_complex(L), model="K")
            else:
                # the intersection complex is out of reach; the atom nerve
                # is homotopy equivalent and collapses to a simplex here
                profile = betti(na, model="NA")
            assert all(b == 0 for b in profile.betti), label
            vanish_checked += 1

    LQ = get_lattice("Q8")
    kq = intersection_complex(LQ)
    assert kq.is_simplex() and kq.n_vertices == 4
    assert greedy_collapse(kq)["collapsed_to_point"]

    L8 = get_lattice("C2xC2xC2")
    models = [betti(intersection_complex(L8), model="K"),
              betti(order_complex(L8), model="order"),
              betti(atom_nerve(L8), model="NA")]
    for p in models:
        assert p.reduced() == (0, 8), p.model
    acceptance_record(8, "topology", True,
                      f"{agree_checked} groups all-model agreement, "
                      f"{vanish_checked} gamma=1 groups vanish")


def test_criterion_9_p_subgroup_lemma(acceptance_record):
    """gamma(S_p(G)) <= gamma(S_p(G) over N) for every normal p-subgroup N
    with a non-empty over-poset, order <= 48."""
    from groupdom.groups import is_normal
    instances = 0
    for label in corpus_leq(48):
        L = get_lattice(label)
        G = L.group
        for p in prime_factors(G.order):
            sp = p_subgroup_indices(L, p)
            if not sp:
                continue
            gamma_sp = gamma_graph(restricted_graph(L, sp)).gamma
            for nidx in sp:
                nmask = L.subgroups[nidx].mask
                if not is_normal(G, nmask):
                    continue
                over = tuple(i for i in sp
                             if i != nidx and nmask & ~L.subgroups[i].mask == 0)
                if not over:
                    continue
                gamma_over = gamma_graph(restricted_graph(L, over)).gamma
                assert gamma_sp <= gamma_over, (label, p, nidx)
                instances += 1
    acceptance_record(9, "p-subgroup lemma, order <= 48", True,
                      f"{instances} (G, p, N) instances")
    assert instances > 100
