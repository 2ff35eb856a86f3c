"""Domination numbers: solver, brute-force oracle, and sum numbers."""

import random
import time
from collections import Counter
from functools import reduce
from itertools import combinations
from operator import or_

import numpy as np
import pytest

from domination_reference import domination_oracle, is_dominating
from groupdom import domination
from groupdom.corpus import find_entry
from groupdom.domination import (ALEPH0, Gamma, _Instance, _set_bits, class_cover,
                                 coatom_action, gamma_exact, gamma_graph, min_set_cover,
                                 set_cover_lower_bound, sum_number)
from groupdom.graphs import intersection_graph, p_subgroup_indices, restricted_graph
from groupdom.groups import quotient_group
from groupdom.lattice import conjugates, enumerate_subgroups


class TestGammaValue:
    def test_ordering(self):
        assert Gamma.of(3) < ALEPH0
        assert ALEPH0 <= ALEPH0
        assert not (ALEPH0 <= Gamma.of(10 ** 9))
        assert Gamma.of(2) <= Gamma.of(2)

    def test_json(self):
        assert Gamma.of(4).to_json() == 4
        assert ALEPH0.to_json() == "aleph0"


class TestSetCover:
    def test_simple(self):
        chosen, opt = min_set_cover(4, [0b0011, 0b1100, 0b0110, 0b1111])
        assert opt and chosen == [3]

    def test_needs_two(self):
        chosen, opt = min_set_cover(4, [0b0011, 0b1100, 0b0110])
        assert opt and len(chosen) == 2

    @pytest.mark.parametrize("universe_size,sets,expected", [
        (11, [208, 514, 1, 3, 424, 28, 1792, 100], [0, 3, 4, 5, 6]),
        (10, [1, 514, 3, 28, 100, 168, 208, 776], [2, 4, 6, 7]),
    ])
    def test_failure_memo_on_revisit(self, universe_size, sets, expected):
        # the search meets an uncovered set again after its subtree was
        # searched; a memo entry that claims one set more than its search
        # showed (first instance) or that is written after the incumbent
        # improved (second instance) prunes the optimum
        chosen, opt = min_set_cover(universe_size, sets)
        assert opt and chosen == expected

    @pytest.mark.parametrize("universe_size,sets,expected", [
        (0, [], ([], True)),
        # the bits outside the universe would make set 0 the greedy pick
        (2, [0b11100001, 0b11], ([1], False)),
    ])
    def test_greedy_incumbent_at_the_deadline(self, universe_size, sets, expected):
        assert min_set_cover(universe_size, sets, deadline=time.monotonic()) == expected

    def test_uncoverable_raises(self):
        with pytest.raises(ValueError):
            min_set_cover(3, [0b011])

    def test_start_that_is_no_cover_raises(self):
        with pytest.raises(ValueError, match="start"):
            min_set_cover(4, [0b0011, 0b1100, 0b0110], start=[0, 2])

    def test_start_repeating_a_set_raises(self):
        # counted twice, [0, 0, 1] would make the incumbent size 3
        with pytest.raises(ValueError, match="start"):
            min_set_cover(4, [0b0011, 0b1100, 0b0110, 0b1001], start=[0, 0, 1])

    @pytest.mark.parametrize("start", [[0, 3], [-1, 0, 1]])
    def test_start_out_of_range_raises(self, start):
        with pytest.raises(ValueError, match="start"):
            min_set_cover(4, [0b0011, 0b1100, 0b0110], start=start)

    @pytest.mark.parametrize("weights", [[1, 1], [1, 1, 1, 1], [1, 0, 1], [1, -2, 1],
                                         [1, 1.5, 1], [1, "2", 1]])
    def test_bad_weights_raise(self, weights):
        with pytest.raises(ValueError, match="weights"):
            min_set_cover(4, [0b0011, 0b1100, 0b0110], weights=weights)


class TestGammaExact:
    @pytest.mark.parametrize("label,expected", [
        ("Q8", 1), ("D8", 2), ("A4", 5), ("S3", 4), ("S4", 4),
        ("C2xC2", 3), ("C3xC3", 4), ("C6", 2), ("C4", 1), ("D36", 3),
    ])
    def test_known_values(self, gamma_of, label, expected):
        cert = gamma_of(label)
        assert cert.gamma == Gamma.of(expected)
        assert cert.optimal

    @pytest.mark.parametrize("label", ["C3", "C5", "C97"])
    def test_empty_graph_convention(self, gamma_of, label):
        cert = gamma_of(label)
        assert cert.gamma.is_aleph0
        assert cert.witness == ()

    def test_witness_is_maximal_and_dominating(self, lattice, gamma_of):
        for label in ["D8", "S4", "A4", "C2xC2xC2"]:
            L = lattice(label)
            cert = gamma_of(label)
            graph = intersection_graph(L)
            pos = {v: k for k, v in enumerate(graph.vertices)}
            assert all(w in L.coatoms for w in cert.witness)
            assert is_dominating(graph, [pos[w] for w in cert.witness])

    def test_gamma_one_iff_atom_join_proper_iff_nonsplit(self, lattice, gamma_of):
        from groupdom.lattice import characteristic_subgroups
        for label in ["Q8", "C4", "D8", "S3", "C2xC2", "C12", "C2xC4", "A4"]:
            L = lattice(label)
            G = L.group
            if not L.vertex_set:
                continue
            ch = characteristic_subgroups(G, L)
            is_one = gamma_of(label).gamma == Gamma.of(1)
            atom_join_proper = ch.atom_join.order < G.order
            # non-split: no subgroup meets the atom join trivially with
            # complementary order
            split = any(s.mask & ch.atom_join.mask == 1
                        and s.order * ch.atom_join.order == G.order
                        and s.order > 1
                        for s in L.subgroups)
            assert is_one == atom_join_proper, label
            assert is_one == (atom_join_proper and not split), label


class TestOracle:
    def test_complete_graph_single_vertex(self, lattice):
        g = intersection_graph(lattice("Q8"))  # K4
        assert is_dominating(g, [0])
        assert domination_oracle(g, 4) == Gamma.of(1)

    def test_isolated_vertices(self, lattice):
        g = intersection_graph(lattice("C2xC2"))
        assert domination_oracle(g, 3) == Gamma.of(3)
        assert not is_dominating(g, [0, 1])

    def test_d8_search_agrees(self, lattice, gamma_of):
        g = intersection_graph(lattice("D8"))
        assert domination_oracle(g, 5) == Gamma.of(2)
        assert gamma_of("D8").gamma == Gamma.of(2)

    def test_empty_graph(self, lattice):
        g = intersection_graph(lattice("C5"))
        assert domination_oracle(g, 3) == ALEPH0

    def test_atoms_and_coatoms_each_dominate(self, lattice):
        for label in ["S4", "D24", "A4", "Q8", "C2xC2xC3"]:
            L = lattice(label)
            g = intersection_graph(L)
            pos = {v: k for k, v in enumerate(g.vertices)}
            assert is_dominating(g, [pos[a] for a in L.atoms])
            assert is_dominating(g, [pos[c] for c in L.coatoms])

    def test_domination_iff_atom_coverage(self, lattice):
        # D dominates iff every atom lies inside some member of D
        rng = random.Random(7)
        for label in ["S4", "D24", "A4", "C2xC2xC3", "Q8"]:
            L = lattice(label)
            g = intersection_graph(L)
            atom_masks = [L.subgroups[a].mask for a in L.atoms]
            for _ in range(200):
                k = rng.randint(1, max(1, g.n // 2))
                d = rng.sample(range(g.n), k)
                covered = all(
                    any(am & ~g.masks[v] == 0 for v in d) for am in atom_masks)
                assert is_dominating(g, d) == covered


class TestRestrictedDomination:
    def test_sp_lemma_instances(self, lattice):
        # for each normal p-subgroup N with a non-empty over-poset,
        # gamma(S_p) <= gamma(S_p over N)
        from groupdom.groups import is_normal
        for label, p in [("S4", 2), ("D24", 2), ("Q8", 2), ("C2xC2xC2", 2)]:
            L = lattice(label)
            G = L.group
            sp = p_subgroup_indices(L, p)
            if not sp:
                continue
            g_sp = gamma_graph(restricted_graph(L, sp)).gamma
            for nidx in sp:
                nmask = L.subgroups[nidx].mask
                if not is_normal(G, nmask):
                    continue
                over = [i for i in sp
                        if i != nidx and nmask & ~L.subgroups[i].mask == 0]
                if not over:
                    continue
                g_over = gamma_graph(restricted_graph(L, over)).gamma
                assert g_sp <= g_over, (label, nidx)


class TestQuotientLemma:
    def test_gamma_monotone_under_quotients(self, lattice, gamma_of):
        from groupdom.groups import is_normal
        for label in ["S4", "D12", "Q8", "C2xC4", "A4", "C2xC2xC3"]:
            L = lattice(label)
            G = L.group
            gam = gamma_of(label).gamma
            for s in L.subgroups:
                if not is_normal(G, s.mask):
                    continue
                Q, _ = quotient_group(G, s.mask)
                LQ = enumerate_subgroups(Q)
                assert gam <= gamma_exact(LQ).gamma, (label, s.order)

    def test_correspondence_gives_isomorphic_graph(self, lattice):
        # the restricted graph on subgroups strictly over N matches the
        # quotient's intersection graph by vertex count and degrees
        from groupdom.groups import is_normal
        for label in ["S4", "D12", "Q8", "C2xC2xC2"]:
            L = lattice(label)
            G = L.group
            for s in L.subgroups:
                if s.order in (1, G.order) or not is_normal(G, s.mask):
                    continue
                over = [i for i in L.vertex_set
                        if i != L.index[s.mask]
                        and s.mask & ~L.subgroups[i].mask == 0]
                g_over = restricted_graph(L, over)
                Q, _ = quotient_group(G, s.mask)
                LQ = enumerate_subgroups(Q)
                g_q = intersection_graph(LQ)
                assert g_over.n == g_q.n
                assert g_over.degree_multiset() == g_q.degree_multiset()


class TestSumNumber:
    def test_d36_is_3_sum(self, lattice):
        L = lattice("D36")
        res = sum_number(L.group, L)
        assert res.value == Gamma.of(3)

    @pytest.mark.parametrize("label,expected", [("C2xC2", 3), ("C3xC3", 4)])
    def test_elementary_p_squared(self, lattice, label, expected):
        L = lattice(label)
        assert sum_number(L.group, L).value == Gamma.of(expected)

    def test_cyclic_is_aleph0(self, lattice):
        for label in ["C12", "C7", "C100"]:
            L = lattice(label)
            assert sum_number(L.group, L).value.is_aleph0

    def test_gamma_below_sum_number(self, lattice, gamma_of):
        for label in ["D36", "C2xC2", "S3", "S4", "A4", "D8", "Q8", "C2xC4"]:
            L = lattice(label)
            s = sum_number(L.group, L).value
            assert gamma_of(label).gamma <= s, label

    # the first optimum in search order, on the groups as the CLI builds
    # them; another element labelling gives other lattice indices
    WITNESSES = {
        "A5": (43, *range(47, 56)),
        "S5": (128, 129, 130, 131, 132, 134, 136, 137, 138, 142, *range(149, 155)),
        "A6": (*range(478, 490), 492, 493, 498, 499),
        "S6": tuple(range(1441, 1454)),
    }

    @pytest.mark.parametrize("label,expected,source", [
        ("A5", 10, "Cohn 1994"), ("S5", 16, "Cohn 1994"), ("A6", 16, "Cohn 1994"),
        ("S6", 13, "Abdollahi-Ashraf-Shaker 2007")])
    def test_published_covering_numbers(self, lattice, label, expected, source):
        assert find_entry(label).expected_dict()["sum_number"] == {
            "value": expected, "source": source}
        L = lattice(label)
        res = sum_number(L.group, L)
        assert res.optimal and res.value == Gamma.of(expected)
        assert res.witness == self.WITNESSES[label]

    def test_a6_search_starts_from_the_class_cover(self, lattice, monkeypatch):
        # one class of A5 (6) and the class of 3^2:4 (10) cover A6 where the
        # greedy cover takes 18, so that cover is the incumbent at its own
        # size and the search only proves that no 15 sets cover: 1,090
        # lower-bound calls at the CLI labelling.  The class cover is the
        # witness; at this labelling it is also the first optimum in
        # search order
        L = lattice("A6")
        covers, calls = [], [0]
        cover, bound = class_cover, _Instance.lower_bound

        def recorded_cover(sets, classes):
            covers.append((classes, cover(sets, classes)))
            return covers[-1][1]

        def counted_bound(self, *args):
            calls[0] += 1
            return bound(self, *args)

        monkeypatch.setattr(domination, "class_cover", recorded_cover)
        monkeypatch.setattr(_Instance, "lower_bound", counted_bound)
        res = sum_number(L.group, L)
        assert res.optimal and res.witness == self.WITNESSES["A6"]
        assert calls[0] == 1090
        # the start is the call with whole classes; the greedy incumbent of
        # ``min_set_cover`` is the call with single sets
        [start] = [chosen for classes, chosen in covers if max(map(len, classes)) > 1]
        [greedy] = [chosen for classes, chosen in covers if max(map(len, classes)) == 1]
        assert res.witness == tuple(L.coatoms[i] for i in start)
        assert sorted(Counter(L.class_of[L.coatoms[i]] for i in start).values()) == [6, 10]
        assert len(greedy) == 18

    @pytest.mark.parametrize("label,bound", [
        ("S5", 13), ("A5", 8), ("A6", 11), ("S6", 11), ("C2xC2xC2xC2", 3), ("D36", 3)])
    def test_root_lower_bound(self, lattice, label, bound):
        # the lower end of the bracket an aborted ``sum`` reports
        L = lattice(label)
        sets = [L.subgroups[c].mask >> 1 for c in L.coatoms]
        assert set_cover_lower_bound(L.group.order - 1, sets) == bound

    def test_witness_union_covers_group(self, lattice):
        L = lattice("D36")
        res = sum_number(L.group, L)
        union = 0
        for w in res.witness:
            union |= L.subgroups[w].mask
        assert union == (1 << L.group.order) - 1

    @pytest.mark.parametrize("label", ["S3", "D10", "D18", "D98", "SD(7,3)", "S4/V4"])
    def test_not_cyclic_though_the_exponent_is_the_order(self, lattice, label):
        # an element of order |G| makes G cyclic; the exponent equals |G|
        # also for these groups, whose sum number is p + 1 for the least
        # prime p dividing the order of the derived subgroup
        L = lattice(label)
        res = sum_number(L.group, L)
        assert res.optimal
        sets = [L.subgroups[c].mask >> 1 for c in L.coatoms]
        full = (1 << (L.group.order - 1)) - 1
        least = min(k for k in range(1, len(sets) + 1)
                    for combo in combinations(sets, k) if reduce(or_, combo) == full)
        assert res.value == Gamma.of(least)


class TestCoatomAction:
    @pytest.mark.parametrize("label,size", [
        ("S4", 24), ("A5", 60), ("S5", 120), ("A6", 360), ("S6", 720), ("D12", 6)])
    def test_rows_are_conjugations_of_the_coatoms(self, lattice, label, size):
        # each row sends every coatom to one of its conjugates; the rows are
        # distinct, identity first, and closed under composition
        L = lattice(label)
        perms = coatom_action(L)
        assert perms.shape == (size, len(L.coatoms))
        assert np.array_equal(perms[0], np.arange(len(L.coatoms)))
        assert len({p.tobytes() for p in perms}) == size
        masks = [L.subgroups[c].mask for c in L.coatoms]
        for i, m in enumerate(masks):
            orbit, _ = conjugates(L.group, m)
            assert {masks[j] for j in perms[:, i]} == set(orbit), (label, i)
        rows = {p.tobytes() for p in perms}
        rng = np.random.default_rng(0)
        for a, b in rng.integers(len(perms), size=(50, 2)):
            assert perms[a][perms[b]].tobytes() in rows

    def test_set_bits_keep_positions_from_8_up(self, lattice):
        # A6's action comes as uint8 over 52 coatoms; every bit, the ones
        # of coatoms 8..51 included, must land in the 64-bit key word, and
        # so must position 63 of a full word
        perms = coatom_action(lattice("A6"))
        assert perms.dtype == np.uint8
        word = np.array([np.arange(64), np.arange(64)[::-1]], dtype=np.uint8)
        for rows in (perms, word):
            bits = _set_bits(rows)
            assert bits.dtype == np.uint64
            assert [[int(b) for b in r] for r in bits] == [[1 << int(s) for s in r] for r in rows]

    def test_action_is_built_only_when_a_search_needs_it(self, lattice, monkeypatch):
        # sigma(S4) = 4 and sigma(D36) = 3 are proved by the root bound; the
        # searches of the abelian groups go past the root, but an abelian
        # group acts trivially and passes no action
        def refuse(L):
            raise AssertionError("action built")

        monkeypatch.setattr(domination, "coatom_action", refuse)
        for label, value in [("S4", 4), ("D36", 3), ("C3xC3xC3xC2", 4), ("C5xC5xC2", 6)]:
            L = lattice(label)
            assert sum_number(L.group, L).value == Gamma.of(value)

    def test_a6_search_is_cut_by_the_orbit_memo(self, lattice, monkeypatch):
        # sigma(A6) at the CLI labelling took 8,115 lower-bound calls with
        # the memo on the uncovered set alone; the key must keep at least
        # half of that away, and the action is built once
        calls, built = [0], [0]
        bound, action = _Instance.lower_bound, coatom_action

        def counted_bound(self, *args):
            calls[0] += 1
            return bound(self, *args)

        def counted_action(L):
            built[0] += 1
            return action(L)

        monkeypatch.setattr(_Instance, "lower_bound", counted_bound)
        monkeypatch.setattr(domination, "coatom_action", counted_action)
        L = lattice("A6")
        res = sum_number(L.group, L)
        assert res.optimal and res.value == Gamma.of(16)
        assert calls[0] < 8115 // 2
        assert built[0] == 1
