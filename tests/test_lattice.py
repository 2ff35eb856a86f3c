"""Subgroup lattices: enumeration, characteristic subgroups, classes."""

import hashlib

import numpy as np
import pytest

from groupdom import lattice as lattice_module
from groupdom.corpus import corpus, get_group
from groupdom.groups import build_group, is_normal, is_prime, parse_group_spec, quotient_group
from groupdom.lattice import (characteristic_subgroups, classify_group, derived_series,
                              enumerate_subgroups, generated_subgroup,
                              lower_central_series, mobius, mobius_to_top, subgroup_classes,
                              sylow_counts)
from derived_series_reference import (derived_series_all_commutators,
                                      lower_central_series_all_commutators)
from lattice_reference import enumerate_subgroups_allpairs, subgroups_bruteforce
from mobius_reference import mobius_from_marks, mobius_one_to_top


def built(text):
    G = build_group(parse_group_spec(text))
    return G, enumerate_subgroups(G)


class TestEnumeration:
    def test_s4_has_30_subgroups(self, lattice):
        L = lattice("S4")
        assert len(L.subgroups) == 30

    # No oracle is fast enough for these lattices (all-pairs takes about
    # 50 s on A6), so their masks at the CLI labelling are pinned: sha256
    # of the ascending masks in decimal, joined by commas.  The subgroup
    # and class counts of A7 and S7 are OEIS A005432/A029725 and
    # A000638/A029726
    @pytest.mark.parametrize("label, count, classes, digest", [
        ("A6", 501, 22, "4528dd7c47a59b9caf21fb86a635a90bb39984c08a50fdd5ba380a748d146cfc"),
        ("S6", 1455, 56, "b567dfd1c8ac352fdf9b2800a95cb6b5486353dd87395546fc1c06bb67bf1931"),
        ("A7", 3786, 40, "a35fdbfad41a9e2ccb2a6ee5e680d15016b12f0f43a8a53bdfa3ef8e0c8047a0"),
        ("S7", 11300, 96, "be182e328176923cc91ea92302cfa1d160ae641b9f98b43129c1c65ce4b04bdb")],
        ids=["A6", "S6", "A7", "S7"])
    def test_large_lattice_masks_pinned(self, label, count, classes, digest):
        _, L = built(label)
        masks = sorted(s.mask for s in L.subgroups)
        assert (len(masks), len(L.classes)) == (count, classes)
        assert hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest() == digest

    @pytest.mark.parametrize("label", ["A5", "A6", "A7"])
    def test_no_proper_subgroup_of_a_perfect_group_has_index_below_5(self, label):
        # what lets ``_close_joins`` stop at |R|/5 inside the perfect residual R
        G, L = built(label)
        assert derived_series(G) == [(1 << G.order) - 1]
        assert max(s.order for s in L.subgroups[:-1]) * 5 <= G.order

    def test_elementary_abelian_8(self, lattice):
        # subspace counts of a 3-dimensional binary space: 1 + 7 + 7 + 1
        L = lattice("C2xC2xC2")
        assert len(L.subgroups) == 16
        by_order = sorted(s.order for s in L.subgroups)
        assert by_order == [1] + [2] * 7 + [4] * 7 + [8]

    def test_q8(self, lattice):
        L = lattice("Q8")
        assert len(L.subgroups) == 6
        assert len(L.vertex_set) == 4
        assert len(L.atoms) == 1 and len(L.coatoms) == 3

    def test_brute_force_oracle_agrees(self):
        for text in ["S4", "D24", "C2xC2xC3", "Q8", "SD(7,3)", "C16", "A4"]:
            G, L = built(text)
            assert subgroups_bruteforce(G) == {s.mask for s in L.subgroups}, text

    def test_allpairs_strategy_agrees(self):
        for text in ["S4", "S5", "A5", "D36", "C2xC2xC2xC2", "Q8", "SD(13,3)"]:
            G, L = built(text)
            assert enumerate_subgroups_allpairs(G) == {s.mask for s in L.subgroups}, text

    def test_references_do_not_share_the_cyclic_seeds(self, monkeypatch):
        # a fast path that loses <g> for the last involution finds 4 of
        # C2xC2's 5 subgroups; the references walk their own cyclic
        # subgroups, so the loss shows as a disagreement
        original = lattice_module._cyclic_generators

        def drop_last_involution(G):
            cyclic, of_element = original(G)
            last = max(g for g in range(1, G.order) if G.elem_order[g] == 2)
            del cyclic[of_element[last]]
            return cyclic, of_element

        monkeypatch.setattr(lattice_module, "_cyclic_generators", drop_last_involution)
        G, L = built("C2xC2")
        fast = {s.mask for s in L.subgroups}
        assert len(fast) == 4
        assert enumerate_subgroups_allpairs(G) == subgroups_bruteforce(G)
        assert len(subgroups_bruteforce(G)) == 5
        assert fast < subgroups_bruteforce(G)

    @pytest.mark.parametrize("label", ["C2", "S4", "SD(7,3)", "C2xC2xC2xC2xC2",
                                       "D200", "S5", "A6", "S6"])
    def test_coatoms_are_the_subgroups_below_only_g(self, lattice, label):
        # a proper subgroup is maximal iff it lies in itself and G only
        L = lattice(label)
        top = len(L.subgroups) - 1
        expected = tuple(i for i in range(top) if L.containment[i].sum() == 2)
        assert L.coatoms == expected

    def test_atoms_are_prime_order(self, lattice):
        for label in ["S4", "D36", "C2xC4"]:
            L = lattice(label)
            for i in L.atoms:
                assert is_prime(L.subgroups[i].order)
            for i in L.vertex_set:
                if is_prime(L.subgroups[i].order):
                    assert i in L.atoms

    def test_intersection_closed(self, lattice):
        for label in ["S4", "Q8", "D36", "C2xC2xC3"]:
            L = lattice(label)
            masks = [s.mask for s in L.subgroups]
            for a in masks:
                for b in masks:
                    assert (a & b) in L.index

    def test_every_proper_subgroup_below_a_coatom(self, lattice):
        for label in ["S4", "D24", "C2xC2xC2", "SD(7,3)"]:
            L = lattice(label)
            top = len(L.subgroups) - 1
            for i in range(top):
                assert any(L.leq(i, c) for c in L.coatoms), (label, i)

    def test_product_formula_on_closed_pairs(self, lattice):
        # |XY| |X&Y| = |X| |Y| whenever the product set is a subgroup
        for label in ["S4", "D24", "Q8", "C2xC2xC3"]:
            L = lattice(label)
            G = L.group
            n = G.order
            from groupdom.lattice import mask_to_array
            for x in L.subgroups:
                for y in L.subgroups:
                    xm = mask_to_array(x.mask, n)
                    ym = mask_to_array(y.mask, n)
                    prod = np.unique(G.mul[np.ix_(xm, ym)])
                    from groupdom.lattice import array_to_mask
                    pm = array_to_mask(prod, n)
                    if pm in L.index:  # XY is a subgroup
                        inter = (x.mask & y.mask).bit_count()
                        assert len(prod) * inter == x.order * y.order


class TestJoinWork:
    # Joins run only inside the solvable residual G^(∞) (A5 in A5 and S5,
    # A6 in A6 and S6, A7 in A7), and each class representative H there is
    # joined with one prime-power cyclic subgroup per N_G(H)-orbit.
    # Joining it with every prime-power cyclic subgroup instead took 771
    # one-join searches on S5 and 3,010 on A6, and joining inside all of
    # S5 took 144, so a lost pruning shows up here as a count rather than
    # as a timing.  A join whose product set HC passes |G^(∞)|/5 is G^(∞)
    # with no search, since a perfect group has no proper subgroup of
    # index below 5; with |G^(∞)|/2 there the counts were 27, 383 and 289.
    # The joins of one frontier round are closed by one ``_close_joins``
    # call, one row per join, so the rows are the joins the one-join
    # search ran and the calls are the rounds.
    @pytest.mark.parametrize("label, subgroups, joins, rounds",
                             [("A5", 59, 25, 2), ("S5", 156, 18, 2), ("A6", 501, 355, 3),
                              ("S6", 1455, 267, 3), ("A7", 3786, 1872, 3)],
                             ids=["A5", "S5", "A6", "S6", "A7"])
    def test_join_count(self, monkeypatch, label, subgroups, joins, rounds):
        calls = []
        close = lattice_module._close_joins
        monkeypatch.setattr(lattice_module, "_close_joins",
                            lambda G, rows, top: calls.append(len(rows)) or close(G, rows, top))
        G, L = built(label)
        assert len(L) == subgroups
        assert (sum(calls), len(calls)) == (joins, rounds)


class TestClassWork:
    # Cyclic extension reaches every subgroup of a solvable group, so its
    # lattice needs no join.  Each class is recorded once, with one
    # conjugates call, except the classes known from the start (1, G and,
    # when G is not solvable, its solvable residual R, which is normal);
    # subgroup_classes reads the records and calls it no more.
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"_close_joins": [], "conjugates": []}
        for name, seen in calls.items():
            original = getattr(lattice_module, name)
            monkeypatch.setattr(lattice_module, name,
                                lambda *args, o=original, s=seen: s.append(args[1]) or o(*args))
        return calls

    def assert_one_call_per_class(self, label, calls, preset):
        G = get_group(label)
        calls["conjugates"].clear()
        L = enumerate_subgroups(G)
        called = [L.class_of[L.index[m]] for m in calls["conjugates"]]
        assert len(set(called)) == len(called) == len(L.classes) - preset, label

    def test_solvable_groups_need_no_join(self, calls):
        labels = [e.label for e in corpus() if e.order <= 48] + ["D200"]
        nonabelian = [label for label in labels if not get_group(label).is_abelian()]
        assert len(nonabelian) == 33 and "S4" in nonabelian
        for label in nonabelian:
            self.assert_one_call_per_class(label, calls, 2)
        assert calls["_close_joins"] == []

    @pytest.mark.parametrize("label, preset", [("A5", 2), ("S5", 3), ("A6", 2), ("S6", 3)])
    def test_non_solvable_groups(self, calls, label, preset):
        self.assert_one_call_per_class(label, calls, preset)


def gaussian_binomial(n, k, p):
    """[n, k]_p, the number of k-dimensional subspaces of GF(p)^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


class TestExtensionWork:
    # An abelian group's lattice is built by cyclic extension, and exactly
    # one (H, K) extension is kept per covering pair H < K.  In C_p^n a
    # k-dimensional subspace lies in (p^(n-k) - 1)/(p - 1) subspaces of
    # dimension k + 1, so the count is
    # sum_k [n, k]_p (p^(n-k) - 1)/(p - 1): C2^5 2,077 and C3^3 78.
    # Closing the same lattices by joins instead took 8,525 one-join
    # searches on C2^5, so a lost deduplication shows up here as a count;
    # no join is closed at all.
    @pytest.fixture
    def kept(self, monkeypatch):
        """Row count of every ``_cyclic_extensions`` result."""
        counts = []
        extend = lattice_module._cyclic_extensions

        def counted(*args):
            rows = extend(*args)
            counts.append(len(rows))
            return rows

        monkeypatch.setattr(lattice_module, "_cyclic_extensions", counted)
        return counts

    @pytest.mark.parametrize("label, subgroups, extensions",
                             [("C2xC2xC2xC2xC2", 374, 2077), ("C3xC3xC3", 28, 78),
                              ("C6xC6", 30, 76)])
    def test_extension_count(self, monkeypatch, kept, label, subgroups, extensions):
        joins = []
        monkeypatch.setattr(lattice_module, "_close_joins", lambda *args: joins.append(args))
        G, L = built(label)
        assert len(L) == subgroups
        assert sum(kept) == extensions
        assert joins == []

    @pytest.mark.parametrize("p, n", [(2, 5), (3, 3), (2, 4), (5, 2), (7, 1)])
    def test_elementary_abelian_count_is_covering_pairs(self, kept, p, n):
        built("x".join([f"C{p}"] * n))
        assert sum(kept) == sum(gaussian_binomial(n, k, p) * (p ** (n - k) - 1) // (p - 1)
                                for k in range(n))


class TestMobius:
    # μ(1, G) by the recursion over exact containment, by route A (the
    # reference recursion over masks) and by route B (the table of marks)
    @pytest.mark.parametrize("label, mu", [
        ("S4", -12), ("A5", -60), ("S5", 60), ("A6", 720), ("S6", -720),
        ("C2xC2xC2xC2", 64), ("C2xC2xC2xC2xC2", -1024), ("C6xC6", 6),
        ("C3xC2xC2xC2", 8)])
    def test_mobius_of_the_group_by_two_routes(self, lattice, label, mu):
        L = lattice(label)
        assert mobius(L)[-1] == mu
        assert mobius_one_to_top(L) == mu
        assert mobius_from_marks(L) == mu

    # P. Hall (1936, "The Eulerian functions of a group", Q. J. Math.):
    # μ(1, C_p^n) = (-1)^n p^(n(n-1)/2)
    @pytest.mark.parametrize("p, n", [(p, n) for p in range(2, 65) if is_prime(p)
                                      for n in range(1, 7) if p ** n <= 64])
    def test_elementary_abelian_is_halls_formula(self, p, n):
        _, L = built("x".join([f"C{p}"] * n))
        assert mobius(L)[-1] == (-1) ** n * p ** (n * (n - 1) // 2)

    def test_every_interval_from_the_trivial_subgroup(self, lattice):
        # μ(1, H) of the lattice of G is μ(1, H) of the lattice of H
        L = lattice("S4")
        mu = mobius(L)
        for i, s in enumerate(L.subgroups):
            below = [t.mask for t in L.subgroups if t.mask & ~s.mask == 0]
            sub = lattice_module.Lattice(L.group, set(below))
            assert mobius(sub)[-1] == mu[i] == mobius_one_to_top(sub), i

    @pytest.mark.parametrize("label", ["S4", "D24", "C2xC2xC2", "Q8", "A5", "C6xC6"])
    def test_every_interval_to_the_top_from_a_normal_subgroup(self, lattice, label):
        # μ(N, G) for a normal N is μ(1, G/N) of the quotient's lattice
        # (the correspondence theorem), and μ(1, G) is the same from either end
        L = lattice(label)
        mu_top = mobius_to_top(L)
        assert mu_top[0] == mobius(L)[-1] and mu_top[-1] == 1
        for i, s in enumerate(L.subgroups):
            if is_normal(L.group, s.mask):
                Q, _ = quotient_group(L.group, s.mask)
                assert mu_top[i] == mobius_one_to_top(enumerate_subgroups(Q)), (label, i)

    def test_containment_is_leq(self, lattice):
        L = lattice("D24")
        C = L.containment
        assert C.tolist() == [[L.leq(i, j) for j in range(len(L))] for i in range(len(L))]

    @pytest.mark.parametrize("label", [e.label for e in corpus() if e.order <= 200] + ["A6"])
    def test_atoms_in_is_the_containment_column_slice(self, lattice, label):
        # the gather on each atom's least element against the product path:
        # [k, a] is containment[atom a, subgroup k]
        L = lattice(label)
        assert np.array_equal(L.atoms_in(range(len(L))), L.containment[list(L.atoms)].T)

    @pytest.mark.parametrize("label", ["D36", "S5", "A6", "S6"])
    def test_containment_matches_the_mask_test(self, lattice, label):
        # S6's 1,455 subgroups take the intersection sizes in three blocks
        # of rows; the reference tests each column's mask against all rows
        L = lattice(label)
        masks = np.array([s.mask for s in L.subgroups], dtype=object)
        expected = np.array([(masks & ~m) == 0 for m in masks]).T
        assert np.array_equal(L.containment, expected)


class TestGeneratedSubgroup:
    def test_identity_generates_trivial(self):
        G = build_group(parse_group_spec("S4"))
        assert generated_subgroup(G, 1).order == 1

    def test_adjacent_transpositions_generate_s3(self):
        G = build_group(parse_group_spec("S3"))
        # order-2 elements are the transpositions
        t = [i for i in range(6) if G.elem_order[i] == 2]
        seed = (1 << t[0]) | (1 << t[1])
        assert generated_subgroup(G, seed).order == 6

    def test_d8_generated_by_two_reflections(self):
        # with elements a^i b^j indexed i + 4j: ab is index 1+4, b is index 4
        G = build_group(parse_group_spec("D8"))
        seed = (1 << 5) | (1 << 4)
        assert generated_subgroup(G, seed).order == 8

    def test_empty_seed_rejected(self):
        G = build_group(parse_group_spec("C4"))
        with pytest.raises(ValueError):
            generated_subgroup(G, 0)


class TestCharacteristicSubgroups:
    def test_q8_atom_join_is_center(self, lattice):
        L = lattice("Q8")
        ch = characteristic_subgroups(L.group, L)
        assert ch.atom_join.order == 2
        assert ch.atom_join.mask == ch.center.mask

    def test_d8_frattini_order_2(self, lattice):
        L = lattice("D8")
        ch = characteristic_subgroups(L.group, L)
        assert ch.frattini.order == 2

    def test_dihedral_nilpotent_residual(self):
        # the lower central series of a dihedral group stabilizes at the
        # odd part of the rotation subgroup: <a^2>, iterated
        for n, expected in [(6, 3), (9, 9), (18, 9), (12, 3), (15, 15)]:
            G, L = built(f"D{2 * n}")
            ch = characteristic_subgroups(G, L)
            assert ch.nilpotent_residual.order == expected, n

    def test_residual_is_smallest_normal_with_nilpotent_quotient(self):
        from groupdom.groups import is_normal, quotient_group
        for text in ["D12", "D36", "S3", "S4", "A4"]:
            G, L = built(text)
            ch = characteristic_subgroups(G, L)
            best = None
            for s in L.subgroups:
                if not is_normal(G, s.mask):
                    continue
                Q, _ = quotient_group(G, s.mask)
                LQ = enumerate_subgroups(Q)
                if classify_group(Q, LQ).is_nilpotent:
                    if best is None or s.order < best:
                        best = s.order
            assert ch.nilpotent_residual.order == best, text

    def test_atom_join_is_smallest_essential(self, lattice):
        for label in ["S4", "Q8", "D36", "C2xC4"]:
            L = lattice(label)
            ch = characteristic_subgroups(L.group, L)
            for s in L.subgroups:
                if all(L.leq(a, L.index[s.mask]) for a in L.atoms):
                    assert ch.atom_join.mask & ~s.mask == 0

    def test_abelian_atom_join_is_squarefree_torsion(self, lattice):
        # for abelian G (not prime cyclic) the subgroup generated by the
        # atoms is exactly {x : x^t = 1} with t the squarefree part
        for label in ["C12", "C2xC4", "C2xC2xC3", "C36", "C8"]:
            L = lattice(label)
            G = L.group
            cls = classify_group(G, L)
            ch = characteristic_subgroups(G, L)
            t = cls.squarefree_part
            torsion = 0
            for g in range(G.order):
                x, k = g, 1
                for _ in range(t - 1):
                    x = int(G.mul[x, g])
                torsion |= (1 << g) if x == 0 else 0
            assert ch.atom_join.mask == torsion | 1, label


class TestDerivedSeries:
    def test_matches_all_commutators_on_the_corpus_up_to_720(self):
        # the quotients' generators are all of their elements, so their
        # first term takes every commutator
        entries = [e for e in corpus() if e.order <= 720]
        assert len(entries) == 301
        for e in entries:
            G = get_group(e.label)
            if e.quotient_of is not None:
                assert G.generators == tuple(range(G.order)), e.label
            assert derived_series(G) == derived_series_all_commutators(G), e.label

    @pytest.mark.parametrize("text,orders", [("S7", [5040, 2520]), ("A7", [2520])])
    def test_matches_all_commutators_on_degree_7(self, text, orders):
        G = build_group(parse_group_spec(text))
        series = derived_series(G)
        assert [m.bit_count() for m in series] == orders
        assert series == derived_series_all_commutators(G)


class TestLowerCentralSeries:
    def test_matches_all_commutators_on_the_corpus_up_to_720(self):
        entries = [e for e in corpus() if e.order <= 720]
        assert len(entries) == 301
        for e in entries:
            G = get_group(e.label)
            series = lower_central_series(G)
            assert series == lower_central_series_all_commutators(G), e.label
            # as ``characteristic_subgroups`` passes [G, G]
            derived = derived_series(G)
            assert lower_central_series(G, derived[min(1, len(derived) - 1)]) == series, e.label

    @pytest.mark.parametrize("text,orders", [("S7", [5040, 2520]), ("A7", [2520])])
    def test_matches_all_commutators_on_degree_7(self, text, orders):
        G = build_group(parse_group_spec(text))
        series = lower_central_series(G)
        assert [m.bit_count() for m in series] == orders
        assert series == lower_central_series_all_commutators(G)


class TestClassification:
    def test_d36(self, lattice):
        L = lattice("D36")
        cls = classify_group(L.group, L)
        assert cls.squarefree_part == 6
        assert cls.exponent == 18
        assert cls.squarefree_part < cls.exponent

    def test_s4_solvable_not_nilpotent_not_supersolvable(self, lattice):
        L = lattice("S4")
        cls = classify_group(L.group, L)
        assert cls.is_solvable
        assert not cls.is_nilpotent
        assert not cls.is_supersolvable

    def test_c12(self, lattice):
        L = lattice("C12")
        cls = classify_group(L.group, L)
        assert cls.squarefree_part == 6 and cls.exponent == 12

    def test_a5_not_solvable(self, lattice):
        L = lattice("A5")
        cls = classify_group(L.group, L)
        assert not cls.is_solvable and not cls.is_nilpotent

    def test_basic_flags(self, lattice):
        assert classify_group(lattice("Q8").group, lattice("Q8")).is_nilpotent
        assert classify_group(lattice("D8").group, lattice("D8")).is_p_group
        assert classify_group(lattice("D12").group, lattice("D12")).is_supersolvable
        assert classify_group(lattice("C2xC2").group, lattice("C2xC2")).is_abelian

    def test_sylow_counts(self, lattice):
        # r divides |G| and r = 1 mod p
        for label in ["S4", "A4", "A5", "SD(7,3)", "D36"]:
            L = lattice(label)
            for p, r in sylow_counts(L.group, L).items():
                assert L.group.order % r == 0
                assert r % p == 1

    def test_squarefree_divides_exponent_divides_order(self, lattice):
        for label in ["S4", "D36", "C12", "Q8", "A5", "C2xC2xC3", "SD(13,3)"]:
            L = lattice(label)
            cls = classify_group(L.group, L)
            assert cls.exponent % cls.squarefree_part == 0
            assert L.group.order % cls.exponent == 0


class TestSubgroupClasses:
    def test_s4_has_11_classes(self, lattice):
        L = lattice("S4")
        classes = subgroup_classes(L.group, L)
        assert len(classes) == 11
        assert sum(len(c.members) for c in classes) == 30

    def test_s4_sylow3(self, lattice):
        L = lattice("S4")
        classes = subgroup_classes(L.group, L)
        syl3 = next(c for c in classes if L.subgroups[c.rep].order == 3)
        assert len(syl3.members) == 4
        assert syl3.normalizer.order == 6

    def test_normal_subgroups_are_singleton_classes(self, lattice):
        from groupdom.groups import is_normal
        for label in ["S4", "D12", "Q8"]:
            L = lattice(label)
            G = L.group
            for c in subgroup_classes(G, L):
                rep = L.subgroups[c.rep]
                assert (len(c.members) == 1) == is_normal(G, rep.mask)
                if len(c.members) == 1:
                    assert c.normalizer.order == G.order

    def test_orbit_stabilizer(self, lattice):
        for label in ["S4", "A5", "D20"]:
            L = lattice(label)
            for c in subgroup_classes(L.group, L):
                assert len(c.members) * c.normalizer.order == L.group.order

    def test_shared_facts_are_read_only(self, lattice):
        # every reader gets the lattice's own objects, so none may change them
        L = lattice("S4")
        assert subgroup_classes(L.group, L) == list(L.classes)
        assert subgroup_classes(L.group, L) is not subgroup_classes(L.group, L)
        assert isinstance(L.classes, tuple) and isinstance(L.class_of, tuple)
        assert isinstance(L.derived_series, tuple)
        with pytest.raises(ValueError):
            L.containment[0, 0] = False
        assert [L.classes[ci].members.count(i) for i, ci in enumerate(L.class_of)] == [1] * len(L)
