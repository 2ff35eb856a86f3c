"""Group construction: parsing, builders, validation, quotients."""

import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from groups_reference import reference_quotient, reference_table

from groupdom import groups as groups_module
from groupdom.corpus import corpus
from groupdom.errors import CapExceeded, SpecError
from groupdom.groups import (Permutation, array_to_mask, build_group, is_normal,
                             masks_to_rows, parse_group_spec, quotient_group,
                             rows_to_masks)
from groupdom.lattice import enumerate_subgroups


def build(text, **kw):
    return build_group(parse_group_spec(text), **kw)


class TestParsing:
    def test_dihedral_token_means_order(self):
        spec = parse_group_spec("D8")
        assert spec.kind == "dihedral" and spec.n == 8

    def test_abelian_factors(self):
        spec = parse_group_spec("C2xC2xC3")
        assert spec.kind == "abelian" and spec.factors == (2, 2, 3)

    def test_perm_spec_gives_s3(self):
        G = build("perm:3:(1,2);(1,2,3)")
        assert G.order == 6 and not G.is_abelian()

    def test_odd_dihedral_rejected(self):
        with pytest.raises(SpecError):
            parse_group_spec("D7")

    def test_semidirect_divisibility_checked(self):
        with pytest.raises(SpecError):
            parse_group_spec("SD(7,5)")  # 5 does not divide 6
        with pytest.raises(SpecError):
            parse_group_spec("SD(9,2)")  # 9 not prime

    def test_syntax_error_carries_position(self):
        with pytest.raises(SpecError):
            parse_group_spec("Cx2")
        with pytest.raises(SpecError):
            parse_group_spec("perm:3:(1,4)")  # point out of range

    def test_q8_and_sd(self):
        assert parse_group_spec("Q8").kind == "quaternion8"
        sd = parse_group_spec("SD(7,3)")
        assert (sd.p, sd.q) == (7, 3)


class TestBuilders:
    def test_cyclic_6_element_orders_in_power_order(self):
        G = build("C6")
        assert G.order == 6
        assert G.elem_order.tolist() == [1, 6, 3, 2, 3, 6]

    def test_quaternion_order_profile(self):
        # by hand: Q8 = {1, -1, i, -i, j, -j, k, -k}; -1 is the only
        # involution and the six imaginary units have order 4
        G = build("Q8")
        assert G.order == 8
        assert sorted(G.elem_order.tolist()) == [1, 2, 4, 4, 4, 4, 4, 4]

    def test_symmetric_4(self):
        assert build("S4").order == 24

    def test_alternating_orders(self):
        for n, expected in [(3, 3), (4, 12), (5, 60)]:
            assert build(f"A{n}").order == expected

    def test_closed_form_orders(self):
        for text, expected in [("C9", 9), ("C2xC3x4", 24), ("D14", 14),
                               ("S5", 120), ("A4", 12), ("Q8", 8),
                               ("SD(5,2)", 10), ("SD(13,3)", 39)]:
            assert build(text).order == expected

    def test_dihedral_4_is_klein(self):
        G = build("D4")
        assert G.order == 4 and G.is_abelian()
        assert sorted(G.elem_order.tolist()) == [1, 2, 2, 2]

    def test_semidirect_is_nonabelian_frobenius_shape(self):
        G = build("SD(7,3)")
        assert G.order == 21 and not G.is_abelian()
        assert sorted(set(G.elem_order.tolist())) == [1, 3, 7]

    def test_identity_is_index_zero(self):
        for text in ["C12", "D10", "S4", "Q8", "SD(3,2)"]:
            G = build(text)
            assert np.array_equal(G.mul[0], np.arange(G.order))

    def test_element_cap(self):
        with pytest.raises(CapExceeded):
            build("S6", cap=100)

    def test_cap_boundary(self):
        # a closure that reaches exactly ``cap`` elements is within the cap
        assert build("S5", cap=120).order == 120
        with pytest.raises(CapExceeded) as exc:
            build("S5", cap=119)
        assert exc.value.reached == 120

    @pytest.mark.parametrize("text", ["C13", "D24", "C2xC2xC4", "Q8"])
    def test_cap_bounds_table_builders(self, text):
        # the order a cyclic, abelian, dihedral or Q8 spec gives is checked
        # against the cap before any table is built
        order = {"C13": 13, "D24": 24, "C2xC2xC4": 16, "Q8": 8}[text]
        with pytest.raises(CapExceeded) as exc:
            build(text, cap=7)
        assert exc.value.reached == order and exc.value.cap == 7
        assert build(text, cap=order).order == order

    def test_element_orders_match_power_walk(self):
        # the one-walk orders against each element's powers, one at a time
        for text in ["C12", "D24", "S4", "Q8", "SD(7,3)", "A5", "C2xC4xC3"]:
            G = build(text)
            for g in range(G.order):
                k, x = 1, g
                while x != 0:
                    x = int(G.mul[x, g])
                    k += 1
                assert G.elem_order[g] == k, (text, g)

    def test_power_walk_stops_on_a_malformed_table(self, monkeypatch):
        # rows are permutations and 0 is the identity, but 1 1 = 2 and
        # 2 1 = 1, so the powers of 1 never return to 0; the table fails
        # the associativity check, which is skipped here
        monkeypatch.setattr(groups_module, "_validate_table", lambda mul: None)
        mul = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
        with pytest.raises(SpecError):
            groups_module._finalize(mul, "bad", None, [1])

    def test_sampled_associativity_refuses_a_latin_square(self):
        # C2xC33 (order 66, past the full check) with one intercalate
        # swapped: rows x = 1 and xz = 34 and columns y = 2 and yz = 35,
        # where z = 33 has order 2, hold xy, xyz / xyz, xy.  The table is
        # still a Latin square with identity 0, and 1,008 of its 287,496
        # triples are not associative
        mul = groups_module._abelian_table((2, 33))
        assert (mul[1, 2], mul[1, 35], mul[34, 2], mul[34, 35]) == (3, 36, 36, 3)
        mul[1, 2] = mul[34, 35] = 36
        mul[1, 35] = mul[34, 2] = 3
        assert (np.sort(mul, axis=0) == np.arange(66)[:, None]).all()
        with pytest.raises(SpecError, match="associativity"):
            groups_module._validate_table(mul)

    def test_sampled_associativity_does_not_import_numpy_random(self):
        # the sample is a fixed hash sequence: building A6 (order 360, past
        # the full check) in a fresh process leaves numpy.random unloaded
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import sys; from groupdom.groups import build_group, parse_group_spec; "
                "build_group(parse_group_spec('A6')); "
                "sys.exit('numpy.random' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

    def test_determinism(self):
        a = build("S4")
        b = build("S4")
        assert np.array_equal(a.mul, b.mul)
        c = build("SD(13,3)")
        d = build("SD(13,3)")
        assert np.array_equal(c.mul, d.mul)


class TestPermutation:
    def test_compose_and_inverse(self):
        p = Permutation.from_cycles([[0, 1, 2]], 4)
        q = p.inverse()
        assert (p * q).images == tuple(range(4))

    def test_rejects_non_bijection(self):
        with pytest.raises(SpecError):
            Permutation((0, 0, 1))


class TestQuotients:
    def test_q8_by_center_is_klein(self):
        # hand computation on the 8-element table: Q8/{1,-1} has
        # exponent 2 and order 4
        G = build("Q8")
        L = enumerate_subgroups(G)
        center = next(s for s in L.subgroups if s.order == 2)
        Q, proj = quotient_group(G, center.mask)
        assert Q.order == 4
        assert sorted(Q.elem_order.tolist()) == [1, 2, 2, 2]
        assert proj[0] == 0

    def test_s4_by_v4_is_s3(self):
        G = build("S4")
        L = enumerate_subgroups(G)
        v4 = next(s for s in L.subgroups
                  if s.order == 4 and is_normal(G, s.mask))
        Q, proj = quotient_group(G, v4.mask)
        assert Q.order == 6 and not Q.is_abelian()
        # projection is a surjective homomorphism
        assert sorted(set(proj.tolist())) == list(range(6))

    def test_quotient_by_whole_group_is_trivial(self):
        G = build("C6")
        Q, proj = quotient_group(G, (1 << 6) - 1)
        assert Q.order == 1 and set(proj.tolist()) == {0}

    def test_quotient_by_trivial_is_isomorphic_copy(self):
        G = build("D8")
        Q, proj = quotient_group(G, 1)
        assert Q.order == 8
        assert np.array_equal(proj, np.arange(8))

    def test_non_normal_rejected(self):
        G = build("S3")
        L = enumerate_subgroups(G)
        c2 = next(s for s in L.subgroups if s.order == 2)
        with pytest.raises(SpecError):
            quotient_group(G, c2.mask)

    def test_order_multiplicativity(self):
        for text in ["D12", "C2xC2xC3", "Q8", "S4"]:
            G = build(text)
            L = enumerate_subgroups(G)
            for s in L.subgroups:
                if is_normal(G, s.mask):
                    Q, _ = quotient_group(G, s.mask)
                    assert Q.order * s.order == G.order


class TestGeneratorFacts:
    """The centre and the abelian test are read from the generators; the
    whole table says which elements commute with everything."""

    @staticmethod
    def relabelled(G, seed):
        # a permutation fixing the identity, with the generators mapped
        rest = list(range(1, G.order))
        random.Random(seed).shuffle(rest)
        p = np.array([0] + rest)
        back = np.argsort(p)
        return dataclasses.replace(
            G, mul=p[G.mul[np.ix_(back, back)]].astype(G.mul.dtype),
            inv=p[G.inv[back]].astype(G.inv.dtype), elem_order=G.elem_order[back].copy(),
            generators=tuple(int(p[g]) for g in G.generators))

    def test_center_and_abelian_match_the_whole_table(self, group):
        checked = 0
        for entry in corpus():
            if entry.order > 200:
                continue
            G = group(entry.label)
            for H in (G, self.relabelled(G, entry.label)):
                commutes = (H.mul == H.mul.T).all(axis=1)
                assert H.center == array_to_mask(np.flatnonzero(commutes), H.order), entry.label
                assert H.is_abelian() == bool(commutes.all()), entry.label
            checked += 1
        assert checked == 299


class TestMaskRows:
    def test_round_trip(self):
        rng = random.Random(0)
        for n in [*range(1, 201), 720, 5040]:
            masks = [rng.getrandbits(n) for _ in range(5)] + [0, (1 << n) - 1]
            rows = masks_to_rows(masks, n)
            assert rows.shape == (len(masks), n) and rows.dtype == bool, n
            assert rows_to_masks(rows) == masks, n
            assert [array_to_mask(np.flatnonzero(row), n) for row in rows] == masks, n

    def test_zero_rows(self):
        # cyclic extension hands over empty batches
        assert masks_to_rows([], 60).shape == (0, 60)
        assert rows_to_masks(np.zeros((0, 60), dtype=bool)) == []


class TestAgainstReference:
    """Tables byte for byte against the row-by-row builders and the coset
    walk in ``groups_reference``."""

    def test_corpus_tables(self, group):
        checked = 0
        for entry in corpus():
            if entry.spec_text is None:
                continue
            expected = reference_table(parse_group_spec(entry.spec_text))
            if expected is None:
                continue
            table, gens = expected
            G = group(entry.label)
            assert G.mul.dtype == table.dtype, entry.label
            assert G.mul.tobytes() == table.tobytes(), entry.label
            assert G.generators == tuple(gens), entry.label
            checked += 1
        assert checked > 150

    def test_quotients_of_corpus_groups(self, group, lattice):
        checked = 0
        for entry in corpus():
            if entry.order > 48:
                continue
            G = group(entry.label)
            for s in lattice(entry.label).subgroups:
                if not is_normal(G, s.mask):
                    continue
                table, projection = reference_quotient(G, s.mask)
                Q, proj = quotient_group(G, s.mask)
                assert Q.mul.dtype == table.dtype and proj.dtype == projection.dtype
                assert Q.mul.tobytes() == table.tobytes(), (entry.label, s.mask)
                assert proj.tobytes() == projection.tobytes(), (entry.label, s.mask)
                assert Q.generators == tuple(range(Q.order))
                checked += 1
        assert checked > 1000
