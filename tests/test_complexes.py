"""Subgroup complexes: constructions, homology, collapses, reports."""

import dataclasses
import tracemalloc
from math import comb

import numpy as np
import pytest

import groupdom.complexes
from collapse_reference import greedy_collapse, reference_collapse, reference_greedy_collapse
from complex_reference import (reference_atom_nerve, reference_coatom_nerve,
                               reference_intersection_complex, reference_order_complex)
from groupdom.complexes import (DEFAULT_FACE_BUDGET, SimplicialComplex, _chain_counts,
                                _collapse, _collapse_probe, _coreduce, _read_off,
                                _reduced_betti, atom_nerve, betti, coatom_nerve,
                                intersection_complex, lattice_f_vectors, nerve,
                                order_complex, poset_core, topology_report)
from groupdom.corpus import corpus
from groupdom.errors import BudgetExceeded
from groupdom.groups import mask_to_indices
from groupdom.lattice import characteristic_subgroups, enumerate_subgroups, mobius
from mobius_reference import mobius_one_to_top
from rank_reference import RP2_FACETS, exact_rank, reference_rank

MODELS = [("intersection", intersection_complex), ("order", order_complex),
          ("atom_nerve", atom_nerve), ("coatom_nerve", coatom_nerve)]


def edges(cx):
    """The vertex pairs (i, j), i < j, that lie in a common facet."""
    return {(i, j) for f in cx.facets for i in mask_to_indices(f)
            for j in mask_to_indices(f) if i < j}


class TestToyComplexes:
    def test_tetrahedron(self):
        tet = SimplicialComplex.from_facets(tuple("abcd"), (0b1111,))
        p = betti(tet)
        assert p.betti == (0, 0, 0, 0)
        assert p.euler == 1

    def test_three_points(self):
        pts = SimplicialComplex.from_facets(tuple("abc"), (1, 2, 4))
        p = betti(pts)
        assert p.betti == (2,)
        assert p.euler == 3

    def test_hollow_triangle(self):
        tri = SimplicialComplex.from_facets(tuple("abc"), (0b011, 0b101, 0b110))
        p = betti(tri)
        assert p.betti == (0, 1)
        assert p.euler == 0

    def test_facet_antichain(self):
        cx = SimplicialComplex.from_facets(tuple("abc"), (0b011, 0b001, 0b111))
        assert cx.facets == (0b111,)

    def test_empty(self):
        cx = SimplicialComplex.from_facets((), ())
        p = betti(cx)
        assert p.betti == () and p.euler == 0 and p.dim == -1

    def test_large_simplex_has_no_f_vector(self):
        # a facet too large to enumerate: the profile is exact, the face
        # counts are reported as unavailable, as f_vector() raises
        cx = SimplicialComplex.from_facets(tuple(f"v{i}" for i in range(22)),
                                           ((1 << 22) - 1,))
        p = betti(cx)
        assert p.euler == 1 and p.f_vector is None
        with pytest.raises(BudgetExceeded):
            cx.f_vector()


class TestIntersectionComplex:
    def test_q8_tetrahedron(self, lattice):
        kg = intersection_complex(lattice("Q8"))
        assert len(kg.facets) == 1
        assert kg.is_simplex() and kg.n_vertices == 4

    def test_klein_three_singletons(self, lattice):
        kg = intersection_complex(lattice("C2xC2"))
        assert sorted(f.bit_count() for f in kg.facets) == [1, 1, 1]

    def test_elementary_8_facets(self, lattice):
        # each atom of the rank-3 binary space lies in exactly 3 planes
        kg = intersection_complex(lattice("C2xC2xC2"))
        assert len(kg.facets) == 7
        assert all(f.bit_count() == 4 for f in kg.facets)

    def test_one_skeleton_is_intersection_graph(self, lattice):
        from groupdom.graphs import intersection_graph
        for label in ["S4", "D12", "Q8", "C2xC2xC2", "A4"]:
            L = lattice(label)
            kg = intersection_complex(L)
            g = intersection_graph(L)
            graph_edges = set()
            for i in range(g.n):
                for j in range(i + 1, g.n):
                    if g.adjacency[i, j]:
                        graph_edges.add((i, j))
            assert edges(kg) == graph_edges, label


class TestOrderComplex:
    def test_q8_star(self, lattice):
        oc = order_complex(lattice("Q8"))
        assert oc.n_vertices == 4
        assert len(oc.facets) == 3
        assert all(f.bit_count() == 2 for f in oc.facets)

    def test_prime_cube_single_edge(self, lattice):
        oc = order_complex(lattice("C8"))
        assert oc.facets == (0b11,)

    def test_elementary_8_incidences(self, lattice):
        oc = order_complex(lattice("C2xC2xC2"))
        assert oc.n_vertices == 14
        assert len(edges(oc)) == 21
        assert oc.dim() == 1

    def test_subposet_selector(self, lattice):
        L = lattice("S4")
        sel = tuple(i for i in L.vertex_set if L.subgroups[i].order == 2)
        oc = order_complex(L, vertices=sel)
        assert oc.n_vertices == 9
        assert all(f.bit_count() == 1 for f in oc.facets)

    def test_chain_budget(self, lattice, monkeypatch):
        # the walk stops at the first maximal chain past the budget
        monkeypatch.setattr(groupdom.complexes, "DEFAULT_FACE_BUDGET", 10)
        with pytest.raises(BudgetExceeded) as exc:
            order_complex(lattice("S4"))
        assert exc.value.partial == 11


class TestNerves:
    def test_q8_atom_nerve_point(self, lattice):
        na = atom_nerve(lattice("Q8"))
        assert na.is_simplex() and na.n_vertices == 1

    def test_d8_coatom_nerve_simplex(self, lattice):
        nm = coatom_nerve(lattice("D8"))
        assert nm.is_simplex() and nm.n_vertices == 3

    def test_klein_atom_nerve_isolated(self, lattice):
        na = atom_nerve(lattice("C2xC2"))
        assert not na.is_simplex()
        assert sorted(f.bit_count() for f in na.facets) == [1, 1, 1]

    def test_generic_nerve_empty_member(self):
        cx = nerve([0b0, 0b1, 0b1])
        # the empty cover member spans no face
        assert cx.facets == (0b110,)


@pytest.mark.parametrize("label", [e.label for e in corpus()
                                   if e.order and e.order <= 48] + ["S5", "A6", "S6"])
def test_constructions_match_containment_tests(lattice, label):
    """K and the nerves, the maximal rows of the atom incidence, and the
    order complex, read from ``Lattice.containment``, have the labels and
    facets of the constructions that test containment subgroup by
    subgroup and filter maximal faces pairwise; the order complex also on
    vertices given in descending order, all of them and every other one,
    except on A6 and S6, whose maximal chains the reference would walk
    one by one."""
    L = lattice(label)
    assert intersection_complex(L) == reference_intersection_complex(L), label
    assert atom_nerve(L) == reference_atom_nerve(L), label
    assert coatom_nerve(L) == reference_coatom_nerve(L), label
    if label in ("A6", "S6"):
        return
    assert order_complex(L) == reference_order_complex(L), label
    for vertices in (L.vertex_set[::-1], L.vertex_set[::-2]):
        assert order_complex(L, vertices) == reference_order_complex(L, vertices), label


@pytest.mark.parametrize("label", ["S4", "A5"])
def test_constructions_leave_containment_unbuilt(group, label):
    # K and both nerves read only the atom incidence, not the containment matrix
    L = enumerate_subgroups(group(label))
    for build in (intersection_complex, atom_nerve, coatom_nerve):
        build(L)
    assert "containment" not in L.__dict__


class TestHomologyAgreement:
    @pytest.mark.parametrize("label", [
        "Q8", "D8", "C2xC2", "C2xC2xC2", "S3", "S4", "A4", "C12", "C2xC4",
        "D12", "D24", "C16", "C2xC2xC2xC2", "SD(3,2)", "C2xC2xC3", "C3xC3",
    ])
    def test_four_models_agree(self, lattice, label):
        L = lattice(label)
        profiles = [betti(intersection_complex(L), model="K"),
                    betti(order_complex(L), model="order"),
                    betti(atom_nerve(L), model="NA"),
                    betti(coatom_nerve(L), model="NM")]
        first = profiles[0].reduced()
        for p in profiles[1:]:
            assert p.reduced() == first, (label, p.model)

    def test_elementary_8_betti(self, lattice):
        L = lattice("C2xC2xC2")
        pk = betti(intersection_complex(L))
        po = betti(order_complex(L))
        pa = betti(atom_nerve(L))
        assert pk.reduced() == (0, 8)
        assert po.reduced() == (0, 8)
        assert pa.reduced() == (0, 8)
        assert pk.euler == -7 and po.euler == -7

    def test_elementary_16_wedge_of_spheres(self, lattice):
        # rank-4 binary space: order complex is a wedge of 64 two-spheres
        L = lattice("C2xC2xC2xC2")
        assert betti(order_complex(L)).reduced() == (0, 0, 64)

    # μ(1, G) of the subgroup lattice; for the elementary abelian groups it
    # is Hall's (-1)^n p^(n(n-1)/2) (P. Hall 1936, "The Eulerian functions
    # of a group", Q. J. Math.)
    @pytest.mark.parametrize("label,mu", [
        ("S4", -12), ("A5", -60), ("C3xC3xC3", -27), ("C2xC2xC2xC2", 64)])
    def test_reduced_euler_is_mobius_one_to_top(self, lattice, label, mu):
        L = lattice(label)
        assert mobius_one_to_top(L) == mu
        for name, build in MODELS:
            assert betti(build(L)).euler - 1 == mu, (label, name)

    def test_euler_from_faces_equals_betti_sum(self, lattice):
        for label in ["Q8", "S4", "C2xC2xC2", "D24"]:
            L = lattice(label)
            for cx in [intersection_complex(L), order_complex(L),
                       atom_nerve(L), coatom_nerve(L)]:
                p = betti(cx)
                assert p.euler == 1 + sum((-1) ** k * b
                                          for k, b in enumerate(p.betti))

    @pytest.mark.parametrize("label", [e.label for e in corpus()
                                       if e.order and e.order <= 48])
    def test_f_vector_from_mobius_counts_the_faces(self, lattice, label):
        # the four models' face counts from the lattice, against the faces
        # themselves wherever they fit the face budget
        L = lattice(label)
        for name, f_vector in lattice_f_vectors(L).items():
            assert sum((-1) ** k * c for k, c in enumerate(f_vector)) == 1 + mobius(L)[-1]
            try:
                assert f_vector == dict(MODELS)[name](L).f_vector(), (label, name)
            except BudgetExceeded:
                assert sum(f_vector) > DEFAULT_FACE_BUDGET, (label, name)

    def test_subposet_complex_matches_subposet_order_complex(self, lattice):
        # the intersection complex of the p-subgroup poset has the same
        # homotopy invariants as that poset's order complex
        from groupdom.graphs import p_subgroup_indices
        for label, p in [("S4", 2), ("S4", 3), ("D24", 2), ("A4", 2)]:
            L = lattice(label)
            sel = p_subgroup_indices(L, p)
            ks = betti(intersection_complex(L, vertices=sel))
            os_ = betti(order_complex(L, vertices=sel))
            assert ks.reduced() == os_.reduced(), (label, p)


class TestStrongCore:
    @pytest.mark.parametrize("facets", [
        (0b1011, 0b1101, 0b1110),  # apex d over the hollow triangle abc
        (0b0111, 0b1011, 0b0011),  # apex a over the path c - b - d
    ])
    def test_cone_collapses_to_a_vertex(self, facets):
        core = SimplicialComplex.from_facets(tuple("abcd"), facets).strong_core()
        assert len(core.facets) == 1 and core.facets[0].bit_count() == 1

    def test_sphere_has_no_dominated_vertex(self):
        # the boundary of the 3-simplex
        sphere = SimplicialComplex.from_facets(tuple("abcd"),
                                               (0b0111, 0b1011, 0b1101, 0b1110))
        assert sphere.strong_core() == sphere

    def test_elementary_16_intersection_core(self, lattice):
        # 490,575 faces in the input, 1,535 in the core
        core = intersection_complex(lattice("C2xC2xC2xC2")).strong_core()
        union = 0
        for f in core.facets:
            union |= f
        assert len(core.facets) == 15 and union.bit_count() == 15
        assert len(core.faces()) == 1535


# inputs with more than 50,000 faces, left out of the comparison below
# because homology of the whole face set takes too long on them
TOO_MANY_FACES = {("C2xC2xC2xC2", "intersection")}  # 490,575 faces


@pytest.mark.parametrize("label", [e.label for e in corpus()
                                   if e.order and e.order <= 24])
def test_strong_core_matches_whole_face_set(lattice, label):
    """``betti`` works on the strong-collapse core; the same numbers must
    come from elementary collapses and ranks on every face of the input."""
    L = lattice(label)
    skipped = set()
    for name, build in MODELS:
        cx = build(L)
        if not cx.facets:
            continue
        faces = cx.faces()
        if len(faces) > 50_000:
            skipped.add((label, name))
            continue
        p = betti(cx)
        assert p.betti == _reduced_betti(_collapse(faces), cx.dim()), (label, name)
        assert p.euler == sum((-1) ** k * c for k, c in enumerate(cx.f_vector()))
        assert p.dim == cx.dim()
    assert skipped == {s for s in TOO_MANY_FACES if s[0] == label}


class TestCollapse:
    def test_q8_collapses_to_point(self, lattice):
        res = greedy_collapse(intersection_complex(lattice("Q8")))
        assert res["collapsed_to_point"]

    def test_cone_collapses(self, lattice):
        # gamma = 1 makes the intersection complex a cone over the atom join
        for label in ["C4", "C12", "C2xC4", "C16"]:
            res = greedy_collapse(intersection_complex(lattice(label)))
            assert res["collapsed_to_point"], label

    def test_disconnected_does_not_collapse(self, lattice):
        res = greedy_collapse(intersection_complex(lattice("C2xC2")))
        assert not res["collapsed_to_point"]
        assert res["remaining_faces"] == 3

    # (collapsed_to_point, steps, remaining_faces) measured by the dict-driven
    # probe the kernel replaced; C2xC2xC2xC2 (490,575 faces) takes about 3 s
    @pytest.mark.parametrize("label,expected", [
        ("D36", (True, 32949, 1)), ("C3xC2xC2xC2", (False, 18056, 51)),
        ("C6xC6", (False, 3985, 41)), ("A5", (False, 931, 101)),
        ("C2xC2xC2xC2", (False, 245185, 205))])
    def test_pinned_probes(self, lattice, label, expected):
        res = greedy_collapse(intersection_complex(lattice(label)))
        assert (res["collapsed_to_point"], res["steps"], res["remaining_faces"]) == expected

    # probe=True reads the collapse steps, which the probe counts from the
    # faces the kernel leaves, as well as those faces
    @pytest.mark.parametrize("probe", [False, True])
    def test_empty_face_set(self, probe):
        rest = _collapse(set())
        assert rest == []
        if probe:
            assert _collapse_probe(0, rest) == {
                "collapsed_to_point": False, "steps": 0, "remaining_faces": 0}

    @pytest.mark.parametrize("probe", [False, True])
    def test_vertices_only_are_left_unchanged(self, probe):
        faces = {1, 1 << 9, 1 << 70}
        rest = _collapse(faces)
        assert rest == sorted(faces)
        if probe:
            assert _collapse_probe(len(faces), rest) == {
                "collapsed_to_point": False, "steps": 0, "remaining_faces": 3}

    @pytest.mark.parametrize("faces", [
        {0b11},                                   # no vertices
        {0b1, 0b10, 0b100, 0b11, 0b111},          # two edges of the triangle missing
        {1, 1 << 80, 1 << 80 | 1 << 3},           # vertex 3 missing, wide keys
        {(1 << 256) - 1}])                        # too many vertices for a count byte
    def test_face_set_not_closed_raises(self, faces):
        with pytest.raises(ValueError):
            _collapse(faces)

    def test_core_probe_refuses_an_odd_face_difference(self):
        # a collapse sequence removes faces in pairs: a two-face complex
        # cannot collapse to a one-vertex core
        with pytest.raises(AssertionError):
            _collapse_probe(2, [1])


@pytest.mark.parametrize("label", [e.label for e in corpus()
                                   if e.order and e.order <= 24
                                   and (e.label, "intersection") not in TOO_MANY_FACES])
def test_collapse_kernel_matches_reference(lattice, label):
    """The collapse kernel leaves, face for face, what the dict-driven heap
    collapse left on the intersection complex (C2xC2xC2xC2 is left out:
    the reference takes over 10 s on it)."""
    kg = intersection_complex(lattice(label))
    faces = kg.faces()
    assert set(_collapse(faces)) == reference_collapse(faces)
    assert greedy_collapse(kg) == reference_greedy_collapse(faces)


@pytest.mark.parametrize("m", [0, 1, 60])
def test_chain_counts_of_a_total_order(m):
    # a total order of m elements has C(m, k) chains of k elements; at
    # m = 60 the counts pass 2^53, where a float product would round
    order = np.triu(np.ones((m, m), dtype=bool))
    assert _chain_counts(order) == tuple(comb(m, k) for k in range(1, m + 1))


def test_chain_counts_raise_past_int64():
    # C(70, 35) > 2^63: the int64 product would wrap
    with pytest.raises(OverflowError):
        _chain_counts(np.triu(np.ones((70, 70), dtype=bool)))


def test_chain_counts_make_no_int64_copy_of_the_order():
    # two levels of 1,000 elements: an int64 copy of the order would take
    # 32 MB, eight times the bool order itself
    n = 2000
    order = np.eye(n, dtype=bool)
    order[:n // 2, n // 2:] = True
    tracemalloc.start()
    try:
        assert _chain_counts(order) == (n, n * n // 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n, peak


# the groups of the benchmark's complexes workload
BENCHMARK_COMPLEX_GROUPS = ("S4", "A5", "D24", "D36", "C4xC2xC2", "C3xC2xC2xC2", "C6xC6")


def test_coreduction_leaves_one_cell_per_betti_number(lattice, gamma_of, monkeypatch):
    """On the faces that each computed profile of the benchmark groups
    ranks, coreduction leaves exactly Σ b̃_k cells, a vertex removed past
    the first component counting as one, so every boundary map among them
    is zero; the rank of every residual column set is also the rank by
    elimination over Fraction."""
    ranked = []
    reduced_betti = groupdom.complexes._reduced_betti

    def recorded_betti(rest, top_dim):
        b = reduced_betti(rest, top_dim)
        ranked.append((rest, b))
        return b

    monkeypatch.setattr(groupdom.complexes, "_reduced_betti", recorded_betti)
    for label in BENCHMARK_COMPLEX_GROUPS:
        topology_report(lattice(label), gamma_of(label).gamma)
    assert len(ranked) == 2 * len(BENCHMARK_COMPLEX_GROUPS)  # the nerves read K's
    monkeypatch.undo()
    for rest, b in ranked:
        columns, restarts = _coreduce(rest)
        assert sum(map(len, columns)) + restarts == sum(b), b
        for cols in columns:
            assert exact_rank(cols) == reference_rank(cols), b


def test_projective_plane_over_the_rationals():
    # over F2 the reduced Betti vector of RP^2 is (0, 1, 1); over the
    # rationals it is (0, 0, 0), and H_1 = Z/2 must leave no trace
    RP2 = SimplicialComplex.from_facets(tuple("abcdef"), RP2_FACETS)
    faces = RP2.faces()
    assert RP2.f_vector() == (6, 15, 10)
    rest = _collapse(faces)
    assert set(rest) == faces  # no free face: a closed surface
    assert _reduced_betti(rest, 2) == (0, 0, 0)
    # coreduction stops at 5 edges and 5 triangles, whose boundary map has
    # rank 5 over the rationals (4 over F2): elimination decides here
    columns, restarts = _coreduce(rest)
    assert restarts == 0 and [len(c) for c in columns] == [0, 5, 5]
    assert [exact_rank(c) for c in columns] == [reference_rank(c) for c in columns] == [0, 0, 5]
    p = betti(RP2)
    assert (p.betti, p.euler) == ((0, 0, 0), 1)


CORE_LABELS = [e.label for e in corpus() if e.order and e.order <= 48]


@pytest.mark.parametrize("label", CORE_LABELS + ["S5", "A5"])
def test_poset_core_order_complex_has_no_dominated_vertex(lattice, label):
    """Barmak-Minian 2012: a poset without beat points has an order complex
    without dominated vertex, so ``strong_core`` deletes nothing from the
    order complex of Stong's core."""
    L = lattice(label)
    core = poset_core(L)
    assert set(core) <= set(L.vertex_set)
    cx = order_complex(L, core)
    assert cx.strong_core() == cx, label


@pytest.mark.parametrize("label", CORE_LABELS + ["S5", "A6"])
def test_report_profiles_match_whole_complex_references(lattice, gamma_of, label):
    """The order profile, ranked on the poset core, and the nerves', read
    off K with their faces counted from the lattice, against ``betti`` of
    the whole complexes (whose f-vector is None past the face budget); and
    every model's dimension and whether it is a simplex, read off its
    counted f-vector, against the built complex."""
    L = lattice(label)
    rep = topology_report(L, gamma_of(label).gamma)
    assert rep.profiles["order"] == betti(order_complex(L), model="order"), label
    for name, build in MODELS:
        cx = build(L)
        assert len(rep.f_vectors[name]) - 1 == cx.dim(), (label, name)
        assert rep.is_simplex(name) == cx.is_simplex(), (label, name)
        assert rep.profiles[name] is None or rep.profiles[name].dim == cx.dim(), (label, name)
    for name, build in (("atom_nerve", atom_nerve), ("coatom_nerve", coatom_nerve)):
        read, whole = rep.profiles[name], betti(build(L), model=name)
        assert whole.f_vector in (None, read.f_vector), (label, name)
        assert read == dataclasses.replace(whole, f_vector=read.f_vector,
                                           betti_from="intersection"), (label, name)


class TestTopologyReport:
    def report(self, lattice, gamma_of, label):
        return topology_report(lattice(label), gamma_of(label).gamma)

    def test_q8(self, lattice, gamma_of):
        rep = self.report(lattice, gamma_of, "Q8")
        assert rep.simplex_atom_nerve and rep.simplex_coatom_nerve
        assert rep.betti_vanish
        assert rep.collapse["collapsed_to_point"]
        assert all(rep.checks.values())

    def test_d8_frattini_without_gamma_one(self, lattice, gamma_of):
        rep = self.report(lattice, gamma_of, "D8")
        assert rep.simplex_coatom_nerve and not rep.simplex_atom_nerve
        assert rep.frattini_nontrivial and not rep.gamma_is_one
        assert all(rep.checks.values())

    def test_klein_all_models_two_components(self, lattice, gamma_of):
        rep = self.report(lattice, gamma_of, "C2xC2")
        for p in rep.profiles.values():
            assert p.reduced() == (2,)
        assert rep.profiles_agree

    def test_simplex_criteria_sample(self, lattice, gamma_of):
        for label in ["Q8", "D8", "C2xC2", "S3", "S4", "A4", "C12", "C36",
                      "C2xC2xC2", "SD(7,3)", "D36"]:
            rep = self.report(lattice, gamma_of, label)
            assert all(rep.checks.values()), label

    def test_report_keeps_the_complexes_it_built(self, lattice, gamma_of):
        L = lattice("S4")
        rep = self.report(lattice, gamma_of, "S4")
        # K and both nerves; of the order complex, only the poset core's
        assert set(rep.complexes) == {"intersection", "atom_nerve", "coatom_nerve"}
        for name, build in MODELS:
            if name in rep.complexes:
                assert rep.complexes[name] == build(L), name
            assert rep.f_vectors[name] == rep.profiles[name].f_vector == build(L).f_vector(), name

    def test_coatom_nerve_reads_k_betti_cut_to_its_dimension(self, lattice, gamma_of):
        # A5: K has dimension 6, the coatom nerve 4
        rep = self.report(lattice, gamma_of, "A5")
        k, m = rep.profiles["intersection"], rep.profiles["coatom_nerve"]
        assert (k.dim, m.dim) == (6, 4)
        assert m.betti_from == "intersection" and m.betti == k.betti[:5] == (0, 60, 0, 0, 0)
        profiles = rep.to_json()["profiles"]
        assert all(profiles[name]["betti_from"] == "intersection"
                   for name in ("atom_nerve", "coatom_nerve"))
        assert all("betti_from" not in profiles[name] for name in ("intersection", "order"))
        # a class of K above the coatom nerve's dimension cannot be read off
        with pytest.raises(AssertionError, match="above the dimension"):
            _read_off(dataclasses.replace(k, betti=k.betti[:6] + (1,)), m.f_vector,
                      "coatom_nerve")
        # nor Betti numbers whose alternating sum is off the nerve's Euler
        # characteristic
        with pytest.raises(AssertionError, match="Euler"):
            _read_off(dataclasses.replace(k, betti=(0, 61) + k.betti[2:]), m.f_vector,
                      "coatom_nerve")

    def test_atom_nerve_reads_k_betti_padded_to_its_dimension(self, lattice, gamma_of):
        # A4: K has dimension 1, the atom nerve 2
        rep = self.report(lattice, gamma_of, "A4")
        k, a = rep.profiles["intersection"], rep.profiles["atom_nerve"]
        assert (k.betti, a.betti) == ((4, 0), (4, 0, 0))
        assert a.dim == rep.complexes["atom_nerve"].dim() == 2
        assert a.betti_from == "intersection"

    def test_coatom_nerve_is_null_with_k_without_enumeration(self, lattice, gamma_of,
                                                            monkeypatch):
        # past the budget on K, both nerves' profiles are None at once:
        # their faces are never enumerated, and only the order complex is
        # left to compare
        profile = groupdom.complexes._profile

        def k_past_budget(cx, f_vector, budget, model):
            if model == "intersection":
                raise BudgetExceeded("face budget exceeded")
            return profile(cx, f_vector, budget, model)

        enumerated = []
        faces = SimplicialComplex.faces
        monkeypatch.setattr(groupdom.complexes, "_profile", k_past_budget)
        monkeypatch.setattr(SimplicialComplex, "faces",
                            lambda cx, *args: enumerated.append(cx) or faces(cx, *args))
        rep = self.report(lattice, gamma_of, "S4")
        assert all(rep.profiles[name] is None
                   for name in ("intersection", "atom_nerve", "coatom_nerve"))
        assert all(rep.complexes[name] not in enumerated
                   for name in ("atom_nerve", "coatom_nerve"))
        assert rep.profiles["order"] is not None
        assert rep.profiles_agree is None

    # measured when the probe moved to the strong core: on all 93 corpus
    # groups of order <= 48 whose intersection complex fits the face budget,
    # the probe through the core and the probe on every face agreed
    @pytest.mark.parametrize("label", [e.label for e in corpus()
                                       if e.order and e.order <= 24])
    def test_core_probe_matches_greedy_collapse(self, lattice, gamma_of, label):
        rep = self.report(lattice, gamma_of, label)
        kg = intersection_complex(lattice(label))
        assert rep.collapse == (greedy_collapse(kg) if kg.facets else None)

    @pytest.mark.parametrize("label", BENCHMARK_COMPLEX_GROUPS + ("S5",))
    def test_intersection_complex_faces_are_never_enumerated(self, lattice, gamma_of,
                                                             monkeypatch, label):
        # every model's face counts come from the lattice: the report
        # enumerates the faces of the cores it ranks, K's strong core (or
        # its facet nerve) and the order complex of the poset core, never
        # those of K or of a nerve, and it builds no whole order complex
        enumerated = []
        faces = SimplicialComplex.faces
        monkeypatch.setattr(SimplicialComplex, "faces",
                            lambda cx, *args: enumerated.append(cx) or faces(cx, *args))
        rep = self.report(lattice, gamma_of, label)
        L = lattice(label)
        kcore, vertices = rep.complexes["intersection"].strong_core(), poset_core(L)
        cores = [kcore, nerve(list(kcore.facets)), order_complex(L, vertices)]
        assert enumerated and all(cx in cores for cx in enumerated)
        assert not any(cx is whole for cx in enumerated for whole in rep.complexes.values())
        if vertices != L.vertex_set:  # else the order complex is its own core
            assert order_complex(L) not in enumerated
        counted = lattice_f_vectors(L)
        assert all(rep.profiles[name].f_vector == counted[name] for name in counted)

    def test_prime_cyclic_degenerate(self, lattice, gamma_of):
        rep = self.report(lattice, gamma_of, "C5")
        # no vertices: every model is empty, criteria vacuously consistent
        assert all(rep.checks.values())
        assert not rep.simplex_atom_nerve and not rep.simplex_coatom_nerve

    def test_order_core_chain_budget_leaves_the_profile_null(self, lattice, gamma_of,
                                                             monkeypatch):
        # the report builds the order complex of the poset core only; past
        # the chain budget there, the order profile is None, as a model past
        # the face budget, and its f-vector is still counted
        def too_many_chains(L, vertices=None):
            raise BudgetExceeded("maximal chain budget exceeded")

        monkeypatch.setattr(groupdom.complexes, "order_complex", too_many_chains)
        rep = self.report(lattice, gamma_of, "S4")
        assert rep.profiles["order"] is None and rep.profiles_agree is None
        assert rep.f_vectors["order"] == (28, 63, 24) and not rep.is_simplex("order")
        assert rep.profiles["intersection"] is not None

    def test_builds_the_order_core_alone_and_collapses_k_only(self, lattice, gamma_of,
                                                              monkeypatch):
        # one report builds the order complex of the poset core only, never
        # of the whole poset, and runs the collapse kernel once, on the faces
        # of K's strong core; the order core's faces are ranked uncollapsed
        L = lattice("S4")
        built, collapsed = [], []
        build, collapse = groupdom.complexes.order_complex, groupdom.complexes._collapse
        monkeypatch.setattr(groupdom.complexes, "order_complex",
                            lambda L, vertices=None: built.append(vertices) or build(L, vertices))
        monkeypatch.setattr(groupdom.complexes, "_collapse",
                            lambda faces: collapsed.append(set(faces)) or collapse(faces))
        rep = self.report(lattice, gamma_of, "S4")
        assert built == [poset_core(L)] and poset_core(L) != L.vertex_set
        assert collapsed == [rep.complexes["intersection"].strong_core().faces()]
        assert rep.profiles["order"] == betti(order_complex(L), model="order")

    def test_frattini_matches_characteristic_subgroups(self, lattice, gamma_of, monkeypatch):
        # the report's flag and the lattice layer's subgroup against the
        # intersection of the maximal subgroups; the homology does not enter
        # the Frattini check, so it is skipped
        def no_homology(*args, **kwargs):
            raise BudgetExceeded("homology skipped")

        monkeypatch.setattr(groupdom.complexes, "_core_faces", no_homology)
        for label in [e.label for e in corpus() if e.order and e.order <= 48]:
            L = lattice(label)
            rep = self.report(lattice, gamma_of, label)
            frattini = (1 << L.group.order) - 1
            for c in L.coatoms:
                frattini &= L.subgroups[c].mask
            assert characteristic_subgroups(L.group, L).frattini.mask == frattini, label
            assert rep.frattini_nontrivial == (frattini.bit_count() > 1), label
