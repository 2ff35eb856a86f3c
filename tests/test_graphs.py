"""Intersection graphs: full, restricted, and G-set modes; DOT export."""

import numpy as np
import pytest

from groupdom.corpus import corpus
from groupdom.graphs import (graphs_equal, gset_intersection_graph,
                             intersection_graph, p_subgroup_indices,
                             restricted_graph, to_dot)
from graphs_reference import adjacency_from_masks, pair_loop_edges


class TestFullGraph:
    def test_q8_complete_on_4(self, lattice):
        g = intersection_graph(lattice("Q8"))
        assert g.n == 4
        assert g.adjacency.sum() == 4 * 3  # complete graph

    def test_klein_isolated_vertices(self, lattice):
        g = intersection_graph(lattice("C2xC2"))
        assert g.n == 3
        assert g.adjacency.sum() == 0

    def test_elementary_8_coatom_clique(self, lattice):
        L = lattice("C2xC2xC2")
        g = intersection_graph(L)
        assert g.n == 14
        pos = {v: k for k, v in enumerate(g.vertices)}
        coatoms = [pos[c] for c in L.coatoms]
        for i in coatoms:
            for j in coatoms:
                if i != j:
                    assert g.adjacency[i, j]

    def test_no_loops_and_symmetric(self, lattice):
        for label in ["S4", "D36", "A4"]:
            g = intersection_graph(lattice(label))
            assert not g.adjacency.diagonal().any()
            assert np.array_equal(g.adjacency, g.adjacency.T)


@pytest.mark.parametrize("label", [e.label for e in corpus() if e.order <= 200]
                         + ["S5", "A6", "S6"])
def test_adjacency_matches_the_pair_loop(lattice, label):
    # the full and sigma graphs read adjacency from the atom incidence;
    # the reference tests every pair of vertex masks
    L = lattice(label)
    for g in (intersection_graph(L), gset_intersection_graph(L, "sigma")):
        assert np.array_equal(g.adjacency, adjacency_from_masks(g.masks)), (label, g.mode)


class TestRestrictedGraph:
    def test_p_subgroups_of_s4(self, lattice):
        # order-2/4/8 subgroups of the enumerated S4 lattice:
        # nine C2, three C4, four Klein fours, three D8 = 19 vertices
        L = lattice("S4")
        idx = p_subgroup_indices(L, 2)
        assert len(idx) == 19
        g = restricted_graph(L, idx)
        assert g.n == 19

    def test_p_group_restriction_matches_full(self, lattice):
        for label in ["D8", "Q8", "C2xC2xC2", "C16"]:
            L = lattice(label)
            full = intersection_graph(L)
            g = restricted_graph(L, p_subgroup_indices(L, 2))
            assert graphs_equal(full, g) or (
                full.masks == g.masks
                and np.array_equal(full.adjacency, g.adjacency))

    def test_sp_edges_agree_with_full_graph(self, lattice):
        # edges of the p-subgroup graph match the full graph restriction
        for label, p in [("S4", 2), ("S4", 3), ("D36", 3), ("A4", 2)]:
            L = lattice(label)
            full = intersection_graph(L)
            pos = {v: k for k, v in enumerate(full.vertices)}
            g = restricted_graph(L, p_subgroup_indices(L, p))
            for a in range(g.n):
                for b in range(a + 1, g.n):
                    fa, fb = pos[g.vertices[a]], pos[g.vertices[b]]
                    assert g.adjacency[a, b] == full.adjacency[fa, fb]

    def test_singleton_selection(self, lattice):
        L = lattice("S4")
        g = restricted_graph(L, [L.vertex_set[0]])
        assert g.n == 1 and g.adjacency.sum() == 0

    def test_indices_outside_the_vertex_set_are_refused(self, lattice):
        # the trivial subgroup as a vertex would join H2_1 and H2_2 through
        # their intersection; -1 would be the whole group
        L = lattice("S3")
        assert restricted_graph(L, [1, 2]).edge_count() == 0
        for selection in ([0, 1, 2], [-1, 1], [1, len(L) - 1]):
            with pytest.raises(ValueError):
                restricted_graph(L, selection)


class TestGSetGraph:
    def test_pentagon_action_is_isolated_vertices(self, lattice):
        # D10 on the pentagon: point stabilizers are the 5 reflections
        L = lattice("D10")
        refl = next(i for i in L.vertex_set
                    if L.subgroups[i].order == 2)
        g = gset_intersection_graph(L, [refl])
        assert g.n == 5
        assert g.adjacency.sum() == 0

    def test_sigma_equals_full_graph(self, lattice):
        for label in ["S3", "S4", "D12", "Q8", "C2xC2xC3"]:
            L = lattice(label)
            sig = gset_intersection_graph(L, "sigma")
            full = intersection_graph(L)
            assert graphs_equal(sig, full), label

    def test_coset_space_of_whole_group_is_empty(self, lattice):
        L = lattice("C6")
        g = gset_intersection_graph(L, [len(L.subgroups) - 1])
        assert g.n == 0
        g = gset_intersection_graph(L, [0])
        assert g.n == 0

    def test_bases_outside_the_lattice_are_refused(self, lattice):
        L = lattice("S3")
        for bases in ([-2, 99], [len(L)], [1, -1], "sigam", [1.5], ["1"]):
            with pytest.raises(ValueError):
                gset_intersection_graph(L, bases)


class TestDotExport:
    def test_dot_labels_and_stability(self, lattice):
        L = lattice("D8")
        g = intersection_graph(L)
        dot = to_dot(g)
        assert dot == to_dot(g)
        assert "graph" in dot and "--" in dot
        for lbl in g.labels:
            assert lbl in dot
        # labels carry subgroup order and lattice index
        assert all(lbl.startswith("H") for lbl in g.labels)

    @pytest.mark.parametrize("label", ["D8", "S4"])
    def test_dot_edges_in_the_pair_loop_order(self, lattice, label):
        g = intersection_graph(lattice(label))
        assert all(type(x) is int for edge in g.edges() for x in edge)
        lines = [f'  "{lbl}";' for lbl in g.labels]
        lines += [f'  "{g.labels[i]}" -- "{g.labels[j]}";'
                  for i, j in pair_loop_edges(adjacency_from_masks(g.masks))]
        assert to_dot(g) == "\n".join(["graph intersection_graph {", *lines, "}"]) + "\n"
