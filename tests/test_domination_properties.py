"""Property tests for the set-cover solver and the domination number.

Set-cover instances are drawn point by point: each point gets a non-empty
set of covering sets, so every instance is coverable.  Groups are the
random ``perm:`` specs of the lattice property tests.
"""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from groupdom.domination import (_Instance, domination_oracle, gamma_exact,  # noqa: E402
                                 min_set_cover, set_cover_lower_bound)
from groupdom.graphs import intersection_graph  # noqa: E402
from groupdom.lattice import enumerate_subgroups  # noqa: E402
from test_lattice_properties import perm_specs, small_group  # noqa: E402


@st.composite
def cover_instances(draw):
    """(universe size, sets) with at most 12 sets over at most 16 points."""
    n_sets = draw(st.integers(min_value=1, max_value=12))
    points = draw(st.lists(st.integers(min_value=1, max_value=(1 << n_sets) - 1),
                           min_size=1, max_size=16))
    sets = [0] * n_sets
    for a, covering in enumerate(points):
        for si in range(n_sets):
            if covering >> si & 1:
                sets[si] |= 1 << a
    return len(points), sets


def brute_force_size(universe_size: int, sets: list[int]) -> int:
    full = (1 << universe_size) - 1
    for k in range(1, len(sets) + 1):
        for combo in combinations(sets, k):
            union = 0
            for s in combo:
                union |= s
            if union == full:
                return k
    raise AssertionError("instance is not coverable")


def plain_search(universe_size: int, sets: list[int]) -> list[int]:
    """Reference for the witness: the greedy cover, replaced only by the
    first strictly smaller cover met by a depth-first search that branches
    on the uncovered point in the fewest sets (smallest index on ties),
    trying its sets in index order, with no reduction, bound or memo."""
    full = (1 << universe_size) - 1
    greedy, uncovered = [], full
    while uncovered:
        gains = [(s & uncovered).bit_count() for s in sets]
        greedy.append(gains.index(max(gains)))
        uncovered &= ~sets[greedy[-1]]
    best = [greedy]

    def branch(uncovered, chosen):
        if uncovered == 0:
            if len(chosen) < len(best[0]):
                best[0] = list(chosen)
            return
        if len(chosen) + 1 >= len(best[0]):
            return
        pick = min((a for a in range(universe_size) if uncovered >> a & 1),
                   key=lambda a: sum(s >> a & 1 for s in sets))
        for si, s in enumerate(sets):
            if s >> pick & 1:
                branch(uncovered & ~s, chosen + [si])

    branch(full, [])
    return sorted(best[0])


@settings(max_examples=300, deadline=None)
@given(cover_instances())
# ties between points in equally many sets decide the witness here
@example((10, [272, 450, 866, 32, 522, 132, 16, 588, 35]))
@example((14, [9483, 10960, 15035, 5227, 2322, 9118]))
def test_min_set_cover_matches_brute_force(instance):
    universe_size, sets = instance
    chosen, optimal = min_set_cover(universe_size, sets)
    assert optimal
    assert len(chosen) == brute_force_size(universe_size, sets)
    union = 0
    for si in chosen:
        union |= sets[si]
    assert union == (1 << universe_size) - 1
    assert chosen == plain_search(universe_size, sets)


def ceiling_bound(universe_size: int, sets: list[int]) -> int:
    """The larger of ceil(|U| / max |S & U|) over the points U kept by the
    dominance reduction and the greedy packing of those points: the root
    bound with the k-largest coverage bound replaced by the ceiling."""
    inst = _Instance(universe_size, sets)
    widest = max((s & inst.full).bit_count() for s in inst.sets)
    used = packing = 0
    for c in inst.covers:
        if c & used == 0:
            packing += 1
            used |= c
    return max(-(-inst.full.bit_count() // widest), packing)


@settings(max_examples=300, deadline=None)
@given(cover_instances())
def test_lower_bound_is_bracketed(instance):
    # the lower end of an aborted ``sum``'s bracket holds the optimum and
    # is never below the ceiling bound
    universe_size, sets = instance
    bound = set_cover_lower_bound(universe_size, sets)
    assert ceiling_bound(universe_size, sets) <= bound <= brute_force_size(universe_size, sets)


@settings(max_examples=30, deadline=None)
@given(perm_specs())
def test_gamma_exact_matches_oracle(spec):
    L = enumerate_subgroups(small_group(spec))
    graph = intersection_graph(L)
    if graph.n > 25:
        return
    cert = gamma_exact(L)
    assert cert.optimal
    # the oracle returns the smallest size that dominates
    assert domination_oracle(graph, graph.n) == cert.gamma, spec
