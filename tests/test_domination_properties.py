"""Property tests for the set-cover solver, the domination number and the
sum number.

Set-cover instances are drawn point by point: each point gets a non-empty
set of covering sets, so every instance is coverable.  Groups are the
random ``perm:`` specs of the lattice property tests.
"""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from domination_reference import (domination_oracle,  # noqa: E402
                                  lower_bound_visiting_every_point)
from groupdom.domination import (Gamma, _Instance, class_cover, gamma_exact,  # noqa: E402
                                 min_set_cover, set_cover_lower_bound, sum_number)
from groupdom.graphs import intersection_graph  # noqa: E402
from groupdom.groups import build_group, parse_group_spec  # noqa: E402
from groupdom.lattice import enumerate_subgroups  # noqa: E402
from test_lattice_properties import perm_specs, relabelled, small_group  # noqa: E402


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


@st.composite
def weighted_cover_instances(draw):
    """A ``cover_instances`` instance with a weight from 1 to 4 per set."""
    universe_size, sets = draw(cover_instances())
    weights = draw(st.lists(st.integers(min_value=1, max_value=4),
                            min_size=len(sets), max_size=len(sets)))
    return universe_size, sets, weights


def brute_force_size(universe_size: int, sets: list[int], weights: list[int]) -> int:
    """The least weight of a cover, over every combination of sets."""
    full = (1 << universe_size) - 1
    best = None
    for k in range(1, len(sets) + 1):
        for combo in combinations(range(len(sets)), k):
            union = 0
            for si in combo:
                union |= sets[si]
            if union == full:
                weight = sum(weights[si] for si in combo)
                best = weight if best is None else min(best, weight)
    if best is None:
        raise AssertionError("instance is not coverable")
    return best


def greedy_cover(universe_size: int, sets: list[int]) -> list[int]:
    """The cover that takes, while points are uncovered, the first set
    covering the most of them."""
    chosen, uncovered = [], (1 << universe_size) - 1
    while uncovered:
        gains = [(s & uncovered).bit_count() for s in sets]
        chosen.append(gains.index(max(gains)))
        uncovered &= ~sets[chosen[-1]]
    return chosen


def solve_from(universe_size: int, sets: list[int], start: list[int]) -> tuple[list[int], bool]:
    """What ``min_set_cover`` must return from ``start``: the solve with no
    start, except that a start shorter than the greedy cover and of the
    optimal size comes back itself."""
    chosen, optimal = min_set_cover(universe_size, sets)
    if len(chosen) == len(start) < len(greedy_cover(universe_size, sets)):
        return sorted(start), optimal
    return chosen, optimal


def plain_search(universe_size: int, sets: list[int], weights: list[int]) -> list[int]:
    """Reference for the witness: the greedy cover, replaced only by the
    first strictly lighter cover met by a depth-first search that branches
    on the uncovered point in the fewest sets (smallest index on ties),
    trying its sets in index order, with no reduction, bound or memo."""
    full = (1 << universe_size) - 1
    greedy = greedy_cover(universe_size, sets)
    best = [greedy, sum(weights[si] for si in greedy)]

    def branch(uncovered, chosen, spent):
        if uncovered == 0:
            if spent < best[1]:
                best[:] = [list(chosen), spent]
            return
        if spent + 1 >= best[1]:
            return
        pick = min((a for a in range(universe_size) if uncovered >> a & 1),
                   key=lambda a: sum(s >> a & 1 for s in sets))
        for si, s in enumerate(sets):
            if s >> pick & 1:
                branch(uncovered & ~s, chosen + [si], spent + weights[si])

    branch(full, [], 0)
    return sorted(best[0])


@settings(max_examples=300, deadline=None)
@given(weighted_cover_instances())
# ties between points in equally many sets decide the witness here
@example((10, [272, 450, 866, 32, 522, 132, 16, 588, 35], [1] * 9))
@example((14, [9483, 10960, 15035, 5227, 2322, 9118], [1] * 6))
# a failure memo that counts the chosen sets instead of their weight
# prunes the optimum here
@example((3, [2, 3, 3, 2, 6, 5, 4], [4, 2, 1, 3, 1, 4, 1]))
def test_min_set_cover_matches_brute_force(instance):
    # the drawn weights, then unit weights, the default
    universe_size, sets, drawn = instance
    for weights in (drawn, None):
        chosen, optimal = min_set_cover(universe_size, sets, weights=weights)
        weights = weights or [1] * len(sets)
        assert optimal
        assert sum(weights[si] for si in chosen) == brute_force_size(universe_size, sets, weights)
        union = 0
        for si in chosen:
            union |= sets[si]
        assert union == (1 << universe_size) - 1
        assert chosen == plain_search(universe_size, sets, weights)


def rotation_instance(k: int, height: int, seeds: list[set[int]]):
    """(universe size, sets, rows): points in k columns of ``height``,
    each seed set of points closed under the rotation of the columns,
    which permutes the points and the sets; ``rows`` are the k rotations as
    permutations of the set indices, identity first.  Each seed's k images
    are consecutive sets, so the classes of sets under the rotation are the
    blocks of k."""
    n = k * height

    def rotate(mask):
        out = 0
        for a in range(n):
            if mask >> a & 1:
                out |= 1 << (a - a % k + (a + 1) % k)
        return out

    sets = []
    for seed in seeds:
        mask = sum(1 << a for a in seed)
        for _ in range(k):
            sets.append(mask)
            mask = rotate(mask)
    union = 0
    for s in sets:
        union |= s
    if union != (1 << n) - 1:  # the missing points are closed under rotation
        sets += [((1 << n) - 1) & ~union] * k
    rows = np.array([[j - j % k + (j + u) % k for j in range(len(sets))] for u in range(k)])
    return n, sets, rows


@st.composite
def symmetric_instances(draw):
    """A ``rotation_instance`` with 3 to 6 columns, up to 3 points high,
    from up to four seeds of at most three points.  Small sets keep the
    bounds weak, so the search is deep enough for the orbit memo to
    prune."""
    k = draw(st.integers(min_value=3, max_value=6))
    height = draw(st.integers(min_value=1, max_value=3))
    seeds = draw(st.lists(st.sets(st.integers(min_value=0, max_value=k * height - 1),
                                  min_size=1, max_size=3), min_size=1, max_size=4))
    return rotation_instance(k, height, seeds)


@settings(max_examples=300, deadline=None)
@given(symmetric_instances())
def test_orbit_memo_keeps_the_optimum_and_the_witness(instance):
    # the solve without symmetry is checked against brute force above
    universe_size, sets, rows = instance
    chosen, optimal = min_set_cover(universe_size, sets, symmetry=lambda: rows)
    assert optimal
    assert chosen == min_set_cover(universe_size, sets)[0]


@settings(max_examples=300, deadline=None)
@given(symmetric_instances())
# the class covers of these are optimal and shorter than the greedy covers
# (by two sets and one), but they are not the first optimum: they come
# back in its place
@example(rotation_instance(6, 2, [{6}, {0, 1, 2}, {1, 5, 9}, {5}]))
@example(rotation_instance(5, 2, [{7, 8}, {1, 2}, {2, 5}]))
# this class cover is shorter than the greedy cover (12 sets against 13)
# but not optimal (10): the first optimum comes back
@example(rotation_instance(6, 3, [{0, 3}, {2, 6}, {15, 17}]))
def test_class_cover_start_keeps_the_optimum_and_the_witness(instance):
    # as ``sum_number`` solves: started from whole rotation classes, with
    # and without the orbit memo
    universe_size, sets, rows = instance
    k = len(rows)
    start = class_cover(sets, [list(range(j, j + k)) for j in range(0, len(sets), k)])
    want = solve_from(universe_size, sets, start)
    assert min_set_cover(universe_size, sets, start=start) == want
    assert min_set_cover(universe_size, sets, symmetry=lambda: rows, start=start) == want


def ceiling_bound(universe_size: int, sets: list[int], weights: list[int]) -> int:
    """The larger of ceil(|U| / max |S & U|) times the least weight, over
    the points U kept by the dominance reduction, and the greedy packing
    of those points, each at the least weight of a set containing it: the
    root bound with the k-largest coverage bound replaced by the ceiling."""
    inst = _Instance(universe_size, sets, weights)
    widest = max((s & inst.full).bit_count() for s in inst.sets)
    used = packing = 0
    for c in inst.covers:
        if c & used == 0:
            packing += min(weights[si] for si in range(len(sets)) if c >> si & 1)
            used |= c
    return max(-(-inst.full.bit_count() // widest) * min(weights), packing)


@settings(max_examples=300, deadline=None)
@given(weighted_cover_instances())
def test_lower_bound_is_bracketed(instance):
    # the root bound of a search with the drawn weights, then the lower
    # end of an aborted ``sum``'s bracket, with unit weights: each holds
    # the optimum and is never below the ceiling bound
    universe_size, sets, drawn = instance
    inst = _Instance(universe_size, sets, drawn)
    unit = [1] * len(sets)
    for weights, bound in ((drawn, inst.lower_bound(inst.full, 0, sum(drawn))),
                           (unit, set_cover_lower_bound(universe_size, sets))):
        assert ceiling_bound(universe_size, sets, weights) <= bound
        assert bound <= brute_force_size(universe_size, sets, weights)


@settings(max_examples=300, deadline=None)
@given(cover_instances(), st.data())
def test_lower_bound_decides_as_the_reference(instance, data):
    # the packing skips the neighbours of a packed point and runs before
    # the coverage sort; the search reads only ``> limit``, and at or
    # below the limit the value is the reference's
    universe_size, sets = instance
    inst = _Instance(universe_size, sets, [1] * len(sets))
    uncovered = data.draw(st.integers(min_value=0, max_value=inst.full), "uncovered") & inst.full
    banned = data.draw(st.integers(min_value=0, max_value=(1 << len(sets)) - 1), "banned")
    limit = data.draw(st.integers(min_value=0, max_value=universe_size), "limit")
    got = inst.lower_bound(uncovered, banned, limit)
    want = lower_bound_visiting_every_point(inst, uncovered, banned, limit)
    assert (got > limit) == (want > limit)
    if want <= limit:
        assert got == want
    root = inst.lower_bound(inst.full, 0, universe_size)
    assert root == lower_bound_visiting_every_point(inst, inst.full, 0, universe_size)


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


def assert_same_sum_without_action(G, L):
    """``sum_number`` gives the value and ``optimal`` of the same solve with
    no symmetry and no class cover passed, and its witness too, unless the
    class cover is shorter than the greedy cover and optimal: then the
    witness is the class cover.  An abelian G's classes are single
    coatoms, so its class cover is the greedy cover."""
    res = sum_number(G, L)
    if res.value.is_aleph0:
        return
    sets = [L.subgroups[c].mask >> 1 for c in L.coatoms]
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(L.coatoms):
        classes.setdefault(L.class_of[c], []).append(i)
    chosen, optimal = solve_from(G.order - 1, sets, class_cover(sets, list(classes.values())))
    want = (Gamma.of(len(chosen)), tuple(sorted(L.coatoms[i] for i in chosen)), optimal)
    assert (res.value, res.witness, res.optimal) == want, G.label


@settings(max_examples=30, deadline=None)
@given(perm_specs())
def test_sum_number_is_unchanged_by_the_orbit_memo(spec):
    G = small_group(spec)
    assert_same_sum_without_action(G, enumerate_subgroups(G))


@pytest.mark.parametrize("spec", ["A5", "S5", "A6"])
@pytest.mark.parametrize("seed", [1, 2])
def test_sum_number_is_unchanged_by_the_orbit_memo_under_relabelling(spec, seed):
    # another labelling orders the coatoms, and so the search, differently
    G = relabelled(build_group(parse_group_spec(spec)), seed)
    assert_same_sum_without_action(G, enumerate_subgroups(G))
