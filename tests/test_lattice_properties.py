"""Property tests on random permutation groups: multiplication tables,
subgroup enumeration, conjugation, commutator series, quotients, Burnside
products, the four subgroup complexes and the bound suite's
residual-quotient report.

Groups are drawn as ``perm:`` specs of degree at most 6 with up to three
random generators; only groups of order at most 60 are kept, so the
all-pairs oracle stays fast.  The table check draws degree up to 8 and
builds under a cap of 400 elements.  Abelian groups, which those specs
rarely give with three or more factors, are also drawn as
``C{a}xC{b}x...`` specs and relabelled by a random permutation fixing the
identity.
"""

import dataclasses
import functools
import random
import re
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402
from burnside_reference import double_cosets, reference_product  # noqa: E402
from derived_series_reference import (derived_series_all_commutators,  # noqa: E402
                                      lower_central_series_all_commutators)
from groups_reference import reference_table  # noqa: E402
from lattice_reference import (_join, cyclic_subgroup_masks,  # noqa: E402
                               enumerate_subgroups_allpairs, subgroups_bruteforce)
from mobius_reference import mobius_one_to_top  # noqa: E402
from residual_quotient_reference import (reference_residual_quotient,  # noqa: E402
                                         residual_quotient_report)

from groupdom.burnside import BurnsideRing  # noqa: E402
from groupdom.complexes import (SimplicialComplex, atom_nerve,  # noqa: E402
                                betti, coatom_nerve, intersection_complex,
                                lattice_f_vectors, order_complex)
from groupdom.corpus import get_group  # noqa: E402
from groupdom.domination import gamma_exact  # noqa: E402
from groupdom.errors import BudgetExceeded, CapExceeded  # noqa: E402
from groupdom.formulas import verify_bounds  # noqa: E402
from groupdom.groups import (array_to_mask, build_group, is_normal,  # noqa: E402
                             mask_to_array, parse_group_spec, quotient_group)
from groupdom.lattice import (_close_joins, characteristic_subgroups,  # noqa: E402
                              classify_group, close_subset, conjugates, derived_series,
                              enumerate_subgroups, lower_central_series, mobius,
                              prime_factors, subgroup_classes)

MAX_ORDER = 60


def cycles_text(images) -> str:
    """1-based cycle notation of a permutation given as an image list."""
    seen = set()
    out = []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        x = images[start]
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = images[x]
        out.append("(" + ",".join(str(p + 1) for p in cycle) + ")")
    return "".join(out) or "(1)"


@st.composite
def perm_specs(draw, max_degree=6):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return f"perm:{degree}:" + ";".join(cycles_text(g) for g in gens)


def small_group(spec):
    G = build_group(parse_group_spec(spec))
    assume(G.order <= MAX_ORDER)
    return G


PROPERTY = settings(max_examples=30, deadline=None)


@PROPERTY
@given(perm_specs())
def test_enumeration_matches_oracles(spec):
    G = small_group(spec)
    masks = {s.mask for s in enumerate_subgroups(G).subgroups}
    assert masks == enumerate_subgroups_allpairs(G), spec
    if len(cyclic_subgroup_masks(G)) <= 20:
        assert masks == subgroups_bruteforce(G), spec


@st.composite
def abelian_specs(draw):
    """``C{a}xC{b}x...`` of order at most 64 with at most four factors: the
    all-pairs oracle takes 3 s on C2^5 and 13 s on C4xC2^4."""
    factors = []
    for f in draw(st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=4)):
        if f * np.prod(factors, dtype=int) <= 64:
            factors.append(f)
    return "x".join(f"C{f}" for f in factors)


def relabelling(n, seed):
    """A permutation of range(n) fixing 0, drawn from ``seed``."""
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    return np.array([0] + rest)


def relabelled(G, seed):
    """G with its non-identity elements renamed by ``relabelling(|G|,
    seed)``; the identity stays 0."""
    p = relabelling(G.order, seed)
    back = np.argsort(p)
    return dataclasses.replace(
        G, mul=p[G.mul[np.ix_(back, back)]].astype(G.mul.dtype),
        inv=p[G.inv[back]].astype(G.inv.dtype), elem_order=G.elem_order[back].copy(),
        generators=tuple(int(p[g]) for g in G.generators))


@PROPERTY
@given(abelian_specs(), st.integers(min_value=0, max_value=2 ** 32))
@example("Q8/Z", 1)  # abelian quotients from the corpus
@example("D36/C9", 2)
@example("perm:6:(1,2);(3,4);(5,6)", 3)  # C2^3 as permutations
def test_abelian_enumeration_matches_oracles_under_relabelling(spec, seed):
    # cyclic extension picks the first generator in each K outside H by
    # element index, so a relabelling changes which pairs it keeps
    G = relabelled(get_group(spec), seed)
    assert G.is_abelian(), spec
    masks = {s.mask for s in enumerate_subgroups(G).subgroups}
    assert masks == enumerate_subgroups_allpairs(G), spec
    if len(cyclic_subgroup_masks(G)) <= 20:
        assert masks == subgroups_bruteforce(G), spec


# A5 in its two actions: on 5 points, and transitively on 6 (PSL(2, 5)),
# so that the draws below include groups with a non-trivial solvable
# residual, the only groups in which joins still run
A5_ACTIONS = ["(1,2,3);(1,2,3,4,5)", "(1,2,3,4,5);(1,6)(2,5)"]


@st.composite
def residual_perm_specs(draw):
    """A ``perm:`` spec drawn by ``perm_specs``, or A5 in one of its two
    actions with its points renamed at random."""
    if draw(st.booleans()):
        return draw(perm_specs())
    points = draw(st.permutations(range(6)))
    action = draw(st.sampled_from(A5_ACTIONS))
    return "perm:6:" + re.sub(r"\d+", lambda m: str(points[int(m.group()) - 1] + 1), action)


def relabel_mask(mask, p):
    return array_to_mask(p[mask_to_array(mask, len(p))], len(p))


@PROPERTY
@given(residual_perm_specs(), st.integers(min_value=0, max_value=2 ** 32))
@example("S5", 1)
@example("S6", 2)
def test_enumeration_matches_allpairs_under_relabelling(spec, seed):
    # cyclic extension and the joins inside G^(∞) both pick generators by
    # element index, so a relabelling changes which extensions and joins
    # run.  The lattice and its classes must only be renamed, and must be
    # the all-pairs closure's wherever that is affordable: it takes
    # about 1.5 s on S5 and 50 s on A6, so S6 is checked by renaming only.
    G = get_group(spec)
    assume(G.order <= MAX_ORDER or spec in ("S5", "S6"))
    p = relabelling(G.order, seed)
    H = relabelled(G, seed)
    L, LH = enumerate_subgroups(G), enumerate_subgroups(H)
    masks = {s.mask for s in LH.subgroups}
    assert masks == {relabel_mask(s.mask, p) for s in L.subgroups}, spec

    def renamed_classes(L, p):
        return {(frozenset(relabel_mask(L.subgroups[j].mask, p) for j in c.members),
                 c.normalizer.order) for c in subgroup_classes(L.group, L)}

    assert renamed_classes(LH, np.arange(H.order)) == renamed_classes(L, p), spec
    if G.order <= 120:
        assert masks == enumerate_subgroups_allpairs(H), spec


class CountingTable(np.ndarray):
    """A multiplication table that counts the products read from it."""
    reads = 0

    def __getitem__(self, key):
        out = np.asarray(super().__getitem__(key))
        CountingTable.reads += out.size
        return out


def join_row(G, h, c, order):
    """The ``_close_joins`` row of subgroup masks h and c: H's members,
    C's members, and a generating set of H picked greedily in ``order``
    (H's members, shuffled) followed by a generator of C."""
    n = G.order
    gens, closure = [], 1
    for x in order:
        if not closure >> x & 1:
            gens.append(x)
            closure = close_subset(G, closure | 1 << x)
    c_members = mask_to_array(c, n)
    c_gen = next(x for x in c_members.tolist() if G.elem_order[x] == c.bit_count())
    return mask_to_array(h, n), c_members, tuple(gens) + (c_gen,)


@functools.lru_cache(maxsize=None)
def residual_joins(label):
    """G with a counting table, its solvable residual R, the subgroups of
    R, its prime-power cyclic subgroups, and two anchor pairs (H, C) of
    cyclic subgroups: the first whose product set HC fits in |R|/5 but
    whose join is R, and the first whose join grows past HC to a
    subgroup of the largest order below R."""
    G = get_group(label)
    G = dataclasses.replace(G, mul=G.mul.view(CountingTable))
    R = derived_series(G)[-1]
    subs = [s.mask for s in enumerate_subgroups(G).subgroups if s.mask & ~R == 0]
    largest = max(m.bit_count() for m in subs if m != R)
    cyclic = [c for c in cyclic_subgroup_masks(G)
              if c & ~R == 0 and len(prime_factors(c.bit_count())) == 1]
    pairs = [(h, c) for h in cyclic for c in cyclic if h & ~c and c & ~h]
    fifth = R.bit_count() // 5

    def join(h, c):
        return _join(G, *join_row(G, h, c, mask_to_array(h, G.order).tolist()), R)

    retiring = next((h, c) for h, c in pairs
                    if h.bit_count() * c.bit_count() <= fifth and join(h, c) == R)
    closing = next((h, c) for h, c in pairs if h.bit_count() * c.bit_count()
                   < join(h, c).bit_count() == largest)
    return G, R, subs, cyclic, (retiring, closing)


@PROPERTY
@given(st.sampled_from(["A5", "S5", "A6"]),
       st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=0)), max_size=12),
       st.randoms(use_true_random=False))
def test_batched_joins_match_the_one_join_search(label, picks, rnd):
    # one ``_close_joins`` call over joins inside the residual R (A5 in A5
    # and S5, A6 in A6): subgroups H of every order with prime-power
    # cyclic C, and the two anchors, one retiring as R and one closing
    # below |R|/5.  Every row equals the one-join search ``_join``, and
    # the batch multiplies no element its row's search does not: each
    # search reads |H||C| products and then |gens| per element it
    # multiplies, and the batch pads H and C to the largest of each and
    # gens to the longest
    G, R, subs, cyclic, anchors = residual_joins(label)
    pairs = [(subs[i % len(subs)], cyclic[j % len(cyclic)]) for i, j in picks]
    for pair in anchors:
        pairs.insert(rnd.randrange(len(pairs) + 1), pair)
    rows = []
    for h, c in pairs:
        order = mask_to_array(h, G.order).tolist()
        rnd.shuffle(order)
        rows.append(join_row(G, h, c, order))
    expected, multiplied = [], 0
    for h_members, c_members, gens in rows:
        CountingTable.reads = 0
        expected.append(_join(G, h_members, c_members, gens, R))
        multiplied += (CountingTable.reads - len(h_members) * len(c_members)) // len(gens)
    assert R in expected and any(j != R for j in expected)
    CountingTable.reads = 0
    assert _close_joins(G, rows, R) == expected, label
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    assert CountingTable.reads <= len(rows) * widths[0] * widths[1] + widths[2] * multiplied


@PROPERTY
@given(perm_specs())
def test_orbit_stabilizer(spec):
    G = small_group(spec)
    L = enumerate_subgroups(G)
    classes = subgroup_classes(G, L)
    assert sorted(j for c in classes for j in c.members) == list(range(len(L)))
    for c in classes:
        assert len(c.members) * c.normalizer.order == G.order, spec
        assert c.normalizer.mask & L.subgroups[c.rep].mask == L.subgroups[c.rep].mask


@PROPERTY
@given(perm_specs())
def test_tiny_subgroup_budget_reports_partial(spec):
    G = small_group(spec)
    if G.order == 1:  # the trivial group has one subgroup
        return
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_subgroups(G, deadline=time.monotonic())
    assert exc.value.partial is not None and exc.value.partial > 1


@PROPERTY
@given(perm_specs())
@example("perm:6:(1,2,3,4);(1,2);(5,6)")  # S4xC2: faces past the budget
def test_euler_is_alternating_betti_sum(spec):
    G = small_group(spec)
    L = enumerate_subgroups(G)
    mu = mobius_one_to_top(L)
    for build in (intersection_complex, order_complex, atom_nerve, coatom_nerve):
        cx = build(L)
        if cx.is_empty():
            continue
        p = betti(cx)
        assert p.euler == 1 + sum((-1) ** k * b for k, b in enumerate(p.betti)), spec
        assert p.euler - 1 == mu, (spec, build.__name__)
        try:
            f_vector = cx.f_vector()
        except BudgetExceeded:
            assert p.f_vector is None, spec
            continue
        assert p.euler == sum((-1) ** k * c for k, c in enumerate(f_vector)), spec


@PROPERTY
@given(perm_specs())
@example("perm:6:(1,2,3,4);(1,2);(5,6)")  # S4xC2: K past the enumeration budget
def test_intersection_f_vector_counts_the_faces(spec):
    # the face counts of K from μ(1, ·) on the lattice, against the faces
    # themselves wherever they fit a budget small enough to list quickly
    L = enumerate_subgroups(small_group(spec))
    f_vector = lattice_f_vectors(L)["intersection"]
    assert mobius(L)[-1] == mobius_one_to_top(L), spec
    euler = sum((-1) ** k * c for k, c in enumerate(f_vector))
    assert euler == (1 + mobius_one_to_top(L) if len(L) > 1 else 0), spec
    try:
        assert f_vector == intersection_complex(L).f_vector(200_000), spec
    except BudgetExceeded:
        assert sum(f_vector) > 200_000, spec


@PROPERTY
@given(perm_specs())
@example("perm:6:(1,2,3,4);(1,2);(5,6)")  # S4xC2
def test_nerve_f_vectors_count_the_faces(spec):
    # the nerves' face counts from μ(1, ·) and μ(·, G) (Rota's crosscut
    # count for the atom nerve), and the order complex's from its chains,
    # against the faces themselves wherever they fit a budget small enough
    # to list quickly
    L = enumerate_subgroups(small_group(spec))
    counted = lattice_f_vectors(L)
    for name, build in (("atom_nerve", atom_nerve), ("coatom_nerve", coatom_nerve),
                        ("order", order_complex)):
        f_vector = counted[name]
        euler = sum((-1) ** k * c for k, c in enumerate(f_vector))
        assert euler == (1 + mobius_one_to_top(L) if len(L) > 1 else 0), (spec, name)
        try:
            assert f_vector == build(L).f_vector(200_000), (spec, name)
        except BudgetExceeded:
            assert sum(f_vector) > 200_000, (spec, name)


@PROPERTY
@given(perm_specs())
def test_order_complex_facets_are_maximal_distinct_and_sorted(spec):
    # order_complex skips from_facets' maximality filter
    L = enumerate_subgroups(small_group(spec))
    oc = order_complex(L)
    assert oc == SimplicialComplex.from_facets(oc.vertex_labels, oc.facets), spec


@PROPERTY
@given(perm_specs())
def test_quotient_projection_is_homomorphism(spec):
    G = small_group(spec)
    for s in enumerate_subgroups(G).subgroups:
        if not is_normal(G, s.mask):
            continue
        Q, proj = quotient_group(G, s.mask)
        assert Q.order * s.order == G.order
        assert np.array_equal(proj[G.mul], Q.mul[proj[:, None], proj[None, :]]), spec


def members_of(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def conjugate_by_loop(G, mask, g):
    """g H g^-1 element by element."""
    out = 0
    for h in members_of(mask):
        out |= 1 << int(G.mul[G.mul[g, h], G.inv[g]])
    return out


def commutator_subgroup_by_loop(G, a_mask, b_mask):
    """<[a, b] : a in A, b in B> from a double loop, closed by close_subset."""
    comms = 0
    for a in members_of(a_mask):
        for b in members_of(b_mask):
            ab = G.mul[a, b]
            comms |= 1 << int(G.mul[G.mul[G.inv[a], G.inv[b]], ab])
    return close_subset(G, comms)


def assert_conjugates_match_loop(G, mask, spec):
    orbit, normalizer = conjugates(G, mask)
    first: dict[int, int] = {}
    norm = 0
    for g in range(G.order):
        c = conjugate_by_loop(G, mask, g)
        first.setdefault(c, g)
        if c == mask:
            norm |= 1 << g
    assert orbit == first, (spec, mask)
    assert normalizer == norm, (spec, mask)


@PROPERTY
@given(perm_specs())
def test_conjugates_match_elementwise_conjugation(spec):
    G = small_group(spec)
    for s in enumerate_subgroups(G).subgroups:
        assert_conjugates_match_loop(G, s.mask, spec)


def test_s5_conjugates_match_elementwise_conjugation():
    # A fixed non-solvable group, which the draws above rarely reach: the
    # orbits read from normalizer cosets on every subgroup, the normal
    # ones (N = G) included.  tests/test_lattice.py checks S5's
    # enumeration against the all-pairs closure.
    G = build_group(parse_group_spec("S5"))
    L = enumerate_subgroups(G)
    assert len(L) == 156
    for s in L.subgroups:
        assert_conjugates_match_loop(G, s.mask, "S5")


@pytest.mark.parametrize("label, seed", [("A6", None), ("S6", 11)])
def test_large_conjugates_match_elementwise_conjugation(label, seed):
    # ``conjugates`` conjugates by left-coset representatives only; on the
    # class representatives of A6 and of a relabelled S6 its orbits, with
    # the least conjugating element, and normalizers are those of every g
    G = build_group(parse_group_spec(label))
    if seed is not None:
        G = relabelled(G, seed)
    L = enumerate_subgroups(G)
    for c in L.classes:
        assert_conjugates_match_loop(G, L.subgroups[c.rep].mask, label)


@PROPERTY
@given(perm_specs())
def test_commutator_series_match_double_loop(spec):
    G = small_group(spec)
    L = enumerate_subgroups(G)
    full = (1 << G.order) - 1
    lower = [full]
    while True:
        nxt = commutator_subgroup_by_loop(G, lower[-1], full)
        if nxt == lower[-1]:
            break
        lower.append(nxt)
        if nxt == 1:
            break
    derived = [full]
    while (nxt := commutator_subgroup_by_loop(G, derived[-1], derived[-1])) != derived[-1]:
        derived.append(nxt)
    chars = characteristic_subgroups(G, L)
    assert derived_series(G) == derived_series_all_commutators(G) == derived, spec
    assert lower_central_series(G) == lower_central_series_all_commutators(G) == lower, spec
    assert chars.nilpotent_residual.mask == lower[-1], spec
    assert chars.derived.mask == commutator_subgroup_by_loop(G, full, full), spec
    assert classify_group(G, L).is_solvable == (derived[-1] == 1), spec


@PROPERTY
@given(perm_specs())
def test_burnside_products_match_marks(spec):
    # non-abelian products are peeled off the marks, so every product is
    # checked against double cosets; the marks against their definition below
    G = small_group(spec)
    ring = BurnsideRing(G, enumerate_subgroups(G))
    for a in range(len(ring.classes)):
        for b in range(a, len(ring.classes)):
            assert ring.product(a, b).coeffs == reference_product(ring, a, b), (spec, a, b)


def marks_by_definition(ring) -> np.ndarray:
    """M[i, j] = the number of cosets gK_i, each enumerated as a set, with
    h·gK_i = gK_i for every h in H_j."""
    G = ring.G
    reps = [ring.rep_subgroup(c) for c in range(len(ring.classes))]
    M = np.zeros((len(reps), len(reps)), dtype=np.int64)
    for i, K in enumerate(reps):
        cosets = {frozenset(int(G.mul[g, k]) for k in mask_to_array(K.mask, G.order))
                  for g in range(G.order)}
        for j, H in enumerate(reps):
            M[i, j] = sum(all(frozenset(int(G.mul[h, x]) for x in coset) == coset
                              for h in mask_to_array(H.mask, G.order))
                          for coset in cosets)
    return M


@PROPERTY
@given(perm_specs())
def test_marks_match_fixed_coset_count(spec):
    G = small_group(spec)
    ring = BurnsideRing(G, enumerate_subgroups(G))
    assert np.array_equal(ring.marks_matrix(), marks_by_definition(ring)), spec


@PROPERTY
@given(perm_specs())
def test_coatoms_are_the_subgroups_below_only_g(spec):
    L = enumerate_subgroups(small_group(spec))
    masks = [s.mask for s in L.subgroups]
    top = len(masks) - 1
    expected = tuple(i for i in range(top)
                     if sum(1 for m in masks if masks[i] & ~m == 0) == 2)  # i and G
    assert L.coatoms == expected, spec


@PROPERTY
@given(perm_specs())
def test_double_cosets_match_greedy_sweep(spec):
    """Against a sweep over g in index order that marks each HgK it meets."""
    G = small_group(spec)
    L = enumerate_subgroups(G)
    reps = [L.subgroups[c.rep] for c in subgroup_classes(G, L)]
    for H in reps:
        for K in reps:
            visited, sweep = set(), []
            for g in range(G.order):
                if g not in visited:
                    coset = {int(G.mul[int(G.mul[h, g]), k]) for h in range(G.order)
                             if H.mask >> h & 1 for k in range(G.order) if K.mask >> k & 1}
                    visited |= coset
                    sweep.append((g, len(coset)))
            dc = double_cosets(G, H, K)
            assert list(zip(dc.reps, dc.sizes)) == sweep, (spec, H.mask, K.mask)


@PROPERTY
@given(perm_specs())
@example("perm:6:(1,2,3);(1,2)(4,5,6)")  # S3 x C3: |G:R| = 6 < |G|, two primes
def test_residual_quotient_report_matches_quotient_lattice(spec):
    G = small_group(spec)
    L = enumerate_subgroups(G)
    chars = characteristic_subgroups(G, L)
    cert = gamma_exact(L)
    reports = verify_bounds(G, L, classify_group(G, L), chars, cert)
    expected = reference_residual_quotient(G, chars, cert.gamma)
    assert residual_quotient_report(reports) == expected, spec


@PROPERTY
@given(perm_specs(max_degree=8))
@example("perm:8:(1,2,3,4,5,6,7,8);(1,2)")  # S8 stops at the cap
def test_perm_table_matches_reference(spec):
    """The closure's table, generators and cap against the per-row search,
    on groups of degree up to 8 under a cap of 400 elements."""
    parsed = parse_group_spec(spec)
    try:
        expected, gens = reference_table(parsed, cap=400)
    except CapExceeded as exc:
        with pytest.raises(CapExceeded) as raised:
            build_group(parsed, cap=400)
        assert raised.value.reached == exc.reached, spec
        return
    G = build_group(parsed, cap=400)
    assert G.mul.dtype == expected.dtype and G.mul.tobytes() == expected.tobytes(), spec
    assert G.generators == tuple(gens), spec
