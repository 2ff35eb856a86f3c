"""Property tests on random permutation groups: subgroup enumeration,
quotients and the four subgroup complexes.

Groups are drawn as ``perm:`` specs of degree at most 6 with up to three
random generators; only groups of order at most 60 are kept, so the
all-pairs oracle stays fast.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from groupdom.complexes import (atom_nerve, betti, coatom_nerve,  # noqa: E402
                                intersection_complex, order_complex)
from groupdom.errors import BudgetExceeded  # noqa: E402
from groupdom.groups import (build_group, is_normal, parse_group_spec,  # noqa: E402
                             quotient_group)
from groupdom.lattice import (cyclic_subgroup_masks, enumerate_subgroups,  # noqa: E402
                              enumerate_subgroups_allpairs, subgroup_classes,
                              subgroups_bruteforce)

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
def perm_specs(draw):
    degree = draw(st.integers(min_value=1, max_value=6))
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
        enumerate_subgroups(G, max_subgroups=1)
    assert exc.value.partial is not None and exc.value.partial > 1


@PROPERTY
@given(perm_specs())
def test_euler_is_alternating_betti_sum(spec):
    G = small_group(spec)
    L = enumerate_subgroups(G)
    for build in (intersection_complex, order_complex, atom_nerve, coatom_nerve):
        cx = build(L)
        if cx.is_empty():
            continue
        p = betti(cx)
        euler = sum((-1) ** k * c for k, c in enumerate(cx.f_vector()))
        assert p.euler == euler == 1 + sum((-1) ** k * b for k, b in enumerate(p.betti))


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
