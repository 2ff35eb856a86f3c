"""Budget and cap behavior: structured aborts with partial progress."""

import itertools
import math
import time

import pytest

from groupdom import domination
from groupdom.domination import gamma_exact, min_set_cover, sum_number
from groupdom.errors import BudgetExceeded
from groupdom.groups import build_group, parse_group_spec
from groupdom.lattice import enumerate_subgroups


def test_lattice_size_budget_reports_partial():
    # the deadline is first checked after the first layer of cyclic
    # extension, which finds the 9 subgroups of order 2 in S4
    G = build_group(parse_group_spec("S4"))
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_subgroups(G, deadline=time.monotonic())
    assert exc.value.partial is not None and exc.value.partial > 5


@pytest.mark.parametrize("label", ["C2xC2", "Q8", "C12", "C3xC3"])
def test_size_budget_counts_cyclic_seeds(label):
    # every subgroup of these groups is cyclic or the whole group, so the
    # deadline must be checked as soon as the cyclic subgroups are known:
    # after the first layer of cyclic extension, which finds the subgroups
    # of the least prime order
    G = build_group(parse_group_spec(label))
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_subgroups(G, deadline=time.monotonic())
    assert exc.value.partial is not None and exc.value.partial > 1


def test_lattice_time_budget():
    G = build_group(parse_group_spec("S5"))
    with pytest.raises(BudgetExceeded):
        enumerate_subgroups(G, deadline=time.monotonic())


def test_abelian_lattice_time_budget():
    G = build_group(parse_group_spec("C2xC2xC2xC2xC2"))
    with pytest.raises(BudgetExceeded):
        enumerate_subgroups(G, deadline=time.monotonic())


def test_abelian_lattice_size_budget_reports_partial():
    # C2^5 has 31 subgroups of order 2, all found in the first layer
    G = build_group(parse_group_spec("C2xC2xC2xC2xC2"))
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_subgroups(G, deadline=time.monotonic())
    assert exc.value.partial is not None and exc.value.partial > 10


def test_solver_budget_returns_incumbent():
    G = build_group(parse_group_spec("C2xC2xC2xC2"))
    L = enumerate_subgroups(G)
    cert = gamma_exact(L, deadline=time.monotonic())
    assert not cert.optimal
    assert cert.gamma.finite is not None  # greedy incumbent still reported
    exact = gamma_exact(L)
    assert exact.optimal and exact.gamma <= cert.gamma


def test_sum_number_bracket_on_budget_abort():
    G = build_group(parse_group_spec("C2xC2xC2xC2"))
    L = enumerate_subgroups(G)
    res = sum_number(G, L, deadline=time.monotonic())
    assert not res.optimal
    lo, hi = res.bracket
    assert lo <= 3 <= hi
    assert hi == res.value.finite


def test_sum_number_of_a6_cut_off_at_the_root():
    # the incumbent is the class cover of 16, Cohn's value, not the greedy
    # cover of 18; the bracket's lower end is the root bound
    G = build_group(parse_group_spec("A6"))
    res = sum_number(G, enumerate_subgroups(G), deadline=time.monotonic())
    assert not res.optimal
    assert res.value.finite == 16 and res.bracket == (11, 16)


def test_min_set_cover_budget_flag():
    sets = [1 << i for i in range(12)]
    chosen, optimal = min_set_cover(12, sets, deadline=time.monotonic())
    assert len(chosen) == 12  # greedy already optimal here
    assert not optimal


@pytest.mark.parametrize("abort", [1, 10, "half", "last"])
def test_sum_number_bracket_on_mid_search_abort(monkeypatch, abort):
    # a clock that ticks once per reading passes the deadline after
    # ``checks`` search nodes, in mid-search: the answer must still be a
    # cover and the bracket must hold sigma(S5).  The late abort points are
    # read off the unbudgeted search's own count of checks, so they stay
    # in mid-search however much the search is pruned
    G = build_group(parse_group_spec("S5"))
    L = enumerate_subgroups(G)
    calls = itertools.count()
    monkeypatch.setattr(domination.time, "monotonic", lambda: next(calls))
    assert sum_number(G, L, deadline=math.inf).optimal
    total = next(calls)  # the checks of the whole search
    checks = {"half": total // 2, "last": total - 1}.get(abort, abort)
    assert checks < total
    calls = itertools.count()
    res = sum_number(G, L, deadline=checks)
    assert not res.optimal
    lo, hi = res.bracket
    assert lo <= 16 <= hi == res.value.finite
    union = 0
    for w in res.witness:
        union |= L.subgroups[w].mask
    assert union == (1 << G.order) - 1
