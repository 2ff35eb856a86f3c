"""Calls that leave no reference cycles behind.  With the cyclic collector
off, what a call drops is freed on return by reference counting alone,
so a ``gc.collect()`` right after it finds nothing.  A nested search that
calls itself holds itself through its closure; ``min_set_cover`` (behind
``sum_number``) and ``order_complex`` (behind ``topology_report``) break
that cycle on return."""

import gc

import pytest

from groupdom.complexes import order_complex, topology_report
from groupdom.domination import gamma_exact, sum_number
from groupdom.groups import build_group, parse_group_spec
from groupdom.lattice import enumerate_subgroups

CALLS = {
    "enumerate_subgroups": lambda G, L, gamma: enumerate_subgroups(G),
    "sum_number": lambda G, L, gamma: sum_number(G, L),
    "order_complex": lambda G, L, gamma: order_complex(L),
    "topology_report": lambda G, L, gamma: topology_report(L, gamma),
}


def fresh(label):
    """G, a lattice of its own (no cached property read yet) and γ."""
    G = build_group(parse_group_spec(label))
    L = enumerate_subgroups(G)
    return G, L, gamma_exact(enumerate_subgroups(G))


@pytest.mark.parametrize("name, label", [
    ("enumerate_subgroups", "A6"),  # the batched join closure
    ("sum_number", "A6"),
    ("order_complex", "S4"), ("order_complex", "A5"),
    ("topology_report", "S4"), ("topology_report", "A5")])
def test_call_leaves_no_cycles(name, label):
    call = CALLS[name]
    call(*fresh(label))  # a first call also sets up what numpy builds lazily
    args = fresh(label)
    gc.collect()
    gc.disable()
    try:
        call(*args)
        assert gc.collect() == 0, (name, label)
    finally:
        gc.enable()
