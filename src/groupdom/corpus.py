"""The built-in verification corpus.

Every family the formulas and bounds speak about is represented: all
abelian isomorphism types of order up to 100, dihedral groups of order up
to 200, symmetric and alternating groups of degree up to 6, the quaternion
group, the prime-order semidirect products, and a few quotient-derived
groups.  Expected values carry a provenance tag: "paper" for constants of
the source paper, an author-year citation for covering numbers from the
literature (Cohn 1994, "On n-sum groups"; Abdollahi-Ashraf-Shaker 2007),
and "derived" for regression baselines computed by this library's
independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

from .domination import DominationCertificate, gamma_exact
from .groups import (DEFAULT_ELEMENT_CAP, GroupTable, build_group,
                     parse_group_spec, quotient_group)
from .lattice import Lattice, enumerate_subgroups, prime_factors, subgroup_classes


@dataclass(frozen=True)
class CorpusEntry:
    label: str
    order: int
    spec_text: str | None = None                 # grammar text when applicable
    quotient_of: tuple[str, int] | None = None   # (base spec, kernel order)
    expected: tuple = ()                         # ((name, value, source), ...)

    def expected_dict(self) -> dict:
        return {name: {"value": value, "source": source}
                for name, value, source in self.expected}


def _partitions(k: int) -> list[tuple[int, ...]]:
    if k == 0:
        return [()]
    out = []

    def rec(remaining, largest, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, acc + [part])

    rec(k, k, [])
    return out


def abelian_types(max_order: int) -> list[tuple[int, ...]]:
    """Primary-decomposition factor tuples for every abelian isomorphism
    type of order 2..max_order, sorted by (order, factors)."""
    types = []
    for n in range(2, max_order + 1):
        per_prime = []
        for p in prime_factors(n):
            a = 0
            m = n
            while m % p == 0:
                m //= p
                a += 1
            per_prime.append([tuple(p ** e for e in part) for part in _partitions(a)])
        combos = [()]
        for options in per_prime:
            combos = [c + opt for c in combos for opt in options]
        for c in combos:
            types.append((n, tuple(sorted(c, reverse=True))))
    types.sort()
    return [factors for _, factors in types]


def _abelian_label(factors: tuple[int, ...]) -> str:
    return "x".join(f"C{f}" for f in factors)


_EXPECTED = {
    "C2xC2": (("gamma", 3, "paper"),),
    "C4": (("gamma", 1, "paper"),),
    "D8": (("gamma", 2, "paper"),),
    "D36": (("gamma", 3, "paper"), ("sum_number", 3, "paper")),
    "Q8": (("gamma", 1, "paper"), ("subgroup_count", 6, "paper")),
    "A4": (("gamma", 5, "paper"),),
    "S3": (("gamma", 4, "derived"), ("subgroup_count", 6, "derived")),
    "S4": (("gamma", 4, "derived"), ("subgroup_count", 30, "derived")),
    "S5": (("gamma", 4, "derived"), ("subgroup_count", 156, "derived"),
           ("sum_number", 16, "Cohn 1994")),
    "S6": (("gamma", 5, "derived"), ("subgroup_count", 1455, "derived"),
           ("sum_number", 13, "Abdollahi-Ashraf-Shaker 2007")),
    "A5": (("sum_number", 10, "Cohn 1994"),),
    "A6": (("sum_number", 16, "Cohn 1994"),),
}


def corpus() -> list[CorpusEntry]:
    entries = []
    for factors in abelian_types(100):
        label = _abelian_label(factors)
        order = 1
        for f in factors:
            order *= f
        entries.append(CorpusEntry(label=label, order=order, spec_text=label,
                                   expected=_EXPECTED.get(label, ())))
    for n in range(2, 101):
        label = f"D{2 * n}"
        entries.append(CorpusEntry(label=label, order=2 * n, spec_text=label,
                                   expected=_EXPECTED.get(label, ())))
    for n in range(2, 7):
        entries.append(CorpusEntry(label=f"S{n}", order=math.factorial(n),
                                   spec_text=f"S{n}",
                                   expected=_EXPECTED.get(f"S{n}", ())))
    for n in range(3, 7):
        entries.append(CorpusEntry(label=f"A{n}", order=math.factorial(n) // 2,
                                   spec_text=f"A{n}",
                                   expected=_EXPECTED.get(f"A{n}", ())))
    entries.append(CorpusEntry(label="Q8", order=8, spec_text="Q8",
                               expected=_EXPECTED["Q8"]))
    for p, q in [(3, 2), (5, 2), (7, 2), (7, 3), (13, 3)]:
        entries.append(CorpusEntry(label=f"SD({p},{q})", order=p * q,
                                   spec_text=f"SD({p},{q})"))
    entries.append(CorpusEntry(label="S4/V4", order=6, quotient_of=("S4", 4)))
    entries.append(CorpusEntry(label="Q8/Z", order=4, quotient_of=("Q8", 2)))
    entries.append(CorpusEntry(label="D36/C9", order=4, quotient_of=("D36", 9)))
    return entries


def build_entry(entry: CorpusEntry, cap: int = DEFAULT_ELEMENT_CAP) -> GroupTable:
    if entry.spec_text is not None:
        return build_group(parse_group_spec(entry.spec_text), cap=cap)
    base_text, kernel_order = entry.quotient_of
    base = get_group(base_text, cap=cap)
    L = get_lattice(base_text, cap=cap)
    normals = [c for c in subgroup_classes(base, L)
               if len(c.members) == 1 and L.subgroups[c.rep].order == kernel_order]
    if len(normals) != 1:
        raise ValueError(f"{entry.label}: kernel of order {kernel_order} not unique")
    quot, _ = quotient_group(base, L.subgroups[normals[0].rep].mask)
    return replace(quot, label=entry.label)


_GROUPS: dict[tuple[str, int], GroupTable] = {}
_LATTICES: dict[tuple[str, int], Lattice] = {}
_GAMMAS: dict[tuple[str, int], DominationCertificate] = {}


@cache
def _entries_by_label() -> dict[str, CorpusEntry]:
    return {e.label: e for e in corpus()}


def find_entry(label: str) -> CorpusEntry:
    """The default corpus's entry for ``label``; a label outside it is
    read as a group spec."""
    entry = _entries_by_label().get(label)
    if entry is None:
        return CorpusEntry(label=label, order=0, spec_text=label)
    return entry


def get_group(label: str, cap: int = DEFAULT_ELEMENT_CAP) -> GroupTable:
    key = (label, cap)
    if key not in _GROUPS:
        _GROUPS[key] = build_entry(find_entry(label), cap=cap)
    return _GROUPS[key]


def get_lattice(label: str, cap: int = DEFAULT_ELEMENT_CAP) -> Lattice:
    key = (label, cap)
    if key not in _LATTICES:
        _LATTICES[key] = enumerate_subgroups(get_group(label, cap=cap))
    return _LATTICES[key]


def get_gamma(label: str, cap: int = DEFAULT_ELEMENT_CAP) -> DominationCertificate:
    key = (label, cap)
    if key not in _GAMMAS:
        _GAMMAS[key] = gamma_exact(get_lattice(label, cap=cap))
    return _GAMMAS[key]
