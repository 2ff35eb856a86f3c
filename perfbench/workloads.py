"""Workloads: the query list of each one and the pinned answers it is
checked against.

A query is one CLI command (``["sum", "S6"]``) or, for ``verify48``, the
per-group step of ``groupdom --order-max 48 verify``.  Every pin carries
its source.  A check returns a list of problems; an empty list means the
answer is right.
"""

from __future__ import annotations

import json
from pathlib import Path

VERIFY_ORDER_MAX = 48

LARGE_GROUPS = (("sum", "S6"), ("sum", "A6"), ("burnside", "A6"), ("gamma", "D200"))

COMPLEX_GROUPS = ("S4", "A5", "D24", "D36", "C4xC2xC2", "C3xC2xC2xC2", "C6xC6")

# Reduced Betti vectors with trailing zeros dropped; () is acyclic.
# Source: measured by this library at seed 0, identical in all four models.
BETTI = {
    "S4": (0, 12),
    "A5": (0, 60),
    "D24": (),
    "D36": (),
    "C4xC2xC2": (),
    "C3xC2xC2xC2": (0, 0, 8),
    "C6xC6": (0, 0, 6),
}

PINS = {
    ("sum", "S6"): {
        "sum_number": (13, "Abdollahi-Ashraf-Shaker 2007"),
        "subgroup_count": (1455, "number of subgroups of S6 (OEIS A005432)"),
    },
    ("sum", "A6"): {
        "sum_number": (16, "Cohn 1994, On n-sum groups"),
    },
    ("gamma", "D200"): {
        "gamma": (2, "dihedral formula, gamma_dihedral_formula(100)"),
    },
    ("burnside", "A6"): {
        "class_count": (22, "conjugacy classes of subgroups of A6"),
        "class_sizes": ((1, 1, 6, 6, 10, 10, 10, 15, 15, 15, 15, 15, 15, 20, 20,
                         36, 36, 45, 45, 45, 60, 60),
                        "measured at seed 0; sorted, so independent of labels"),
        "index_bound": (12, "measured at seed 0"),
        "biconditional_holds": ({"maximal": True, "minimal": False, "normal": True},
                                "measured at seed 0"),
    },
}

VERIFY_GROUP_COUNT = (118, "corpus entries of order <= 48")
# label -> gamma for the 118 verify48 groups.
# Source: measured by this library at seed 0 (abelian and dihedral entries
# also match their closed formulas, which verify itself checks).
VERIFY_GAMMAS = json.loads((Path(__file__).parent / "verify48_gamma.json").read_text())


def queries(workload: str, verify_labels=()) -> list[tuple[str, str]]:
    """(command, argument) pairs in canonical (seed 0) order."""
    if workload == "verify48":
        return [("verify", label) for label in verify_labels]
    if workload == "large-groups":
        return list(LARGE_GROUPS)
    if workload == "complexes":
        return [("complex", g) for g in COMPLEX_GROUPS]
    raise ValueError(f"unknown workload {workload!r}")


def _expect(problems, name, actual, pin):
    value, source = pin
    if actual != value:
        problems.append(f"{name}: got {actual!r}, expected {value!r} ({source})")


def _trim(vector) -> tuple:
    v = list(vector)
    while v and v[-1] == 0:
        v.pop()
    return tuple(v)


def verify_problems(group: dict) -> list[str]:
    """Problems in one per-group verify result."""
    problems = [f"violation: {r['theorem']}" for r in group["reports"]
                if r["verdict"] == "violation"]
    problems += [f"expected:{c['name']}" for c in group["expected_checks"] if not c["ok"]]
    label = group["group"]
    _expect(problems, f"gamma({label})", group["gamma"],
            (VERIFY_GAMMAS.get(label), "measured at seed 0"))
    return problems


def check(command: str, arg: str, doc: dict, lattice_sizes=()) -> list[str]:
    """Problems in the answer to one query.  ``doc`` is the CLI document,
    or the per-group result for ``verify``; ``lattice_sizes`` are the
    sizes of the lattices the query enumerated."""
    if command == "verify":
        return verify_problems(doc)
    problems = []
    result = doc["result"]
    pins = PINS.get((command, arg), {})
    if command == "sum":
        if not result["optimal"]:
            problems.append("sum: not optimal")
        _expect(problems, "sum_number", result["sum_number"], pins["sum_number"])
        if "subgroup_count" in pins:
            _expect(problems, "subgroup_count", tuple(lattice_sizes),
                    ((pins["subgroup_count"][0],), pins["subgroup_count"][1]))
    elif command == "gamma":
        if not result["optimal"]:
            problems.append("gamma: not optimal")
        _expect(problems, "gamma", result["gamma"], pins["gamma"])
    elif command == "burnside":
        _expect(problems, "class_count", len(result["class_labels"]), pins["class_count"])
        _expect(problems, "class_sizes", tuple(sorted(result["class_sizes"])),
                pins["class_sizes"])
        _expect(problems, "index_bound", result["index_bound"]["bound"], pins["index_bound"])
        _expect(problems, "biconditional_holds",
                result["characterization"]["biconditional_holds"],
                pins["biconditional_holds"])
        n = len(result["class_labels"])
        if len(result["products"]) != n * (n + 1) // 2:
            problems.append("burnside: product table incomplete")
    elif command == "complex":
        expected = BETTI[arg]
        for name, model in sorted(result["models"].items()):
            if not model.get("complete"):
                problems.append(f"complex {name}: incomplete")
            elif _trim(model["betti"]) != expected:
                problems.append(f"complex {name}: betti {model['betti']}, "
                                f"expected {list(expected)} (measured at seed 0)")
        report = result["report"]
        if report["profiles_agree"] is not True:
            problems.append("complex: profiles disagree")
        problems += [f"complex check {k} failed" for k, ok in report["checks"].items() if not ok]
    return problems
