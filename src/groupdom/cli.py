"""Command-line front end.

One flow serves every command: ``main`` parses the command line, builds
the spec's group and lattice once (``verify`` and ``corpus`` take no
spec), runs the command, and prints its one JSON document with the shape
{"group", "command", "result", "timing_ms", "budget"}.  A command only
computes its result.  Domination numbers serialize as an integer or the
string "aleph0".  Exit codes: 0 success, 1 the result lists violations
(a verification verdict was "violation"), 2 usage or spec error, 3
budget or element-cap abort; an error prints no document.

``--budget-ms`` is one deadline for the whole command, counted from its
start: ``main`` turns it into a ``time.monotonic()`` instant that every
stage checking time reads.  Past it the lattice stage exits 3 (as
``--budget-ms 0`` does, by design); the set-cover solve of ``gamma``,
``sum`` and ``complex`` answers from its best cover with ``exceeded``
set (``sum`` adds a bracket); the Burnside product loop exits 3;
``verify`` exits 3, between groups or in a sum-number solve.  Group
building, complexes and homology, the bound reports and ``corpus`` do
not check the deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# One OpenBLAS thread unless the caller set a number.  This must run before
# numpy loads, which the package import alone does not do.  The thread pool
# costs every command CPU at start-up; only the largest products, such as
# S7's containment matrix, win back wall time with more threads.  Library
# callers keep numpy's default.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import corpus as corpus_module
from .burnside import BurnsideRing
from .complexes import topology_report
from .corpus import corpus, find_entry, get_gamma, get_group, get_lattice
from .domination import gamma_exact, sum_number
from .errors import BudgetExceeded, CapExceeded, SpecError
from .formulas import VIOLATION, verify_bounds
from .graphs import intersection_graph, to_dot
from .groups import (DEFAULT_ELEMENT_CAP, build_group, mask_to_indices,
                     parse_group_spec)
from .lattice import characteristic_subgroups, classify_group, enumerate_subgroups

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(group, command, result, started, args, exceeded=False) -> None:
    """Print the command's document.  ``exceeded`` says whether a solve
    stopped on ``--budget-ms`` and returned a non-optimal answer."""
    doc = {
        "group": group,
        "command": command,
        "result": result,
        "timing_ms": int((time.monotonic() - started) * 1000),
        "budget": {"budget_ms": args.budget_ms, "cap": args.cap, "exceeded": exceeded},
    }
    indent = 2 if args.json else None
    print(json.dumps(doc, sort_keys=True, indent=indent))


def _built(args, deadline):
    """The lattice of ``args.spec``: a group spec, or a corpus label that
    is not one, such as the quotient ``S4/V4``."""
    try:
        spec = parse_group_spec(args.spec)
    except SpecError:
        entry = find_entry(args.spec)
        if entry.quotient_of is None:
            raise
        # through the module, so that a patched ``corpus.build_entry`` applies
        G = corpus_module.build_entry(entry, cap=args.cap)
    else:
        G = build_group(spec, cap=args.cap)
    return enumerate_subgroups(G, deadline=deadline)


# Each command takes the parsed arguments, the spec's lattice (None for
# ``verify`` and ``corpus``) and the deadline, and returns its result and
# whether a solve stopped on the deadline with a non-optimal answer.

def cmd_subgroups(args, L, deadline):
    by_order: dict[str, int] = {}
    for s in L.subgroups:
        by_order[str(s.order)] = by_order.get(str(s.order), 0) + 1
    return {
        "order": L.group.order,
        "subgroup_count": len(L.subgroups),
        "vertex_count": len(L.vertex_set),
        "atom_count": len(L.atoms),
        "coatom_count": len(L.coatoms),
        "by_order": by_order,
    }, False


def cmd_graph(args, L, deadline):
    graph = intersection_graph(L)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(graph))
    return {
        "vertices": graph.n,
        "edges": graph.edge_count(),
        "degree_multiset": list(graph.degree_multiset()),
        "labels": list(graph.labels),
    }, False


def cmd_gamma(args, L, deadline):
    cert = gamma_exact(L, deadline=deadline)
    return {
        "gamma": cert.gamma.to_json(),
        "witness": list(cert.witness),
        "witness_labels": list(L.labels(cert.witness)),
        "optimal": cert.optimal,
        "method": cert.method,
    }, not cert.optimal


def cmd_sum(args, L, deadline):
    res = sum_number(L.group, L, deadline=deadline)
    result = {
        "sum_number": res.value.to_json(),
        "witness": list(res.witness),
        "optimal": res.optimal,
    }
    if res.bracket is not None:
        result["bracket"] = list(res.bracket)
    return result, not res.optimal


def cmd_burnside(args, L, deadline):
    G = L.group
    ring = BurnsideRing(G, L)
    labels = ring.labels()
    marks = ring.marks_matrix()
    products = {}
    for a in range(len(labels)):
        for b in range(a, len(labels)):
            if deadline is not None and time.monotonic() >= deadline:
                raise BudgetExceeded(
                    f"Burnside products exceeded {args.budget_ms} ms",
                    partial=len(products))
            dec = ring.product(a, b)
            products[f"{labels[a]}*{labels[b]}"] = {
                labels[c]: m for c, m in dec.coeffs}
    return {
        "class_labels": list(labels),
        "class_sizes": [len(c.members) for c in ring.classes],
        "normalizer_indices": [G.order // c.normalizer.order for c in ring.classes],
        "table_of_marks": [[int(v) for v in row] for row in marks],
        "products": products,
        "index_bound": ring.index_bound(),
        "characterization": ring.characterization_report(),
    }, False


def cmd_complex(args, L, deadline):
    cert = gamma_exact(L, deadline=deadline)
    report = topology_report(L, cert.gamma)
    models = {}
    for name, f_vector in report.f_vectors.items():
        profile, cx = report.profiles[name], report.complexes.get(name)
        entry = models[name] = {
            "vertex_labels": list(L.labels(L.vertex_set) if cx is None else cx.vertex_labels),
            "f_vector": list(f_vector), "is_simplex": report.is_simplex(name),
            "complete": profile is not None}
        if profile is not None:
            entry.update(betti=list(profile.betti), euler=profile.euler)
        if cx is not None:  # K or a nerve: the order complex's chains are not listed
            facets = [[cx.vertex_labels[v] for v in mask_to_indices(f)] for f in cx.facets]
            entry.update({"facets": facets} if profile else {"facets_count": len(facets)})
    return {"models": models, "report": report.to_json()}, not cert.optimal


def _verify_one(label: str, cap: int, deadline) -> dict:
    entry = find_entry(label)
    G = get_group(label, cap=cap)
    L = get_lattice(label, cap=cap)
    cls = classify_group(G, L)
    chars = characteristic_subgroups(G, L)
    cert = get_gamma(label, cap=cap)
    reports = verify_bounds(G, L, cls, chars, cert)
    expected_checks = []
    for name, spec in sorted(entry.expected_dict().items()):
        if name == "gamma":
            actual = cert.gamma.to_json()
        elif name == "sum_number":
            res = sum_number(G, L, deadline=deadline)
            if not res.optimal:  # a cut-off solve is not checked against the pin
                raise BudgetExceeded(f"verify ran past the deadline in the sum-number "
                                     f"solve of {label}")
            actual = res.value.to_json()
        elif name == "subgroup_count":
            actual = len(L.subgroups)
        else:
            continue
        expected_checks.append({"name": name, "expected": spec["value"],
                                "source": spec["source"], "actual": actual,
                                "ok": actual == spec["value"]})
    return {
        "group": label,
        "order": G.order,
        "gamma": cert.gamma.to_json(),
        "reports": [r.to_json() for r in reports],
        "expected_checks": expected_checks,
    }


def cmd_verify(args, L, deadline):
    labels = [e.label for e in corpus()
              if e.order and e.order <= args.order_max]
    groups = []
    for label in labels:
        if deadline is not None and time.monotonic() >= deadline:
            raise BudgetExceeded(f"verify exceeded {args.budget_ms} ms",
                                 partial=len(groups))
        groups.append(_verify_one(label, args.cap, deadline))
    violations = []
    for g in groups:
        for r in g["reports"]:
            if r["verdict"] == VIOLATION:
                violations.append({"group": g["group"], "theorem": r["theorem"]})
        for c in g["expected_checks"]:
            if not c["ok"]:
                violations.append({"group": g["group"], "theorem": f"expected:{c['name']}"})
    return {
        "order_max": args.order_max,
        "group_count": len(groups),
        "violations": violations,
        "groups": groups,
    }, False


def cmd_corpus(args, L, deadline):
    entries = [{"label": e.label, "order": e.order,
                "spec": e.spec_text, "expected": e.expected_dict()}
               for e in corpus() if e.order <= args.order_max]
    return {"entries": entries, "count": len(entries)}, False


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupdom",
        description="Finite group intersection graphs, domination numbers, "
                    "Burnside ring arithmetic, and subgroup complexes.")
    parser.add_argument("--json", action="store_true", help="pretty-print output")
    parser.add_argument("--dot", metavar="PATH", help="write DOT graph export")
    parser.add_argument("--order-max", type=int, default=48,
                        help="corpus order limit for verify/corpus (default 48)")
    parser.add_argument("--budget-ms", type=float, default=None,
                        help="one deadline for the whole command, in ms from its start")
    parser.add_argument("--cap", type=int, default=DEFAULT_ELEMENT_CAP,
                        help=f"element cap for every group built (default {DEFAULT_ELEMENT_CAP})")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("spec", nargs="?",
                        help="group spec, e.g. D8, C2xC2xC3, S4, SD(7,3), or a corpus "
                             "quotient label such as S4/V4; verify and corpus take none")
    return parser


_COMMANDS = {
    "subgroups": cmd_subgroups,
    "graph": cmd_graph,
    "gamma": cmd_gamma,
    "sum": cmd_sum,
    "burnside": cmd_burnside,
    "complex": cmd_complex,
    "verify": cmd_verify,
    "corpus": cmd_corpus,
}


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_intermixed_args(argv)
    takes_spec = args.command not in ("verify", "corpus")
    if takes_spec != (args.spec is not None):
        parser.error(f"{args.command} takes {'a' if takes_spec else 'no'} group spec")
    started = time.monotonic()
    deadline = None if args.budget_ms is None else started + args.budget_ms / 1000.0
    try:
        L = _built(args, deadline) if takes_spec else None
        result, exceeded = _COMMANDS[args.command](args, L, deadline)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceeded, CapExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    _emit(None if L is None else L.group.label, args.command, result, started, args,
          exceeded)
    return EXIT_VIOLATION if result.get("violations") else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
