"""Command-line front end.

Every command prints one JSON document to stdout with the shape
{"group", "command", "result", "timing_ms", "budget"}.  Domination
numbers serialize as an integer or the string "aleph0".  Exit codes:
0 success, 1 a verification verdict was "violation", 2 usage or spec
error, 3 budget or element-cap abort.

``--budget-ms`` is one deadline for the whole command, counted from its
start: ``main`` turns it into a ``time.monotonic()`` instant that every
stage checking time reads.  Past it the lattice stage exits 3 (as
``--budget-ms 0`` does, by design); the set-cover solve of ``gamma``,
``sum`` and ``complex`` answers from its best cover with ``exceeded``
set (``sum`` adds a bracket); the Burnside product loop exits 3;
``verify`` exits 3, between groups or in a sum-number solve.  Group
building, complexes and homology, and the bound reports do not check
the deadline.
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
    """The group and lattice of ``args.spec``: a group spec, or a corpus
    label that is not one, such as the quotient ``S4/V4``."""
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
    L = enumerate_subgroups(G, deadline=deadline)
    return G, L


def cmd_subgroups(args, started, deadline) -> int:
    G, L = _built(args, deadline)
    by_order: dict[str, int] = {}
    for s in L.subgroups:
        by_order[str(s.order)] = by_order.get(str(s.order), 0) + 1
    result = {
        "order": G.order,
        "subgroup_count": len(L.subgroups),
        "vertex_count": len(L.vertex_set),
        "atom_count": len(L.atoms),
        "coatom_count": len(L.coatoms),
        "by_order": by_order,
    }
    _emit(G.label, "subgroups", result, started, args)
    return EXIT_OK


def cmd_graph(args, started, deadline) -> int:
    G, L = _built(args, deadline)
    graph = intersection_graph(L)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(graph))
    result = {
        "vertices": graph.n,
        "edges": graph.edge_count(),
        "degree_multiset": list(graph.degree_multiset()),
        "labels": list(graph.labels),
    }
    _emit(G.label, "graph", result, started, args)
    return EXIT_OK


def cmd_gamma(args, started, deadline) -> int:
    G, L = _built(args, deadline)
    cert = gamma_exact(L, deadline=deadline)
    result = {
        "gamma": cert.gamma.to_json(),
        "witness": list(cert.witness),
        "witness_labels": list(L.labels(cert.witness)),
        "optimal": cert.optimal,
        "method": cert.method,
    }
    _emit(G.label, "gamma", result, started, args, exceeded=not cert.optimal)
    return EXIT_OK


def cmd_sum(args, started, deadline) -> int:
    G, L = _built(args, deadline)
    res = sum_number(G, L, deadline=deadline)
    result = {
        "sum_number": res.value.to_json(),
        "witness": list(res.witness),
        "optimal": res.optimal,
    }
    if res.bracket is not None:
        result["bracket"] = list(res.bracket)
    _emit(G.label, "sum", result, started, args, exceeded=not res.optimal)
    return EXIT_OK


def cmd_burnside(args, started, deadline) -> int:
    G, L = _built(args, deadline)
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
    result = {
        "class_labels": list(labels),
        "class_sizes": [len(c.members) for c in ring.classes],
        "normalizer_indices": [G.order // c.normalizer.order for c in ring.classes],
        "table_of_marks": [[int(v) for v in row] for row in marks],
        "products": products,
        "index_bound": ring.index_bound(),
        "characterization": ring.characterization_report(),
    }
    _emit(G.label, "burnside", result, started, args)
    return EXIT_OK


def cmd_complex(args, started, deadline) -> int:
    G, L = _built(args, deadline)
    cert = gamma_exact(L, deadline=deadline)
    report = topology_report(L, cert.gamma)  # BudgetExceeded past the chain budget
    models = {}
    for name, cx in report.complexes.items():
        profile = report.profiles[name]
        entry = models[name] = {"vertex_labels": list(cx.vertex_labels)}
        if profile is None:
            entry.update(facets_count=len(cx.facets), complete=False)
            continue
        entry.update(betti=list(profile.betti), euler=profile.euler,
                     is_simplex=cx.is_simplex(), complete=True,
                     f_vector=list(profile.f_vector),
                     facets=[[cx.vertex_labels[v] for v in mask_to_indices(f)]
                             for f in cx.facets])
    result = {"models": models, "report": report.to_json()}
    _emit(G.label, "complex", result, started, args, exceeded=not cert.optimal)
    return EXIT_OK


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


def cmd_verify(args, started, deadline) -> int:
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
    result = {
        "order_max": args.order_max,
        "group_count": len(groups),
        "violations": violations,
        "groups": groups,
    }
    _emit(None, "verify", result, started, args)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_corpus(args, started, deadline) -> int:
    entries = [{"label": e.label, "order": e.order,
                "spec": e.spec_text, "expected": e.expected_dict()}
               for e in corpus() if e.order <= args.order_max]
    _emit(None, "corpus", {"entries": entries, "count": len(entries)}, started, args)
    return EXIT_OK


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
    args = parser.parse_args(argv)
    takes_spec = args.command not in ("verify", "corpus")
    if takes_spec != (args.spec is not None):
        parser.error(f"{args.command} takes {'a' if takes_spec else 'no'} group spec")
    started = time.monotonic()
    deadline = None if args.budget_ms is None else started + args.budget_ms / 1000.0
    try:
        return _COMMANDS[args.command](args, started, deadline)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceeded, CapExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
