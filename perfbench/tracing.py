"""Spans around the public calls of each groupdom layer.

The benchmark wraps module-level names from its own code; nothing inside
``src/groupdom`` is changed.  A name is wrapped in every groupdom module
that holds a reference to the same function, so nested calls are
attributed to the layer that owns the function (``formulas`` calling
``enumerate_subgroups`` counts as ``lattice``, ``corpus`` calling
``gamma_exact`` counts as ``domination``).

Spans are kept in memory as plain lists and returned to the driver when
the pass ends.  Their clock is the thread's CPU time, the clock the
pass's calibration uses (pace.py).
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

MODULES = ("cli", "corpus", "formulas", "burnside", "complexes",
           "domination", "lattice", "groups", "graphs")

LAYERS = ("cli", "groups", "corpus", "lattice", "domination", "formulas",
          "burnside", "complexes")

# (layer, op, defining module, function name).  `graphs` is absent because
# no workload calls it.
FUNCTIONS = (
    ("groups", "build", "groups", "build_group"),
    ("groups", "quotient", "groups", "quotient_group"),
    ("corpus", "corpus", "corpus", "corpus"),
    ("corpus", "get_group", "corpus", "get_group"),
    ("corpus", "get_lattice", "corpus", "get_lattice"),
    ("corpus", "get_gamma", "corpus", "get_gamma"),
    ("lattice", "enumerate", "lattice", "enumerate_subgroups"),
    ("lattice", "classes", "lattice", "subgroup_classes"),
    ("lattice", "classify", "lattice", "classify_group"),
    ("lattice", "characteristic", "lattice", "characteristic_subgroups"),
    ("domination", "gamma", "domination", "gamma_exact"),
    ("domination", "sum", "domination", "sum_number"),
    ("formulas", "verify_bounds", "formulas", "verify_bounds"),
    ("complexes", "build", "complexes", "intersection_complex"),
    ("complexes", "build", "complexes", "order_complex"),
    ("complexes", "build", "complexes", "atom_nerve"),
    ("complexes", "build", "complexes", "coatom_nerve"),
    ("complexes", "betti", "complexes", "betti"),
    ("complexes", "report", "complexes", "topology_report"),
    ("cli", "serialize", "cli", "_emit"),
)

# (layer, op, method name) on burnside.BurnsideRing.
METHODS = (
    ("burnside", "init", "__init__"),
    ("burnside", "product", "product"),
    ("burnside", "marks", "marks_matrix"),
    ("burnside", "report", "characterization_report"),
    ("burnside", "report", "index_bound"),
)


def _module(name: str):
    return importlib.import_module(f"groupdom.{name}")


def _counts(layer: str, op: str, args, result) -> dict:
    """Work counters recorded at the layer boundary."""
    key = (layer, op)
    if key == ("lattice", "enumerate"):
        return {"subgroups": len(result.subgroups)}
    if key == ("domination", "gamma"):
        return {"optimal": int(result.optimal)}
    if key == ("domination", "sum"):
        return {"universe": args[0].order - 1, "optimal": int(result.optimal)}
    if key == ("formulas", "verify_bounds"):
        return {"reports": len(result)}
    return {}


class Tracer:
    """Records spans as [id, parent, query, layer, op, start, end, counts].

    A call that re-enters an op already open on the stack (a recursive
    ``build_group`` for a quotient spec) is not recorded again, so busy
    times do not count it twice.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.query = -1

    def span(self, layer: str, op: str, fn, *args, **kwargs):
        key = (layer, op)
        if any((self.spans[i][3], self.spans[i][4]) == key for i in self._stack):
            return fn(*args, **kwargs)
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, self.query,
               layer, op, 0.0, 0.0, {}]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[5] = time.thread_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[6] = time.thread_time()
            self._stack.pop()
        rec[7] = _counts(layer, op, args, result)
        return result

    def wrap(self, layer: str, op: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(layer, op, fn, *args, **kwargs)
        return traced


@contextmanager
def patched(replacements):
    """Set (owner, name, value) attributes and restore them on exit."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def trace_replacements(tracer: Tracer) -> list:
    """Every (owner, name, wrapper) needed to trace the layers."""
    modules = [_module(m) for m in MODULES]
    out = []
    for layer, op, home, name in FUNCTIONS:
        original = getattr(_module(home), name)
        wrapper = tracer.wrap(layer, op, original)
        out.extend((m, name, wrapper) for m in modules
                   if getattr(m, name, None) is original)
    ring = _module("burnside").BurnsideRing
    for layer, op, name in METHODS:
        out.append((ring, name, tracer.wrap(layer, op, getattr(ring, name))))
    return out


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    own = [s[6] - s[5] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[6] - s[5]
    return own


def layer_metrics(spans, faces: int, scale: float = 1.0) -> dict:
    """Per-layer busy times, self times and counts of one traced pass;
    ``faces`` is the pass's total f-vector, read from the answers.  Times
    are multiplied by ``scale``, the pass's calibrated over its raw CPU
    time (pace.py), which also takes the sampling out of them."""
    own = self_times(spans)

    def busy(layer, op=None):
        return scale * sum(s[6] - s[5] for s in spans
                           if s[3] == layer and (op is None or s[4] == op))

    def self_of(layer, *ops):
        return scale * sum(t for s, t in zip(spans, own)
                           if s[3] == layer and (not ops or s[4] in ops))

    def calls(layer, op):
        return sum(1 for s in spans if s[3] == layer and s[4] == op)

    def total(layer, op, key):
        return sum(s[7].get(key, 0) for s in spans if s[3] == layer and s[4] == op)

    subgroups = total("lattice", "enumerate", "subgroups")
    enumerate_s = busy("lattice", "enumerate")
    solves = calls("domination", "gamma") + calls("domination", "sum")
    optimal = total("domination", "gamma", "optimal") + total("domination", "sum", "optimal")
    m = {
        "groups.build_s": busy("groups", "build"),
        "groups.build_calls": calls("groups", "build"),
        "corpus.lookup_s": self_of("corpus"),
        "lattice.enumerate_s": enumerate_s,
        "lattice.enumerate_calls": calls("lattice", "enumerate"),
        "lattice.subgroups": subgroups,
        "lattice.us_per_subgroup": 1e6 * enumerate_s / subgroups if subgroups else 0.0,
        "lattice.classes_s": busy("lattice", "classes"),
        "lattice.classify_s": busy("lattice", "classify"),
        "domination.gamma_s": busy("domination", "gamma"),
        "domination.gamma_calls": calls("domination", "gamma"),
        "domination.sum_s": busy("domination", "sum"),
        "domination.sum_universe": total("domination", "sum", "universe"),
        "domination.optimal_ratio": optimal / solves if solves else 1.0,
        "formulas.verify_bounds_self_s": self_of("formulas", "verify_bounds"),
        "formulas.reports": total("formulas", "verify_bounds", "reports"),
        "burnside.products_s": self_of("burnside", "product"),
        "burnside.marks_s": self_of("burnside", "marks"),
        "burnside.reports_s": self_of("burnside", "report"),
        "complexes.build_s": busy("complexes", "build"),
        "complexes.betti_s": busy("complexes", "betti"),
        "complexes.betti_calls": calls("complexes", "betti"),
        "complexes.report_self_s": self_of("complexes", "report"),
        "complexes.faces": faces,
        "cli.serialize_s": busy("cli", "serialize"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_of(layer)
    return m
