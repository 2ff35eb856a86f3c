"""Reference for the bound suite's residual-quotient report: the way
``formulas.verify_bounds`` derived it before it read everything from
|G:R|, kept as a plain copy so the arithmetic can be checked against it.

It builds Q = G/R for the nilpotent residual R, enumerates Q's subgroup
lattice and classifies Q.
"""

from groupdom.domination import Gamma
from groupdom.formulas import BOUND_HOLDS, NOT_APPLICABLE, VIOLATION
from groupdom.groups import quotient_group
from groupdom.lattice import classify_group, enumerate_subgroups


def reference_residual_quotient(G, chars, gamma):
    """(theorem, predicted, verdict, witness) of the residual-quotient
    report for a group G with computed domination number ``gamma``."""
    residual = chars.nilpotent_residual
    if residual.order == G.order:
        return ("residual-quotient", None, NOT_APPLICABLE, {})
    Q, _ = quotient_group(G, residual.mask)
    LQ = enumerate_subgroups(Q)
    if not LQ.vertex_set:
        return ("residual-quotient", None, NOT_APPLICABLE, {"quotient_order": Q.order})
    cq = classify_group(Q, LQ)
    if cq.is_p_group:
        bound = cq.p + 1
        theorem, witness = "residual-quotient-p-group", {"p": cq.p, "quotient_order": Q.order}
    else:
        bound = 2
        theorem, witness = "residual-quotient-multi-prime", {"quotient_order": Q.order}
    verdict = BOUND_HOLDS if gamma <= Gamma.of(bound) else VIOLATION
    return (theorem, f"<= {bound}", verdict, witness)


def residual_quotient_report(reports):
    """The one residual-quotient entry of a bound-suite run, in the
    reference's shape."""
    [r] = [r for r in reports if r.theorem.startswith("residual-quotient")]
    return (r.theorem, r.predicted, r.verdict, r.witness)
