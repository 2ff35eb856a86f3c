"""Closed formulas and structural bounds for domination numbers.

Each check compares a predicted value or bound against the exactly
computed domination number and yields a TheoremReport.  A "violation"
verdict means a closed claim is numerically contradicted and is treated
as a hard failure by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, gcd

from .domination import DominationCertificate, Gamma
from .groups import GroupTable, _bools_to_mask, is_prime, mask_to_array
from .lattice import (CharacteristicSubgroups, GroupClassification, Lattice,
                      prime_factors)

MATCH = "match"
BOUND_HOLDS = "bound-holds"
VIOLATION = "violation"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    group: str
    predicted: object
    computed: object
    verdict: str
    witness: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "group": self.group,
            "predicted": self.predicted,
            "computed": self.computed,
            "verdict": self.verdict,
            "witness": {k: v for k, v in sorted(self.witness.items())},
        }


def gamma_abelian_formula(G: GroupTable, cls: GroupClassification) -> Gamma | None:
    """Three-case classification of abelian domination numbers.

    Returns None when inapplicable (non-abelian, or no proper non-trivial
    subgroups).  Cases: squarefree part below the exponent gives 1; equal
    and composite gives 2; equal to a prime p gives p+1.
    """
    if not cls.is_abelian or G.order <= 1 or is_prime(G.order):
        return None
    t, m = cls.squarefree_part, cls.exponent
    if t < m:
        return Gamma.of(1)
    if not is_prime(t):
        return Gamma.of(2)
    return Gamma.of(t + 1)


def gamma_dihedral_formula(n: int) -> Gamma:
    """Domination number of the dihedral group of order 2n, n >= 2."""
    if n < 2:
        raise ValueError("dihedral formula needs n >= 2")
    p = prime_factors(n)[0]
    return Gamma.of(p) if n % (p * p) == 0 else Gamma.of(p + 1)


def symmetric_cover_bound(n: int) -> int:
    """Upper bound for the domination number of the symmetric group of
    degree n, by parity cases on n."""
    if n < 2:
        raise ValueError("bound defined for n >= 2")
    if n % 2 == 1:
        return n + 1 if is_prime(n) else n
    k = n // 2
    if k % 2 == 0:
        return n + 1
    return comb(n, 2) + 1 if is_prime(n - 1) else comb(n, 2)


# ---------------------------------------------------------------------------
# Frobenius detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrobeniusStructure:
    kernel_index: int      # lattice index of the kernel N
    complement_index: int  # lattice index of a complement H
    p: int
    r: int                 # kernel is elementary abelian of order p^r
    q: int                 # complement is cyclic of prime order q


def detect_frobenius(G: GroupTable, L: Lattice) -> FrobeniusStructure | None:
    """Find a Frobenius structure with minimal normal kernel (C_p)^r and
    prime cyclic complement C_q, or None.

    Test used: a proper normal N and a subgroup H with N intersect H = 1,
    NH = G, and the centralizer of every non-identity element of N inside N.
    No N passes when G has a central z != 1: if z is in N then C_G(z) = G,
    and otherwise z centralizes N from outside it.
    """
    if G.center != 1:
        return None
    n = G.order
    full = (1 << n) - 1
    normal_masks = {L.subgroups[c.rep].mask for c in L.classes if len(c.members) == 1}
    for c in L.classes:
        nm = L.subgroups[c.rep].mask
        if nm == 1 or nm == full or nm not in normal_masks:
            continue
        nsize = L.subgroups[c.rep].order
        # kernel candidates: elementary abelian (all non-identity orders = p)
        kernel = mask_to_array(nm, n)
        orders = {int(G.elem_order[i]) for i in kernel if i != 0}
        if len(orders) != 1:
            continue
        p = orders.pop()
        if not is_prime(p):
            continue
        r = 0
        s = nsize
        while s % p == 0:
            s //= p
            r += 1
        if s != 1:
            continue
        # minimal normal: no smaller non-trivial normal subgroup inside
        if any(m != 1 and m != nm and m & ~nm == 0 for m in normal_masks):
            continue
        # the centralizer of every non-identity kernel element lies in N
        if not all(_bools_to_mask(G.mul[:, x] == G.mul[x, :]) & ~nm == 0
                   for x in kernel if x != 0):
            continue
        for j, h in enumerate(L.subgroups):
            if h.order * nsize == n and h.mask & nm == 1:
                if is_prime(h.order):
                    return FrobeniusStructure(kernel_index=L.index[nm],
                                              complement_index=j, p=p, r=r,
                                              q=h.order)
    return None


# ---------------------------------------------------------------------------
# The bound suite
# ---------------------------------------------------------------------------


def verify_bounds(G: GroupTable, L: Lattice, cls: GroupClassification,
                  chars: CharacteristicSubgroups,
                  cert: DominationCertificate) -> list[TheoremReport]:
    """Run every applicable structural claim against the computed gamma."""
    reports = []
    gamma = cert.gamma
    has_vertices = bool(L.vertex_set)

    def report(theorem, predicted, verdict, **wit):
        reports.append(TheoremReport(theorem, G.label, predicted, gamma.to_json(),
                                     verdict, wit))

    def na(theorem, **wit):
        report(theorem, None, NOT_APPLICABLE, **wit)

    def bound(theorem, b, **wit):
        """The claim gamma <= b."""
        report(theorem, f"<= {b}", BOUND_HOLDS if gamma <= Gamma.of(b) else VIOLATION, **wit)

    def match(theorem, predicted, holds, **wit):
        report(theorem, predicted, MATCH if holds else VIOLATION, **wit)

    # (a) nilpotent bounds
    if cls.is_nilpotent and has_vertices:
        if cls.is_p_group:
            bound("nilpotent-p-group", cls.p + 1, p=cls.p)
        else:
            bound("nilpotent-multi-prime", 2)
    else:
        na("nilpotent")

    # (b) same bounds through Q = G/R, R the nilpotent residual (Q is
    # nilpotent).  By the correspondence theorem the subgroups of Q are
    # the interval [R, G] of L, so only q = |G:R| is needed: Q has a
    # proper non-trivial subgroup iff q is not prime (Cauchy), and Q is a
    # p-group iff q is a power of p.
    q = G.order // chars.nilpotent_residual.order
    if q == 1:
        na("residual-quotient")
    elif is_prime(q):
        na("residual-quotient", quotient_order=q)
    else:
        primes = prime_factors(q)
        if len(primes) == 1:
            bound("residual-quotient-p-group", primes[0] + 1, p=primes[0], quotient_order=q)
        else:
            bound("residual-quotient-multi-prime", 2, quotient_order=q)

    # (c) supersolvable: gamma <= p+1 for some prime divisor p
    if cls.is_supersolvable and has_vertices:
        ok_p = [p for p in prime_factors(G.order) if gamma <= Gamma.of(p + 1)]
        report("supersolvable", "<= p+1 for some prime divisor p",
               BOUND_HOLDS if ok_p else VIOLATION, primes_satisfying=ok_p)
    else:
        na("supersolvable")

    # (d) solvable: for each coprime pair of maximal subgroups,
    #     gamma <= |G:N(H)| + |G:N(K)|
    if cls.is_solvable and has_vertices and not cls.is_p_group:
        classes, class_of = L.classes, L.class_of
        seen_pairs = set()
        for i in L.coatoms:
            for j in L.coatoms:
                if j <= i:
                    continue
                oi, oj = L.subgroups[i].order, L.subgroups[j].order
                if gcd(G.order // oi, G.order // oj) != 1:
                    continue
                ci, cj = class_of[i], class_of[j]
                key = (min(ci, cj), max(ci, cj))
                if key in seen_pairs:
                    continue
                seen_pairs.add(key)
                b = (G.order // classes[ci].normalizer.order
                     + G.order // classes[cj].normalizer.order)
                bound("solvable-coprime-pair", b, pair_orders=[oi, oj], bound=b)
        if not seen_pairs:
            na("solvable-coprime-pair")
    else:
        na("solvable-coprime-pair")

    # (e) Frobenius with elementary abelian minimal kernel and prime complement
    frob = detect_frobenius(G, L)
    if frob is not None and has_vertices:
        predicted = frob.p ** frob.r + 1
        match("frobenius-minimal-kernel", predicted, gamma == Gamma.of(predicted),
              p=frob.p, r=frob.r, q=frob.q,
              exceeds_p_plus_1=Gamma.of(frob.p + 1) < gamma,
              exceeds_q_plus_1=Gamma.of(frob.q + 1) < gamma)
    else:
        na("frobenius-minimal-kernel")

    # (f) symmetric / alternating groups
    kind = G.spec.kind if G.spec is not None else ""
    if kind == "symmetric":
        deg = G.spec.degree
        match("symmetric-not-one", "!= 1", gamma != Gamma.of(1), n=deg)
        if deg >= 2 and has_vertices:
            b = symmetric_cover_bound(deg)
            bound("symmetric-cover-bound", b, n=deg, bound=b)
    elif kind == "alternating":
        match("alternating-not-one", "!= 1", gamma != Gamma.of(1), n=G.spec.degree)
    else:
        na("symmetric-alternating")

    # (g) abelian formula
    predicted = gamma_abelian_formula(G, cls)
    if predicted is not None:
        match("abelian-formula", predicted.to_json(), gamma == predicted,
              sfp=cls.squarefree_part, exp=cls.exponent)
    else:
        na("abelian-formula")

    # (h) dihedral formula
    if kind == "dihedral":
        n_half = G.order // 2
        predicted = gamma_dihedral_formula(n_half)
        match("dihedral-formula", predicted.to_json(), gamma == predicted,
              n=n_half, smallest_prime=prime_factors(n_half)[0])
    else:
        na("dihedral-formula")

    return reports
