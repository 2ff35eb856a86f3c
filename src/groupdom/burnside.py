"""Burnside ring arithmetic over the conjugacy classes of subgroups.

Transitive G-sets are coset spaces G/H up to conjugacy of H.  The table of
marks (fixed-point counts of class representatives on each coset space) is
a ring embedding (Burnside 1911) and the product engine: a product is peeled
off the pointwise product of two rows (Pfeiffer 1997, Experiment. Math. 6).
Double cosets, [G/H][G/K] = sum of [G/(H meet gKg^-1)] over (H,K)-double
coset representatives g, are the independent check on products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domination import min_set_cover
from .groups import GroupTable, left_cosets, mask_to_array, rows_to_masks
from .lattice import Lattice, Subgroup


@dataclass(frozen=True)
class GSetDecomposition:
    """A Burnside-ring element: multiplicities over subgroup classes."""

    coeffs: tuple[tuple[int, int], ...]  # sorted (class index, multiplicity)

    def coeff(self, class_index: int) -> int:
        for c, m in self.coeffs:
            if c == class_index:
                return m
        return 0

    def is_regular_multiple(self) -> bool:
        """True when supported only on the trivial-subgroup class, class 0."""
        return all(c == 0 for c, _ in self.coeffs)


class BurnsideRing:
    """Product, marks and related reports for one group's Burnside ring.

    Classes are sorted by (order, mask) so class 0 is the trivial subgroup
    and the last class is the whole group.
    """

    def __init__(self, G: GroupTable, L: Lattice):
        self.G = G
        self.L = L
        self.classes = L.classes
        self.abelian = G.is_abelian()
        self._product_cache: dict[tuple[int, int], GSetDecomposition] = {}
        self._marks: np.ndarray | None = None

    # -- helpers ----------------------------------------------------------

    def rep_subgroup(self, ci: int) -> Subgroup:
        return self.L.subgroups[self.classes[ci].rep]

    def class_order(self, ci: int) -> int:
        return self.rep_subgroup(ci).order

    def class_index_of_mask(self, mask: int) -> int:
        return self.L.class_of[self.L.index[mask]]

    def labels(self) -> tuple[str, ...]:
        return tuple(f"K{self.class_order(ci)}_{ci}" for ci in range(len(self.classes)))

    # -- products ----------------------------------------------------------

    def product(self, ca: int, cb: int) -> GSetDecomposition:
        """[G/H][G/K] for class indices ca (H-class) and cb (K-class).  A
        non-abelian product is peeled off v = M[ca] * M[cb] from the last
        class down (c_i = v_i / M[i, i], then v -= c_i M[i]); a peel that is
        not exact raises ``ArithmeticError``."""
        key = (ca, cb)
        got = self._product_cache.get(key)
        if got is not None:
            return got
        counts: dict[int, int] = {}
        if self.abelian:
            # double cosets are the |G:HK| cosets of HK, every term is H&K
            h = self.rep_subgroup(ca)
            k = self.rep_subgroup(cb)
            inter = h.mask & k.mask
            hk = h.order * k.order // inter.bit_count()
            counts[self.class_index_of_mask(inter)] = self.G.order // hk
        else:
            M = self.marks_matrix()
            v = M[ca] * M[cb]
            for i in range(len(v) - 1, -1, -1):
                if v[i]:
                    c, r = divmod(int(v[i]), int(M[i, i]))
                    if r or c < 0:
                        raise ArithmeticError(
                            f"marks of [G/{ca}][G/{cb}] do not peel at class {i}")
                    v -= c * M[i]
                    counts[i] = c
            if v.any():
                raise ArithmeticError(f"marks of [G/{ca}][G/{cb}] leave a residual")
        dec = GSetDecomposition(coeffs=tuple(sorted(counts.items())))
        self._product_cache[key] = dec
        if ca != cb:
            self._product_cache[(cb, ca)] = dec
        return dec

    def decomposition_points(self, dec: GSetDecomposition) -> int:
        """Total cardinality of the underlying G-set."""
        n = self.G.order
        return sum(m * (n // self.class_order(c)) for c, m in dec.coeffs)

    # -- table of marks -----------------------------------------------------

    def marks_matrix(self) -> np.ndarray:
        """M[i, j] = number of cosets of G/K_i fixed by H_j (class reps).

        Lower triangular because a fixed coset forces H_j inside a
        conjugate of K_i.  Counted on the cosets, never read from
        ``Lattice.containment``, so the marks stay a check on the lattice.
        """
        if self._marks is not None:
            return self._marks
        n = self.G.order
        m = len(self.classes)
        M = np.zeros((m, m), dtype=np.int64)
        for i in range(m):
            K = self.rep_subgroup(i)
            index = n // K.order
            if self.abelian:
                for j in range(m):
                    H = self.rep_subgroup(j)
                    M[i, j] = index if H.mask & ~K.mask == 0 else 0
                continue
            coset_min, reps = left_cosets(self.G, mask_to_array(K.mask, n))
            for j in range(m):
                if self.class_order(j) > K.order:
                    continue
                h_members = mask_to_array(self.rep_subgroup(j).mask, n)
                acted = coset_min[self.G.mul[np.ix_(h_members, reps)]]
                M[i, j] = int((acted == reps[None, :]).all(axis=0).sum())
        self._marks = M
        return M

    def mark_vector_of(self, dec: GSetDecomposition) -> np.ndarray:
        M = self.marks_matrix()
        out = np.zeros(M.shape[1], dtype=np.int64)
        for c, mult in dec.coeffs:
            out += mult * M[c]
        return out

    # -- the three characterization predicates ------------------------------

    def predicate_normal(self, cn: int) -> tuple[bool, list[int]]:
        """[G/K][G/N] = |G:NK| [G/(N meet K)] for every class K."""
        n = self.G.order
        N = self.rep_subgroup(cn)
        failures = []
        for ck in range(len(self.classes)):
            K = self.rep_subgroup(ck)
            nk = N.order * K.order // (N.mask & K.mask).bit_count()  # |NK|
            dec = self.product(ck, cn)
            if n % nk != 0:
                failures.append(ck)
                continue
            target = self.class_index_of_mask(N.mask & K.mask)
            if dec.coeffs != ((target, n // nk),):
                failures.append(ck)
        return (not failures, failures)

    def predicate_minimal(self, ca: int) -> tuple[bool, list[int]]:
        """Every product [G/K][G/A], K non-trivial, is either |G:K| [G/A]
        or a multiple of the regular class [G/1]."""
        n = self.G.order
        failures = []
        for ck in range(1, len(self.classes)):
            dec = self.product(ck, ca)
            expected = ((ca, n // self.class_order(ck)),)
            if dec.coeffs != expected and not dec.is_regular_multiple():
                failures.append(ck)
        return (not failures, failures)

    def predicate_maximal(self, ch: int) -> tuple[bool, list[int]]:
        """[G/K][G/H] has no [G/H] summand unless K is G or conjugate to H."""
        top = len(self.classes) - 1
        failures = []
        for ck in range(len(self.classes)):
            if ck == ch or ck == top:
                continue
            if self.product(ck, ch).coeff(ch) != 0:
                failures.append(ck)
        return (not failures, failures)

    def characterization_report(self) -> dict:
        """Evaluate the three predicates against lattice ground truth.

        Counterexample pairs are reported, not asserted; only the abelian
        case is a hard equivalence.
        """
        L = self.L
        top = len(L.subgroups) - 1
        atom_set = set(L.atoms)
        coatom_set = set(L.coatoms)
        bullets = {"normal": [], "minimal": [], "maximal": []}
        for ci, cls in enumerate(self.classes):
            rep = cls.rep
            proper_nontrivial = 0 < rep < top
            pred_n, fail_n = self.predicate_normal(ci)
            bullets["normal"].append({
                "class": ci, "predicted": pred_n, "actual": len(cls.members) == 1,
                "counterexamples": fail_n if pred_n != (len(cls.members) == 1) else []})
            if proper_nontrivial:
                pred_a, fail_a = self.predicate_minimal(ci)
                bullets["minimal"].append({
                    "class": ci, "predicted": pred_a, "actual": rep in atom_set,
                    "counterexamples": fail_a if pred_a != (rep in atom_set) else []})
                pred_m, fail_m = self.predicate_maximal(ci)
                bullets["maximal"].append({
                    "class": ci, "predicted": pred_m, "actual": rep in coatom_set,
                    "counterexamples": fail_m if pred_m != (rep in coatom_set) else []})
        agree = {name: all(e["predicted"] == e["actual"] for e in entries)
                 for name, entries in bullets.items()}
        return {"bullets": bullets, "biconditional_holds": agree}

    # -- domination bound from the ring -------------------------------------

    def meets_matrix(self) -> np.ndarray:
        """meets[k, h]: does [G/K][G/H] have a summand off the regular class
        (equivalently, K meets some conjugate of H non-trivially)?  As
        M[0] = (|G|, 0, ..., 0), it does iff M[k, j] M[h, j] > 0 for a j > 0.
        A non-trivial K meet gHg^-1 contains a subgroup of prime order, so
        the columns j of the atom classes suffice.  The count of such j is
        a float32 product, exact below 2^24 classes."""
        atom_classes = sorted({self.L.class_of[a] for a in self.L.atoms})
        fixed = (self.marks_matrix()[:, atom_classes] > 0).astype(np.float32)
        return fixed @ fixed.T > 0

    def index_bound(self) -> dict:
        """The least-weight family of classes meeting every vertex class,
        where a class H weighs |G:N_G(H)|, and the resulting bound on gamma:
        the family's weight.  The family is found by ``min_set_cover``, the
        search that also gives gamma and sigma.  Also decides the
        gamma-equals-1 criterion: a single normal class whose products with
        every vertex class stay off the regular class.
        """
        L = self.L
        top = len(L.subgroups) - 1
        vcls = [ci for ci, c in enumerate(self.classes) if 0 < c.rep < top]
        if not vcls:
            return {"family": [], "bound": None, "gamma1_criterion": False}
        # cover[i]: the vertex classes that vertex class vcls[i] meets; it
        # meets itself, so the classes cover
        cover = rows_to_masks(self.meets_matrix()[np.ix_(vcls, vcls)].T)
        weights = [self.G.order // self.classes[ci].normalizer.order for ci in vcls]
        chosen, _ = min_set_cover(len(vcls), cover, weights=weights)
        full = (1 << len(vcls)) - 1
        gamma1 = any(len(self.classes[ci].members) == 1 and c == full
                     for ci, c in zip(vcls, cover))
        return {"family": [vcls[i] for i in chosen],
                "bound": sum(weights[i] for i in chosen), "gamma1_criterion": gamma1}
