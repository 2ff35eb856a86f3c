"""Finite groups as explicit multiplication tables.

Elements are dense indices 0..n-1 with index 0 the identity, so subgroups
can live in bitmasks and multiplication is a table lookup.  Groups built
from permutation generators enumerate elements by breadth-first closure in
lexicographic image order, which makes indexing reproducible; their table
is filled from the right action of the generators that the closure
records.  Left cosets are labelled by their least elements in one place,
``left_cosets``, which quotients and the layers above share; the centre,
and with it the abelian test, is read from the generators.  Cyclic groups
are built as abelian groups with one factor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .errors import CapExceeded, SpecError

DEFAULT_ELEMENT_CAP = 5040


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0..degree-1} stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise SpecError(f"images {self.images} are not a bijection")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p * q)(x) = p(q(x))
        return Permutation(tuple(self.images[other.images[x]] for x in range(self.degree)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(tuple(inv))

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    @staticmethod
    def from_cycles(cycles: list[list[int]], degree: int) -> "Permutation":
        """Build from 0-based cycles, applied left to right."""
        perm = Permutation.identity(degree)
        for cyc in cycles:
            images = list(range(degree))
            for i, pt in enumerate(cyc):
                images[pt] = cyc[(i + 1) % len(cyc)]
            perm = Permutation(tuple(images)) * perm
        return perm


@dataclass(frozen=True)
class GroupSpec:
    """Structured description of a finite group to build; ``text``, the
    spec it was parsed from, is the group's label.

    kind is one of: cyclic, abelian, dihedral, symmetric, alternating,
    quaternion8, semidirect, perm.
    """

    kind: str
    text: str
    n: int = 0
    factors: tuple[int, ...] = ()
    degree: int = 0
    generators: tuple[Permutation, ...] = ()
    p: int = 0
    q: int = 0


@dataclass(frozen=True)
class GroupTable:
    """A finite group: multiplication table plus derived element data.

    All arrays are frozen after construction; tables are safe to share
    between threads read-only.  ``generators`` generate G.
    """

    order: int
    mul: np.ndarray
    inv: np.ndarray
    elem_order: np.ndarray
    label: str
    spec: GroupSpec | None = None
    generators: tuple[int, ...] = ()

    def __post_init__(self):
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)
        self.elem_order.setflags(write=False)

    @property
    def exponent(self) -> int:
        return int(np.lcm.reduce(self.elem_order))

    @cached_property
    def center(self) -> int:
        """Mask of Z(G), the elements that commute with every generator:
        since ``generators`` generate G, they commute with all of G."""
        gens = list(self.generators)
        return _bools_to_mask((self.mul[:, gens] == self.mul[gens].T).all(axis=1))

    def is_abelian(self) -> bool:
        return self.center.bit_count() == self.order


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([0-9, ]+)\)")


def parse_group_spec(text: str) -> GroupSpec:
    """Parse the ASCII group grammar.

    Accepted forms: C<n>, C<n1>x<n2>x..., D<m> (dihedral of order m, m even,
    m >= 4), S<n>, A<n>, Q8, SD(<p>,<q>), and
    perm:<degree>:<cycles>;<cycles>;... with 1-based cycles like (1,2)(3,4).
    """
    s = text.strip()
    if not s:
        raise SpecError("empty group spec", 0)

    if s == "Q8":
        return GroupSpec(kind="quaternion8", n=8, text=s)

    if s.startswith("perm:"):
        return _parse_perm_spec(s)

    if s.startswith("SD(") or s.startswith("SD "):
        m = re.fullmatch(r"SD\((\d+),(\d+)\)", s)
        if not m:
            raise SpecError(f"malformed semidirect spec {s!r}", 2)
        p, q = int(m.group(1)), int(m.group(2))
        if not is_prime(p) or not is_prime(q):
            raise SpecError(f"SD({p},{q}): p and q must be prime")
        if (p - 1) % q != 0:
            raise SpecError(f"SD({p},{q}): q must divide p-1")
        return GroupSpec(kind="semidirect", p=p, q=q, n=p * q, text=s)

    head, rest = s[0], s[1:]
    if head == "C":
        parts = rest.split("x")
        try:
            # "C2xC2xC3" and "C2x2x3" both mean abelian [2,2,3]
            factors = tuple(int(p[1:] if p.startswith("C") else p) for p in parts)
        except ValueError:
            raise SpecError(f"malformed cyclic/abelian spec {s!r}", 1) from None
        if any(f < 1 for f in factors):
            raise SpecError(f"abelian factors must be positive in {s!r}")
        if len(factors) == 1:
            return GroupSpec(kind="cyclic", n=factors[0], text=s)
        return GroupSpec(kind="abelian", factors=factors, text=s)

    if head in ("D", "S", "A"):
        try:
            n = int(rest)
        except ValueError:
            raise SpecError(f"malformed spec {s!r}", 1) from None
        if head == "D":
            if n % 2 != 0 or n < 4:
                raise SpecError(f"D{n}: dihedral order must be even and >= 4")
            return GroupSpec(kind="dihedral", n=n, text=s)
        if n < 1:
            raise SpecError(f"{s!r}: degree must be positive")
        return GroupSpec(kind="symmetric" if head == "S" else "alternating", degree=n, text=s)

    raise SpecError(f"unrecognized group spec {s!r}", 0)


def _parse_perm_spec(s: str) -> GroupSpec:
    parts = s.split(":", 2)
    if len(parts) != 3:
        raise SpecError(f"malformed perm spec {s!r}", len(s))
    try:
        degree = int(parts[1])
    except ValueError:
        raise SpecError(f"bad degree in {s!r}", 5) from None
    if degree < 1:
        raise SpecError(f"degenerate perm spec: degree {degree}")
    gens = []
    for chunk in parts[2].split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        cycles = []
        covered = 0
        for m in _CYCLE_RE.finditer(chunk):
            pts = [int(t) for t in m.group(1).replace(" ", "").split(",") if t]
            if any(pt < 1 or pt > degree for pt in pts):
                raise SpecError(f"cycle point out of range in {chunk!r}", s.find(chunk))
            cycles.append([pt - 1 for pt in pts])
            covered += len(m.group(0))
        if covered != len(chunk.replace(" ", "")):
            raise SpecError(f"malformed cycles {chunk!r}", s.find(chunk))
        gens.append(Permutation.from_cycles(cycles, degree))
    if not gens:
        raise SpecError(f"perm spec {s!r} has no generators")
    return GroupSpec(kind="perm", degree=degree, generators=tuple(gens), text=s)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_group(spec: GroupSpec, cap: int = DEFAULT_ELEMENT_CAP) -> GroupTable:
    """Materialize a GroupTable from a spec.

    Raises CapExceeded when the group has more than ``cap`` elements: for
    the kinds whose spec gives the order, before the table is built, and
    otherwise when a generator closure would grow past ``cap``.
    """
    order = {"cyclic": spec.n, "abelian": prod(spec.factors), "dihedral": spec.n,
             "quaternion8": 8}.get(spec.kind, 0)
    if order > cap:
        raise CapExceeded(cap, order)
    perm_gens = None
    if spec.kind in ("cyclic", "abelian"):
        factors = (spec.n,) if spec.kind == "cyclic" else spec.factors
        mul = _abelian_table(factors)
        weight = 1
        gens = []
        for f in reversed(factors):
            if f > 1:
                gens.append(weight)
            weight *= f
        gens = sorted(gens) or [0]
    elif spec.kind == "dihedral":
        mul = _dihedral_table(spec.n // 2)
        gens = [1, spec.n // 2]  # the rotation a and the reflection b
    elif spec.kind == "quaternion8":
        mul = _quaternion_table()
        gens = [2, 4]  # i and j
    elif spec.kind == "symmetric":
        perm_gens = _symmetric_generators(spec.degree)
    elif spec.kind == "alternating":
        perm_gens = _alternating_generators(spec.degree)
    elif spec.kind == "semidirect":
        perm_gens = _semidirect_generators(spec.p, spec.q)
    elif spec.kind == "perm":
        perm_gens = list(spec.generators)
    else:
        raise SpecError(f"unknown spec kind {spec.kind!r}")

    if perm_gens is not None:
        mul, gens = _perm_closure_table(perm_gens, perm_gens[0].degree, cap)
    return _finalize(mul, spec.text, spec, gens)


def _finalize(mul: np.ndarray, label: str, spec, generators) -> GroupTable:
    n = mul.shape[0]
    _validate_table(mul)
    inv = np.empty(n, dtype=np.int32)
    rows, cols = np.nonzero(mul == 0)
    inv[rows] = cols
    # one walk for all elements: x_g <- x_g g until x_g is the identity; an
    # element of a group of order n has order at most n
    orders = np.ones(n, dtype=np.int32)
    live = np.arange(1, n)
    x = live
    for k in range(2, n + 1):
        if live.size == 0:
            break
        x = mul[x, live]
        done = x == 0
        orders[live[done]] = k
        live, x = live[~done], x[~done]
    if live.size or (n % orders).any():
        raise SpecError("element order does not divide group order; table is not a group")
    return GroupTable(order=n, mul=mul, inv=inv, elem_order=orders, label=label,
                      spec=spec, generators=tuple(generators))


def _validate_table(mul: np.ndarray) -> None:
    n = mul.shape[0]
    if mul.shape != (n, n):
        raise SpecError("multiplication table is not square")
    if not np.array_equal(mul[0], np.arange(n)) or not np.array_equal(mul[:, 0], np.arange(n)):
        raise SpecError("index 0 does not act as the identity")
    if not (np.sort(mul, axis=1) == np.arange(n)).all():
        raise SpecError("table rows are not permutations")
    # Associativity: full check is cubic, so sample beyond order 64.
    if n <= 64:
        a = mul[mul, :]   # a[i,j,k] = (ij)k
        b = mul[:, mul]   # b[i,j,k] = i(jk)
        if not np.array_equal(a, b):
            raise SpecError("table is not associative")
    else:
        # 10,000 fixed triples from SplitMix64 (Steele, Lea and Flood 2014):
        # the golden-ratio Weyl sequence, mixed by two xor-shift-multiply
        # rounds so that consecutive draws are unrelated; unlike numpy.random
        # it costs no import.  uint64 arithmetic wraps, as the hash intends.
        z = np.arange(1, 30001, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        idx = (z % np.uint64(n)).astype(np.intp).reshape(10000, 3)
        i, j, k = idx[:, 0], idx[:, 1], idx[:, 2]
        if not np.array_equal(mul[mul[i, j], k], mul[i, mul[j, k]]):
            raise SpecError("table failed sampled associativity check")


def _abelian_table(factors: tuple[int, ...]) -> np.ndarray:
    # mixed-radix digits with the last factor least significant, identity
    # (0,...,0) at index 0: (a, x)(b, y) = (ab, x + y mod f) for each factor f
    table = np.zeros((1, 1), dtype=np.int32)
    for f in factors:
        digit = np.arange(f, dtype=np.int32)
        add = np.add.outer(digit, digit)
        add %= f
        m = table.shape[0] * f
        table = (table[:, None, :, None] * f + add[None, :, None, :]).reshape(m, m)
    return table


def _dihedral_table(n: int) -> np.ndarray:
    # elements a^i b^j with index i + n*j; (a^i b^j)(a^k b^l) = a^(i + (-1)^j k) b^(j+l)
    size = 2 * n
    table = np.empty((size, size), dtype=np.int32)
    for idx in range(size):
        i, j = idx % n, idx // n
        k = np.arange(size) % n
        ell = np.arange(size) // n
        sign = 1 if j == 0 else -1
        table[idx] = (i + sign * k) % n + n * ((j + ell) % 2)
    return table


_Q8_BASIS = {  # (basis, basis) -> (sign, basis) with basis 0=1,1=i,2=j,3=k
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def _quaternion_table() -> np.ndarray:
    # element index 2*basis + (0 if +, 1 if -): order 1,-1,i,-i,j,-j,k,-k
    def mulq(x, y):
        bx, sx = divmod(x, 2)
        by, sy = divmod(y, 2)
        sign, b = _Q8_BASIS[(bx, by)]
        s = (sx + sy + (1 if sign < 0 else 0)) % 2
        return 2 * b + s

    table = np.array([[mulq(x, y) for y in range(8)] for x in range(8)], dtype=np.int32)
    return table


def _symmetric_generators(n: int) -> list[Permutation]:
    if n == 1:
        return [Permutation.identity(1)]
    gens = [Permutation.from_cycles([[0, 1]], n)]
    if n > 2:
        gens.append(Permutation.from_cycles([list(range(n))], n))
    return gens


def _alternating_generators(n: int) -> list[Permutation]:
    if n < 3:
        return [Permutation.identity(max(n, 1))]
    return [Permutation.from_cycles([[i, i + 1, i + 2]], n) for i in range(n - 2)]


def _semidirect_generators(p: int, q: int) -> list[Permutation]:
    # C_p acts on p points by x -> x+1; the complement acts by x -> g*x where
    # g is the least element of multiplicative order q mod p.
    g = next(h for h in range(2, p) if _mult_order(h, p) == q)
    shift = Permutation(tuple((x + 1) % p for x in range(p)))
    mult = Permutation(tuple((g * x) % p for x in range(p)))
    return [shift, mult]


def _mult_order(h: int, p: int) -> int:
    k, x = 1, h % p
    while x != 1:
        x = (x * h) % p
        k += 1
        if k > p:
            return 0
    return k


def _perm_closure_table(gens: list[Permutation], degree: int, cap: int):
    """Breadth-first closure over right multiplication by generators.

    New elements are appended level by level sorted by image tuple, so the
    indexing depends only on the generating set.  Each level is composed
    with every generator at once as image arrays (x·g has images x[g]) and
    looked up among the elements found so far by its image bytes.  This
    gives the right action x·g of the generators on all elements, and each
    new element j is recorded with the (k, g) that first reached it.  Since
    i·j = (i·k)·g, the table is then filled one level at a time from
    columns already filled.  Returns the table and the indices of the
    generators.
    """
    if degree < 1:
        raise SpecError("degenerate spec: degree 0")
    images = np.array([g.images for g in gens])
    # big-endian bytes compare as the image tuples do
    key = np.dtype((np.void, 4 * degree))

    def keys(perms):
        return np.ascontiguousarray(perms, dtype=">u4").view(key).ravel()

    level, start, n = np.arange(degree)[None, :], 0, 1
    elems = keys(level)  # every element found so far, in index order
    rights, steps = [], []
    while len(level):
        prods = level[:, images].reshape(-1, degree)  # x·g for x in level, g in gens
        # a key's first occurrence among elems + prods is its element index
        # if it is known; unique keys come sorted, so new ones in image order
        _, first, inverse = np.unique(np.concatenate([elems, keys(prods)]),
                                      return_index=True, return_inverse=True)
        new = first >= n
        reached_by = first[new] - n
        if n + len(reached_by) > cap:
            raise CapExceeded(cap, cap + 1)
        first[new] = np.arange(n, n + len(reached_by))
        rights.append(first[inverse[n:]])
        k, g = divmod(reached_by, len(gens))
        steps.append((slice(n, n + len(reached_by)), start + k, g))
        level, start, n = prods[reached_by], n, n + len(reached_by)
        elems = np.concatenate([elems, keys(level)])

    right = np.concatenate(rights).reshape(n, len(gens)).astype(np.int32)
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n)
    for js, ks, gs in steps:
        table[:, js] = right[table[:, ks], gs]
    return table, right[0].tolist()


# ---------------------------------------------------------------------------
# Masks and quotients
# ---------------------------------------------------------------------------


def mask_to_indices(mask: int) -> list[int]:
    """Set bits of a small mask, lowest first: for vertex, point and face
    masks of a few bits, where this loop beats a numpy round trip."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_to_array(mask: int, n: int) -> np.ndarray:
    """Set bits of a group-element mask over n elements, ascending, as an
    index array; numpy's byte unpacking beats a bit loop once a mask has
    more than about 20 set bits."""
    nbytes = (n + 7) // 8
    buf = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.nonzero(np.unpackbits(buf, bitorder="little", count=n))[0]


def array_to_mask(members, n: int) -> int:
    """Group-element mask of the indices in ``members`` (repeats allowed)."""
    bits = np.zeros(n, dtype=bool)
    bits[members] = True
    return _bools_to_mask(bits)


def _bools_to_mask(bits: np.ndarray) -> int:
    """Group-element mask of a boolean array indexed by element."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def rows_to_masks(rows: np.ndarray) -> list[int]:
    """Masks of the rows of a boolean matrix, one per row, packed at once."""
    width = (rows.shape[1] + 7) // 8
    data = np.packbits(rows, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(data[r * width:(r + 1) * width], "little") for r in range(len(rows))]


def masks_to_rows(masks, n: int) -> np.ndarray:
    """Membership rows of masks over n elements, one bool row each."""
    width = (n + 7) // 8
    data = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(data.reshape(len(masks), width), axis=1, count=n,
                         bitorder="little").view(bool)


def inclusion_matrix(rows: np.ndarray) -> np.ndarray:
    """Boolean matrix, [i, j] true iff bool row i's set lies in row j's,
    tested for j >= i only: in the rows' order, (size, mask) say, no row
    may lie in an earlier one but its equal.  The intersection sizes are
    a float32 product, exact below 2^24, taken in blocks of rows, each
    against the rows from its first on, near 2^20 entries a block."""
    rows = rows.astype(np.float32)
    sizes = rows.sum(axis=1)
    k = len(rows)
    out = np.zeros((k, k), dtype=bool)
    step = max(1, (1 << 20) // max(k, 1))
    for i in range(0, k, step):
        block = rows[i:i + step] @ rows[i:].T
        out[i:i + step, i:] = block == sizes[i:i + step, None]
    return out


def _pack(masks, n: int) -> np.ndarray:
    """Subgroup masks as rows of little-endian uint64 words."""
    width = 8 * ((n + 63) // 64 or 1)
    data = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype="<u8")
    return data.reshape(len(masks), width // 8)


def left_cosets(G: GroupTable, members) -> tuple[np.ndarray, np.ndarray]:
    """Left cosets gK of the subgroup K given by ``members`` (an index array
    or a boolean row over G): the least element of gK for each g, and the
    coset representatives, ascending, which are their own least elements."""
    coset_min = G.mul[:, members].min(axis=1)
    return coset_min, np.flatnonzero(coset_min == np.arange(G.order))


def is_normal(G: GroupTable, mask: int) -> bool:
    members = mask_to_array(mask, G.order)
    for g in range(G.order):
        gm = G.mul[g, members]
        conj = G.mul[gm, G.inv[g]]
        if array_to_mask(conj, G.order) != mask:
            return False
    return True


def quotient_group(G: GroupTable, normal_mask: int) -> tuple[GroupTable, np.ndarray]:
    """Quotient by a normal subgroup given as an element bitmask.

    Returns the quotient table and the projection array mapping element
    index to coset index.  The projection is checked to be a homomorphism
    on all pairs for groups of order <= 64.
    """
    if not (normal_mask & 1):
        raise SpecError("normal subgroup must contain the identity")
    if not is_normal(G, normal_mask):
        raise SpecError("subgroup is not normal; cannot form quotient")
    n = G.order
    members = mask_to_array(normal_mask, n)
    coset_min, reps = left_cosets(G, members)
    projection = np.searchsorted(reps, coset_min).astype(np.int32)
    mul_q = projection[G.mul[np.ix_(reps, reps)]]
    if n <= 64:
        i = np.repeat(np.arange(n), n)
        j = np.tile(np.arange(n), n)
        if not np.array_equal(projection[G.mul[i, j]], mul_q[projection[i], projection[j]]):
            raise SpecError("projection is not a homomorphism")
    label = f"{G.label}/N{len(members)}"
    quot = _finalize(mul_q, label, None, range(len(reps)))
    return quot, projection
