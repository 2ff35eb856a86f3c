"""Reference rank: the elimination over ``Fraction`` that the library's
exact rank used before it switched to fraction-free integer elimination
(``groupdom.complexes._exact_pivots``), kept as a plain copy so the two
can be compared; ``exact_rank`` is the rank by the library's elimination.

Columns are sparse dicts {row: value}.  Each column is reduced by the
pivot of its lowest row until it vanishes or takes a new pivot, which is
stored normalised to a leading 1.

``boundary_columns`` and ``reference_betti`` give the boundary matrices of
a face set, every column kept, and the reduced rational
Betti numbers from their ranks over Fraction.  ``RP2_FACETS`` is a complex
whose homology over F2 differs from its rational homology.
"""

from fractions import Fraction

from groupdom.complexes import _exact_pivots

# the 6-vertex real projective plane (the hemi-icosahedron): every edge of
# K6 lies in two of its ten triangles.  H_1(RP^2; Z) = Z/2, so its reduced
# Betti vector is (0, 1, 1) over F2 and (0, 0, 0) over the rationals
RP2_FACETS = tuple(sum(1 << v for v in t) for t in (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)))


def exact_rank(columns):
    """Rank over the rationals by fraction-free elimination: the number of
    pivots ``_exact_pivots`` finds."""
    return len(_exact_pivots(columns))


def reference_rank(columns):
    rank = 0
    pivots = {}
    for col in columns:
        cur = {r: Fraction(v) for r, v in col.items() if v}
        while cur:
            r = min(cur)
            if r in pivots:
                factor = cur[r]
                for pr, pv in pivots[r].items():
                    nv = cur.get(pr, Fraction()) - factor * pv
                    if nv:
                        cur[pr] = nv
                    else:
                        cur.pop(pr, None)
            else:
                lead = cur[r]
                pivots[r] = {pr: pv / lead for pr, pv in cur.items()}
                rank += 1
                break
    return rank


def boundary_columns(faces, k):
    """The columns of d_k on the complex spanned by ``faces``: one per
    k-face in ascending mask order, with rows the (k-1)-faces in ascending
    mask order and signs alternating over the vertices, lowest first."""
    rows = sorted(f for f in faces if f.bit_count() == k)
    index = {f: i for i, f in enumerate(rows)}
    columns = []
    for g in sorted(f for f in faces if f.bit_count() == k + 1):
        vertices = [v for v in range(g.bit_length()) if g >> v & 1]
        columns.append({index[g ^ (1 << v)]: (-1) ** i for i, v in enumerate(vertices)})
    return columns


def reference_betti(faces, top_dim):
    """Reduced rational Betti numbers b_0..b_top_dim of the complex spanned
    by ``faces`` (closed under taking non-empty subfaces)."""
    ranks = [0] + [reference_rank(boundary_columns(faces, k)) for k in range(1, top_dim + 2)]
    counts = [sum(1 for f in faces if f.bit_count() == k + 1) for k in range(top_dim + 1)]
    b = [counts[k] - ranks[k] - ranks[k + 1] for k in range(top_dim + 1)]
    b[0] -= 1
    return tuple(b)
