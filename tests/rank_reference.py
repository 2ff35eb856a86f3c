"""Reference rank: the elimination over ``Fraction`` that
``groupdom.complexes._exact_rank`` used before it switched to fraction-free
integer elimination, kept as a plain copy so the two can be compared.

Columns are sparse dicts {row: value}.  Each column is reduced by the
pivot of its lowest row until it vanishes or takes a new pivot, which is
stored normalised to a leading 1.
"""

from fractions import Fraction


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
