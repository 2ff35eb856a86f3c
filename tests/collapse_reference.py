"""Reference collapse: the dict-driven heap collapse that
``groupdom.complexes`` used before its numbered-face kernel, kept as a
plain copy so the kernel can be checked against it face for face.

Faces are bitmasks; ``count`` and ``cx`` map each live face to its number
of live immediate cofaces and the xor of their masks.  Free faces are
popped as ``(bit_count, mask)`` tuples from a heap.

``greedy_collapse`` runs the library's collapse kernel on every face of a
complex, without the strong core, as the oracle for the probe that
``topology_report`` starts from the core.
"""

import heapq

from groupdom.complexes import SimplicialComplex, _collapse, _collapse_probe


def _coface_counts(faces):
    count, cx = {}, {}
    for g in faces:
        m = g
        while m:
            low = m & -m
            m ^= low
            s = g ^ low
            if s:
                count[s] = count.get(s, 0) + 1
                cx[s] = cx.get(s, 0) ^ g
    return count, cx


def _update_removed(alive, count, cx, removed, push):
    m = removed
    while m:
        low = m & -m
        m ^= low
        s = removed ^ low
        if s and s in alive:
            count[s] = count.get(s, 0) - 1
            cx[s] = cx.get(s, 0) ^ removed
            if count[s] == 1:
                push(s)


def reference_collapse(faces) -> set:
    """The faces left when the free face of least (bit_count, mask) goes
    first until none is free."""
    alive = set(faces)
    count, cx = _coface_counts(alive)
    heap = [(f.bit_count(), f) for f in alive if count.get(f, 0) == 1]
    heapq.heapify(heap)

    def push(s):
        heapq.heappush(heap, (s.bit_count(), s))

    while heap:
        _, f = heapq.heappop(heap)
        if f not in alive or count.get(f, 0) != 1:
            continue
        g = cx[f]
        if g not in alive:
            continue
        alive.discard(f)
        alive.discard(g)
        _update_removed(alive, count, cx, g, push)
        _update_removed(alive, count, cx, f, push)
    return alive


def reference_greedy_collapse(faces):
    alive = reference_collapse(faces)
    return {"collapsed_to_point": len(alive) == 1, "steps": (len(faces) - len(alive)) // 2,
            "remaining_faces": len(alive)}


def greedy_collapse(complex_: SimplicialComplex) -> dict:
    """Deterministic collapse probe on every face of the complex (at most
    ``DEFAULT_FACE_BUDGET``): repeatedly remove the free face of minimal
    dimension with the smallest mask (the collapse kernel).  Full collapse
    to a point certifies contractibility; anything else is inconclusive,
    since some collapse orders get stuck even on collapsible complexes.  It
    does not go through the strong core, so it is the oracle for the probe
    that ``topology_report`` runs there."""
    faces = complex_.faces()
    return _collapse_probe(len(faces), _collapse(faces))
