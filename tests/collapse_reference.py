"""Reference collapses: the dict-driven ``greedy_collapse`` and
``reduce_by_collapses`` that ``groupdom.complexes`` used before its
numbered-face kernel, kept as plain copies so the kernel can be checked
against them face for face.

Faces are bitmasks; ``count`` and ``cx`` map each live face to its number
of live immediate cofaces and the xor of their masks.  The probe pops
``(bit_count, mask)`` tuples from a heap; the reduction pops masks from a
stack that starts in ascending (bit_count, mask) order.
"""

import heapq


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


def reference_reduce_by_collapses(faces):
    alive = set(faces)
    count, cx = _coface_counts(alive)
    stack = sorted((f for f in alive if count.get(f, 0) == 1),
                   key=lambda f: (f.bit_count(), f))
    while stack:
        f = stack.pop()
        if f not in alive or count.get(f, 0) != 1:
            continue
        g = cx[f]
        if g not in alive:
            continue
        alive.discard(f)
        alive.discard(g)
        _update_removed(alive, count, cx, g, stack.append)
        _update_removed(alive, count, cx, f, stack.append)
    return alive


def reference_greedy_collapse(faces):
    alive = set(faces)
    count, cx = _coface_counts(alive)
    heap = [(f.bit_count(), f) for f in alive if count.get(f, 0) == 1]
    heapq.heapify(heap)

    def push(s):
        heapq.heappush(heap, (s.bit_count(), s))

    steps = 0
    while heap:
        _, f = heapq.heappop(heap)
        if f not in alive or count.get(f, 0) != 1:
            continue
        g = cx[f]
        if g not in alive:
            continue
        alive.discard(f)
        alive.discard(g)
        steps += 1
        _update_removed(alive, count, cx, g, push)
        _update_removed(alive, count, cx, f, push)
    return {"collapsed_to_point": len(alive) == 1, "steps": steps,
            "remaining_faces": len(alive)}
