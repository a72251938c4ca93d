"""The orientation listing that orientation_odd_set_census in symcirc.cfi
replaced, kept as the census's test oracle."""

from __future__ import annotations


def enumerate_orientations(g):
    """All 2^|E| orientations with their odd in-degree vertex sets, as pairs
    ({edge: (tail, head)}, odd set)."""
    m = len(g.edges)
    for bits in range(1 << m):
        orient = {}
        indeg = {v: 0 for v in g.vertices}
        for idx, (u, v) in enumerate(g.edges):
            tail, head = (v, u) if bits >> idx & 1 else (u, v)
            orient[(u, v)] = (tail, head)
            indeg[head] += 1
        odd = frozenset(v for v, d in indeg.items() if d % 2 == 1)
        yield orient, odd
