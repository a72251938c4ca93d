"""Reference k-WL, used only by tests: the tuple-of-colors refinement step
that `symcirc.wl` packs into ints and runs on canonical tuples only.

A k-tuple's seed is the tuple of (equal, adjacent) flags of its entry pairs,
and its signature in a round is the sorted list of the k-vectors of colors
of the tuples obtained by substituting each vertex w into each position,
read off stride slices of the color list.  Every one of the n^k tuples
gets its own signature.  Both graphs go through one refinement, as in
`wl_equivalent`, so the reports are comparable field by field.  The
refinement loop is this file's own, so the oracle shares no code with the
kernel it checks.
"""

from __future__ import annotations

import itertools
from collections import Counter

from symcirc.graphs import Graph
from symcirc.wl import WLReport


def _dense(keys):
    ids = {}
    return [ids.setdefault(key, len(ids)) for key in keys], len(ids)


def refine(seeds, step):
    """Recolor every element by (its color, its item of step(colors)) until
    a round splits no class; yields (colors, classes) for the seeds and after
    every round that splits one."""
    col, classes = _dense(seeds)
    while True:
        yield col, classes
        new, count = _dense(zip(col, step(col)))
        if count == classes:
            return
        col, classes = new, count


def _tuples(g: Graph, k: int, base: int):
    verts = g.vertices
    n = len(verts)
    if k == 1:
        index = {v: base + i for i, v in enumerate(verts)}
        nbrs = [[index[w] for w in g.adj(v)] for v in verts]
        return ([len(ns) for ns in nbrs],
                lambda col: [tuple(sorted(col[w] for w in ns)) for ns in nbrs])
    digits = list(itertools.product(range(n), repeat=k))
    seeds = [tuple((d[i] == d[j], g.has_edge(verts[d[i]], verts[d[j]]))
                   for i in range(k) for j in range(i + 1, k))
             for d in digits]
    strides = [n ** (k - 1 - i) for i in range(k)]
    # the tuples that differ from t only in position i lie on one stride-s
    # line of the color list; starts[t][i] is where that line begins
    starts = [tuple(base + t - x * s for x, s in zip(d, strides))
              for t, d in enumerate(digits)]

    def step(col):
        return [tuple(sorted(zip(*(col[a:a + n * s:s] for a, s in zip(st, strides)))))
                for st in starts]

    return seeds, step


def wl_equivalent_oracle(g1: Graph, g2: Graph, k: int) -> WLReport:
    cut = len(g1.vertices) ** k
    seeds1, step1 = _tuples(g1, k, 0)
    seeds2, step2 = _tuples(g2, k, cut)
    counts = []
    for rnd, (col, classes) in enumerate(refine(seeds1 + seeds2,
                                                lambda c: step1(c) + step2(c))):
        counts.append(classes)
        if Counter(col[:cut]) != Counter(col[cut:]):
            return WLReport(False, rnd, tuple(counts), rnd)
    return WLReport(True, len(counts), tuple(counts), None)
