"""Color refinement, and k-dimensional Weisfeiler-Leman equivalence testing
for k in {1, 2, 3}.

`refine` is the one color-refinement kernel; it refines graph k-tuples
here.  WL refines each graph's own k-tuples, but both graphs go through one
`refine` call, so they share one signature-to-color table and their color
ids are comparable.  For k = 1 this
is classic color refinement seeded with degrees.  For k >= 2 a tuple's
initial color is its ordered atomic type (equalities and adjacencies among
its entries), and each round extends it by the multiset, over all vertices w
of its graph, of the k-vector of colors of the tuples obtained by
substituting w into each position.  Verdict: the two graphs' color
multisets agree at every round.

Convention note: "k-dimensional" counts tuple length, so k = 2 refines
vertex pairs.  Reference: Cai, Fürer, Immerman, Combinatorica 12 (1992).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import BudgetExceededError, CircuitError
from .graphs import Graph

_TUPLE_BUDGET = 10 ** 6   # k-tuples of both graphs that wl_equivalent refines


def _dense(sigs):
    ids = {}
    return [ids.setdefault(s, len(ids)) for s in sigs], len(ids)


def refine(seeds, step):
    """Color refinement of the elements 0 .. len(seeds) - 1.

    Yields (colors, number of classes) for the seeds, then after every round
    that splits a class; stops at the first round that splits none.  A round
    recolors element i by (color of i, step(colors)[i]).  Color ids are
    dense, in order of first occurrence within this call.
    """
    col, classes = _dense(seeds)
    while True:
        yield col, classes
        new, count = _dense(zip(col, step(col)))
        if count == classes:
            return
        col, classes = new, count


@dataclass
class WLReport:
    equivalent: bool
    rounds: int
    class_counts: tuple  # color classes over both graphs' tuples, per round
    distinguishing_round: int | None


def _tuples(g: Graph, k: int, base: int):
    """Seeds and refinement step for the k-tuples of g's vertices, held at
    positions base + t of the color list, where the tuple of vertex indices
    (v_1 .. v_k) has t = sum of v_i * n^(k - i)."""
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


def wl_equivalent(g1: Graph, g2: Graph, k: int) -> WLReport:
    if k not in (1, 2, 3):
        raise CircuitError("k must be 1, 2, or 3")
    cut, rest = len(g1.vertices) ** k, len(g2.vertices) ** k
    if cut + rest > _TUPLE_BUDGET:
        raise BudgetExceededError(f"{cut} + {rest} {k}-tuples exceed the budget {_TUPLE_BUDGET}")
    seeds1, step1 = _tuples(g1, k, 0)
    seeds2, step2 = _tuples(g2, k, cut)
    counts = []
    for rnd, (col, classes) in enumerate(refine(seeds1 + seeds2,
                                                lambda c: step1(c) + step2(c))):
        counts.append(classes)
        if Counter(col[:cut]) != Counter(col[cut:]):
            return WLReport(False, rnd, tuple(counts), rnd)
    return WLReport(True, len(counts), tuple(counts), None)
