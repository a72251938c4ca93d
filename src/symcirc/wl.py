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

A k-vector of colors c_1 .. c_k is packed into the one int
c_1 K^(k-1) + ... + c_k, K the number of classes in the round, so a
signature is the sorted tuple of n ints.  Each graph's step is a generator
of signatures, and `refine` interns each one as it arrives: no round holds
a list of all n^k signatures.

Convention note: "k-dimensional" counts tuple length, so k = 2 refines
vertex pairs.  Reference: Cai, Fürer, Immerman, Combinatorica 12 (1992).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from operator import add

from .errors import BudgetExceededError, CircuitError
from .graphs import Graph

_TUPLE_BUDGET = 10 ** 6   # k-tuples of both graphs that wl_equivalent refines
_add_lines = partial(map, add)


def _dense(sigs):
    ids = {}
    return [ids.setdefault(s, len(ids)) for s in sigs], len(ids)


def refine(seeds, step):
    """Color refinement of the elements 0 .. len(seeds) - 1.

    Yields (colors, number of classes) for the seeds, then after every round
    that splits a class; stops at the first round that splits none.  A round
    recolors element i by (color of i, the i-th item of step(colors)).
    step may return any iterable; it is consumed once, lazily, while the
    new colors are interned.  Color ids are dense, in order of first
    occurrence within this call.
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
    (v_1 .. v_k) has t = sum of v_i * n^(k - i).  The step yields one
    signature per tuple, in order, as it is asked for."""
    verts = g.vertices
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [[index[w] for w in g.adj(v)] for v in verts]
    if k == 1:
        held = [[base + w for w in ns] for ns in nbrs]
        return ([len(ns) for ns in held],
                lambda col: (tuple(sorted(col[w] for w in ns)) for ns in held))
    # atomic type of an ordered pair of vertices: 0 equal, 1 non-adjacent, 2 adjacent
    rel = [[1] * n for _ in range(n)]
    for v, ns in enumerate(nbrs):
        rel[v][v] = 0
        for w in ns:
            rel[v][w] = 2
    pairs = list(itertools.combinations(range(k), 2))
    seeds = [tuple(rel[d[i]][d[j]] for i, j in pairs)
             for d in itertools.product(range(n), repeat=k)]
    size = n ** k
    strides = [n ** (k - 1 - i) for i in range(k)]

    def step(col):
        # K exceeds every color of both graphs, so c_1 K^(k-1) + ... + c_k
        # packs a k-vector of colors into one int, equal ints mean equal
        # vectors in either graph, and sorting packed ints sorts the vectors
        K = max(col, default=0) + 1
        own = col[base:base + size]
        # lines[i][j]: the colors, times K^(k-1-i), of the n tuples on line
        # j of position i, which differ from each other only at position i
        lines = []
        for i, s in enumerate(strides):
            m = K ** (k - 1 - i)
            pre = [c * m for c in own]
            starts = (j // s * n * s + j % s for j in range(n ** (k - 1)))
            lines.append([pre[a:a + n * s:s] for a in starts])
        # tuples t = p*n .. p*n + n - 1 share line p of the last position;
        # at each other position their lines are n consecutive ones, from
        # line t // (n*s) * s + t % s on
        for p, last in enumerate(lines[-1]):
            t = p * n
            runs = [ls[j:j + n] for ls, j in
                    zip(lines, (t // (n * s) * s + t % s for s in strides[:-1]))]
            for rest in zip(*runs):
                yield tuple(sorted(reduce(_add_lines, rest, last)))

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
    for rnd, (col, classes) in enumerate(refine(
            seeds1 + seeds2, lambda c: itertools.chain(step1(c), step2(c)))):
        counts.append(classes)
        if Counter(col[:cut]) != Counter(col[cut:]):
            return WLReport(False, rnd, tuple(counts), rnd)
    return WLReport(True, len(counts), tuple(counts), None)
