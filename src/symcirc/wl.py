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
signature is the sorted tuple of n ints.  Signatures are interned as they
are made: no round holds a list of them.

Only the canonical tuples, whose vertex indices do not decrease, get a
signature of their own: n(n+1)/2 of the n^2 pairs, C(n+2, 3) of the n^3
triples.  Every other tuple is a canonical tuple t with its positions
permuted, t∘π (position i holds t_π(i)), and its color is read off a map
τ_π on the round's colors, color(t∘π) = τ_π(color(t)).  The maps exist
because every round's coloring is equivariant under position
permutations, by induction:

- The seeds are.  Adjacency is symmetric, so the atomic type of t∘π is the
  atomic type of t with its entry pairs permuted.
- Refinement keeps it.  Substituting w at position i of t∘π gives the
  tuple t with w at position π(i), permuted by π.  So if the old color of
  u∘π is a function σ_π of the old color of u, the signature of t∘π is the
  signature of t with each k-vector permuted by π and σ_π applied to each
  entry, and equal signatures stay equal.

So one representative per class gives τ_π: for each class met on a
canonical tuple r, and each π other than the identity, one more signature,
of r∘π, is interned in the same table.  Both graphs share these maps,
since signatures do not depend on the graph.  The color list is then filled
in full, with the classes of the full refinement.

Convention note: "k-dimensional" counts tuple length, so k = 2 refines
vertex pairs.  Reference: Cai, Fürer, Immerman, Combinatorica 12 (1992).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import partial, reduce
from math import comb, factorial
from operator import add

from .errors import BudgetExceededError, CircuitError
from .graphs import Graph

_TUPLE_BUDGET = 10 ** 6   # k-tuples of both graphs that wl_equivalent refines
_add_lines = partial(map, add)


def _dense(sigs):
    ids = {}
    return [ids.setdefault(s, len(ids)) for s in sigs], len(ids)


def refine(seeds, step):
    """Color refinement of the elements 0, 1, .., seeded by the items of the
    iterable seeds, which is consumed once.

    Yields (colors, number of classes) for the seeds, then after every round
    that splits a class; stops at the first round that splits none.  A round
    calls step(colors, ids) with an empty dict ids, the round's intern
    table, and takes the list it returns as the new colors.  step gives each
    element the color ids.setdefault(signature, len(ids)), where the
    signature includes the element's old color, and interns no signature
    that no element has, so that len(ids) is the number of new classes.
    """
    col, classes = _dense(seeds)
    while True:
        yield col, classes
        ids = {}
        new = step(col, ids)
        if len(ids) == classes:
            return
        col, classes = new, len(ids)


@dataclass
class WLReport:
    equivalent: bool
    rounds: int
    class_counts: tuple  # color classes over both graphs' tuples, per round
    distinguishing_round: int | None
    # signatures sorted by each refinement step that ran: canonical tuples
    # plus class representatives
    signatures: tuple = field(default=(), compare=False)


def _tuples(g: Graph, k: int, base: int):
    """Seeds, as an iterable, and refinement step for the k-tuples of g's
    vertices, held at positions base + t of the color list, where the tuple
    of vertex indices (v_1 .. v_k) has t = sum of v_i * n^(k - i).

    step(col, ids, taus) returns the new colors of these tuples, interning
    signatures in ids.  taus maps each class met on a canonical tuple to
    its images under the position permutations other than the identity, in
    itertools.permutations order; it starts empty in each round and is
    shared by both graphs."""
    verts = g.vertices
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [[index[w] for w in g.adj(v)] for v in verts]
    if k == 1:
        held = [[base + w for w in ns] for ns in nbrs]
        return ([len(ns) for ns in held],
                lambda col, ids, taus: [
                    ids.setdefault((col[base + v], tuple(sorted(col[w] for w in ns))), len(ids))
                    for v, ns in enumerate(held)])
    # atomic type of an ordered pair of vertices: 0 equal, 1 non-adjacent, 2 adjacent
    rel = [[1] * n for _ in range(n)]
    for v, ns in enumerate(nbrs):
        rel[v][v] = 0
        for w in ns:
            rel[v][w] = 2
    # atomic type of (d_1 .. d_j): that of (d_1 .. d_j-1), then rel[d_i][d_j]
    # for i < j, so (rel[a][b], rel[a][c], rel[b][c]) for (a, b, c); the
    # tuples sharing d_1 .. d_j-1 take theirs from one zip of rows of rel
    seeds = [()] * n
    for j in range(1, k):
        seeds = itertools.chain.from_iterable(
            zip(*(itertools.repeat(r, n) for r in t), *(rel[a] for a in d))
            for d, t in zip(itertools.product(range(n), repeat=j), seeds))
    size = n ** k
    strides = [n ** (k - 1 - i) for i in range(k)]
    perms = list(itertools.permutations(range(k)))   # perms[0] is the identity
    # a permuted run of canonical tuples varies at the position that the
    # last entry moves to
    fills = [(pi, strides[pi.index(k - 1)]) for pi in perms]

    def at(u, pi):
        # index of u∘pi, the tuple whose position i holds u[pi[i]]
        return sum(u[q] * s for q, s in zip(pi, strides))

    def step(col, ids, taus):
        # K exceeds every color of both graphs, so c_1 K^(k-1) + ... + c_k
        # packs a k-vector of colors into one int, equal ints mean equal
        # vectors in either graph, and sorting packed ints sorts the vectors
        K = max(col, default=0) + 1
        own = col[base:base + size]
        # lines[i][j]: the colors, times K^(k-1-i), of the n tuples on line
        # j of position i, which differ from each other only at position i;
        # tuple t lies on line t // (n*s) * s + t % s of the stride-s position
        lines = []
        for i, s in enumerate(strides):
            m = K ** (k - 1 - i)
            pre = [c * m for c in own]
            starts = (j // s * n * s + j % s for j in range(n ** (k - 1)))
            lines.append([pre[a:a + n * s:s] for a in starts])

        def color(t):
            vecs = reduce(_add_lines, (ls[t // (n * s) * s + t % s]
                                       for ls, s in zip(lines, strides)))
            return ids.setdefault((own[t], tuple(sorted(vecs))), len(ids))

        new = [0] * size
        for d in itertools.combinations_with_replacement(range(n), k - 1):
            # the canonical tuples d + (c,), c = lo .. n - 1, sit at t ..
            # t + n - lo - 1 and share one line of the last position; at
            # each other position their lines are consecutive ones
            lo = d[-1]
            u = d + (lo,)
            t = at(u, perms[0])
            runs = [ls[j:j + n - lo] for ls, j in
                    zip(lines, (t // (n * s) * s + t % s for s in strides[:-1]))]
            last = lines[-1][t // n]
            row = [ids.setdefault((o, tuple(sorted(reduce(_add_lines, rest, last)))), len(ids))
                   for o, rest in zip(own[t:t + n - lo], zip(*runs))]
            for c, x in enumerate(row, lo):
                if x not in taus:
                    taus[x] = [color(at(d + (c,), pi)) for pi in perms[1:]]
            for i, (pi, s) in enumerate(fills):
                a = at(u, pi)
                new[a:a + (n - lo) * s:s] = [taus[x][i - 1] for x in row] if i else row
        return new

    return seeds, step


def wl_equivalent(g1: Graph, g2: Graph, k: int) -> WLReport:
    if k not in (1, 2, 3):
        raise CircuitError("k must be 1, 2, or 3")
    n1, n2 = len(g1.vertices), len(g2.vertices)
    cut, rest = n1 ** k, n2 ** k
    if cut + rest > _TUPLE_BUDGET:
        raise BudgetExceededError(f"{cut} + {rest} {k}-tuples exceed the budget {_TUPLE_BUDGET}")
    seeds1, step1 = _tuples(g1, k, 0)
    seeds2, step2 = _tuples(g2, k, cut)
    canonical = comb(n1 + k - 1, k) + comb(n2 + k - 1, k)
    signatures = []

    def step(col, ids):
        taus = {}
        new = step1(col, ids, taus)
        new += step2(col, ids, taus)
        signatures.append(canonical + (factorial(k) - 1) * len(taus))
        return new

    counts = []
    for rnd, (col, classes) in enumerate(refine(itertools.chain(seeds1, seeds2), step)):
        counts.append(classes)
        if Counter(col[:cut]) != Counter(col[cut:]):
            return WLReport(False, rnd, tuple(counts), rnd, tuple(signatures))
    return WLReport(True, len(counts), tuple(counts), None, tuple(signatures))
