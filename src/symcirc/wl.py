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

For k >= 2 the first round reads only seeds and sorts nothing.  The
signature of t is (seed of t, |N(t_S)| for each set S of positions), N(t_S)
the common neighbours of the t_i in S and all n vertices for S empty, from
int bitmasks that tuples sharing a prefix share.  Its partition is the
generic round's: there the terms for w in t depend only on the seed, and
for w not in t the term is fixed by the seed and the set P of entries that w
is adjacent to, and gives P back (k >= 2: with w at position i the seed
records w against every other entry).  So the rest is the count c(P) of such
w per P, and given the seed, inclusion-exclusion turns these counts and the
|N(t_S)| into each other: |N(t_S)| less the entries of t in it is the sum
of c(P) over the P that contain S.

Convention note: "k-dimensional" counts tuple length, so k = 2 refines
vertex pairs.  Reference: Cai, Fürer, Immerman, Combinatorica 12 (1992).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import partial, reduce
from math import comb, factorial
from operator import add, and_

from .errors import BudgetExceededError, CircuitError
from .graphs import Graph

# k-tuples of both graphs that wl_equivalent refines.  3-WL on the CFI pair
# of the cube (524,288 tuples) peaks at 44 MiB of allocations under
# tracemalloc, about 88 bytes a tuple, so the budget allows about 85 MiB.
_TUPLE_BUDGET = 10 ** 6
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
    # signatures made by each refinement step that ran: canonical tuples
    # plus class representatives
    signatures: tuple = field(default=(), compare=False)


def _tuples(g: Graph, k: int, base: int):
    """Seeds, as an iterable, and refinement steps for the k-tuples of g's
    vertices, held at positions base + t of the color list, where the tuple
    of vertex indices (v_1 .. v_k) has t = sum of v_i * n^(k - i).

    step(col, ids, taus) returns the new colors of these tuples, interning
    signatures in ids.  taus maps each class met on a canonical tuple to
    its images under the position permutations other than the identity, in
    itertools.permutations order; it starts empty in each round and is
    shared by both graphs.  first(col, ids, taus) does the same for the
    first round only, when col is the seed coloring; at k = 1 it is step."""
    verts = g.vertices
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [[index[w] for w in g.adj(v)] for v in verts]
    if k == 1:
        held = [[base + w for w in ns] for ns in nbrs]

        def step(col, ids, taus):
            return [ids.setdefault((col[base + v], tuple(sorted(col[w] for w in ns))), len(ids))
                    for v, ns in enumerate(held)]
        return [len(ns) for ns in held], step, step
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
    masks = [sum(1 << w for w in ns) for ns in nbrs]   # neighbourhoods as bitmasks
    full = (1 << n) - 1

    def at(u, pi):
        # index of u∘pi, the tuple whose position i holds u[pi[i]]
        return sum(u[q] * s for q, s in zip(pi, strides))

    def spread(run, taus, color):
        # run(d, lo, t) returns the new colors of the canonical tuples
        # d + (c,), c = lo .. n - 1, which sit at t .. t + n - lo - 1;
        # color(u, pi) interns the signature of u∘pi
        new = [0] * size
        for d in itertools.combinations_with_replacement(range(n), k - 1):
            lo = d[-1]
            u = d + (lo,)
            row = run(d, lo, at(u, perms[0]))
            for c, x in enumerate(row, lo):
                if x not in taus:
                    taus[x] = [color(d + (c,), pi) for pi in perms[1:]]
            for i, (pi, s) in enumerate(fills):
                a = at(u, pi)
                new[a:a + (n - lo) * s:s] = [taus[x][i - 1] for x in row] if i else row
        return new

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

        def color(u, pi):
            t = at(u, pi)
            vecs = reduce(_add_lines, (ls[t // (n * s) * s + t % s]
                                       for ls, s in zip(lines, strides)))
            return ids.setdefault((own[t], tuple(sorted(vecs))), len(ids))

        def run(d, lo, t):
            # the tuples share one line of the last position; at each other
            # position their lines are consecutive ones
            runs = [ls[j:j + n - lo] for ls, j in
                    zip(lines, (t // (n * s) * s + t % s for s in strides[:-1]))]
            last = lines[-1][t // n]
            return [ids.setdefault((o, tuple(sorted(reduce(_add_lines, rest, last)))), len(ids))
                    for o, rest in zip(own[t:t + n - lo], zip(*runs))]

        return spread(run, taus, color)

    def first(col, ids, taus):
        # the signature (seed, |N(u_S)| for S = 0 .. 2^k - 1), where bit i
        # of S selects position i
        own = col[base:base + size]

        def color(u, pi):
            v = [u[q] for q in pi]
            return ids.setdefault((own[at(u, pi)], *(
                reduce(and_, (masks[v[i]] for i in range(k) if S >> i & 1), full).bit_count()
                for S in range(1 << k))), len(ids))

        def run(d, lo, t):
            # ms: N(d_S) for S = 0 .. 2^(k-1) - 1; the sets S that hold the
            # last position are counted by one AND with the mask of c each
            ms = [full]
            for v in d:
                ms += [m & masks[v] for m in ms]
            return [ids.setdefault(z, len(ids)) for z in zip(
                own[t:t + n - lo], *(itertools.repeat(m.bit_count()) for m in ms),
                *([(m & w).bit_count() for w in masks[lo:]] for m in ms))]

        return spread(run, taus, color)

    return seeds, step, first


def _check_dimension(k):
    if k not in (1, 2, 3):
        raise CircuitError("k must be 1, 2, or 3")


def wl_equivalent(g1: Graph, g2: Graph, k: int) -> WLReport:
    _check_dimension(k)
    n1, n2 = len(g1.vertices), len(g2.vertices)
    cut, rest = n1 ** k, n2 ** k
    if cut + rest > _TUPLE_BUDGET:
        raise BudgetExceededError(f"{cut} + {rest} {k}-tuples exceed the budget {_TUPLE_BUDGET}")
    seeds1, step1, first1 = _tuples(g1, k, 0)
    seeds2, step2, first2 = _tuples(g2, k, cut)
    canonical = comb(n1 + k - 1, k) + comb(n2 + k - 1, k)
    signatures = []

    def step(col, ids):
        taus = {}
        one, two = (step1, step2) if signatures else (first1, first2)
        new = one(col, ids, taus)
        new += two(col, ids, taus)
        signatures.append(canonical + (factorial(k) - 1) * len(taus))
        return new

    counts = []
    for rnd, (col, classes) in enumerate(refine(itertools.chain(seeds1, seeds2), step)):
        counts.append(classes)
        if Counter(col[:cut]) != Counter(col[cut:]):
            return WLReport(False, rnd, tuple(counts), rnd, tuple(signatures))
    return WLReport(True, len(counts), tuple(counts), None, tuple(signatures))
