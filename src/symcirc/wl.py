"""Color refinement, and k-dimensional Weisfeiler-Leman equivalence testing
for k in {1, 2, 3}.

`refine` is the one color-refinement kernel; it refines graph k-tuples
here.  WL refines each graph's own k-tuples, but both graphs go through one
`refine` call, so they share one signature-to-color table and their color
ids are comparable.  For k = 1 this is classic color refinement seeded
with degrees.  For k >= 2 a tuple's initial color is its ordered atomic
type (equalities and adjacencies among its entries), and each round
extends it by the multiset, over all vertices w of its graph, of the
k-vector of colors of the tuples obtained by substituting w into each
position.  Verdict: the two graphs' color multisets agree at every round.

A k-vector of colors c_1 .. c_k is packed into the one int c_1 K^(k-1) +
... + c_k, K the number of classes in the round, so a signature is the old
color and n sorted ints, interned as it is made: no round holds a list.

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
ANDs of int bitmasks.  Its partition is the generic round's: there the
terms for w in t depend only on the seed, and for w not in t the term is
fixed by the seed and the set P of entries that w is adjacent to, and gives
P back (k >= 2: with w at position i the seed records w against every
other entry).  So the rest is the count c(P) of such w per P, and given the
seed, inclusion-exclusion turns these counts and the |N(t_S)| into each
other: |N(t_S)| less the entries of t in it is the sum of c(P) over the P
that contain S.

One kernel serves every k >= 2.  A call makes a plan (`_plan`) per graph
order and drops it on return: the canonical tuples, where they and their
lines lie, and the slices that each run of them, permuted, fills.  A round
signs all canonical tuples of a graph in one pass over these lists, and all
representatives in one more, so it does no index arithmetic of its own.

Convention note: "k-dimensional" counts tuple length, so k = 2 refines
vertex pairs.  Reference: Cai, Fürer, Immerman, Combinatorica 12 (1992).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from math import comb, factorial
from operator import add, and_, mul

from .errors import BudgetExceededError, CircuitError
from .graphs import Graph

# k-tuples of both graphs that wl_equivalent refines.  3-WL on the CFI pair
# of the cube (524,288 tuples) peaks at 46 MiB of allocations under
# tracemalloc, its plan included, about 92 bytes a tuple, so the budget
# allows about 88 MiB; nothing of it is kept after the call.
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


def _locate(n, k, us):
    """Where the k-tuples us over range(n) lie in a color list of n^k tuples.

    Returns (ts, ents, at): their indices t, their entries at each
    position, and for each position i the line of position i that each
    lies on.  The tuples that differ from each other only at position i
    form a line, every s-th tuple from its start, s = n^(k-1-i); the lines
    of a position are counted in the order of their starts."""
    strides = [n ** (k - 1 - i) for i in range(k)]
    ts = [sum(map(mul, u, strides)) for u in us]
    ents = [[u[i] for u in us] for i in range(k)]
    return ts, ents, [[t // (n * s) * s + t % s for t in ts] for s in strides]


def _plan(n, k):
    """Where the canonical k-tuples over range(n), k >= 2, and their lines
    lie in a color list of n^k tuples: (canon, parts, fills, lines), canon
    being _locate of those tuples in lexicographic order.  They fall into
    runs that share all but the last entry: parts holds each run's slice of
    canon, fills[j] the slice of the color list that it fills permuted by
    the j-th of itertools.permutations (the identity first).  lines holds
    (s, the starts of its lines in order) per position."""
    strides = [n ** (k - 1 - i) for i in range(k)]
    heads = [(*d, d[-1]) for d in itertools.combinations_with_replacement(range(n), k - 1)]
    ms = [n - u[-1] for u in heads]
    ends = list(itertools.accumulate(ms, initial=0))
    fills = []
    for pi in itertools.permutations(range(k)):
        # u∘π holds u[q] at the position of stride w[q]; along the run it moves by w[-1]
        w = [strides[pi.index(q)] for q in range(k)]
        a = [sum(map(mul, u, w)) for u in heads]
        fills.append(list(map(slice, a, map(add, a, [m * w[-1] for m in ms]),
                              itertools.repeat(w[-1]))))
    # along a run t, the last entry and the line at each position but the
    # last count up by one from the run's first tuple; the rest stay
    chain = itertools.chain.from_iterable
    t0, es, lead = _locate(n, k, heads)
    up = [list(chain(map(range, a, map(add, a, ms)))) for a in (t0, es[-1], *lead[:-1])]
    stay = [list(chain(map(itertools.repeat, a, ms))) for a in (*es[:-1], lead[-1])]
    canon = up[0], [*stay[:-1], up[1]], [*up[2:], stay[-1]]
    lines = [(s, [j // s * n * s + j % s for j in range(n ** (k - 1))]) for s in strides]
    return canon, list(map(slice, ends, ends[1:])), fills, lines


def _tuples(g: Graph, k: int, base: int, plan=None):
    """Seeds, as an iterable, and refinement steps for the k-tuples of g's
    vertices, held at positions base + t of the color list, where the tuple
    of vertex indices (v_1 .. v_k) has t = sum of v_i * n^(k - i).

    step(col, ids, taus) returns the new colors of these tuples, interning
    signatures in ids.  taus maps each class met on a canonical tuple to
    its images under the position permutations other than the identity, in
    itertools.permutations order; it starts empty in each round and is
    shared by both graphs.  first(col, ids, taus) does the same for the
    first round only, when col is the seed coloring; at k = 1 it is step.
    For k >= 2 they read plan, else _plan(n, k) for the order n of g."""
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
    masks = [sum(1 << w for w in ns) for ns in nbrs]   # neighbourhoods as bitmasks
    size = n ** k
    canon, parts, fills, lines = plan or _plan(n, k)
    perms = list(itertools.permutations(range(k)))[1:]
    p = len(perms)

    def spread(sign, taus):
        # sign(*_locate(n, k, us)) returns the new colors of the tuples us;
        # each new class is signed again on one of its tuples permuted, in one call
        row = sign(*canon)
        met = dict(zip(row, range(len(row))))   # class: a canonical tuple of it
        fresh = list(met.keys() - taus.keys())
        if fresh:
            signed = sign(*_locate(n, k, [[canon[1][q][met[x]] for q in pi]
                                          for x in fresh for pi in perms]))
            for x, j in zip(fresh, range(0, len(signed), p)):
                taus[x] = signed[j:j + p]
        images = [row, *([taus[x][i] for x in row] for i in range(p))]
        new = [0] * size
        for fill, image in zip(fills, images):
            for f, part in zip(fill, parts):
                new[f] = image[part]
        return new

    def step(col, ids, taus):
        # K exceeds every color of both graphs, so c_1 K^(k-1) + ... + c_k
        # packs a k-vector of colors into one int, equal ints mean equal
        # vectors in either graph, and sorting packed ints sorts the vectors
        K = max(col, default=0) + 1
        own = col[base:base + size]
        # ls[i][j]: the colors of line j of position i, times K^(k-1-i)
        ls = []
        for i, (s, starts) in enumerate(lines):
            w = K ** (k - 1 - i)
            pre = own if w == 1 else [c * w for c in own]
            ls.append([pre[a:a + n * s:s] for a in starts])

        def sign(ts, ents, at):
            vecs = map(ls[-1].__getitem__, at[-1])
            for lines_i, at_i in zip(ls, at[:-1]):
                vecs = map(_add_lines, vecs, map(lines_i.__getitem__, at_i))
            return [ids.setdefault((o, *sorted(v)), len(ids))
                    for o, v in zip(map(own.__getitem__, ts), vecs)]

        return spread(sign, taus)

    def first(col, ids, taus):
        # the signature (seed, |N(u_S)| for S = 0 .. 2^k - 1), where bit i
        # of S selects position i
        own = col[base:base + size]

        def sign(ts, ents, at):
            ms = []   # N(u_S) for S = 1 .. 2^k - 1
            for e in ents:
                m = list(map(masks.__getitem__, e))
                ms += [m, *(list(map(and_, x, m)) for x in ms)]
            return [ids.setdefault(z, len(ids)) for z in zip(
                map(own.__getitem__, ts), itertools.repeat(n), *(map(int.bit_count, m) for m in ms))]

        return spread(sign, taus)

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
    plan = _plan(n1, k) if k > 1 else None   # g2 reads it too if n2 == n1
    seeds1, step1, first1 = _tuples(g1, k, 0, plan)
    seeds2, step2, first2 = _tuples(g2, k, cut, plan if n2 == n1 else None)
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
