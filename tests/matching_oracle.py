"""Perfect-matching oracles for symcirc.cfi: the backtracking search that
the gadget contraction replaced, and the Ryser summation that the
permanent DP replaced.

search visits every perfect matching of any graph; counting, listing and the
CFI classification are leaves over it.  classify also checks the projection
equations on every matching it visits.  ryser_permanent sums over all 2^n
column subsets, so it suits graphs with at most about 20 vertices a side.
"""

from __future__ import annotations

from symcirc.cfi import CFIGraph, MatchingReport, bipartition
from symcirc.errors import CircuitError


def search(g, leaf) -> int:
    """Call leaf(partner) once per perfect matching of g, where partner[i] is
    the index in g.vertices of the mate of vertex i, and return the number
    of search nodes."""
    verts = g.vertices
    n = len(verts)
    if n % 2 == 1:
        return 0
    order = {v: i for i, v in enumerate(verts)}
    nbr = [sorted(order[w] for w in g.adj(v)) for v in verts]
    free = [True] * n
    partner = [-1] * n
    nodes = 0

    def rec(lo):
        nonlocal nodes
        while lo < n and not free[lo]:
            lo += 1
        if lo == n:
            leaf(partner)
            return
        nodes += 1
        free[lo] = False
        for w in nbr[lo]:
            if free[w]:
                free[w] = False
                partner[lo], partner[w] = w, lo
                rec(lo + 1)
                free[w] = True
        free[lo] = True

    rec(0)
    return nodes


def count_matchings(g) -> int:
    found = [0]

    def tick(_partner):
        found[0] += 1

    search(g, tick)
    return found[0]


def all_perfect_matchings(g) -> list:
    """Every perfect matching as a frozenset of edges; for small graphs."""
    verts = g.vertices
    out = []

    def collect(partner):
        # vertices are sorted and every edge is stored as (smaller, larger)
        out.append(frozenset((verts[i], verts[j])
                             for i, j in enumerate(partner) if i < j))

    search(g, collect)
    return out


def projections(cfi: CFIGraph, partner: dict) -> dict:
    """p(v, e) = matched edges between {e_0, e_1} and the inner vertices of v,
    checked against the two balance equations."""
    proj = {}
    at_vertex = dict.fromkeys(cfi.base.vertices, 0)
    for e in cfi.base.edges:
        p0 = partner[("e", e, 0)]
        p1 = partner[("e", e, 1)]
        for v in e:
            k = int(p0[1] == v) + int(p1[1] == v)
            proj[(v, e)] = k
            at_vertex[v] += k
        if proj[(e[0], e)] + proj[(e[1], e)] != 2:
            raise CircuitError(f"projection equation failed at edge {e!r}")
    for v, k in at_vertex.items():
        if k != 3:
            raise CircuitError(f"projection equation failed at vertex {v!r}")
    return proj


def classify(cfi: CFIGraph) -> MatchingReport:
    """Every matching of a CFI graph, tallied by its projection histogram
    (n0, n1, n2); nodes is the number of search nodes."""
    verts = cfi.graph.vertices
    ends = [(v, i) for i, v in enumerate(verts) if v[0] == "e"]
    hist = {}

    def tally(partner):
        proj = projections(cfi, {v: verts[partner[i]] for v, i in ends})
        key = [0, 0, 0]
        for p in proj.values():
            key[p] += 1
        key = tuple(key)
        hist[key] = hist.get(key, 0) + 1

    nodes = search(cfi.graph, tally)
    count = sum(hist.values())
    uniform = hist.get((0, 3 * len(cfi.base.vertices), 0), 0)
    return MatchingReport(count, nodes, uniform, count - uniform, hist)


def ryser_permanent(g) -> int:
    """Permanent of the biadjacency matrix of a bipartite graph, by Ryser's
    inclusion-exclusion summation over column subsets with Gray-code
    updates."""
    left, right = bipartition(g)
    if len(left) != len(right):
        raise CircuitError("bipartition is unbalanced")
    n = len(left)
    rows_of = {v: [] for v in right}   # column -> the rows with a 1 in it
    for i, u in enumerate(left):
        for w in g.adj(u):
            rows_of[w].append(i)
    col_rows = [rows_of[v] for v in right]
    total = 1 if n == 0 else 0
    sums = [0] * n
    sign = -1 if n % 2 else 1   # (-1)^(n - |S|), S the columns in Gray code s
    for s in range(1, 1 << n):
        j = (s & -s).bit_length() - 1   # Gray codes s - 1 and s differ in column j
        step = 1 if (s ^ s >> 1) >> j & 1 else -1
        for i in col_rows[j]:
            sums[i] += step
        sign = -sign
        prod = 1
        for x in sums:
            prod *= x
            if prod == 0:
                break
        total += sign * prod
    return total
