"""Perfect-matching oracles for symcirc.cfi: the backtracking search that
the gadget contraction replaced, the Ryser summation that the permanent DP
replaced, and the bijection listing of gadget subgraphs that the parity
rule of cfi._gadget_table replaced.

search visits every perfect matching of any graph; counting, listing and the
CFI classification are leaves over it.  classify also checks the projection
equations on every matching it visits.  ryser_permanent sums over all 2^n
column subsets, so it suits graphs with at most about 20 vertices a side.
bijection_matchings lists the matchings of one gadget subgraph through the
permutations of its inner vertices; listed_gadget_table applies it to every
choice of ends at one vertex of a built CFI graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from symcirc import (
    CFIGraph,
    CircuitError,
    Graph,
    MatchingReport,
    bipartition,
    build_cfi,
    complete_graph,
    matching_count_via_permanent,
)


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


# ---------------------------------------------------------------------------
# Gadget subgraphs


def gadget_graph(bits) -> Graph:
    """The gadget build_cfi puts at vertex 1 of K4: the subgraph of X(K4)
    induced on the inner vertices and the balance vertex of 1, and on end
    bits[i] of the i-th edge at 1."""
    x = build_cfi(complete_graph(4))
    ends = [("e", e, b) for e, b in zip(x.base.incident(1), bits)]
    return x.graph.induced([v for v in x.graph.vertices
                            if v[0] != "e" and v[1] == 1] + ends)


def bijection_matchings(g: Graph) -> set:
    """Perfect matchings of a gadget graph, listed directly: the graph is
    bipartite with the inner vertices on one side, so they are the
    bijections from the other side onto the inner vertices that use only
    edges."""
    inner = [v for v in g.vertices if v[0] == "i"]
    outer = [v for v in g.vertices if v[0] != "i"]
    edges = set(g.edges)
    found = set()
    for image in itertools.permutations(inner):
        pairs = frozenset(zip(outer, image))
        if pairs <= edges:
            found.add(pairs)
    return found


def listed_gadget_table(cfi: CFIGraph, v) -> dict:
    """v's gadget table read off the built graph: for every mask per edge of
    base.incident(v) (bit b set when e_b is matched into v's gadget), the
    number of bijection_matchings of the subgraph induced on v's balance and
    inner vertices and those ends.  Masks with no local matching are left
    out."""
    inc = cfi.base.incident(v)
    own = [u for u in cfi.graph.vertices if u[0] != "e" and u[1] == v]
    table = {}
    for masks in itertools.product(range(4), repeat=len(inc)):
        ends = [("e", e, b) for e, m in zip(inc, masks) for b in (0, 1) if m >> b & 1]
        # the balance vertex and one end per edge fill the inner vertices
        if len(ends) == len(inc):
            count = len(bijection_matchings(cfi.graph.induced(own + ends)))
            if count:
                table[masks] = count
    return table


@dataclass
class GadgetReport:
    s_count: int
    t_count: int
    s_match_expected: bool
    t_match_expected: bool
    counts_by_bits: dict
    ok: bool


def gadget_matchings_check() -> GadgetReport:
    """Count the perfect matchings of all eight gadget graphs by the
    permanent and compare them with the bijection listing of
    bijection_matchings."""
    counts = {}
    agree = {}
    for bits in itertools.product((0, 1), repeat=3):
        g = gadget_graph(bits)
        counts[bits] = matching_count_via_permanent(g)
        agree[bits] = counts[bits] == len(bijection_matchings(g))
    parity_ok = all(c == (4 if sum(bits) % 2 == 0 else 2)
                    for bits, c in counts.items())
    return GadgetReport(counts[(0, 0, 0)], counts[(0, 0, 1)], agree[(0, 0, 0)],
                        agree[(0, 0, 1)], counts, parity_ok and all(agree.values()))
