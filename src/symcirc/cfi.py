"""CFI perfect-matching graphs over 3-regular base graphs.

For a 3-regular 2-connected base graph G, X(G) replaces every edge e by two
vertices e_0, e_1 and every vertex v by a balance vertex v_b plus four inner
vertices v_S, one per even subset S of the edges at v.  Wiring: v_S is
adjacent to e_1 for e in S, to e_0 for the other incident edges, and to v_b.
The twisted variant ~X(G) uses odd subsets at one special vertex; which
vertex is twisted does not matter up to isomorphism (path_flip_isomorphism
exhibits the witness).

The perfect matchings of X(G) split into uniform ones, which match one end
of every edge pair into each endpoint's gadget, and non-uniform ones, whose
count is the same for X(G) and ~X(G).  For |V| = 2m the uniform count is
2^(m+1) P_m or 2^(m+1) Q_m (see pq), so the two totals differ by 2^(3m+1).
Matchings are counted by one gadget contraction: assign each end e_b to
the gadget of one endpoint of e, and a perfect matching falls apart into
independent gadget-local matchings, so enumerate_perfect_matchings sums
products of per-gadget counts over a sweep of the base graph instead of
listing matchings.  The per-gadget counts come from the parity rule of the
construction (_gadget_table, derived once per parity and shared read-only),
not from the built graph; listing the bijections of each induced gadget
subgraph is a test oracle.  matching_count_via_permanent is a second
route: a row-by-row DP over sets of used columns that reads only the
bipartite graph, with its rows taken from the side whose greedy order keeps
fewer columns open.  The experiment counts by the contraction alone; the
tier-1 tests compare the two routes on the pairs over K4, K3,3 and Petersen.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import BudgetExceededError, CircuitError
from .graphs import Graph, _reach, is_graph_isomorphism, is_two_connected
from .wl import _check_dimension, wl_equivalent


@dataclass
class BaseGraphReport:
    valid: bool
    problems: list
    odd: bool  # |E| odd


def check_base_graph(g: Graph) -> BaseGraphReport:
    problems = []
    for v in g.vertices:
        if g.degree(v) != 3:
            problems.append(f"vertex {v!r} has degree {g.degree(v)}, want 3")
            break
    if not is_two_connected(g):
        problems.append("graph is not 2-connected")
    return BaseGraphReport(not problems, problems, len(g.edges) % 2 == 1)


@dataclass
class CFIGraph:
    graph: Graph
    base: Graph
    twisted: bool
    special: object  # base vertex carrying the odd subsets; None if untwisted
    inner: tuple
    outer: tuple


def build_cfi(g: Graph, twisted: bool = False, special=None) -> CFIGraph:
    rep = check_base_graph(g)
    if not rep.valid:
        raise CircuitError("; ".join(rep.problems))
    if twisted:
        special = g.vertices[0] if special is None else special
        if special not in g.vertices:
            raise CircuitError(f"special vertex {special!r} not in base graph")
    elif special is not None:
        raise CircuitError("a special vertex needs the twisted variant")
    verts = []
    edges = []
    for e in g.edges:
        verts.append(("e", e, 0))
        verts.append(("e", e, 1))
    for v in g.vertices:
        inc = g.incident(v)
        want = 1 if (twisted and v == special) else 0
        verts.append(("b", v))
        for r in range(4):
            if r % 2 != want:
                continue
            for S in itertools.combinations(inc, r):
                iv = ("i", v, S)
                verts.append(iv)
                edges.append((("b", v), iv))
                for e in inc:
                    edges.append((("e", e, 1 if e in S else 0), iv))
    name = (f"~X({g.name})" if twisted else f"X({g.name})") if g.name else ""
    graph = Graph(tuple(verts), tuple(edges), name)
    inner = tuple(v for v in graph.vertices if v[0] == "i")
    outer = tuple(v for v in graph.vertices if v[0] != "i")
    return CFIGraph(graph, g, twisted, special, inner, outer)


def path_flip_isomorphism(x: CFIGraph, y: CFIGraph, path) -> dict:
    """Isomorphism from x to y flipping e_0/e_1 along a simple base path from
    x's special vertex to y's.  Raises if the produced map fails the check."""
    if x.base.edges != y.base.edges or x.base.vertices != y.base.vertices:
        raise CircuitError("CFI graphs have different base graphs")
    if not (x.twisted and y.twisted):
        raise CircuitError("path flip applies to twisted CFI graphs")
    path = list(path)
    if not path or path[0] != x.special or path[-1] != y.special:
        raise CircuitError("path must run from x's special vertex to y's")
    if len(set(path)) != len(path):
        raise CircuitError("path must be simple")
    pedges = set()
    for a, b in zip(path, path[1:]):
        if not x.base.has_edge(a, b):
            raise CircuitError(f"({a!r}, {b!r}) is not a base edge")
        pedges.add((a, b) if (a, b) in x.base.edges else (b, a))
    mapping = {}
    for vert in x.graph.vertices:
        if vert[0] == "e":
            _, e, bit = vert
            mapping[vert] = ("e", e, 1 - bit) if e in pedges else vert
        elif vert[0] == "b":
            mapping[vert] = vert
        else:
            _, v, S = vert
            flip = {e for e in x.base.incident(v) if e in pedges}
            mapping[vert] = ("i", v, tuple(sorted(set(S) ^ flip)))
    if not is_graph_isomorphism(x.graph, y.graph, mapping):
        raise CircuitError("flip map failed the isomorphism check")
    return mapping


# ---------------------------------------------------------------------------
# Perfect matchings


_FRONTIER_BUDGET = 10 ** 5  # live states the contraction or the permanent DP may hold


@dataclass
class MatchingReport:
    count: int
    nodes: int  # (frontier entry, gadget pick) combinations the contraction visited
    uniform: int
    nonuniform: int
    histogram: dict  # (n0, n1, n2) projection-value counts -> matchings


@functools.cache
def _gadget_table(odd: int) -> MappingProxyType:
    """Perfect matchings local to one gadget, by the ends they take: maps one
    mask per incident edge (bit b set when e_b is matched into the gadget)
    to the number of matchings of the balance and inner vertices with those
    ends.  Masks with no local matching are left out.  Derived once per
    parity and shared read-only.

    The inner vertices are the subsets S of the three edges with |S| = odd
    mod 2, and S is adjacent to the balance vertex and to end e_[e in S] of
    each edge e.  So a local matching gives one inner vertex to the balance
    vertex and to each other one an end of one of its edges, all distinct."""
    inner = [S for S in range(8) if bin(S).count("1") % 2 == odd]  # bit i: edge i in S
    table = {}
    for s in inner:   # matched to the balance vertex
        rest = [t for t in inner if t != s]
        for picks in itertools.product(range(3), repeat=len(rest)):
            ends = {(i, t >> i & 1) for t, i in zip(rest, picks)}
            if len(ends) == len(rest):
                masks = tuple(sum(1 << b for j, b in ends if j == i) for i in range(3))
                table[masks] = table.get(masks, 0) + 1
    return MappingProxyType(table)


def _contract(cfi: CFIGraph):
    """({j: matchings}, nodes), where j counts the base edges both of whose
    ends are matched into one endpoint's gadget.

    Once every end is assigned to an endpoint's gadget, a perfect matching
    is a choice of independent gadget-local matchings.  The sweep adds base
    vertices in the _row_order of their edge sets (most added neighbours
    first; the base is cubic, so then lowest index) and keeps for each
    assignment of the frontier edges (one endpoint added) the polynomial
    sum(count t^j) of the partial matchings behind it as one int, its value
    at t = 2^width (Kronecker substitution): all partial matchings number at
    most the product of the gadgets' local totals, below 2^width, so no
    coefficient carries into the next."""
    base = cfi.base
    frontier = ()  # edges with exactly one endpoint added
    states = {(): 1}  # masks taken at the added endpoint -> polynomial at 2^width
    incident = [base.incident(v) for v in base.vertices]
    tables = (_gadget_table(0), _gadget_table(1))
    width = (max(sum(t.values()) for t in tables) ** len(base.vertices)).bit_length()
    nodes = 0
    for r in _row_order(incident)[0]:
        v, inc = base.vertices[r], incident[r]
        pos = {e: i for i, e in enumerate(frontier)}
        shut = [i for i, e in enumerate(inc) if e in pos]
        shut_at = [pos[inc[i]] for i in shut]  # the shut edges' places in a state
        opening = [i for i in range(len(inc)) if i not in shut]
        keep = [i for i, e in enumerate(frontier) if e not in inc]
        picks = {}  # masks on the shut edges -> (masks on the new edges, count, shift)
        for masks, count in tables[cfi.twisted and v == cfi.special].items():
            picks.setdefault(tuple([masks[i] for i in shut]), []).append(
                (tuple([masks[i] for i in opening]), count, masks.count(0) * width))
        nxt = {}
        for state, poly in states.items():
            kept = tuple([state[i] for i in keep])
            # v takes the ends of a shut edge that its added endpoint left
            fits = picks.get(tuple([3 ^ state[i] for i in shut_at]), ())
            nodes += len(fits)
            for opened, count, shift in fits:
                key = kept + opened
                nxt[key] = nxt.get(key, 0) + (poly * count << shift)
        if len(nxt) > _FRONTIER_BUDGET:
            raise BudgetExceededError(
                f"matching contraction frontier exceeded {_FRONTIER_BUDGET} states")
        frontier = tuple([frontier[i] for i in keep] + [inc[i] for i in opening])
        states = nxt
    packed, low = states.get((), 0), (1 << width) - 1
    coeffs = ((j, packed >> j * width & low) for j in range(len(base.edges) + 1))
    return {j: c for j, c in coeffs if c}, nodes


def enumerate_perfect_matchings(cfi: CFIGraph, mode: str = "count") -> MatchingReport:
    """Count the perfect matchings of a CFI graph and split them into uniform
    ones (every projection 1) and non-uniform ones.  Both modes run the same
    gadget contraction."""
    if not isinstance(cfi, CFIGraph):
        raise CircuitError("matching counts need a CFI graph")
    if mode not in ("count", "classify"):
        raise CircuitError(f"unknown mode {mode!r}")
    poly, nodes = _contract(cfi)
    pairs = 2 * len(cfi.base.edges)
    hist = {(j, pairs - 2 * j, j): c for j, c in sorted(poly.items())}
    count = sum(poly.values())
    uniform = poly.get(0, 0)
    return MatchingReport(count, nodes, uniform, count - uniform, hist)


def bipartition(g: Graph):
    """(left, right) by the parity of breadth-first depth in each
    component; raises on odd cycles, which join two vertices of one parity."""
    color = {}
    for start in g.vertices:
        if start not in color:
            color.update((v, d % 2) for v, d in _reach(g, start).items())
    if any(color[u] == color[v] for u, v in g.edges):
        raise CircuitError("graph is not bipartite")
    left = tuple(v for v in g.vertices if color[v] == 0)
    right = tuple(v for v in g.vertices if color[v] == 1)
    return left, right


def _row_order(rows) -> tuple:
    """(order, last, width): the greedy row order (most columns touched by
    earlier rows, then shortest, then lowest index), each column's last row,
    and the most columns open at one step, touched by a row up to it and by
    a row from it on."""
    order, touched, pending = [], set(), list(range(len(rows)))
    while pending:
        # among rows touching as many old columns, the shortest adds fewest new
        i = min(pending, key=lambda r: (-len(touched.intersection(rows[r])), len(rows[r]), r))
        pending.remove(i)
        order.append(i)
        touched.update(rows[i])
    last = {j: i for i in order for j in rows[i]}
    width, open_cols = 0, set()
    for i in order:
        open_cols.update(rows[i])
        width = max(width, len(open_cols))
        open_cols.difference_update(j for j in rows[i] if last[j] == i)
    return order, last, width


def matching_count_via_permanent(g: Graph) -> int:
    """Permanent of the biadjacency matrix, the number of perfect matchings
    of a bipartite graph, by a row-by-row DP.  A state maps the used columns
    that a later row still touches to the number of ways to match the rows
    so far, so the rows are the side of the bipartition with the narrower
    _row_order (the left on a tie).  A column leaves the key at its last
    row, which must find it used.  As every column has a row, n rows on
    distinct columns use them all, so that rule only drops dead states
    early.  It reads only the graph, so the tests check the gadget
    contraction against it independently.  Raises BudgetExceededError past
    _FRONTIER_BUDGET states."""
    left, right = bipartition(g)
    if len(left) != len(right):
        raise CircuitError("bipartition is unbalanced")
    plans = []
    for side, other in ((left, right), (right, left)):
        col = {v: j for j, v in enumerate(other)}
        rows = [sorted(col[w] for w in g.adj(u)) for u in side]
        plans.append((rows, *_row_order(rows)))
    rows, order, last, _width = min(plans, key=lambda plan: plan[3])
    states = {0: 1}   # used open columns -> partial matchings
    for i in order:
        shut = sum(1 << j for j in rows[i] if last[j] == i)
        nxt = {}
        for mask, count in states.items():
            for j in rows[i]:
                m = mask | 1 << j
                if m != mask and m & shut == shut:
                    nxt[m ^ shut] = nxt.get(m ^ shut, 0) + count
        if len(nxt) > _FRONTIER_BUDGET:
            raise BudgetExceededError(
                f"permanent DP exceeded {_FRONTIER_BUDGET} states")
        states = nxt
    return states.get(0, 0)


# ---------------------------------------------------------------------------
# Orientations


def orientation_odd_set_census(g: Graph) -> dict:
    """Number of orientations per odd in-degree vertex set, in closed form.

    Reversing edge uv flips the in-degree parity of u and of v.  Over
    GF(2) the odd set is therefore an affine function of the set of
    reversed edges, whose linear part maps an edge set to its boundary.
    The boundaries are the vertex sets that meet every component in an
    even number of vertices, 2^(|V| - c) of them for c components, and the
    kernel is the cycle space, of size 2^(|E| - |V| + c).  The in-degrees
    inside a component C sum to |E(C)|.  So S is an odd set iff
    |S ∩ C| = |E(C)| (mod 2) for every C, and each is the odd set of
    2^(|E| - |V| + c) orientations."""
    where = {}      # vertex -> index of its component
    members = []    # vertices per component, first vertex first
    for v in g.vertices:
        if v not in where:
            members.append(list(_reach(g, v)))
            for u in members[-1]:
                where[u] = len(members) - 1
    edges = [0] * len(members)
    for u, _v in g.edges:
        edges[where[u]] += 1
    free = len(g.vertices) - len(members)
    if free > 24:
        raise BudgetExceededError(f"2^{free} odd in-degree sets exceed the budget 2^24")
    per_set = 2 ** (len(g.edges) - free)
    # within each component, any subset of all but the first vertex, with
    # the first vertex added when the parity asks for it
    choices = [[(first,) * ((len(pick) + m) % 2) + pick
                for r in range(len(rest) + 1)
                for pick in itertools.combinations(rest, r)]
               for (first, *rest), m in zip(members, edges)]
    return {frozenset(itertools.chain(*parts)): per_set
            for parts in itertools.product(*choices)}


# ---------------------------------------------------------------------------
# Closed-form counts


def uniform_count_formula(g: Graph, twisted: bool) -> int:
    """Number of uniform perfect matchings of X(G) (or ~X(G) if twisted):
    2^(m+1) P_m, or 2^(m+1) Q_m when |E| + twisted is odd, for |V| = 2m."""
    nv = len(g.vertices)
    if nv % 2 == 1:
        raise CircuitError(f"base graph has an odd number of vertices ({nv})")
    p, q = pq(nv // 2)
    return 2 ** (nv // 2 + 1) * (q if (len(g.edges) + twisted) % 2 else p)


def pq(m: int):
    """(P_m, Q_m): even / odd subset sums of 2^|S| 4^{2m-|S|} over a 2m-set.
    By the binomial theorem they are ((4+2)^{2m} +- (4-2)^{2m}) / 2."""
    if m < 1:
        raise CircuitError("m must be at least 1")
    return (36 ** m + 4 ** m) // 2, (36 ** m - 4 ** m) // 2


# ---------------------------------------------------------------------------
# The end-to-end experiment


@dataclass
class ExperimentReport:
    base: str
    formula_uniform_x: int
    formula_uniform_y: int
    expected_diff: int
    enumerated: bool  # False only when the contraction overran its budget
    count_x: int | None = None
    count_y: int | None = None
    uniform_x: int | None = None
    uniform_y: int | None = None
    nonuniform_x: int | None = None
    nonuniform_y: int | None = None
    mod: dict = field(default_factory=dict)     # q -> {"x": r, "y": r, "differ": bool}
    wl: dict = field(default_factory=dict)      # k -> equivalent
    checks: dict = field(default_factory=dict)  # name -> bool

    def passed(self) -> bool:
        return all(self.checks.values())


def matching_experiment(g: Graph, k_list=(1, 2), p_list=(2, 3, 5)) -> ExperimentReport:
    """Build X(G) and ~X(G), count and classify their matchings by the
    gadget contraction, and check every finite claim: uniform counts match
    the formula, non-uniform counts agree, the total gap is 2^{3n+1} for
    |V| = 2n, the counts agree modulo each requested q >= 2 exactly when q
    divides that gap, and k-WL fails to distinguish the pair for the
    requested k.  The permanent DP is not run here; the tier-1 tests compare
    it with the contraction."""
    for q in p_list:
        if q < 2:
            raise CircuitError(f"modulus {q} is below 2")
    for k in k_list:
        _check_dimension(k)
    x = build_cfi(g, twisted=False)
    y = build_cfi(g, twisted=True)
    fx = uniform_count_formula(g, False)
    fy = uniform_count_formula(g, True)
    nv = len(g.vertices)
    expected = 2 ** (3 * (nv // 2) + 1)
    rep = ExperimentReport(g.name or "?", fx, fy, expected, False)
    rep.checks["formula_diff_is_power"] = abs(fx - fy) == expected
    try:
        rx = enumerate_perfect_matchings(x)
        ry = enumerate_perfect_matchings(y)
        rep.enumerated = True
    except BudgetExceededError:
        pass
    if rep.enumerated:
        rep.count_x, rep.count_y = rx.count, ry.count
        rep.uniform_x, rep.uniform_y = rx.uniform, ry.uniform
        rep.nonuniform_x, rep.nonuniform_y = rx.nonuniform, ry.nonuniform
        rep.checks["uniform_x_matches_formula"] = rx.uniform == fx
        rep.checks["uniform_y_matches_formula"] = ry.uniform == fy
        rep.checks["nonuniform_counts_equal"] = rx.nonuniform == ry.nonuniform
        rep.checks["count_diff_is_power"] = abs(rx.count - ry.count) == expected
        for q in p_list:
            mx, my = rx.count % q, ry.count % q
            rep.mod[q] = {"x": mx, "y": my, "differ": mx != my}
            # the counts differ by the gap, so they agree mod q iff q divides it
            if expected % q == 0:
                rep.checks[f"counts_agree_mod_{q}"] = mx == my
            else:
                rep.checks[f"counts_differ_mod_{q}"] = mx != my
    for k in k_list:
        verdict = wl_equivalent(x.graph, y.graph, k)
        rep.wl[k] = verdict.equivalent
        rep.checks[f"wl_{k}_equivalent"] = verdict.equivalent
    return rep
