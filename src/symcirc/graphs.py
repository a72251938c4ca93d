"""Simple undirected graphs: construction, parsing, and small built-ins.

Vertices are arbitrary hashable, comparable labels; file I/O uses 1-based
integers.  The text format is a header line "graph <n> <m>" followed by m
lines "u v".

A Graph holds its vertices sorted and its edges normalized by vertex rank:
each end maps to its rank in the sorted vertices, an edge {u, v} becomes the
int a n + b for ranks a < b, and the sorted set of these ints maps back to
label pairs.  Rank order is label order, so the edges come out as the sorted
set of (u, v) with u < v, with no label compared after the vertex sort.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import CircuitError, SchemaError


@dataclass
class Graph:
    vertices: tuple
    edges: tuple
    name: str = ""
    _adj: dict | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        vs = sorted(set(self.vertices))
        n = len(vs)
        rank = dict(zip(vs, range(n))).__getitem__
        us, ws = tuple(zip(*self.edges)) or ((), ())
        try:
            # edge {u, v} as the int a n + b, a < b the ranks of its ends, so
            # int order is label order; -1 marks a self-loop
            keys = sorted({a * n + b if a < b else b * n + a if b < a else -1
                           for a, b in zip(map(rank, us), map(rank, ws))})
        except KeyError:
            keys = [-1]
        if keys and keys[0] < 0:
            self._refuse(vs)
        self.vertices = tuple(vs)
        self.edges = tuple([(vs[key // n], vs[key % n]) for key in keys])

    def _refuse(self, vs):
        """Raise the error for the first self-loop among the edges, else for
        the least edge, its ends in label order, with an unknown end."""
        for u, v in self.edges:
            if u == v:
                raise CircuitError(f"self-loop at {u!r}")
        known = set(vs)
        u, v = min((v, u) if v < u else (u, v) for u, v in self.edges
                   if u not in known or v not in known)
        raise CircuitError(f"edge ({u!r}, {v!r}) uses unknown vertex")

    def adj(self, v) -> frozenset:
        if self._adj is None:
            m = {u: set() for u in self.vertices}
            for a, b in self.edges:
                m[a].add(b)
                m[b].add(a)
            self._adj = {u: frozenset(s) for u, s in m.items()}
        return self._adj[v]

    def degree(self, v) -> int:
        return len(self.adj(v))

    def has_edge(self, u, v) -> bool:
        return v in self.adj(u)

    def incident(self, v) -> tuple:
        return tuple(e for e in self.edges if v in e)

    def is_connected(self) -> bool:
        return not self.vertices or len(_reach(self, self.vertices[0])) == len(self.vertices)

    def induced(self, verts, name="") -> "Graph":
        keep = set(verts)
        return Graph(tuple(keep),
                     tuple((u, v) for u, v in self.edges if u in keep and v in keep),
                     name)

    def relabel(self, mapping, name="") -> "Graph":
        first = {}   # label: the first vertex mapped to it
        for v in self.vertices:
            if v not in mapping:
                raise CircuitError(f"relabel does not map vertex {v!r}")
            w = first.setdefault(mapping[v], v)
            if w != v:
                raise CircuitError(f"relabel maps {w!r} and {v!r} to one label {mapping[v]!r}")
        return Graph(tuple(first),
                     tuple((mapping[u], mapping[v]) for u, v in self.edges),
                     name or self.name)

    def disjoint_union(self, other: "Graph", name="") -> "Graph":
        a = self.relabel({v: ("a", v) for v in self.vertices})
        b = other.relabel({v: ("b", v) for v in other.vertices})
        return Graph(a.vertices + b.vertices, a.edges + b.edges, name)


def _reach(g: Graph, start, skip=None) -> dict:
    """{vertex: distance from start} over the vertices that paths from start
    avoiding skip reach, in breadth-first order."""
    depth = {start: 0}
    queue = [start]
    for u in queue:
        for w in g.adj(u):
            if w != skip and w not in depth:
                depth[w] = depth[u] + 1
                queue.append(w)
    return depth


def is_two_connected(g: Graph) -> bool:
    """Connected, at least 3 vertices, and no cut vertex: for every v, a
    neighbour of v reaches all other vertices without passing v."""
    if len(g.vertices) < 3 or not g.is_connected():
        return False
    return all(len(_reach(g, min(g.adj(v)), skip=v)) == len(g.vertices) - 1
               for v in g.vertices)


def is_graph_isomorphism(g1: Graph, g2: Graph, mapping: dict) -> bool:
    if sorted(mapping) != list(g1.vertices):
        return False
    if sorted(mapping.values()) != list(g2.vertices):
        return False
    if len(g1.edges) != len(g2.edges):
        return False
    return all(g2.has_edge(mapping[u], mapping[v]) for u, v in g1.edges)


# ---------------------------------------------------------------------------
# Constructors and built-ins


def complete_graph(n: int, name="") -> Graph:
    vs = tuple(range(1, n + 1))
    return Graph(vs, tuple(itertools.combinations(vs, 2)), name or f"K{n}")


def complete_bipartite(a: int, b: int, name="") -> Graph:
    vs = tuple(range(1, a + b + 1))
    edges = tuple((i, j) for i in range(1, a + 1) for j in range(a + 1, a + b + 1))
    return Graph(vs, edges, name or f"K{a}{b}")


def cycle_graph(n: int, name="") -> Graph:
    vs = tuple(range(1, n + 1))
    return Graph(vs, tuple((i, i % n + 1) for i in vs), name or f"C{n}")


def path_graph(n: int, name="") -> Graph:
    vs = tuple(range(1, n + 1))
    return Graph(vs, tuple((i, i + 1) for i in range(1, n)), name or f"P{n}")


def petersen_graph() -> Graph:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return Graph(tuple(range(1, 11)), tuple(outer + spokes + inner), "petersen")


BUILTIN_GRAPHS = {
    "k4": lambda: complete_graph(4, "k4"),
    "k33": lambda: complete_bipartite(3, 3, "k33"),
    "petersen": petersen_graph,
}


def builtin_graph(name: str) -> Graph:
    make = BUILTIN_GRAPHS.get(name.lower())
    if make is None:
        raise CircuitError(f"unknown built-in graph {name!r}")
    return make()


# ---------------------------------------------------------------------------
# Text format


def parse_graph(text: str, name="") -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SchemaError("$", "empty graph file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "graph":
        raise SchemaError("$.header", f"expected 'graph <n> <m>', got {lines[0]!r}")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        raise SchemaError("$.header", "vertex/edge counts must be integers") from None
    if n < 0 or m < 0:
        raise SchemaError("$.header", f"vertex/edge counts must not be negative, got {n} {m}")
    if len(lines) - 1 != m:
        raise SchemaError("$.edges", f"expected {m} edge lines, got {len(lines) - 1}")
    edges = set()
    for i, ln in enumerate(lines[1:], start=1):
        parts = ln.split()
        if len(parts) != 2:
            raise SchemaError(f"$.edges[{i}]", f"expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise SchemaError(f"$.edges[{i}]", "endpoints must be integers") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise SchemaError(f"$.edges[{i}]", f"endpoint out of range 1..{n}")
        if u == v:
            raise SchemaError(f"$.edges[{i}]", f"self-loop at {u}")
        e = (min(u, v), max(u, v))
        if e in edges:
            raise SchemaError(f"$.edges[{i}]", f"repeated edge {u} {v}")
        edges.add(e)
    return Graph(tuple(range(1, n + 1)), tuple(edges), name)


def format_graph(g: Graph) -> str:
    order = {v: i for i, v in enumerate(g.vertices, start=1)}
    lines = [f"graph {len(g.vertices)} {len(g.edges)}"]
    for u, v in sorted((order[a], order[b]) if order[a] < order[b] else (order[b], order[a])
                       for a, b in g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
