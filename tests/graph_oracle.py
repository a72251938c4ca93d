"""The label-comparing Graph normalization that symcirc.graphs replaced
with one by vertex rank, kept as its test oracle."""

from __future__ import annotations

from symcirc import CircuitError


def _norm_edge(u, v):
    if u == v:
        raise CircuitError(f"self-loop at {u!r}")
    return (v, u) if v < u else (u, v)


def normalize(vertices, edges):
    """(vertices, edges) as Graph holds them: the vertices sorted without
    repeats, each edge with its ends in order, the edges sorted without
    repeats; CircuitError on a self-loop or an edge to an unknown vertex."""
    vs = tuple(sorted(set(vertices)))
    es = sorted({_norm_edge(u, v) for u, v in edges})
    known = set(vs)
    for u, v in es:
        if u not in known or v not in known:
            raise CircuitError(f"edge ({u!r}, {v!r}) uses unknown vertex")
    return vs, tuple(es)
