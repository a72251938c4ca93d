"""Property test: Graph's normalization by vertex rank against the
label-comparing oracle, on int labels and on nested tuples shaped like CFI
labels, with repeated and reversed edges, and with self-loops or unknown
ends, where the error texts must agree."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import graph_oracle  # noqa: E402
from symcirc import CircuitError, Graph  # noqa: E402

INTS = st.integers(-20, 60)
# ("e", edge, bit), ("b", vertex) and ("i", vertex, subset), as build_cfi makes
BASE = st.integers(1, 5)
BASE_EDGE = st.tuples(BASE, BASE)
CFI_LABELS = st.one_of(st.tuples(st.just("e"), BASE_EDGE, st.integers(0, 1)),
                       st.tuples(st.just("b"), BASE),
                       st.tuples(st.just("i"), BASE, st.lists(BASE_EDGE, max_size=3).map(tuple)))


@st.composite
def graph_inputs(draw, labels):
    """Vertices with repeats, and edges among them, a few of them repeated
    or reversed."""
    verts = draw(st.lists(labels, min_size=2, max_size=14))
    distinct = sorted(set(verts))
    if len(distinct) < 2:
        return verts, []
    pair = st.lists(st.sampled_from(distinct), min_size=2, max_size=2, unique=True).map(tuple)
    edges = draw(st.lists(pair, max_size=30))
    extra = draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    edges += [(v, u) if draw(st.booleans()) else (u, v) for u, v in extra]
    return draw(st.permutations(verts)), draw(st.permutations(edges))


def outcome(make):
    try:
        return make()
    except CircuitError as exc:
        return str(exc)


def check(verts, edges):
    g = outcome(lambda: Graph(tuple(verts), tuple(edges)))
    got = g if isinstance(g, str) else (g.vertices, g.edges)
    assert got == outcome(lambda: graph_oracle.normalize(verts, edges))
    return got


LABELS = pytest.mark.parametrize("labels", [INTS, CFI_LABELS], ids=["int", "cfi"])


@LABELS
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_normalization_matches_oracle(labels, data):
    assert not isinstance(check(*data.draw(graph_inputs(labels))), str)


@LABELS
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_refusals_match_oracle(labels, data):
    # one to three edges, each a self-loop or with an end that is no vertex,
    # put anywhere among the others: the first self-loop in input order is
    # named, else the least edge with an unknown end
    verts, edges = data.draw(graph_inputs(labels))
    edges = list(edges)
    for _ in range(data.draw(st.integers(1, 3))):
        u = data.draw(st.sampled_from(verts))
        w = data.draw(labels.filter(lambda x: x not in verts))
        bad = data.draw(st.sampled_from([(u, u), (u, w), (w, u)]))
        edges.insert(data.draw(st.integers(0, len(edges))), bad)
    assert isinstance(check(verts, edges), str)
