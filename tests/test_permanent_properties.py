"""Property test: the permanent DP against Ryser's summation and the
backtracking search on random bipartite graphs with at most nine vertices a
side, isolated vertices, empty rows and several components included."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import matching_oracle as oracle  # noqa: E402
from symcirc import CircuitError, Graph, bipartition, matching_count_via_permanent  # noqa: E402


@st.composite
def bipartite_graphs(draw):
    """Rows ("r", i) and columns ("c", j), at most nine of each: square
    blocks of random edges, each with the first k rows matched to distinct
    columns, a few edges between blocks, and isolated rows and columns."""
    rows = cols = 0
    edges = set()
    for size in draw(st.lists(st.integers(1, 6), max_size=4)):
        if rows + size > 9:
            break
        perm = draw(st.permutations(range(size)))
        edges |= {(rows + i, cols + perm[i]) for i in range(draw(st.integers(0, size)))}
        bits = draw(st.lists(st.booleans(), min_size=size * size, max_size=size * size))
        edges |= {(rows + a // size, cols + a % size) for a, b in enumerate(bits) if b}
        rows += size
        cols += size
    rows += draw(st.sampled_from((0, 0, 0, 1))) if rows < 9 else 0
    cols += draw(st.sampled_from((0, 0, 0, 1))) if cols < 9 else 0
    if rows and cols:
        edges |= draw(st.sets(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                              max_size=3))
    verts = [("r", i) for i in range(rows)] + [("c", j) for j in range(cols)]
    return Graph(tuple(verts), tuple((("r", i), ("c", j)) for i, j in edges))


@settings(max_examples=300, deadline=None)
@given(bipartite_graphs())
def test_permanent_dp_matches_oracles(g):
    left, right = bipartition(g)
    want = oracle.count_matchings(g)
    if len(left) == len(right):
        assert matching_count_via_permanent(g) == oracle.ryser_permanent(g) == want
    else:
        # some component has unequal sides, so no perfect matching exists
        assert want == 0
        with pytest.raises(CircuitError, match="unbalanced"):
            matching_count_via_permanent(g)
