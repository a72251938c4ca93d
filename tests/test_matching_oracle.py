"""The gadget contraction against the listings it replaced.

On X(K4) and on ~X(K4) twisted at each vertex, enumerate_perfect_matchings
must give the backtracking search's count, uniform count and projection
histogram.  At every vertex of the K4, K3,3 and Petersen CFI graphs, the
gadget table derived from the parity rule must equal the one listed from
the induced gadget subgraph.
"""

from __future__ import annotations

import pytest

import matching_oracle as oracle
from symcirc import (
    build_cfi,
    cfi,
    complete_bipartite,
    complete_graph,
    enumerate_perfect_matchings,
    petersen_graph,
)


@pytest.mark.parametrize("special", [None, 1, 2, 3, 4])
def test_contraction_matches_search_on_k4(special):
    x = build_cfi(complete_graph(4, name="K4"), twisted=special is not None,
                  special=special)
    got = enumerate_perfect_matchings(x, "classify")
    want = oracle.classify(x)
    assert (got.count, got.uniform, got.nonuniform) == (
        want.count, want.uniform, want.nonuniform)
    assert got.histogram == want.histogram
    assert want.nodes == 708501


@pytest.mark.parametrize("g", [complete_graph(4, name="K4"), complete_bipartite(3, 3),
                               petersen_graph()], ids=["K4", "K33", "petersen"])
def test_gadget_table_matches_listing(g):
    tables = [cfi._gadget_table(odd) for odd in (0, 1)]
    for table in tables:
        assert (len(table), sum(table.values())) == (20, 72)
    for special in (None, *g.vertices):
        x = build_cfi(g, twisted=special is not None, special=special)
        for v in g.vertices:
            assert oracle.listed_gadget_table(x, v) == tables[v == special]
