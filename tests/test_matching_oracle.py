"""The gadget contraction against the backtracking search it replaced.

On X(K4) and on ~X(K4) twisted at each vertex, enumerate_perfect_matchings
must give the search's count, uniform count and projection histogram.
"""

from __future__ import annotations

import pytest

import matching_oracle as oracle
from symcirc import build_cfi, complete_graph, enumerate_perfect_matchings


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
