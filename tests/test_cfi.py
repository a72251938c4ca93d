"""CFI graphs over cubic base graphs and their perfect matchings."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from math import comb

import pytest

import matching_oracle as oracle
from orientation_oracle import enumerate_orientations
from symcirc import (
    BudgetExceededError,
    CircuitError,
    Graph,
    bipartition,
    build_cfi,
    cfi,
    check_base_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_perfect_matchings,
    is_graph_isomorphism,
    matching_count_via_permanent,
    matching_experiment,
    orientation_odd_set_census,
    path_flip_isomorphism,
    path_graph,
    petersen_graph,
    pq,
    uniform_count_formula,
)


def k4():
    return complete_graph(4, name="K4")


def test_base_graph_check():
    assert check_base_graph(k4()).valid
    assert not check_base_graph(k4()).odd
    rep = check_base_graph(complete_bipartite(3, 3))
    assert rep.valid
    assert rep.odd
    assert not check_base_graph(cycle_graph(4)).valid
    assert not check_base_graph(path_graph(4)).valid


def test_build_counts_k4():
    x = build_cfi(k4())
    g = x.graph
    assert len(g.vertices) == 2 * 6 + 5 * 4
    assert len(g.edges) == 2 * len(g.vertices)
    assert all(g.degree(v) == 4 for v in g.vertices)
    left, right = bipartition(g)
    assert len(left) == len(right) == 16
    assert len(x.inner) == 4 * 4


def test_build_counts_petersen():
    x = build_cfi(petersen_graph())
    assert len(x.graph.vertices) == 2 * 15 + 5 * 10
    assert all(x.graph.degree(v) == 4 for v in x.graph.vertices)


def test_twist_changes_inner_parity():
    y = build_cfi(k4(), twisted=True)
    assert y.special == 1
    # the special vertex carries odd-size subsets, all others even
    for _, v, S in y.inner:
        assert len(S) % 2 == (1 if v == y.special else 0)
    y3 = build_cfi(k4(), twisted=True, special=3)
    assert y3.special == 3
    with pytest.raises(CircuitError):
        build_cfi(k4(), twisted=True, special=9)
    with pytest.raises(CircuitError, match="twisted"):
        build_cfi(k4(), special=3)


def test_twisted_not_equal_untwisted():
    x = build_cfi(k4())
    y = build_cfi(k4(), twisted=True)
    assert len(x.graph.vertices) == len(y.graph.vertices)
    assert sorted(x.graph.vertices) != sorted(y.graph.vertices)


def test_path_flip_isomorphism_between_special_vertices():
    y1 = build_cfi(k4(), twisted=True, special=1)
    y3 = build_cfi(k4(), twisted=True, special=3)
    iso = path_flip_isomorphism(y1, y3, [1, 3])
    assert is_graph_isomorphism(y1.graph, y3.graph, iso)
    # a two-edge path must give the same guarantee
    iso2 = path_flip_isomorphism(y1, y3, [1, 2, 3])
    assert is_graph_isomorphism(y1.graph, y3.graph, iso2)


def test_path_flip_rejects_bad_paths():
    y1 = build_cfi(k4(), twisted=True, special=1)
    y3 = build_cfi(k4(), twisted=True, special=3)
    with pytest.raises(CircuitError):
        path_flip_isomorphism(y1, y3, [1, 2])
    with pytest.raises(CircuitError):
        path_flip_isomorphism(y1, y3, [3, 1])
    x = build_cfi(k4())
    with pytest.raises(CircuitError):
        path_flip_isomorphism(x, y3, [1, 3])


def test_matching_counts_small_graphs():
    # plain graphs have no gadgets to contract, so only the oracle counts them
    assert oracle.count_matchings(cycle_graph(4)) == 2
    assert oracle.count_matchings(cycle_graph(6)) == 2
    assert oracle.count_matchings(complete_graph(4)) == 3
    assert oracle.count_matchings(complete_bipartite(3, 3)) == 6
    assert oracle.count_matchings(path_graph(3)) == 0


def test_matching_enumeration_routes_agree():
    for g in (cycle_graph(4), cycle_graph(6), complete_graph(4),
              complete_bipartite(3, 3)):
        listed = oracle.all_perfect_matchings(g)
        assert len(listed) == oracle.count_matchings(g)
        for m in listed:
            covered = sorted(v for e in m for v in e)
            assert covered == list(g.vertices)
    # the search and the bijection listing find the same matchings of every gadget
    for bits in itertools.product((0, 1), repeat=3):
        g = oracle.gadget_graph(bits)
        assert set(oracle.all_perfect_matchings(g)) == oracle.bijection_matchings(g)


def test_matching_count_via_permanent_agrees():
    for g in (path_graph(2), cycle_graph(4), cycle_graph(6), complete_bipartite(3, 3)):
        assert matching_count_via_permanent(g) == oracle.count_matchings(g)
    with pytest.raises(CircuitError):
        matching_count_via_permanent(complete_graph(4))
    with pytest.raises(BudgetExceededError):
        matching_count_via_permanent(complete_bipartite(23, 23))


@pytest.mark.parametrize("special", [None, 1, 2, 3, 4])
def test_permanent_dp_matches_ryser_on_k4(special):
    g = build_cfi(k4(), twisted=special is not None, special=special).graph
    assert matching_count_via_permanent(g) == oracle.ryser_permanent(g)


def test_permanent_dp_drops_dead_states(monkeypatch):
    # C6 = 1-2-...-6-1 has rows 1, 3, 5 and columns 2, 4, 6.  After row 1
    # the used columns are {2} or {6}; row 3 closes column 2, which must be
    # used by then, leaving {4} or {6}: two states at most
    monkeypatch.setattr(cfi, "_FRONTIER_BUDGET", 2)
    assert matching_count_via_permanent(cycle_graph(6)) == 2
    monkeypatch.setattr(cfi, "_FRONTIER_BUDGET", 1)
    with pytest.raises(BudgetExceededError, match="permanent"):
        matching_count_via_permanent(cycle_graph(6))


def test_bipartition():
    left, right = bipartition(cycle_graph(6))
    assert len(left) == len(right) == 3
    with pytest.raises(CircuitError):
        bipartition(complete_graph(3))
    # every component is colored: an isolated vertex joins the left side,
    # and an odd cycle outside the first component is still found
    square = ((1, 2), (2, 3), (3, 4), (1, 4))
    assert bipartition(Graph((1, 2, 3, 4, 5), square)) == ((1, 3, 5), (2, 4))
    with pytest.raises(CircuitError):
        bipartition(Graph(tuple(range(1, 8)), square + ((5, 6), (6, 7), (5, 7))))


def test_classify_x_k4():
    x = build_cfi(k4())
    rep = enumerate_perfect_matchings(x, mode="classify")
    assert enumerate_perfect_matchings(x, mode="count") == rep
    assert rep.count == 23680
    assert rep.uniform == 5248
    assert rep.nodes == 244
    assert rep.nonuniform == 18432
    assert rep.uniform + rep.nonuniform == rep.count
    assert sum(rep.histogram.values()) == rep.count
    # uniform class: every projection value is 1
    assert rep.histogram.get((0, len(x.base.vertices) * 3, 0)) == rep.uniform


def test_classify_twisted_k4():
    y = build_cfi(k4(), twisted=True)
    rep = enumerate_perfect_matchings(y, mode="classify")
    assert (rep.count, rep.uniform, rep.nonuniform) == (23552, 5120, 18432)
    assert rep.nodes == 244
    assert sum(rep.histogram.values()) == rep.count


def test_classify_requires_cfi():
    for mode in ("count", "classify"):
        with pytest.raises(CircuitError):
            enumerate_perfect_matchings(cycle_graph(4), mode=mode)
    with pytest.raises(CircuitError):
        enumerate_perfect_matchings(build_cfi(k4()), mode="list")


def test_matching_budget(monkeypatch):
    monkeypatch.setattr(cfi, "_FRONTIER_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        enumerate_perfect_matchings(build_cfi(k4()))


@pytest.mark.parametrize("g, count_x, count_y, nodes", [
    (complete_bipartite(3, 3, name="K33"), 2093056, 2094080, 928),
    (petersen_graph(), 16531062784, 16531128320, 5748),
])
def test_cfi_pairs_beyond_k4(g, count_x, count_y, nodes):
    rx = enumerate_perfect_matchings(build_cfi(g))
    ry = enumerate_perfect_matchings(build_cfi(g, twisted=True))
    assert (rx.count, ry.count) == (count_x, count_y)
    assert rx.nodes == ry.nodes == nodes
    assert abs(rx.count - ry.count) == 2 ** (3 * len(g.vertices) // 2 + 1)
    assert rx.uniform == uniform_count_formula(g, False)
    assert ry.uniform == uniform_count_formula(g, True)
    assert rx.nonuniform == ry.nonuniform
    assert sum(rx.histogram.values()) == rx.count


_RELABELLED_K4 = k4().relabel({1: "d", 2: "b", 3: "a", 4: "c"})


@pytest.mark.parametrize("g, twisted, special, nodes", [
    (k4(), False, None, 244), (k4(), True, 1, 244), (k4(), True, 4, 244),
    (complete_bipartite(3, 3), False, None, 928), (complete_bipartite(3, 3), True, 1, 928),
    (complete_bipartite(3, 3), True, 6, 928),
    (petersen_graph(), False, None, 5748), (petersen_graph(), True, 1, 5748),
    (petersen_graph(), True, 10, 5748),
    (_RELABELLED_K4, True, "c", 244),
], ids=["K4", "~K4@1", "~K4@4", "K33", "~K33@1", "~K33@6", "petersen", "~petersen@1",
        "~petersen@10", "~relabelled_K4@c"])
def test_contraction_matches_permanent_dp(g, twisted, special, nodes):
    # the permanent DP reads only the bipartite graph, so it checks the
    # gadget contraction independently; the node counts freeze the sweep
    x = build_cfi(g, twisted=twisted, special=special)
    rep = enumerate_perfect_matchings(x)
    assert matching_count_via_permanent(x.graph) == rep.count
    assert rep.nodes == nodes


@pytest.mark.parametrize("g", [k4(), complete_bipartite(3, 3), petersen_graph()],
                         ids=["K4", "K33", "petersen"])
def test_counts_do_not_depend_on_labels(g):
    def counts(h, special):
        return [(rep.count, rep.histogram) for rep in (
            enumerate_perfect_matchings(build_cfi(h)),
            enumerate_perfect_matchings(build_cfi(h, twisted=True, special=special)))]

    want = counts(g, None)
    rng = random.Random(len(g.vertices))
    for _ in range(8):
        h = g.relabel(dict(zip(g.vertices, rng.sample(g.vertices, len(g.vertices)))))
        assert counts(h, rng.choice(h.vertices)) == want


def test_orientation_census_k4():
    g = k4()
    orients = list(enumerate_orientations(g))
    assert len(orients) == 2 ** 6
    census = orientation_odd_set_census(g)
    assert len(census) == 8
    assert all(len(s) % 2 == 0 for s in census)
    assert all(c == 8 for c in census.values())
    assert sum(census.values()) == 64


@pytest.mark.parametrize("g", [k4(), complete_bipartite(3, 3), petersen_graph(), cycle_graph(5),
                               Graph(tuple(range(1, 10)),
                                     ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (7, 8))),
                               Graph((), ())],
                         ids=["K4", "K33", "petersen", "C5", "C3+P3+K2+K1", "empty"])
def test_orientation_census_counts_enumerated_odd_sets(g):
    assert orientation_odd_set_census(g) == Counter(odd for _o, odd in enumerate_orientations(g))


def test_orientation_census_budget_counts_sets_not_edges():
    # 2^(|V| - components) odd sets: 2^25 for a path on 26 vertices, and one
    # for 40 isolated vertices
    with pytest.raises(BudgetExceededError, match="odd in-degree sets"):
        orientation_odd_set_census(path_graph(26))
    assert orientation_odd_set_census(Graph(tuple(range(40)), ())) == {frozenset(): 1}


def test_orientation_odd_sets_match_indegrees():
    g = cycle_graph(4)
    for orient, odd in enumerate_orientations(g):
        indeg = {v: 0 for v in g.vertices}
        for _edge, (_tail, head) in orient.items():
            indeg[head] += 1
        assert odd == frozenset(v for v, d in indeg.items() if d % 2 == 1)


def test_uniform_count_formula_k4():
    assert uniform_count_formula(k4(), twisted=False) == 5248
    assert uniform_count_formula(k4(), twisted=True) == 5120
    k33 = complete_bipartite(3, 3)
    assert uniform_count_formula(k33, twisted=False) == 372736
    assert uniform_count_formula(k33, twisted=True) == 373760


def test_uniform_count_formula_petersen_and_odd_order():
    g = petersen_graph()
    assert uniform_count_formula(g, twisted=False) == 1934884864
    assert uniform_count_formula(g, twisted=True) == 1934950400
    with pytest.raises(CircuitError):
        uniform_count_formula(complete_graph(3), twisted=False)


def pq_recurrence(m):
    """(P_m, Q_m) by the one-vertex-pair recurrence from (P_1, Q_1) = (20, 16)."""
    p, q = 20, 16
    for _ in range(m - 1):
        p, q = 20 * p + 16 * q, 16 * p + 20 * q
    return p, q


def pq_direct(m):
    """(P_m, Q_m) by their definition: even / odd subset sums over a 2m-set."""
    terms = [comb(2 * m, s) * 2 ** s * 4 ** (2 * m - s) for s in range(2 * m + 1)]
    return sum(terms[0::2]), sum(terms[1::2])


def test_pq_sequences():
    assert pq(1) == (20, 16)
    assert pq(2) == (656, 640)
    assert pq(3) == (23360, 23296)
    for m in range(1, 41):
        assert pq(m) == pq_recurrence(m) == pq_direct(m)
        p, q = pq(m)
        assert p - q == 4 ** m
    with pytest.raises(CircuitError):
        pq(0)


def test_gadget_matchings():
    rep = oracle.gadget_matchings_check()
    assert rep.ok
    assert rep.s_count == 4
    assert rep.t_count == 2
    assert rep.s_match_expected
    assert rep.t_match_expected
    # parity rule: 4 matchings when the bit pattern is even, else 2
    for bits, count in rep.counts_by_bits.items():
        want = 4 if sum(bits) % 2 == 0 else 2
        assert count == want


def test_matching_experiment_petersen_permanent_checked():
    # the permanent DP takes its rows from the narrower side and finishes
    g = petersen_graph()
    rep = matching_experiment(g, k_list=(), p_list=())
    assert rep.enumerated
    assert matching_count_via_permanent(build_cfi(g).graph) == rep.count_x
    assert matching_count_via_permanent(build_cfi(g, twisted=True).graph) == rep.count_y
    assert (rep.count_x, rep.count_y) == (16531062784, 16531128320)
    assert rep.passed()


def test_matching_experiment_formula_only(monkeypatch):
    # a contraction over its budget leaves only the formula checks
    monkeypatch.setattr(cfi, "_FRONTIER_BUDGET", 10)
    rep = matching_experiment(k4(), k_list=())
    assert not rep.enumerated
    assert rep.count_x is None
    assert rep.formula_uniform_x == 5248
    assert rep.formula_uniform_y == 5120
    assert rep.expected_diff == 128
    assert rep.checks == {"formula_diff_is_power": True}
    assert rep.passed()
