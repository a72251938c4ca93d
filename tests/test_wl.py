"""Weisfeiler-Leman equivalence at dimensions 1, 2, 3."""

from __future__ import annotations

import random

import pytest

from symcirc import (
    BudgetExceededError,
    CircuitError,
    Graph,
    build_cfi,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    wl,
    wl_equivalent,
)


def shuffled(g, seed):
    rng = random.Random(seed)
    perm = list(g.vertices)
    rng.shuffle(perm)
    return g.relabel(dict(zip(g.vertices, perm)))


def random_graph(n, seed):
    rng = random.Random(seed)
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < 0.5]
    return Graph(tuple(range(1, n + 1)), tuple(edges))


def test_degree_split_at_dimension_one():
    rep = wl_equivalent(complete_graph(3), path_graph(3), 1)
    assert not rep.equivalent
    assert rep.distinguishing_round == 0


def test_cycle_pair_fools_dimension_one():
    c6 = cycle_graph(6)
    cc = cycle_graph(3).disjoint_union(cycle_graph(3))
    rep = wl_equivalent(c6, cc, 1)
    assert rep.equivalent
    assert rep.distinguishing_round is None


def test_cycle_pair_split_at_dimension_two():
    c6 = cycle_graph(6)
    cc = cycle_graph(3).disjoint_union(cycle_graph(3))
    rep = wl_equivalent(c6, cc, 2)
    assert not rep.equivalent
    assert rep.distinguishing_round == 1


def test_isomorphic_graphs_equivalent_all_dimensions():
    pet = petersen_graph()
    twin = shuffled(pet, 42)
    for k in (1, 2):
        assert wl_equivalent(pet, twin, k).equivalent
    c4 = cycle_graph(4)
    assert wl_equivalent(c4, shuffled(c4, 7), 3).equivalent


def test_dimension_three_separates_cycle_pair():
    rep = wl_equivalent(cycle_graph(6), cycle_graph(3).disjoint_union(cycle_graph(3)), 3)
    assert not rep.equivalent


def test_shuffle_soundness():
    for seed in range(10):
        g = random_graph(8, seed)
        h = shuffled(g, seed + 100)
        for k in (1, 2):
            assert wl_equivalent(g, h, k).equivalent


def test_hierarchy_on_sample_pairs():
    pairs = [
        (cycle_graph(6), cycle_graph(3).disjoint_union(cycle_graph(3))),
        (complete_graph(3), path_graph(3)),
        (petersen_graph(), shuffled(petersen_graph(), 3)),
        (random_graph(7, 1), random_graph(7, 2)),
    ]
    for g, h in pairs:
        verdicts = [wl_equivalent(g, h, k).equivalent for k in (1, 2, 3)]
        # equivalence at a higher dimension implies it at every lower one
        for lo, hi in ((0, 1), (1, 2), (0, 2)):
            if verdicts[hi]:
                assert verdicts[lo]


def test_distinguishing_round_helper():
    c6 = cycle_graph(6)
    cc = cycle_graph(3).disjoint_union(cycle_graph(3))
    assert wl_equivalent(c6, cc, 2).distinguishing_round == 1
    assert wl_equivalent(c6, cc, 1).distinguishing_round is None
    assert wl_equivalent(complete_graph(3), path_graph(3), 1).distinguishing_round == 0


def test_relabeling_does_not_change_verdict():
    c6 = cycle_graph(6)
    cc = cycle_graph(3).disjoint_union(cycle_graph(3))
    cc2 = cc.relabel({v: ("z", v) for v in cc.vertices})
    assert wl_equivalent(c6, cc2, 1).equivalent
    assert not wl_equivalent(c6, cc2, 2).equivalent


def test_report_shape():
    rep = wl_equivalent(cycle_graph(4), cycle_graph(4), 2)
    assert rep.equivalent
    assert rep.rounds >= 1
    assert len(rep.class_counts) == rep.rounds
    assert all(isinstance(c, int) for c in rep.class_counts)


def test_dimension_and_budget_guards(monkeypatch):
    with pytest.raises(CircuitError):
        wl_equivalent(cycle_graph(4), cycle_graph(4), 4)
    with pytest.raises(CircuitError):
        wl_equivalent(cycle_graph(4), cycle_graph(4), 0)
    monkeypatch.setattr(wl, "_TUPLE_BUDGET", 100)
    with pytest.raises(BudgetExceededError):
        wl_equivalent(petersen_graph(), petersen_graph(), 3)


def test_cfi_k4_pair_report_at_dimension_two():
    k4 = complete_graph(4)
    rep = wl_equivalent(build_cfi(k4).graph,
                        build_cfi(k4, twisted=True, special=1).graph, 2)
    assert rep.equivalent
    assert rep.rounds == 3
    assert rep.class_counts == (3, 5, 24)


def test_budget_counts_each_graphs_tuples(monkeypatch):
    # two 4-vertex graphs have 4^2 + 4^2 = 32 pairs at k = 2
    monkeypatch.setattr(wl, "_TUPLE_BUDGET", 32)
    assert wl_equivalent(cycle_graph(4), cycle_graph(4), 2).equivalent
    monkeypatch.setattr(wl, "_TUPLE_BUDGET", 31)
    with pytest.raises(BudgetExceededError):
        wl_equivalent(cycle_graph(4), cycle_graph(4), 2)
