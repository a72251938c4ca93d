"""Weisfeiler-Leman equivalence at dimensions 1, 2, 3."""

from __future__ import annotations

import itertools
import random
from math import comb, factorial

import pytest

from symcirc import (
    BudgetExceededError,
    CircuitError,
    Graph,
    build_cfi,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    wl,
    wl_equivalent,
)
import wl_oracle
from wl_oracle import wl_equivalent_oracle


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


@pytest.mark.parametrize("k,frozen", [(1, (64,)), (2, (1061, 1073, 1073)), (3, (12203, 12673))])
def test_signatures_count_canonical_tuples_and_representatives(k, frozen):
    # each step makes one signature per canonical tuple of both graphs, and
    # k! - 1 more per class met on a canonical tuple
    k4 = complete_graph(4)
    rep = wl_equivalent(build_cfi(k4).graph,
                        build_cfi(k4, twisted=True, special=1).graph, k)
    canonical = 2 * comb(32 + k - 1, k)
    assert len(rep.signatures) == (rep.rounds if rep.equivalent else rep.distinguishing_round)
    for sigs, classes in zip(rep.signatures, rep.class_counts[1:] + rep.class_counts[-1:]):
        assert (sigs - canonical) % max(factorial(k) - 1, 1) == 0
        assert canonical <= sigs <= canonical + (factorial(k) - 1) * classes
    assert rep.signatures == frozen


def test_budget_counts_each_graphs_tuples(monkeypatch):
    # two 4-vertex graphs have 4^2 + 4^2 = 32 pairs at k = 2
    monkeypatch.setattr(wl, "_TUPLE_BUDGET", 32)
    assert wl_equivalent(cycle_graph(4), cycle_graph(4), 2).equivalent
    monkeypatch.setattr(wl, "_TUPLE_BUDGET", 31)
    with pytest.raises(BudgetExceededError):
        wl_equivalent(cycle_graph(4), cycle_graph(4), 2)


def prism():
    return Graph(tuple(range(1, 7)),
                 ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)))


def with_isolated(g):
    return g.disjoint_union(Graph(("iso",), ()))


def regular_pairs():
    """Pairs of regular graphs with equal orders and degrees, which 2-WL
    splits: the triangle-free K3,3 against the triangular prism, and C6
    against two triangles, each with an isolated vertex added."""
    c6 = cycle_graph(6)
    cc = cycle_graph(3).disjoint_union(cycle_graph(3))
    return [(complete_bipartite(3, 3), prism()), (with_isolated(c6), with_isolated(cc))]


@pytest.mark.parametrize("g,h", regular_pairs(), ids=["K33-prism", "C6-2C3-isolated"])
def test_regular_pairs_split_at_dimension_two(g, h):
    assert wl_equivalent(g, h, 1).equivalent
    rep = wl_equivalent(g, h, 2)
    assert not rep.equivalent
    assert rep.distinguishing_round == 1


def _oracle_pairs():
    """(g, h, highest k) with the name of the pair."""
    for m in range(3, 7):
        c = cycle_graph(2 * m)
        yield f"C{2 * m}-2C{m}", (c, cycle_graph(m).disjoint_union(cycle_graph(m)), 3)
        yield f"C{2 * m}-shuffled", (c, shuffled(c, m), 3)
    for n in (7, 8):
        for seed in range(3):
            yield f"random{n}-{seed}", (random_graph(n, seed), random_graph(n, seed + 10), 3)
    yield "petersen-shuffled", (petersen_graph(), shuffled(petersen_graph(), 5), 3)
    k4 = complete_graph(4)
    yield "cfi-k4", (build_cfi(k4).graph, build_cfi(k4, twisted=True, special=1).graph, 2)
    yield "orders-5-6", (cycle_graph(5), cycle_graph(6), 3)
    yield "orders-4-3", (complete_graph(4), path_graph(3), 3)
    yield "K33-prism", (*regular_pairs()[0], 3)
    yield "C6-2C3-isolated", (*regular_pairs()[1], 3)
    yield "isolated-shuffled", (with_isolated(random_graph(6, 4)),
                                shuffled(with_isolated(random_graph(6, 4)), 9), 3)


@pytest.mark.parametrize("g,h,top", [pytest.param(*case, id=name)
                                     for name, case in _oracle_pairs()])
def test_reports_match_oracle(g, h, top):
    for k in range(1, top + 1):
        assert wl_equivalent(g, h, k) == wl_equivalent_oracle(g, h, k), k


def equivariant_coloring(n, k, classes, rng):
    """A random coloring of the k-tuples over range(n), in index order, under
    which the color of a tuple with its positions permuted is a function of
    the tuple's color: a random color per sorted tuple, paired with the
    tuple's rank pattern."""
    drawn = {}
    keys = []
    for t in itertools.product(range(n), repeat=k):
        s = tuple(sorted(t))
        if s not in drawn:
            drawn[s] = rng.randrange(classes)
        keys.append((drawn[s], tuple(sorted(set(t)).index(x) for x in t)))
    return wl._dense(keys)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_step_matches_oracle_on_random_colorings(k):
    # colorings that no refinement reaches; they are dense, so the largest
    # color is present and a packing base of max(col) would collide
    rng = random.Random(k)
    for seed in range(5):
        g = random_graph(5, seed)
        seeds, step, _first = wl._tuples(g, k, 0)
        want_seeds, want_step = wl_oracle._tuples(g, k, 0)
        assert wl._dense(seeds) == wl._dense(want_seeds)
        for classes in (2, 3, 7):
            col, _count = equivariant_coloring(5, k, classes, rng)
            want = wl._dense(zip(col, want_step(col)))[0]
            assert wl._dense(step(col, {}, {}))[0] == want


@pytest.mark.parametrize("k", [2, 3])
def test_first_round_matches_oracle_step_on_seeds(k):
    # one shared table across graphs of orders 0 .. 7; the edgeless graphs
    # of orders 3 and 4 agree on every common-neighbour count of their tuples
    graphs = [random_graph(6, 0), random_graph(7, 1), with_isolated(random_graph(5, 2)),
              cycle_graph(3).disjoint_union(path_graph(4)), Graph((), ()),
              Graph((1, 2, 3), ()), Graph((1, 2, 3, 4), ())]
    kernels, oracles, base = [], [], 0
    for g in graphs:
        kernels.append(wl._tuples(g, k, base))
        oracles.append(wl_oracle._tuples(g, k, base)[1])
        base += len(g.vertices) ** k
    col, _count = wl._dense(itertools.chain.from_iterable(seeds for seeds, _, _ in kernels))
    ids, taus = {}, {}
    got = [c for _, _, first in kernels for c in first(col, ids, taus)]
    want = wl._dense(zip(col, (sig for step in oracles for sig in step(col))))[0]
    assert wl._dense(got)[0] == want


@pytest.mark.parametrize("k", [1, 2, 3])
def test_empty_graphs(k):
    empty = Graph((), ())
    rep = wl_equivalent(empty, Graph((), ()), k)
    assert (rep.equivalent, rep.rounds, rep.class_counts) == (True, 1, (0,))
    assert rep.distinguishing_round is None
    seeds, step, _first = wl._tuples(empty, k, 0)
    assert list(seeds) == [] and step([], {}, {}) == []
    for g, h in ((empty, cycle_graph(3)), (cycle_graph(3), empty)):
        assert wl_equivalent(g, h, k).distinguishing_round == 0


@pytest.mark.parametrize("special", [1, 4])
def test_cfi_k4_pair_split_at_dimension_three(special):
    k4 = complete_graph(4)
    rep = wl_equivalent(build_cfi(k4).graph,
                        build_cfi(k4, twisted=True, special=special).graph, 3)
    assert not rep.equivalent
    assert rep.distinguishing_round == 2
    assert rep.class_counts == (14, 62, 357)


@pytest.mark.parametrize("special", [1, 7])
def test_cfi_petersen_pair_fools_dimension_two(special):
    pet = petersen_graph()
    rep = wl_equivalent(build_cfi(pet).graph,
                        build_cfi(pet, twisted=True, special=special).graph, 2)
    assert rep.equivalent
    assert rep.rounds == 3
    assert rep.class_counts == (3, 5, 33)
    assert rep.signatures == (6485, 6503, 6503)
