"""Self-tests of the benchmark: oracles, verdicts, statistics, seeding.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

import oracles
import run
import workloads
from host import HostMeter
from spans import Tracer, busy, self_times

ROOT = Path(__file__).resolve().parents[2]

# cheap checks of each workload, enough to exercise every counter family
CHEAP = {
    "families": {"det4", "perm4", "cli.gen", "cli.eval"},
    "lowering": {"det2_Q_exact", "det2_F5_compositional", "cli.gen", "cli.lower"},
    "cfi_wl": {"k4_wl1", "petersen_wl1", "cli.cfi-check", "cli.pq"},
}


def cheap_checks(workload, seed):
    return [c for c in workloads.make_checks(workload, seed) if c.name in CHEAP[workload]]


def run_once(checks, trace=True):
    tracer = Tracer(trace)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        return run.run_pass(checks, workloads.Ctx(tracer.span, tmpdir), tracer), tracer
    finally:
        shutil.rmtree(tmpdir)


# ---------------------------------------------------------------------------
# oracles on hand examples


def test_det_hand_examples():
    assert oracles.det([[6, 1, 1], [4, -2, 5], [2, 8, 7]]) == -306
    assert oracles.det([[0, 1], [1, 0]]) == -1
    assert oracles.det([[1, 2], [2, 4]]) == 0
    assert oracles.det([[Fraction(1, 2), 0], [0, 4]]) == 2


def test_perm_hand_examples():
    assert oracles.perm([[1, 2], [3, 4]]) == 10
    for n in range(1, 7):
        assert oracles.perm([[1] * n for _ in range(n)]) == factorial(n)


def test_zero_one_values():
    assert oracles.zero_one_values("det", 2, None) == {-1, 0, 1}
    assert oracles.zero_one_values("perm", 2, None) == {0, 1, 2}
    assert oracles.zero_one_values("det", 2, 5) == {0, 1, 4}
    assert oracles.reduce(Fraction(1, 2), 7) == 4


def test_supports():
    assert oracles.rprod_support((2,), 4) == {("c", 2)}
    assert oracles.rprod_support((1, 3, 4), 4) == {("c", 2)}
    assert oracles.rprod_support((1, 2, 3, 4), 4) == frozenset()
    assert oracles.pow_support(3, 1) == {1, 3}


def test_cfi_numbers():
    gap = oracles.K4_MATCHINGS[False] - oracles.K4_MATCHINGS[True]
    assert gap == oracles.K4_GAP == oracles.K4_UNIFORM[False] - oracles.K4_UNIFORM[True]
    assert oracles.cfi_size(4, 6) == (32, 64)


def test_census_matches_brute_force_on_k4():
    edges = list(itertools.combinations(range(4), 2))
    census = {}
    for heads in itertools.product((0, 1), repeat=len(edges)):
        indeg = [0] * 4
        for (u, v), h in zip(edges, heads):
            indeg[v if h else u] += 1
        odd = frozenset(v for v in range(4) if indeg[v] % 2)
        census[odd] = census.get(odd, 0) + 1
    want = oracles.census(4, 6)
    assert len(census) == want["odd_sets"]
    assert set(census.values()) == {want["per_set"]}
    assert oracles.census(10, 15) == {"odd_sets": 2 ** 9, "per_set": 2 ** 6}


def test_pq_matches_direct_sums():
    for m in range(1, 8):
        terms = [comb(2 * m, s) * 2 ** s * 4 ** (2 * m - s) for s in range(2 * m + 1)]
        assert oracles.pq(m) == (sum(terms[0::2]), sum(terms[1::2]))


def test_distance_profiles():
    c6 = (tuple(range(6)), tuple((i, (i + 1) % 6) for i in range(6)))
    two_c3 = (tuple(range(6)), ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
    shifted = (tuple(range(6)), tuple(((i + 2) % 6, (i + 3) % 6) for i in range(6)))
    assert oracles.pair_refinement_separates(c6, two_c3)
    assert not oracles.pair_refinement_separates(c6, shifted)


# ---------------------------------------------------------------------------
# verdicts


def test_every_cheap_check_matches_its_known_answer():
    for workload in workloads.WORKLOADS:
        result, _ = run_once(cheap_checks(workload, 3))
        assert result["failures"] == [], workload


def test_wrong_known_answer_raises_failed_frac():
    checks = cheap_checks("cfi_wl", 1)
    result, _ = run_once(checks)
    assert run.summarize([result])["failed"] == 0
    bad = next(c for c in checks if c.name == "cli.pq")
    bad.expect["p"] += 1
    result, _ = run_once(checks)
    tally = run.summarize([result])
    assert tally["failed"] == 1 and tally["attempted"] == len(checks)
    assert [(name, g) for name, g, _msg in result["failures"]] == [("cli.pq", "p")]


def test_raising_check_counts_as_failed():
    def boom(ctx):
        raise RuntimeError("boom")

    result, _ = run_once([workloads.Check("boom", boom, {}, {"x": 1})])
    assert [f[:2] for f in result["failures"]] == [("boom", "raised")]


def test_predicates():
    assert workloads.matches(5, workloads.AtMost(5))
    assert not workloads.matches(6, workloads.AtMost(5))
    assert workloads.matches([1, 4, 12, 7], workloads.Includes(frozenset({1, 4, 12})))
    assert not workloads.matches([1, 4], workloads.Includes(frozenset({1, 4, 12})))
    assert workloads.matches((9, 9, 9), workloads.AllEqual())
    assert not workloads.matches((9, 9, 18), workloads.AllEqual())


# ---------------------------------------------------------------------------
# statistics and spans


@pytest.mark.parametrize("n,want", [(11, (9, 1)), (16, (37, 6)), (30, (66, 20)),
                                    (100, (90, 90)), (1000, (99, 990))])
def test_tail_rank(n, want):
    assert run.tail_rank(n) == want
    pct, rank = want
    assert n - rank >= 10


def test_tail_rank_needs_eleven_samples():
    with pytest.raises(ValueError):
        run.tail_rank(10)


def test_slowdown_is_the_mean_of_nearby_readings():
    meter = HostMeter()
    meter.readings = [(t / 2, 1.0 + (t >= 10)) for t in range(20)]
    assert meter.slowdown(0.0, 10.0) == 1.5
    assert meter.slowdown(4.5, 5.0) == 1.5
    assert meter.slowdown(7.0, 7.0) == 2.0
    start = meter.sample(3)
    assert meter.readings[-1][0] == start and meter.readings[-1][1] > 0
    assert meter.spent > 0


def test_times_are_scaled_by_the_slowdown_around_them():
    result, _ = run_once(cheap_checks("cfi_wl", 1), trace=False)
    assert len(result["slow"]) == len(result["times"])
    assert result["wall"] == pytest.approx(sum(result["times"]))


def test_self_time_subtracts_children():
    spans = [["check", 0.0, 10.0, None], ["a", 1.0, 4.0, 0], ["b", 5.0, 9.0, 0]]
    assert busy(spans) == {"check": 10.0, "a": 3.0, "b": 4.0}
    assert self_times(spans)["check"] == 3.0


def test_traced_pass_records_layer_spans():
    result, tracer = run_once(cheap_checks("lowering", 1))
    names = {s[0] for s in tracer.spans}
    assert {"check", "generators.build", "lowering.expand", "lowering.verify",
            "cli.gen", "cli.lower"} <= names
    assert all(s[2] is not None for s in tracer.spans)
    _, plain = run_once(cheap_checks("lowering", 1), trace=False)
    assert plain.spans == []


# ---------------------------------------------------------------------------
# seeding


def describe(checks):
    return [(c.name, repr(c.args), repr(c.expect)) for c in checks]


def test_same_seed_same_inputs_and_counters():
    for workload in workloads.WORKLOADS:
        assert describe(workloads.make_checks(workload, 7)) == \
            describe(workloads.make_checks(workload, 7))
        first, _ = run_once(cheap_checks(workload, 7))
        second, _ = run_once(cheap_checks(workload, 7))
        assert first["counts"] == second["counts"], workload


def test_other_seed_changes_inputs_not_shape():
    for workload in workloads.WORKLOADS:
        a, b = workloads.make_checks(workload, 1), workloads.make_checks(workload, 2)
        assert describe(a) != describe(b), workload
        assert sorted(c.name for c in a) == sorted(c.name for c in b)
    first, _ = run_once(cheap_checks("lowering", 1))
    second, _ = run_once(cheap_checks("lowering", 2))
    assert first["counts"]["lowered_gates"] == second["counts"]["lowered_gates"]


def test_seed_is_the_only_source_of_randomness(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("module-level random used")

    for name in ("random", "randint", "randrange", "choice", "choices", "sample",
                 "shuffle", "uniform", "getrandbits", "seed"):
        monkeypatch.setattr(random, name, forbidden)
    for workload in workloads.WORKLOADS:
        assert workloads.make_checks(workload, 5)


# ---------------------------------------------------------------------------
# the command


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e, _pct, _n = run.end_to_end([0.1], [{"wall": 1.0, "times": [0.1] * 11}])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    layer = [f"{s}_s" for s in run.SPANS] + list(run.COUNTERS) + \
        ["lowering.vector_accept_ratio", "trace_overhead_s", "failed_frac"]
    assert [m["name"] for m in spec["per_layer"]] == layer


def test_exits_nonzero_without_the_program():
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "families",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode == 2
    assert proc.stdout == ""
