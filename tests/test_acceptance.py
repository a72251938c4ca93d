"""End-to-end acceptance checks, one test per shipped guarantee.

Every check here runs exact arithmetic; there are no tolerances.  Comparing
the matching contraction with the backtracking oracle on the K3,3 pair is
opt-in via SYMCIRC_K33=1 because the oracle runs far longer than the rest of
the suite combined.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import random
from math import comb

import pytest

import matching_oracle
from extension_oracle import Witness, verify_automorphism
from matrix_oracle import det_oracle, perm_oracle
from orbit_bounds import orbit_ratios
from orientation_oracle import enumerate_orientations
from symcirc import (
    GF,
    QQ,
    Graph,
    Matrix,
    PartitionCircuit,
    Transpose,
    build_cfi,
    check_symmetric,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_perfect_matchings,
    eval_on_matrix,
    evaluate_bool,
    expand_to_threshold,
    find_extension,
    input_label,
    leverrier_det_circuit,
    lower_to_partition_basis,
    lowering,
    matching_count_via_permanent,
    matching_experiment,
    minimal_support,
    orbit_preservation_check,
    orientation_odd_set_census,
    path_graph,
    pq,
    ryser_perm_circuit,
    uniform_count_formula,
    value_sets,
    verify_lowering,
    wl_equivalent,
)
from symcirc.circuit import ADD, AND, MUL, OR, CircuitBuilder, bool_lane_values
from symcirc.symmetry import matrix_var

SEED = 1729


def seeded_matrices(n, count, lo=-9, hi=9):
    rng = random.Random(SEED + n)
    for _ in range(count):
        yield [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_01_determinant_circuit_matches_oracles():
    """Exact determinant agreement on 100 seeded integer matrices per size."""
    for n in range(2, 7):
        gen = leverrier_det_circuit(n)
        for rows in seeded_matrices(n, 100):
            assert eval_on_matrix(gen.circuit, rows) == det_oracle(QQ, rows)
    print("PASS determinant circuit matches oracles for n = 2..6")


def test_02_determinant_symmetry_and_size():
    """Transpose-group symmetry up to n = 6 and cubic gate-count bounds."""
    for n in range(2, 7):
        gen = leverrier_det_circuit(n)
        rep = check_symmetric(gen.circuit, Transpose(n))
        assert rep.symmetric, f"n={n} not transpose symmetric"
        for sigma in gen.witnesses:
            pi = find_extension(gen.circuit, sigma)
            assert verify_automorphism(gen.circuit, Witness(sigma, pi)) == []
    for n in range(2, 9):
        size = len(leverrier_det_circuit(n).circuit)
        assert size <= 10 * n ** 3, f"n={n}: {size} gates"
        if n >= 4:
            assert size >= n ** 3 // 2, f"n={n}: {size} gates"
    print("PASS determinant symmetry for n = 2..6 and size bounds for n = 2..8")


def test_03_permanent_circuit_and_symmetry():
    """Exact permanent agreement and row/column plus transpose symmetry."""
    for n in range(2, 6):
        gen = ryser_perm_circuit(n)
        for rows in seeded_matrices(n, 100):
            assert eval_on_matrix(gen.circuit, rows) == perm_oracle(QQ, rows)
        assert check_symmetric(gen.circuit, Matrix(n, n)).symmetric
        assert check_symmetric(gen.circuit, Transpose(n)).symmetric
    print("PASS permanent circuit matches oracle and symmetry checks for n = 2..5")


def test_04_supports_in_determinant_circuit():
    """Matrix-entry gates have support {i, j}; traces and coefficients none."""
    gen = leverrier_det_circuit(4)
    spec = Transpose(4)
    c = gen.circuit
    pow_names = [nm for nm in gen.names if nm[0] == "pow"]
    assert len(pow_names) == 32
    for nm in pow_names:
        _, _m, i, j = nm
        assert minimal_support(c, gen.names[nm], spec) == {i, j}, nm
    invariant = [nm for nm in gen.names
                 if nm[0] in ("trace", "p", "psum", "pterm")]
    assert len(invariant) >= 8
    for nm in invariant:
        assert minimal_support(c, gen.names[nm], spec) == set(), nm
    print("PASS supports: {i,j} on 32 entry gates, empty on invariant gates")


def two_var(kind):
    b = CircuitBuilder(QQ, ["x", "y"])
    x = b.add(input_label("x"))
    y = b.add(input_label("y"))
    return b.build(b.add(kind, [x, y]))


def partition_gate_circuit(kind, c, parts, counts):
    from symcirc.circuit import pprod, psum

    names = {t: [f"in_{t}_{i}" for i in range(1, counts[t] + 1)] for t in parts}
    flat = [v for t in sorted(parts) for v in names[t]]
    b = CircuitBuilder(QQ, flat)
    children = [(b.add(input_label(v)), t) for t in sorted(parts) for v in names[t]]
    lab = psum(c, parts) if kind == "psum" else pprod(c, parts)
    return b.build(b.add(lab, children)), flat


def test_05_lowering_round_trips():
    """verify_lowering passes exhaustively; gadgets match partition semantics."""
    cases = [two_var(MUL), two_var(ADD), ryser_perm_circuit(2).circuit]
    modes = ["compositional", "compositional", "exact"]
    for circuit, mode in zip(cases, modes):
        vs = value_sets(circuit, mode)
        for target in (0, 1, 2):
            accept = {QQ.of(target)}
            low = lower_to_partition_basis(circuit, accept, vs)
            assert verify_lowering(circuit, accept, low.circuit)
            assert verify_lowering(circuit, accept, expand_to_threshold(low).circuit)

    # gadget truth tables against a direct partition gate, all sizes <= 4
    value_pool = [QQ.of(v) for v in (0, 1, 2, -1, "1/2")]
    part_shapes = [((0,), (1,)), ((0,), (4,)), ((1,), (3,)), ((2,), (4,)),
                   ((3,), (2,)), ((4,), (1,)), ((1, 2), (4, 4)),
                   ((2, 4), (3, 2)), ((0, 2), (2, 3)), ((3, 4), (4, 4))]
    for vidx, sizes in part_shapes:
        parts = {str(value_pool[i]): value_pool[i] for i in vidx}
        tags = sorted(parts, key=lambda t: parts[t].sort_key())
        counts = dict(zip(tags, sizes))
        for kind in ("psum", "pprod"):
            seen_targets = set()
            for vec in itertools.product(*(range(counts[t] + 1) for t in tags)):
                acc = QQ.zero() if kind == "psum" else QQ.one()
                for t, k in zip(tags, vec):
                    acc = acc + parts[t].scaled(k) if kind == "psum" \
                        else acc * parts[t].power(k)
                seen_targets.add(acc)
            for c in seen_targets:
                direct, flat = partition_gate_circuit(kind, c, parts, counts)
                gadget = expand_to_threshold(PartitionCircuit(direct, None)).circuit
                for bits in itertools.product((0, 1), repeat=len(flat)):
                    asg = dict(zip(flat, bits))
                    assert evaluate_bool(gadget, asg) == evaluate_bool(direct, asg), \
                        (kind, str(c), asg)
    print("PASS lowering verified exhaustively; gadget tables match up to size 4")


def orbit_cases():
    """(generated circuit, group, largest orbit, threshold gates with exact
    value sets and accept {0}) for each lowering test_06 checks."""
    return [(ryser_perm_circuit(2), Matrix(2, 2), 4, 239),
            (ryser_perm_circuit(3, GF(3)), Matrix(3, 3), 9, 668),
            (leverrier_det_circuit(3, GF(5), allow_positive_char=True), Transpose(3), 12, 1133),
            (leverrier_det_circuit(3), Transpose(3), 12, 10260),
            (ryser_perm_circuit(3), Matrix(3, 3), 9, 4922),
            (ryser_perm_circuit(4, GF(3)), Matrix(4, 4), 24, 1935),
            (leverrier_det_circuit(4, GF(5), allow_positive_char=True), Transpose(4), 24, 3376),
            (leverrier_det_circuit(4, GF(7), allow_positive_char=True), Transpose(4), 24, 4737)]


@functools.cache
def orbit_case_stages():
    """Per orbit_cases() entry: the entry, then check_symmetric's report and
    the partition and threshold stages of the lowering with exact value
    sets and accept {0}."""
    stages = []
    for gen, group, orb, gates in orbit_cases():
        rep = check_symmetric(gen.circuit, group)
        low = lower_to_partition_basis(gen.circuit, {0}, value_sets(gen.circuit, "exact"))
        stages.append((gen, group, orb, gates, rep, low, expand_to_threshold(low)))
    return stages


def test_06_orbit_preservation():
    """Largest orbit is unchanged through both lowering stages, and both
    stages are verified exhaustively; expanded gate counts are frozen, no
    AND gate has a single child, and no OR gate does either, except copies
    of the partition stage's ORs."""
    for gen, group, orb, gates, rep, low, exp in orbit_case_stages():
        assert rep.symmetric
        assert len(exp.circuit.gates) == gates
        assert not [g for g, lab in exp.circuit.gates.items()
                    if lab == AND and len(exp.circuit.wires[g]) == 1]
        copied_ors = {h for (role, g), h in exp.gate_of.items()
                      if role == "copy" and low.circuit.gates[g] == OR}
        assert not [g for g, lab in exp.circuit.gates.items()
                    if lab == OR and len(exp.circuit.wires[g]) == 1 and g not in copied_ors]
        assert verify_lowering(gen.circuit, {0}, low.circuit)
        assert verify_lowering(gen.circuit, {0}, exp.circuit)
        report = orbit_preservation_check(gen.circuit, rep.witnesses, low, exp)
        assert report.equal
        assert report.orb_phi == report.orb_d == report.orb_c == orb
    print("PASS orbit preservation: perm n=2, 3 over Q and F_3, det n=3 over Q and "
          "F_5, perm n=4 over F_3 and det n=4 over F_5 and F_7 keep ORB at all "
          "three stages, both verified")


def test_06_orbits_within_the_young_bounds():
    """On every gate of all three stages, the orbit lies between the Young
    bounds of the gate's point classes, and sits at the upper end, except
    under Transpose, where as many gates as measured sit at twice it."""
    doubled = {Transpose(3): [12, 24, 84], Transpose(4): [24, 48, 168]}
    for gen, group, _orb, _gates, rep, low, exp in orbit_case_stages():
        ratios = [orbit_ratios(c, group, rep.witnesses)
                  for c in (gen.circuit, low.circuit, exp.circuit)]
        assert all(set(r) <= {1, 2} for r in ratios), group
        assert [r[2] for r in ratios] == doubled.get(group, [0, 0, 0]), group
    print("PASS Young bounds: every gate of every stage of the eight lowerings")


def test_06_threshold_stage_has_no_orphans():
    """Every gate of the threshold stage lies below a gate gate_of names:
    the ladders keep only partial sums from which a target is reachable."""
    cases = [(gen.circuit, "exact") for gen, _group, _orb, _gates in orbit_cases()]
    cases.append((leverrier_det_circuit(2).circuit, "compositional"))
    for circuit, mode in cases:
        low = lower_to_partition_basis(circuit, {0}, value_sets(circuit, mode))
        exp = expand_to_threshold(low)
        wires = exp.circuit.wires
        seen = set(exp.gate_of.values())
        stack = list(seen)
        while stack:
            for c, _t in wires[stack.pop()]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        assert len(seen) == len(exp.circuit.gates), mode
    print("PASS threshold stage: every gate reachable from a named gate")


def test_06_partition_families_split_every_block():
    """On the lanes of every 0-1 assignment, the partition gates (v, c)
    sharing kind, parts and wires are true on disjoint lanes that cover
    them all: v takes one value of its set on each assignment.  Both
    value-set modes."""
    for gen, _group, _orb, _gates in orbit_cases():
        for mode in ("exact", "compositional"):
            low = lower_to_partition_basis(gen.circuit, {0}, value_sets(gen.circuit, mode))
            d = low.circuit
            families = {}
            for g, lab in d.gates.items():
                if lab.kind in ("psum", "pprod"):
                    families.setdefault((lab.kind, lab.parts, d.wires[g]), []).append(g)
            assert families
            _sets, lanes, width, _out = lowering._zero_one(gen.circuit)
            vals = bool_lane_values(d, lanes, width)
            for members in families.values():
                masks = [vals[m] for m in members]
                assert sum(bin(m).count("1") for m in masks) == width, mode
                assert functools.reduce(operator.or_, masks) == (1 << width) - 1, mode
    print("PASS partition families: one true member per lane on every 0-1 assignment, "
          "both value-set modes")


def test_07_gadget_matchings():
    """The two edge gadgets have exactly 4 and 2 perfect matchings."""
    rep = matching_oracle.gadget_matchings_check()
    assert rep.ok
    assert rep.s_count == 4 and rep.s_match_expected
    assert rep.t_count == 2 and rep.t_match_expected
    for bits, count in rep.counts_by_bits.items():
        assert count == (4 if sum(bits) % 2 == 0 else 2)
    print("PASS gadget matchings: 4 and 2, matching the explicit lists")


def test_08_orientation_census():
    """All 64 orientations of K4 spread evenly over the 8 even vertex sets."""
    g = complete_graph(4, name="K4")
    assert sum(1 for _ in enumerate_orientations(g)) == 64
    census = orientation_odd_set_census(g)
    assert len(census) == 8
    assert all(len(s) % 2 == 0 for s in census)
    assert set(census.values()) == {8}
    print("PASS orientation census: 8 even sets, 8 orientations each")


def test_09_pq_sequences():
    """The closed form equals the defining subset sums; the gap is exactly 4^m."""
    assert pq(1) == (20, 16)
    for m in range(1, 41):
        terms = [comb(2 * m, s) * 2 ** s * 4 ** (2 * m - s) for s in range(2 * m + 1)]
        p, q = pq(m)
        assert (p, q) == (sum(terms[0::2]), sum(terms[1::2]))
        assert p - q == 4 ** m
    print("PASS pq sequences: (20,16) start, closed form equals the sums, gap 4^m")


def test_10_matching_counts_k4():
    """Twisted and untwisted CFI matching counts with all cross checks."""
    g = complete_graph(4, name="K4")
    rep = matching_experiment(g, k_list=(), p_list=(2, 3, 5, 7))
    assert rep.enumerated
    assert (rep.count_x, rep.count_y) == (23680, 23552)
    assert rep.count_x - rep.count_y == 128
    assert (rep.uniform_x, rep.uniform_y) == (5248, 5120)
    assert rep.uniform_x == uniform_count_formula(g, False)
    assert rep.uniform_y == uniform_count_formula(g, True)
    assert rep.nonuniform_x == rep.nonuniform_y == 18432
    # gadget contraction vs the row-by-row permanent DP: two independent algorithms
    assert rep.permanent_checked
    assert rep.checks["permanent_matches_x"]
    assert rep.checks["permanent_matches_y"]
    assert matching_count_via_permanent(build_cfi(g).graph) == 23680
    assert rep.mod[2]["x"] == rep.mod[2]["y"]
    for p in (3, 5, 7):
        assert rep.mod[p]["x"] != rep.mod[p]["y"]
    assert rep.passed()
    print("PASS matching counts: 23680 vs 23552, formulas, permanent, moduli")


def test_11_wl_equivalence():
    """CFI pair is 1- and 2-WL equivalent; six-cycle pair splits at 2."""
    g = complete_graph(4, name="K4")
    x = build_cfi(g).graph
    y = build_cfi(g, twisted=True).graph
    for k in (1, 2):
        assert wl_equivalent(x, y, k).equivalent, f"k={k}"
    c6 = cycle_graph(6)
    cc = cycle_graph(3).disjoint_union(cycle_graph(3))
    assert wl_equivalent(c6, cc, 1).equivalent
    assert not wl_equivalent(c6, cc, 2).equivalent

    # hierarchy: higher-dimension equivalence implies lower
    pairs = [(x, y), (c6, cc), (complete_graph(3), path_graph(3))]
    for g1, g2 in pairs:
        v1 = wl_equivalent(g1, g2, 1).equivalent
        v2 = wl_equivalent(g1, g2, 2).equivalent
        if v2:
            assert v1

    # shuffle soundness: random relabelings are always equivalent
    rng = random.Random(SEED)
    for trial in range(10):
        n = 8
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.5]
        g1 = Graph(tuple(range(1, n + 1)), tuple(edges))
        perm = list(g1.vertices)
        rng.shuffle(perm)
        g2 = g1.relabel(dict(zip(g1.vertices, perm)))
        for k in (1, 2):
            assert wl_equivalent(g1, g2, k).equivalent
    print("PASS WL: CFI pair equivalent at k=1,2; cycle pair split at k=2")


def test_12_asymptotics_out_of_scope():
    """Growth-rate claims are not checked here.

    The guarantees about how gate counts and orbit sizes scale as n grows
    without bound are mathematical statements about limits; a test suite can
    only sample finitely many sizes.  The size bounds sampled up to n = 8 in
    the determinant test are the finite shadow of those claims, and nothing
    in this suite purports to verify the limits themselves.
    """
    print("PASS asymptotic claims acknowledged as out of test scope")


@pytest.mark.skipif(not os.environ.get("SYMCIRC_K33"),
                    reason="long-running oracle search; set SYMCIRC_K33=1 to run")
def test_k33_matching_counts_stretch():
    """The contraction against the backtracking oracle on the 48-vertex
    bipartite CFI pair."""
    g = complete_bipartite(3, 3, name="K33")
    for twisted in (False, True):
        x = build_cfi(g, twisted=twisted)
        got = enumerate_perfect_matchings(x, mode="classify")
        want = matching_oracle.classify(x)
        assert (got.count, got.uniform, got.histogram) == (
            want.count, want.uniform, want.histogram)
        assert got.uniform == uniform_count_formula(g, twisted)
    print("PASS K33 stretch: contraction equals the search on both graphs")


def test_k33_formulas_always():
    """The closed-form uniform counts for the odd-edge-count base graph, and
    the full experiment on it."""
    g = complete_bipartite(3, 3, name="K33")
    assert uniform_count_formula(g, False) == 372736
    assert uniform_count_formula(g, True) == 373760
    assert uniform_count_formula(g, True) - uniform_count_formula(g, False) == 4 ** 5
    rep = matching_experiment(g, k_list=(), p_list=())
    assert rep.expected_diff == 1024
    assert rep.enumerated
    assert (rep.count_x, rep.count_y) == (2093056, 2094080)
    assert rep.nonuniform_x == rep.nonuniform_y
    assert rep.permanent_checked
    assert rep.checks["permanent_matches_x"]
    assert rep.checks["permanent_matches_y"]
    assert rep.passed()
