"""Arithmetic-to-Boolean lowering through partition gates and thresholds."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import symcirc
from extension_oracle import Witness, verify_automorphism
from symcirc import (
    ADD,
    AND,
    GF,
    MUL,
    NOT,
    OR,
    QQ,
    Circuit,
    BudgetExceededError,
    CircuitBuilder,
    CircuitError,
    ExpandedCircuit,
    Matrix,
    Partition,
    PartitionCircuit,
    check_symmetric,
    const,
    evaluate_bool,
    expand_to_threshold,
    find_extension,
    input_label,
    leverrier_det_circuit,
    lower_to_partition_basis,
    lowering,
    orbit_preservation_check,
    ryser_perm_circuit,
    value_sets,
    verify_lowering,
)
from symcirc.circuit import bool_lane_values, partition_rule, partition_terms, pprod, psum
from symcirc.symmetry import matrix_var, matrix_variables


def two_input(kind):
    b = CircuitBuilder(QQ, ["x", "y"])
    x = b.add(input_label("x"))
    y = b.add(input_label("y"))
    return b.build(b.add(kind, [x, y]))


def crossing_pair():
    """x11*x22 + x12*x21, fully symmetric under row/column swaps."""
    b = CircuitBuilder(QQ, matrix_variables(2))
    ins = {(i, j): b.add(input_label(matrix_var(i, j)), name=("x", i, j))
           for i in (1, 2) for j in (1, 2)}
    m1 = b.add(MUL, [ins[(1, 1)], ins[(2, 2)]], name="m1")
    m2 = b.add(MUL, [ins[(1, 2)], ins[(2, 1)]], name="m2")
    return b.build(b.add(ADD, [m1, m2], name="out"))


def test_value_sets_compositional():
    c = two_input(ADD)
    vs = value_sets(c)
    assert not vs.exact
    assert [str(v) for v in vs.sets[c.output]] == ["0", "1", "2"]
    c = two_input(MUL)
    vs = value_sets(c)
    assert [str(v) for v in vs.sets[c.output]] == ["0", "1"]


def test_value_sets_exact_is_tighter():
    # x + (-1) * x is identically zero; the compositional bound cannot see it
    b = CircuitBuilder(QQ, ["x"])
    x = b.add(input_label("x"))
    neg = b.add(MUL, [b.add(const(QQ.of(-1))), x])
    c = b.build(b.add(ADD, [x, neg]))
    comp = value_sets(c, "compositional")
    exact = value_sets(c, "exact")
    assert exact.exact
    assert [str(v) for v in exact.sets[c.output]] == ["0"]
    assert len(comp.sets[c.output]) > 1


def test_value_sets_exact_det4_over_q():
    # 16 inputs: one pass over 2^16 assignments; 0-1 matrices of order 4
    # have determinants -3..3
    c = leverrier_det_circuit(4).circuit
    vs = value_sets(c, "exact")
    assert [str(v) for v in vs.sets[c.output]] == [str(k) for k in range(-3, 4)]


def test_value_sets_exact_budget(monkeypatch):
    b = CircuitBuilder(QQ, [f"v{i}" for i in range(6)])
    ins = [b.add(input_label(f"v{i}")) for i in range(6)]
    c = b.build(b.add(ADD, ins))
    monkeypatch.setattr(lowering, "_MAX_INPUTS", 5)
    # a pass that raises caches nothing, so every call raises
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            value_sets(c, "exact")
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            verify_lowering(c, {0}, c)


def test_one_enumeration_per_source_circuit(monkeypatch):
    passes = []   # the circuits of the arith_lane_values calls over many lanes
    evaluate = lowering.arith_lane_values

    def counted(circuit, lanes, width):
        if width > 1:
            passes.append(circuit)
        return evaluate(circuit, lanes, width)

    monkeypatch.setattr(lowering, "arith_lane_values", counted)
    for mode in ("exact", "compositional"):
        c = crossing_pair()   # a fresh instance runs its own pass
        low = lower_to_partition_basis(c, {0}, value_sets(c, mode))
        assert verify_lowering(c, {0}, low.circuit)
        assert verify_lowering(c, {0}, expand_to_threshold(low).circuit)
        assert len(passes) == 1 and passes[0] is c, mode
        passes.clear()
    # value_sets hands out a fresh map: editing it leaves the cache alone
    first = value_sets(c, "exact")
    want = dict(first.sets)
    first.sets[c.output] = ()
    first.sets.pop(min(first.sets))
    assert value_sets(c, "exact").sets == want
    assert passes == []


def test_value_sets_rejects_boolean_gates():
    b = CircuitBuilder(QQ, ["p"])
    p = b.add(input_label("p"))
    from symcirc import NOT

    c = b.build(b.add(NOT, [p]))
    with pytest.raises(CircuitError):
        value_sets(c)


def exhaustive_check(circuit, accept, lowered):
    assert verify_lowering(circuit, accept, lowered.circuit)


def test_lower_mul_accept_zero():
    c = two_input(MUL)
    low = lower_to_partition_basis(c, {0}, value_sets(c))
    assert low.trivial is None
    exhaustive_check(c, {QQ.of(0)}, low)


def test_lower_add_each_level():
    c = two_input(ADD)
    vs = value_sets(c)
    for target in (0, 1, 2):
        low = lower_to_partition_basis(c, {QQ.of(target)}, vs)
        exhaustive_check(c, {QQ.of(target)}, low)


def test_lower_trivial_cases():
    c = two_input(MUL)
    vs = value_sets(c)
    low = lower_to_partition_basis(c, {QQ.of(7)}, vs)
    assert low.trivial == "const0"
    assert verify_lowering(c, {QQ.of(7)}, low.circuit)
    low = lower_to_partition_basis(c, {QQ.of(0), QQ.of(1)}, vs)
    assert low.trivial == "const1"
    assert verify_lowering(c, {QQ.of(0), QQ.of(1)}, low.circuit)


def test_lower_accept_coercion():
    c = two_input(ADD)
    low = lower_to_partition_basis(c, {"2"}, value_sets(c))
    exhaustive_check(c, {QQ.of(2)}, low)


def test_lowered_symmetry_lifts():
    c = crossing_pair()
    rep = check_symmetric(c, Matrix(2, 2))
    assert rep.symmetric
    low = lower_to_partition_basis(c, {0}, value_sets(c))
    for sigma in rep.witnesses:
        pi = find_extension(low.circuit, sigma)
        assert pi is not None
        assert verify_automorphism(low.circuit, Witness(sigma, pi)) == []


def test_expand_to_threshold_equivalence():
    c = crossing_pair()
    low = lower_to_partition_basis(c, {1}, value_sets(c))
    exp = expand_to_threshold(low)
    names = sorted(c.variables)
    for bits in itertools.product((0, 1), repeat=4):
        asg = dict(zip(names, bits))
        assert evaluate_bool(low.circuit, asg) == evaluate_bool(exp.circuit, asg)
    # besides the crossing pair, gates whose targets have no last-layer edge
    # (out of reach) and three (any count of the weight-2 part keeps the
    # product 0), and a lowering with families of many members
    perm3 = ryser_perm_circuit(3, GF(3)).circuit
    zero_two = {"0": QQ.of(0), "2": QQ.of(2)}
    lowerings = [low, lower_to_partition_basis(perm3, {0}, value_sets(perm3)),
                 PartitionCircuit(one_gate(psum(QQ.of(9), {"1": QQ.of(1), "2": QQ.of(2)}),
                                           {"1": 2, "2": 1})[0], None),
                 PartitionCircuit(one_gate(pprod(QQ.of(0), zero_two), {"0": 1, "2": 2})[0], None)]
    seen = set()
    for lowered in lowerings:
        exp = expand_to_threshold(lowered)
        # gate_of names one gate per partition-stage gate: its copy, or the
        # gadget of a partition gate; ladder gates are unnamed
        src = lowered.circuit
        partition = {g for g, lab in src.gates.items() if lab.kind in ("psum", "pprod")}
        assert partition
        assert set(exp.gate_of) == ({("copy", g) for g in src.gates if g not in partition}
                                    | {("d", m) for m in partition})
        for (role, g), h in exp.gate_of.items():
            lab = exp.circuit.gates[h]
            if role == "copy":
                assert lab == src.gates[g]
                continue
            # the gadget is the OR over the last layer's edges into the
            # target when there are none or several, and that edge's gate
            # (an AND, or a threshold on a one-part ladder) when there is one
            edges = last_layer_edges(src.gates[g], Counter(t for _c, t in src.wires[g]))
            seen.add(min(edges, 2))
            if edges == 1:
                assert lab == AND or lab.kind in ("th_eq", "th_ge")
            else:
                assert lab == OR and len(exp.circuit.wires[h]) == edges
    assert seen == {0, 1, 2}


def last_layer_edges(label, counts) -> int:
    """The number of last-layer edges into label's target: the pairs (s', k)
    with s' a fold of every part but the last in value order, and k a count
    of the last part that carries s' to the target.  An identity part has
    one edge per s', at k = 0."""
    unit, combine = partition_rule(label.kind, label.c.field)
    parts = label.parts_map()
    *before, last = sorted(parts, key=lambda t: parts[t].sort_key())
    folds = {unit}
    for t in before:
        folds = {combine(s, x) for s in folds
                 for x in partition_terms(unit, combine, parts[t], counts[t])}
    if parts[last] == unit:
        return int(label.c in folds)
    terms = partition_terms(unit, combine, parts[last], counts[last])
    return sum(combine(s, x) == label.c for s in folds for x in terms)


def test_expanded_symmetry_lifts():
    c = crossing_pair()
    rep = check_symmetric(c, Matrix(2, 2))
    low = lower_to_partition_basis(c, {0}, value_sets(c))
    exp = expand_to_threshold(low)
    for sigma in rep.witnesses:
        pi = find_extension(exp.circuit, sigma)
        assert pi is not None
        assert verify_automorphism(exp.circuit, Witness(sigma, pi)) == []


def test_verify_lowering_catches_wrong_circuit():
    c = two_input(MUL)
    wrong = lower_to_partition_basis(c, {1}, value_sets(c))
    assert not verify_lowering(c, {QQ.of(0)}, wrong.circuit)


def wide_circuit():
    """x00*x13 + 2*x01*x02 + x03 + ... + x12 over F_5: 14 inputs, so
    verify_lowering checks 2^14 lanes in one pass."""
    fld = GF(5)
    names = [f"x{i:02d}" for i in range(14)]
    b = CircuitBuilder(fld, names)
    x = [b.add(input_label(v)) for v in names]
    m1 = b.add(MUL, [x[0], x[13]])
    m2 = b.add(MUL, [x[1], x[2], b.add(const(fld.of(2)))])
    return b.build(b.add(ADD, [m1, m2] + x[3:13]))


def flip_at(d: Circuit, index: int) -> Circuit:
    """d with its output negated on exactly one assignment: the index-th in
    the order of itertools.product over the sorted variables."""
    gates = dict(d.gates)
    wires = {g: list(ws) for g, ws in d.wires.items()}

    def add(label, kids):
        g = len(gates)
        gates[g], wires[g] = label, kids
        return g

    ins = d.inputs_by_var
    names = sorted(ins)
    lits = [ins[v] if index >> (len(names) - 1 - i) & 1 else add(NOT, [ins[v]])
            for i, v in enumerate(names)]
    hit = add(AND, lits)
    keep = add(AND, [d.output, add(NOT, [hit])])
    turn = add(AND, [add(NOT, [d.output]), hit])
    return Circuit(d.field, d.variables, gates, wires, add(OR, [keep, turn]))


def test_verify_lowering_over_every_lane():
    c = wide_circuit()
    accept = {GF(5).of(0)}
    low = lower_to_partition_basis(c, accept, value_sets(c))
    assert verify_lowering(c, accept, low.circuit)
    # the last lane, and a lane whose bits are not symmetric in the variables
    for index in (2 ** 14 - 1, 3 * 2 ** 12 + 5):
        assert not verify_lowering(c, accept, flip_at(low.circuit, index))
    d = low.circuit
    y = len(d.gates)
    gates = {**d.gates, y: input_label("y"), y + 1: AND}
    wires = {**d.wires, y: [], y + 1: [d.output, y]}
    reads_y = Circuit(d.field, [*d.variables, "y"], gates, wires, y + 1)
    with pytest.raises(CircuitError, match="missing variable 'y'"):
        verify_lowering(c, accept, reads_y)


def row_sums_product():
    """The product of the row sums of a 4x5 matrix over F_3: 20 inputs, the
    most _zero_one enumerates."""
    b = CircuitBuilder(GF(3), matrix_variables(4, 5))
    rows = [b.add(ADD, [b.add(input_label(matrix_var(i, j))) for j in range(1, 6)])
            for i in range(1, 5)]
    return b.build(b.add(MUL, rows))


def test_lower_and_verify_at_the_input_limit():
    c = row_sums_product()
    assert len(c.variables) == lowering._MAX_INPUTS
    accept = {GF(3).of(0)}
    vs = value_sets(c, "exact")
    assert [str(v) for v in vs.sets[c.output]] == ["0", "1", "2"]
    low = lower_to_partition_basis(c, accept, vs)
    exp = expand_to_threshold(low)
    assert verify_lowering(c, accept, low.circuit)
    assert verify_lowering(c, accept, exp.circuit)
    # one lane of the 2^20, whose bits are not symmetric in the variables
    assert not verify_lowering(c, accept, flip_at(exp.circuit, 2 ** 19 + 12345))


def test_orbit_preservation_small():
    c = crossing_pair()
    rep = check_symmetric(c, Matrix(2, 2))
    low = lower_to_partition_basis(c, {0}, value_sets(c))
    exp = expand_to_threshold(low)
    report = orbit_preservation_check(c, rep.witnesses, low, exp)
    assert report.equal
    assert report.orb_phi == report.orb_d == report.orb_c == 4


@pytest.mark.parametrize("make", [lambda: ryser_perm_circuit(2, GF(5)),
                                  lambda: leverrier_det_circuit(2)],
                         ids=["perm2_F5", "det2_Q"])
def test_every_accept_set_lowers_and_keeps_orbits(make):
    """Every non-empty proper subset of the output's compositional values:
    both stages verify, keep the largest orbit, and the partition output
    OR reads one member (out, c) of the output's family per accepted c."""
    gen = make()
    c = gen.circuit
    vs = value_sets(c, "compositional")
    out_values = vs.sets[c.output]
    for r in range(1, len(out_values)):
        for accept in itertools.combinations(out_values, r):
            low = lower_to_partition_basis(c, accept, vs)
            exp = expand_to_threshold(low)
            assert verify_lowering(c, accept, low.circuit), accept
            assert verify_lowering(c, accept, exp.circuit), accept
            assert orbit_preservation_check(c, gen.witnesses, low, exp).equal, accept
            d = low.circuit
            members = [k for k, _t in d.wires[d.output]]
            assert sorted(d.gates[k].c.sort_key() for k in members) == \
                sorted(a.sort_key() for a in accept)
            assert len({(d.gates[k].kind, d.gates[k].parts, d.wires[k]) for k in members}) == 1


def test_orbit_preservation_rejects_trivial():
    c = crossing_pair()
    rep = check_symmetric(c, Matrix(2, 2))
    vs = value_sets(c)
    trivial = lower_to_partition_basis(c, {QQ.of(7)}, vs)
    assert trivial.trivial == "const0"
    exp = expand_to_threshold(lower_to_partition_basis(c, {0}, vs))
    with pytest.raises(CircuitError):
        orbit_preservation_check(c, rep.witnesses, trivial, exp)


def test_orbit_preservation_rejects_asymmetric_stage():
    c = crossing_pair()
    rep = check_symmetric(c, Matrix(2, 2))
    low = lower_to_partition_basis(c, {0}, value_sets(c))
    exp = expand_to_threshold(low)
    # a new output that also reads x_1_1 alone, which no row or column swap fixes
    d = exp.circuit
    x11 = d.inputs_by_var[matrix_var(1, 1)]
    out = len(d.gates)
    mutated = Circuit(d.field, d.variables, {**d.gates, out: AND},
                      {**d.wires, out: [d.output, x11]}, out)
    with pytest.raises(CircuitError, match="threshold stage has no extension"):
        orbit_preservation_check(c, rep.witnesses, low, ExpandedCircuit(mutated, exp.gate_of))


def test_orbit_preservation_rejects_source_permutation_without_extension():
    c = crossing_pair()
    rep = check_symmetric(c, Matrix(2, 2))
    low = lower_to_partition_basis(c, {0}, value_sets(c))
    exp = expand_to_threshold(low)
    # swapping x_1_1 and x_1_2 alone maps x_1_1*x_2_2 onto no gate
    swap = {matrix_var(1, 1): matrix_var(1, 2), matrix_var(1, 2): matrix_var(1, 1)}
    assert find_extension(c, swap) is None
    with pytest.raises(CircuitError, match="^permutation 1 has no extension$"):
        orbit_preservation_check(c, [rep.witnesses[0], swap], low, exp)


def lane_table(circuit, names):
    """The output on every 0-1 assignment of names, bit a for the assignment
    that gives names[j] the value of bit j of a."""
    width = 1 << len(names)
    lanes = {v: sum(1 << a for a in range(width) if a >> j & 1) for j, v in enumerate(names)}
    return bool_lane_values(circuit, lanes, width)[circuit.output]


def one_gate(label, sizes):
    """The circuit of one partition gate alone over sizes[t] inputs per
    part tag t, and those inputs' names by tag."""
    names = {t: [f"in_{t}_{i}" for i in range(1, n + 1)] for t, n in sizes.items()}
    b = CircuitBuilder(label.c.field, [v for ns in names.values() for v in ns])
    direct = b.build(b.add(label, [(b.add(input_label(v)), t)
                                   for t, ns in names.items() for v in ns]))
    return direct, names


def assert_gadget_table(label, sizes, accepts):
    """The gadget of one partition gate equals the gate on every 0-1 input,
    and accepts exactly the inputs whose per-tag counts satisfy accepts."""
    direct, names = one_gate(label, sizes)
    gadget = expand_to_threshold(PartitionCircuit(direct, None)).circuit
    flat = [v for ns in names.values() for v in ns]
    assert lane_table(gadget, flat) == lane_table(direct, flat)
    for a in range(1 << len(flat)):
        asg = {v: a >> j & 1 for j, v in enumerate(flat)}
        counts = {t: sum(asg[v] for v in ns) for t, ns in names.items()}
        assert evaluate_bool(gadget, asg) == int(accepts(counts)), counts


def test_gadget_matches_accept_exactly():
    # 2a + b = 2 with a, b <= 2 holds for the count vectors (1, 0) and (0, 2)
    assert_gadget_table(psum(QQ.of(2), {"a": QQ.of(2), "b": QQ.of(1)}), {"a": 2, "b": 2},
                        lambda n: (n["a"], n["b"]) in {(1, 0), (0, 2)})


def test_gadget_all_sizes_up_to_four():
    # one part, sizes 1..4, accepting none, all or half of the inputs
    for size in (1, 2, 3, 4):
        for want in (0, size, size // 2):
            assert_gadget_table(psum(QQ.of(want), {"t": QQ.one()}), {"t": size},
                                lambda n, want=want: n["t"] == want)


def test_gadget_psum():
    parts = {"1": QQ.of(1), "2": QQ.of(2)}
    sizes = {"1": 2, "2": 1}
    assert_gadget_table(psum(QQ.of(3), parts), sizes,
                        lambda n: (n["1"], n["2"]) == (1, 1))
    assert_gadget_table(psum(QQ.of(0), parts), sizes,
                        lambda n: (n["1"], n["2"]) == (0, 0))
    # out of reach: the gadget is constant false
    assert_gadget_table(psum(QQ.of(9), parts), sizes, lambda n: False)


def test_gadget_pprod_with_zero_part():
    parts = {"0": QQ.of(0), "2": QQ.of(2)}
    sizes = {"0": 1, "2": 2}
    # any zero factor kills the product
    assert_gadget_table(pprod(QQ.of(0), parts), sizes, lambda n: n["0"] >= 1)
    assert_gadget_table(pprod(QQ.of(4), parts), sizes,
                        lambda n: (n["0"], n["2"]) == (0, 2))
    # the empty product is 1
    assert_gadget_table(pprod(QQ.of(1), parts), sizes,
                        lambda n: (n["0"], n["2"]) == (0, 0))


def test_gadget_identity_and_absorbing_parts():
    # over F_3 with parts 0, 1, 2: weight 0 leaves a sum and weight 1 a
    # product unchanged, and weight 0 absorbs a product
    fld = GF(3)
    parts = {str(q): fld.of(q) for q in range(3)}
    folds = {"psum": lambda n: (n["1"] + 2 * n["2"]) % 3,
             "pprod": lambda n: 0 if n["0"] else 2 ** n["2"] % 3}
    for (kind, fold), c in itertools.product(folds.items(), range(3)):
        label = (psum if kind == "psum" else pprod)(fld.of(c), parts)
        for counts in itertools.product(range(3), repeat=3):
            assert_gadget_table(label, dict(zip(parts, counts)),
                                lambda n, fold=fold, c=c: fold(n) == c)


def test_identity_parts_keep_gadgets_apart():
    # z_i = x_i * 0 takes only the value 0, so in w_ab = x_a + z_b the part of
    # weight 0 holds z_b's wire: a ladder that left that part out would read
    # x_a's wires alone and give w_ab and w_ac one gadget, halving its orbit
    fld = GF(3)
    names = ["v0", "v1", "v2"]
    b = CircuitBuilder(fld, names)
    x = [b.add(input_label(v)) for v in names]
    zero = b.add(const(fld.zero()))
    z = [b.add(MUL, [xi, zero]) for xi in x]
    w = [b.add(ADD, [x[i], z[j]]) for i, j in itertools.permutations(range(3), 2)]
    c = b.build(b.add(ADD, w))
    rep = check_symmetric(c, Partition((tuple(names),)))
    assert rep.symmetric
    low = lower_to_partition_basis(c, {0}, value_sets(c, "compositional"))
    exp = expand_to_threshold(low)
    report = orbit_preservation_check(c, rep.witnesses, low, exp)
    assert (report.orb_phi, report.orb_d, report.orb_c) == (6, 6, 6)
    assert verify_lowering(c, {0}, low.circuit)
    assert verify_lowering(c, {0}, exp.circuit)


THRESHOLD_STAGES = """
from symcirc import *
for circuit, mode in ((ryser_perm_circuit(3, GF(3)).circuit, "exact"),
                      (leverrier_det_circuit(2).circuit, "compositional")):
    low = lower_to_partition_basis(circuit, {0}, value_sets(circuit, mode))
    print(serialize(expand_to_threshold(low).circuit))
"""


def test_threshold_stage_ignores_hash_seed():
    # no set or hash order leaks into the gate ids of the threshold stage;
    # both lowerings have identity parts, so th_ge gates are among them
    src = str(Path(symcirc.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", THRESHOLD_STAGES], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert '"th_ge"' in outs[0]


def test_ladder_budget():
    # weights 1/p for primes p > 9: every count vector has its own partial
    # sum, so layer i has 10^i gates and the sixth overdraws the budget
    primes = (11, 13, 17, 19, 23, 29, 31)
    parts = {str(p): QQ.of(f"1/{p}") for p in primes}
    direct, _names = one_gate(psum(QQ.of(5), parts), {t: 9 for t in parts})
    with pytest.raises(BudgetExceededError, match="AND gates"):
        expand_to_threshold(PartitionCircuit(direct, None))


def test_ladder_budget_is_charged_per_family_of_one_shape(monkeypatch):
    # psum(2) with parts 1 and 2, two wires each: layer 2 keeps the edges
    # 2 + 0 and 0 + 2 into the target, so one ladder costs 2 AND gates.
    # Gates a and b read different wires and share that shape, so they
    # share one plan, and the budget must still pay for both ladders.
    label = psum(QQ.of(2), {"1": QQ.of(1), "2": QQ.of(2)})
    names = [f"{g}{i}" for g in "ab" for i in range(4)]
    b = CircuitBuilder(QQ, names)
    x = [b.add(input_label(v)) for v in names]
    gates = [b.add(label, [(x[i], "1"), (x[i + 1], "1"), (x[i + 2], "2"), (x[i + 3], "2")])
             for i in (0, 4)]
    pair = PartitionCircuit(b.build(b.add(OR, gates)), None)
    alone = PartitionCircuit(one_gate(label, {"1": 2, "2": 2})[0], None)
    made = []

    class Recording(CircuitBuilder):
        def _add(self, label, wires, name=None):
            made.append(label)
            return super()._add(label, wires, name)

    monkeypatch.setattr(lowering, "CircuitBuilder", Recording)
    for budget, lowered, fits in ((1, alone, False), (2, alone, True),
                                  (3, pair, False), (4, pair, True)):
        monkeypatch.setattr(lowering, "_LADDER_BUDGET", budget)
        made.clear()
        if fits:
            variables = lowered.circuit.variables
            assert lane_table(expand_to_threshold(lowered).circuit, variables) == \
                lane_table(lowered.circuit, variables)
        else:
            with pytest.raises(BudgetExceededError, match=f"more than {budget} AND gates"):
                expand_to_threshold(lowered)
            assert made == [], budget


def test_ryser_two_lowering_round_trip():
    gen = ryser_perm_circuit(2)
    vs = value_sets(gen.circuit, "exact")
    low = lower_to_partition_basis(gen.circuit, {0}, vs)
    assert verify_lowering(gen.circuit, {QQ.of(0)}, low.circuit)
    # 9 of the 16 0-1 matrices have permanent zero
    names = sorted(gen.circuit.variables)
    hits = 0
    for bits in itertools.product((0, 1), repeat=4):
        asg = dict(zip(names, bits))
        hits += evaluate_bool(low.circuit, asg)
    assert hits == 9
