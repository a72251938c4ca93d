"""Property test: the bit-sliced Boolean evaluator agrees, gate by gate and
assignment by assignment, with a scalar evaluator kept here as the oracle."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from symcirc import GF, CircuitBuilder, CircuitError, GateLabel, const, evaluate_bool, input_label  # noqa: E402
from symcirc.circuit import (  # noqa: E402
    bool_lane_values,
    pprod,
    psum,
    th_eq,
    th_ge,
)

PRIMES = (2, 3, 5)
KINDS = ("and", "or", "not", "th_ge", "th_eq", "psum", "pprod")


def partition_hits(kind: str, c, weights, counts) -> bool:
    """True iff the per-part counts (aligned with weights) hit the target c:
    sum(k_i * q_i) == c for psum, prod(q_i ** k_i) == c for pprod."""
    acc = c.field.zero() if kind == "psum" else c.field.one()
    for q, k in zip(weights, counts):
        acc = acc + q.scaled(k) if kind == "psum" else acc * q.power(k)
    return acc == c


def scalar_bool_gate_values(circuit, assignment: dict) -> dict:
    """0/1 value of every gate under one 0/1 assignment, one gate at a time."""
    vals = {}
    for g in circuit.topo_order():
        lab = circuit.gates[g]
        ws = circuit.wires[g]
        if lab.kind == "input":
            try:
                v = assignment[lab.var]
            except KeyError:
                raise CircuitError(f"missing variable {lab.var!r}") from None
            if v not in (0, 1):
                raise CircuitError(f"variable {lab.var!r} must be 0 or 1")
            vals[g] = v
        elif lab.kind == "const":
            if lab.value.is_zero():
                vals[g] = 0
            elif lab.value.is_one():
                vals[g] = 1
            else:
                raise CircuitError(f"gate {g}: constant {lab.value} is not a bit")
        elif lab.kind == "and":
            vals[g] = int(all(vals[c] for c, _t in ws))
        elif lab.kind == "or":
            vals[g] = int(any(vals[c] for c, _t in ws))
        elif lab.kind == "not":
            vals[g] = 1 - vals[ws[0][0]]
        elif lab.kind == "th_ge":
            vals[g] = int(sum(vals[c] for c, _t in ws) >= lab.k)
        elif lab.kind == "th_eq":
            vals[g] = int(sum(vals[c] for c, _t in ws) == lab.k)
        elif lab.kind in ("psum", "pprod"):
            slot = {t: i for i, (t, _q) in enumerate(lab.parts)}
            counts = [0] * len(slot)
            for c, tag in ws:
                counts[slot[tag]] += vals[c]
            weights = [q for _t, q in lab.parts]
            vals[g] = int(partition_hits(lab.kind, lab.c, weights, counts))
        else:
            raise CircuitError(f"gate {g}: label {lab.kind!r} is not Boolean")
    return vals


@st.composite
def bool_circuits(draw):
    """A Boolean circuit over F_p with at most five inputs and the two bit
    constants, then one gate of every label plus a few more in random
    order, each reading children drawn from all earlier gates.  Partition
    gates may read one child under two tags."""
    fld = GF(draw(st.sampled_from(PRIMES)))
    variables = [f"x{i}" for i in range(draw(st.integers(1, 5)))]
    b = CircuitBuilder(fld, variables)
    pool = [b.add(input_label(v)) for v in variables]
    pool += [b.add(const(fld.zero())), b.add(const(fld.one()))]
    extra = draw(st.lists(st.sampled_from(KINDS), max_size=5))
    for kind in draw(st.permutations(KINDS + tuple(extra))):
        if kind == "not":
            pool.append(b.add(GateLabel("not"), [draw(st.sampled_from(pool))]))
            continue
        if kind in ("psum", "pprod"):
            weights = draw(st.sets(st.integers(0, fld.p - 1), min_size=1, max_size=3))
            parts = {str(q): fld.of(q) for q in weights}
            kids = draw(st.sets(st.tuples(st.sampled_from(pool), st.sampled_from(sorted(parts))),
                                max_size=6))
            c = fld.of(draw(st.integers(0, fld.p - 1)))
            label = (psum if kind == "psum" else pprod)(c, parts)
            pool.append(b.add(label, sorted(kids)))
            continue
        kids = sorted(draw(st.sets(st.sampled_from(pool), max_size=5)))
        if kind in ("th_ge", "th_eq"):
            k = draw(st.integers(0, len(kids) + 1))
            label = (th_ge if kind == "th_ge" else th_eq)(k)
        else:
            label = GateLabel(kind)
        pool.append(b.add(label, kids))
    return b.build(pool[-1])


def assert_lanes_match_oracle(circuit) -> dict:
    """bool_lane_values on all assignments at once, checked lane by lane
    against the scalar oracle and evaluate_bool; returns the lane values."""
    variables = circuit.variables
    width = 1 << len(variables)
    # lane j holds the assignment in which variable i is bit i of j
    lanes = {v: sum(1 << j for j in range(width) if j >> i & 1)
             for i, v in enumerate(variables)}
    got = bool_lane_values(circuit, lanes, width)
    assert all(0 <= x < 1 << width for x in got.values())
    for j in range(width):
        asg = {v: j >> i & 1 for i, v in enumerate(variables)}
        want = scalar_bool_gate_values(circuit, asg)
        assert {g: x >> j & 1 for g, x in got.items()} == want
        assert evaluate_bool(circuit, asg) == want[circuit.output]
    return got


@settings(max_examples=150, deadline=None)
@given(bool_circuits())
def test_lanes_match_scalar_oracle(circuit):
    assert_lanes_match_oracle(circuit)


def test_partition_family_cache_keys_on_kind_parts_and_wires():
    """bool_lane_values folds each family of partition gates once.  Two psum
    gates share parts and wires with different targets; a pprod gate shares
    both with them; two more gates share the parts but read other wires.
    Every gate must still match the scalar oracle on every assignment."""
    fld = GF(5)
    variables = ["x0", "x1", "x2", "x3"]
    b = CircuitBuilder(fld, variables)
    ins = [b.add(input_label(v)) for v in variables]
    parts = {"1": fld.of(1), "2": fld.of(2)}
    shared = [(ins[0], "1"), (ins[1], "1"), (ins[2], "2")]
    other = [(ins[0], "1"), (ins[3], "2"), (ins[3], "2")]
    gates = [b.add(psum(fld.of(0), parts), shared),
             b.add(psum(fld.of(3), parts), shared),
             b.add(pprod(fld.of(2), parts), shared),
             b.add(psum(fld.of(1), parts), other),
             b.add(psum(fld.of(3), parts), other)]
    got = assert_lanes_match_oracle(b.build(b.add(GateLabel("or"), gates)))
    assert all(got[g] for g in gates[:4])
    assert not got[gates[4]]   # x0 + 4 * x3 is never 3 mod 5


def test_threshold_counter_cache_keys_on_wires():
    """bool_lane_values counts each wire tuple of threshold gates once.  The
    th_eq(0..3) and th_ge(0..4) gates of one wire tuple share its count; a
    th_eq(1) and a th_ge(2) over other wires, one child read twice, have
    the k of shared gates but must count their own children.  A wide tuple
    of eight wires, whose count 8 takes a fourth counter plane, carries
    th_eq and th_ge for k = 0..10.  Every gate must still match the scalar
    oracle on every assignment."""
    fld = GF(2)
    variables = ["x0", "x1", "x2", "x3"]
    b = CircuitBuilder(fld, variables)
    ins = [b.add(input_label(v)) for v in variables]
    shared = ins[:3]
    other = [ins[1], ins[3], ins[3]]
    # x0 + 2 * x1 + 2 * x2 + 3 * x3 takes every count 0..8
    wide = [ins[0], ins[1], ins[1], ins[2], ins[2], ins[3], ins[3], ins[3]]
    gates = ([b.add(th_eq(k), shared) for k in range(4)]
             + [b.add(th_ge(k), shared) for k in range(5)]
             + [b.add(th_eq(1), other), b.add(th_ge(2), other)])
    wide_eq = [b.add(th_eq(k), wide) for k in range(len(wide) + 3)]
    wide_ge = [b.add(th_ge(k), wide) for k in range(len(wide) + 3)]
    got = assert_lanes_match_oracle(b.build(b.add(GateLabel("or"), gates + wide_eq + wide_ge)))
    assert all(got[g] for g in gates[:3]) and not got[gates[8]]
    # x1 + 2 * x3 is 1 exactly when x1 = 1 and x3 = 0; it is >= 2 when x3 = 1
    assert got[gates[9]] == got[ins[1]] & ~got[ins[3]]
    assert got[gates[10]] == got[ins[3]]
    assert all(got[g] for g in wide_eq[:9]) and not got[wide_eq[9]] | got[wide_eq[10]]
    assert got[wide_ge[0]] == 0xFFFF and got[wide_ge[8]] == got[wide_eq[8]] == 0x8000
