"""Property tests: the lane evaluator agrees, gate by gate and lane by lane,
with a scalar evaluator and a set fold kept here as oracles, the 0-1
driver's one pass visits every assignment once, in order, and its cached
pass gives the same verdicts whichever call filled it."""

from __future__ import annotations

import itertools
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from symcirc import ADD, GF, MUL, QQ, CircuitBuilder, CircuitError, FieldMismatchError  # noqa: E402
from symcirc import Circuit, const, evaluate_arith, input_label, value_sets  # noqa: E402
from symcirc import lower_to_partition_basis, verify_lowering  # noqa: E402
from symcirc import lowering  # noqa: E402
from symcirc.circuit import arith_lane_values  # noqa: E402
from symcirc.field import FieldValue  # noqa: E402

FIELDS = (QQ, GF(2), GF(3), GF(5), GF(7))
_SET_BOUND = 64   # largest compositional value set a drawn gate may have


def scalar_arith_gate_values(circuit, assignment: dict) -> dict:
    """Exact value of every gate under one variable assignment."""
    fld = circuit.field
    zero, one = fld.zero(), fld.one()
    vals = {}
    for g in circuit.topo_order():
        lab = circuit.gates[g]
        if lab.kind == "input":
            try:
                v = assignment[lab.var]
            except KeyError:
                raise CircuitError(f"missing variable {lab.var!r}") from None
            if not isinstance(v, FieldValue) or v.field != fld:
                raise FieldMismatchError(f"assignment for {lab.var!r} is not in {fld.name()}")
            vals[g] = v
        elif lab.kind == "const":
            if lab.value.field != fld:
                raise FieldMismatchError(f"gate {g}: constant outside {fld.name()}")
            vals[g] = lab.value
        elif lab.kind == "add":
            acc = zero
            for c, _t in circuit.wires[g]:
                acc = acc + vals[c]
            vals[g] = acc
        elif lab.kind == "mul":
            acc = one
            for c, _t in circuit.wires[g]:
                acc = acc * vals[c]
            vals[g] = acc
        else:
            raise CircuitError(f"gate {g}: label {lab.kind!r} is not arithmetic")
    return vals


def fold_value_sets(circuit, var_sets: dict) -> dict:
    """Each gate's set of values when every input may take any value of its
    variable's set: Minkowski sums and product sets folded from the unit."""
    fld = circuit.field
    sets = {}
    for g in circuit.topo_order():
        lab = circuit.gates[g]
        if lab.kind == "input":
            sets[g] = set(var_sets[lab.var])
        elif lab.kind == "const":
            sets[g] = {lab.value}
        else:
            acc = {fld.zero() if lab.kind == "add" else fld.one()}
            for c, _t in circuit.wires[g]:
                if lab.kind == "add":
                    acc = {a + b for a in acc for b in sets[c]}
                else:
                    acc = {a * b for a in acc for b in sets[c]}
            sets[g] = acc
    return sets


def field_pool(fld) -> list:
    """The values lanes and constants draw from."""
    if fld.p is None:
        return [QQ.of(x) for x in (-1, 0, 1, 2, "1/2")]
    return [fld.of(x) for x in range(fld.p)]


@st.composite
def arith_circuits(draw):
    """An add/mul circuit over Q or F_p with one to four inputs and up to
    two constants, then up to five gates reading children drawn with
    repetition from all earlier gates, so x + x and x * x * y occur.  A
    gate's children are cut back until the product of their compositional
    set sizes is at most _SET_BOUND, so the oracles stay small over Q."""
    fld = draw(st.sampled_from(FIELDS))
    pool_values = field_pool(fld)
    variables = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    b = CircuitBuilder(fld, variables)
    pool = [b.add(input_label(v)) for v in variables]
    bound = dict.fromkeys(pool, 2)
    for value in draw(st.lists(st.sampled_from(pool_values), max_size=2)):
        pool.append(b.add(const(value)))
        bound[pool[-1]] = 1
    for _ in range(draw(st.integers(1, 5))):
        kids = draw(st.lists(st.sampled_from(pool), max_size=4))
        while kids and math.prod(bound[k] for k in kids) > _SET_BOUND:
            kids.pop()
        g = b.add(draw(st.sampled_from((ADD, MUL))), kids)
        if g not in bound:
            pool.append(g)
            bound[g] = math.prod(bound[k] for k in kids)
    return b.build(pool[-1])


def lane_map(per_lane: list) -> dict:
    """{value: mask} from one set of values per lane, lane j as bit j."""
    out = {}
    for j, values in enumerate(per_lane):
        for v in values:
            out[v] = out.get(v, 0) | 1 << j
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lanes_match_scalar_oracle(data):
    circuit = data.draw(arith_circuits())
    fld = circuit.field
    pool_values = field_pool(fld)
    width = data.draw(st.integers(1, 6))
    rows = [{v: data.draw(st.sampled_from(pool_values)) for v in circuit.variables}
            for _ in range(width)]
    # every pool value is listed for every variable, most with an empty mask
    lanes = {v: dict.fromkeys(pool_values, 0) | lane_map([{row[v]} for row in rows])
             for v in circuit.variables}
    got = arith_lane_values(circuit, lanes, width)
    want = [scalar_arith_gate_values(circuit, row) for row in rows]
    for g in circuit.gates:
        assert got[g] == lane_map([{w[g]} for w in want])
    for row, w in zip(rows, want):
        assert evaluate_arith(circuit, row) == w[circuit.output]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_multi_valued_lanes_match_set_fold(data):
    circuit = data.draw(arith_circuits())
    fld = circuit.field
    values = st.sets(st.sampled_from(field_pool(fld)), min_size=1, max_size=2)
    width = data.draw(st.integers(1, 4))
    rows = [{v: data.draw(values) for v in circuit.variables} for _ in range(width)]
    lanes = {v: lane_map([row[v] for row in rows]) for v in circuit.variables}
    got = arith_lane_values(circuit, lanes, width)
    want = [fold_value_sets(circuit, row) for row in rows]
    for g in circuit.gates:
        assert got[g] == lane_map([w[g] for w in want])
    comp = value_sets(circuit, "compositional")
    zero_one = fold_value_sets(circuit, dict.fromkeys(circuit.variables, {fld.zero(), fld.one()}))
    assert {g: set(s) for g, s in comp.sets.items()} == zero_one


@settings(max_examples=60, deadline=None)
@given(arith_circuits())
def test_zero_one_visits_every_assignment_in_order(circuit):
    fld = circuit.field
    variables = sorted(circuit.variables)
    runs = []
    seen = {g: set() for g in circuit.gates}
    _sets, lanes, width, out = lowering._zero_one(circuit)
    assert width == 1 << len(variables)
    full = (1 << width) - 1
    values = arith_lane_values(circuit, {v: {fld.zero(): full ^ m, fld.one(): m}
                                         for v, m in lanes.items()}, width)
    assert out == values[circuit.output]
    for j in range(width):
        bits = tuple(lanes[v] >> j & 1 for v in variables)
        want = scalar_arith_gate_values(circuit, {v: fld.of(x) for v, x in zip(variables, bits)})
        assert {g: [x for x, m in vals.items() if m >> j & 1]
                for g, vals in values.items()} == {g: [x] for g, x in want.items()}
        runs.append(bits)
        for g, x in want.items():
            seen[g].add(x)
    exact = value_sets(circuit, "exact")
    assert runs == list(itertools.product((0, 1), repeat=len(variables)))
    assert {g: set(s) for g, s in exact.sets.items()} == seen


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_warm_pass_gives_the_cold_verdicts(data):
    circuit = data.draw(arith_circuits())

    def fresh():
        return Circuit(circuit.field, circuit.variables, circuit.gates, circuit.wires,
                       circuit.output)

    warm = fresh()
    exact = value_sets(warm, "exact")
    outs = exact.sets[warm.output]
    accepts = data.draw(st.lists(st.sets(st.sampled_from(outs)), min_size=1, max_size=3))
    lowered = [lower_to_partition_basis(warm, accept, exact).circuit for accept in accepts]
    for accept in accepts:
        for d in lowered:
            cold = fresh()
            assert verify_lowering(warm, accept, d) == verify_lowering(cold, accept, d)
            # the pass a verification filled holds the same exact sets
            assert value_sets(cold, "exact").sets == exact.sets
    for accept, d in zip(accepts, lowered):
        assert verify_lowering(warm, accept, d)
