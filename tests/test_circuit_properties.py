"""Property tests: serialize / deserialize round-trips random circuits,
including gates that read a child several times and gates that share a
label and children (deserialize keeps them apart), serialize writes the
bytes of the dict-document encoder it replaced (serialize_oracle), and
CircuitBuilder makes the wires the Circuit constructor makes."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from serialize_oracle import serialize_oracle  # noqa: E402
from symcirc import (  # noqa: E402
    ADD,
    AND,
    GF,
    MUL,
    OR,
    QQ,
    Circuit,
    CircuitBuilder,
    CircuitError,
    const,
    deserialize,
    expand_to_threshold,
    input_label,
    lower_to_partition_basis,
    pprod,
    psum,
    serialize,
    th_eq,
    th_ge,
    value_sets,
)


@st.composite
def circuits(draw):
    fld = draw(st.sampled_from((QQ, GF(2), GF(5))))
    variables = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    ids = draw(st.lists(st.integers(0, 99), min_size=len(variables) + 2,
                        max_size=len(variables) + 9, unique=True))
    value = st.integers(-3, 3).map(fld.of)
    gates, wires = {}, {}
    for k, g in enumerate(ids):
        if k < len(variables):
            gates[g] = input_label(variables[k])
        elif k == len(variables):
            gates[g] = const(draw(value))
        else:
            kids = draw(st.lists(st.sampled_from(ids[:k]), min_size=1, max_size=4))
            kind = draw(st.sampled_from(("add", "mul", "and", "or", "th_ge",
                                         "th_eq", "psum", "pprod")))
            if kind in ("psum", "pprod"):
                parts = {"a": draw(value), "b": draw(value)}
                make = psum if kind == "psum" else pprod
                gates[g] = make(draw(value), parts)
                wires[g] = [(c, draw(st.sampled_from(("a", "b")))) for c in kids]
            else:
                gates[g] = {"add": ADD, "mul": MUL, "and": AND, "or": OR,
                            "th_ge": th_ge(len(kids)), "th_eq": th_eq(1)}[kind]
                wires[g] = kids
    return Circuit(fld, variables, gates, wires, ids[-1])


@settings(max_examples=80, deadline=None)
@given(circuits())
def test_serialize_round_trip(c):
    text = serialize(c)
    back = deserialize(text)
    assert back.field == c.field
    assert back.variables == c.variables
    assert (back.gates, back.wires, back.output) == (c.gates, c.wires, c.output)
    assert serialize(back) == text
    assert text == serialize_oracle(c)


@st.composite
def arith_circuits(draw):
    """An arithmetic circuit over Q, F_2 or F_5 with fractional constants
    and add/mul gates that may read a child several times."""
    fld = draw(st.sampled_from((QQ, GF(2), GF(5))))
    variables = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    b = CircuitBuilder(fld, variables)
    pool = [b.add(input_label(v)) for v in variables]
    num, den = draw(st.integers(-3, 3)), draw(st.sampled_from((1, 3, 7)))
    pool.append(b.add(const(fld.of(f"{num}/{den}"))))
    for _ in range(draw(st.integers(1, 3))):
        kids = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        pool.append(b.add(draw(st.sampled_from((ADD, MUL))), kids))
    return b.build(pool[-1])


@settings(max_examples=60, deadline=None)
@given(arith_circuits(), st.data())
def test_serialize_matches_oracle_on_lowering_stages(c, data):
    vs = value_sets(c, "exact")
    accept = data.draw(st.sets(st.sampled_from(vs.sets[c.output]), min_size=1))
    low = lower_to_partition_basis(c, accept, vs)
    stages = [c, low.circuit]
    if low.trivial is None:
        stages.append(expand_to_threshold(low).circuit)
    for stage in stages:
        text = serialize(stage)
        assert text == serialize_oracle(stage)
        assert serialize(deserialize(text)) == text


@st.composite
def raw_children(draw, ids, tags):
    """A child list over ids, repeats allowed: each child an int, an (id,
    tag) tuple or an [id, tag] list, an untagged child in any of the three."""
    kids = []
    for c in draw(st.lists(st.sampled_from(ids), min_size=1, max_size=5)):
        tag = draw(st.sampled_from(tags))
        form = draw(st.sampled_from((tuple, list) if tag is not None else (int, tuple, list)))
        kids.append(c if form is int else form((c, tag)))
    return kids


def _wires_or_error(make):
    try:
        return make().wires
    except CircuitError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_build_makes_the_constructors_wires(data):
    """b.build gives the wires Circuit gives for the raw children add took,
    or the same CircuitError: a psum child may be tagged None and a str
    on one id, which sorts but breaks the label's rule."""
    variables = ["x", "y", "z"]
    b = CircuitBuilder(QQ, variables)
    ids = [b.add(input_label(v)) for v in variables]
    raw = {}
    for _ in range(data.draw(st.integers(1, 4))):
        lab = data.draw(st.sampled_from((ADD, MUL, psum(QQ.of(1), {"a": QQ.of(1), "b": QQ.of(2)}))))
        kids = data.draw(raw_children(ids, (None,) if lab.kind != "psum" else (None, "a", "b")))
        g = b.add(lab, kids)
        if g == len(ids):   # a new gate, not one add already made
            ids.append(g)
            raw[g] = kids
    built = _wires_or_error(lambda: b.build(ids[-1]))
    assert built == _wires_or_error(lambda: Circuit(QQ, variables, b.gates, raw, ids[-1]))
