"""Property test: serialize / deserialize round-trips random circuits,
including gates that read a child several times and gates that share a
label and children (deserialize keeps them apart)."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from symcirc import (  # noqa: E402
    ADD,
    AND,
    GF,
    MUL,
    OR,
    QQ,
    Circuit,
    const,
    deserialize,
    input_label,
    pprod,
    psum,
    serialize,
    th_eq,
    th_ge,
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
