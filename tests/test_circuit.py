"""Circuit IR: construction, validation, evaluation, serialization."""

from __future__ import annotations

import pytest

from symcirc import (
    ADD,
    AND,
    MUL,
    NOT,
    OR,
    QQ,
    Circuit,
    CircuitBuilder,
    CircuitError,
    GF,
    compare_by_random_eval,
    const,
    desugar_threshold_eq,
    deserialize,
    evaluate_arith,
    evaluate_bool,
    export_dot,
    input_label,
    pprod,
    psum,
    serialize,
    size_stats,
    th_eq,
    th_ge,
    validate,
)
from symcirc.errors import FieldMismatchError, SchemaError


def build_xy_sum():
    b = CircuitBuilder(QQ, ["x", "y"])
    x = b.add(input_label("x"))
    y = b.add(input_label("y"))
    s = b.add(ADD, [x, y])
    return b.build(s)


def test_builder_and_topo():
    c = build_xy_sum()
    assert len(c) == 3
    order = c.topo_order()
    assert order[-1] == c.output
    assert validate(c) == []


def test_repeated_wires_count_twice():
    # wires are multisets: a child listed twice counts twice everywhere
    b = CircuitBuilder(QQ, ["x"])
    x = b.add(input_label("x"))
    dbl = b.add(ADD, [x, x])
    sq = b.add(MUL, [x, x])
    c = b.build(b.add(ADD, [dbl, sq, sq]))
    assert c.wires[dbl] == ((x, None), (x, None))
    assert evaluate_arith(c, {"x": QQ.of(3)}) == QQ.of(6 + 9 + 9)
    assert size_stats(c).wires == 2 + 2 + 3

    b = CircuitBuilder(QQ, ["p", "q"])
    p = b.add(input_label("p"))
    q = b.add(input_label("q"))
    ge = b.add(th_ge(2), [p, p])
    two = b.add(psum(QQ.of(2), {"1": QQ.of(1)}), [(p, "1"), (p, "1")])
    three = b.add(psum(QQ.of(3), {"1": QQ.of(1)}), [(p, "1"), (p, "1"), (q, "1")])
    for g, truth in ((ge, {0: 0, 1: 1}), (two, {0: 0, 1: 1}), (three, {0: 0, 1: 1})):
        c = b.build(g)
        for bit, want in truth.items():
            assert evaluate_bool(c, {"p": bit, "q": bit}) == want
    c = b.build(three)
    assert evaluate_bool(c, {"p": 1, "q": 0}) == 0

    c2 = deserialize(serialize(c))
    assert c2.wires == c.wires
    assert c2.wires[three] == ((p, "1"), (p, "1"), (q, "1"))
    assert serialize(c2) == serialize(c)


def test_builder_hash_conses():
    b = CircuitBuilder(QQ, ["x", "y"])
    x = b.add(input_label("x"), name="x")
    y = b.add(input_label("y"))
    m = b.add(MUL, [x, y], name="xy")
    # the same label and children, in any order, is the same gate
    assert b.add(MUL, [y, x], name="yx") == m
    assert b["yx"] == b["xy"] == m
    assert b.add(input_label("x")) == x
    assert b.add(MUL, [x, y], name="xy") == m
    assert b.add(MUL, [x, x]) != m
    with pytest.raises(ValueError, match="duplicate gate name"):
        b.add(ADD, [x, y], name="xy")
    assert len(b.build(m)) == 4


def test_tagged_wires_allow_repeated_child():
    b = CircuitBuilder(QQ, ["x"])
    x = b.add(input_label("x"))
    m = b.add(MUL, [(x, "l"), (x, "r")])
    c = b.build(m)
    assert evaluate_arith(c, {"x": QQ.of(3)}) == QQ.of(9)


def test_unknown_variable_flagged():
    b = CircuitBuilder(QQ, ["x"])
    z = b.add(input_label("z"))
    probs = validate(b.build(z))
    assert any(d.code == "var" for d in probs)


def test_cycle_detected():
    b = CircuitBuilder(QQ, ["x"])
    x = b.add(input_label("x"))
    a = b.add(ADD, [x], name="a")
    # force a back edge behind the builder's checks
    b.wires[x] = {(a, None)}
    c = b.build(a)
    with pytest.raises(CircuitError):
        c.topo_order()


def test_wire_to_missing_child():
    c = Circuit(QQ, ["x"], {0: input_label("x"), 1: ADD}, {1: [0, 5]}, 1)
    with pytest.raises(CircuitError, match="gate 1: child 5 does not exist"):
        evaluate_arith(c, {"x": QQ.of(1)})
    assert [(d.code, d.gate) for d in validate(c)] == [("wire", 1)]


def test_empty_fold_units():
    b = CircuitBuilder(QQ, ["x"])
    e_add = b.add(ADD, [])
    e_mul = b.add(MUL, [])
    assert evaluate_arith(b.build(e_add), {"x": QQ.zero()}).is_zero()
    b2 = CircuitBuilder(QQ, ["x"])
    e_mul = b2.add(MUL, [])
    assert evaluate_arith(b2.build(e_mul), {"x": QQ.zero()}).is_one()


def test_arithmetic_evaluation():
    b = CircuitBuilder(QQ, ["x", "y"])
    x = b.add(input_label("x"))
    y = b.add(input_label("y"))
    m = b.add(MUL, [x, y])
    s = b.add(ADD, [m, b.add(const(QQ.of("1/2")))])
    c = b.build(s)
    got = evaluate_arith(c, {"x": QQ.of(2), "y": QQ.of("3/4")})
    assert got == QQ.of(2)


def test_boolean_evaluation():
    b = CircuitBuilder(QQ, ["p", "q"])
    p = b.add(input_label("p"))
    q = b.add(input_label("q"))
    nq = b.add(NOT, [q])
    g = b.add(OR, [b.add(AND, [p, q]), nq])
    c = b.build(g)
    assert evaluate_bool(c, {"p": 0, "q": 0}) == 1
    assert evaluate_bool(c, {"p": 0, "q": 1}) == 0
    assert evaluate_bool(c, {"p": 1, "q": 1}) == 1


def test_empty_and_or_units():
    b = CircuitBuilder(QQ, ["p"])
    a = b.add(AND, [])
    assert evaluate_bool(b.build(a), {"p": 0}) == 1
    b2 = CircuitBuilder(QQ, ["p"])
    o = b2.add(OR, [])
    assert evaluate_bool(b2.build(o), {"p": 1}) == 0


def test_threshold_gates():
    b = CircuitBuilder(QQ, ["a", "b", "c"])
    ins = [b.add(input_label(v)) for v in "abc"]
    ge = b.add(th_ge(2), ins)
    c = b.build(ge)
    assert evaluate_bool(c, {"a": 1, "b": 1, "c": 0}) == 1
    assert evaluate_bool(c, {"a": 1, "b": 0, "c": 0}) == 0

    b = CircuitBuilder(QQ, ["a", "b", "c"])
    ins = [b.add(input_label(v)) for v in "abc"]
    eq = b.add(th_eq(2), ins)
    c = b.build(eq)
    assert evaluate_bool(c, {"a": 1, "b": 1, "c": 0}) == 1
    assert evaluate_bool(c, {"a": 1, "b": 1, "c": 1}) == 0


def test_partition_sum_gate():
    # true iff the weighted count of true children equals the target
    parts = {"1": QQ.of(1), "2": QQ.of(2)}
    b = CircuitBuilder(QQ, ["a", "b", "c"])
    a = b.add(input_label("a"))
    bb = b.add(input_label("b"))
    cc = b.add(input_label("c"))
    g = b.add(psum(QQ.of(3), parts), [(a, "1"), (bb, "1"), (cc, "2")])
    c = b.build(g)
    assert evaluate_bool(c, {"a": 1, "b": 1, "c": 0}) == 0
    assert evaluate_bool(c, {"a": 1, "b": 0, "c": 1}) == 1
    assert evaluate_bool(c, {"a": 0, "b": 0, "c": 1}) == 0


def test_partition_prod_gate():
    parts = {"2": QQ.of(2), "3": QQ.of(3)}
    b = CircuitBuilder(QQ, ["a", "b"])
    a = b.add(input_label("a"))
    bb = b.add(input_label("b"))
    g = b.add(pprod(QQ.of(6), parts), [(a, "2"), (bb, "3")])
    c = b.build(g)
    assert evaluate_bool(c, {"a": 1, "b": 1}) == 1
    assert evaluate_bool(c, {"a": 1, "b": 0}) == 0
    # empty product is 1, so target 6 needs both factors
    assert evaluate_bool(c, {"a": 0, "b": 0}) == 0


def test_partition_tags_must_match_label():
    parts = {"1": QQ.of(1)}
    b = CircuitBuilder(QQ, ["a"])
    a = b.add(input_label("a"))
    g = b.add(psum(QQ.of(1), parts), [(a, "9")])
    probs = validate(b.build(g))
    assert any(d.code == "tag" for d in probs)


def test_mixed_arith_bool_evaluation_guards():
    c = build_xy_sum()
    with pytest.raises(CircuitError):
        evaluate_bool(c, {"x": QQ.of(1), "y": QQ.of(1)})


def test_bool_requires_binary_inputs():
    b = CircuitBuilder(QQ, ["p"])
    p = b.add(input_label("p"))
    c = b.build(b.add(AND, [p]))
    with pytest.raises(CircuitError, match="must be 0 or 1"):
        evaluate_bool(c, {"p": 2})
    with pytest.raises(CircuitError, match="missing variable 'p'"):
        evaluate_bool(c, {"q": 1})
    b = CircuitBuilder(QQ, [])
    c = b.build(b.add(const(QQ.of(2))))
    with pytest.raises(CircuitError, match="not a bit"):
        evaluate_bool(c, {})


def test_validate_reports_missing_assignment_free():
    c = build_xy_sum()
    with pytest.raises(CircuitError, match="missing variable 'y'"):
        evaluate_arith(c, {"x": QQ.of(1)})
    for bad in (GF(5).of(1), 1, [1]):
        with pytest.raises(FieldMismatchError, match="assignment for 'y' is not in Q"):
            evaluate_arith(c, {"x": QQ.of(1), "y": bad})
    foreign = Circuit(QQ, [], {0: const(GF(5).of(2))}, {}, 0)
    with pytest.raises(FieldMismatchError, match="gate 0: constant outside Q"):
        evaluate_arith(foreign, {})
    b = CircuitBuilder(QQ, ["p"])
    c = b.build(b.add(AND, [b.add(input_label("p"))]))
    with pytest.raises(CircuitError, match="gate 1: label 'and' is not arithmetic"):
        evaluate_arith(c, {"p": QQ.of(1)})


def test_size_stats():
    c = build_xy_sum()
    st = size_stats(c)
    assert st.gates == 3
    assert st.wires == 2
    assert st.depth == 1


def test_desugar_threshold_eq():
    b = CircuitBuilder(QQ, ["a", "b", "c"])
    ins = [b.add(input_label(v)) for v in "abc"]
    c = b.build(b.add(th_eq(2), ins))
    d = desugar_threshold_eq(c)
    labels = {g.kind for g in d.gates.values()}
    assert "th_eq" not in labels
    for bits in range(8):
        asg = {"a": bits & 1, "b": (bits >> 1) & 1, "c": (bits >> 2) & 1}
        assert evaluate_bool(c, asg) == evaluate_bool(d, asg)


def test_serialize_round_trip():
    b = CircuitBuilder(GF(7), ["x", "y"])
    x = b.add(input_label("x"))
    y = b.add(input_label("y"))
    g = b.add(MUL, [(x, "l"), (y, "r")])
    s = b.add(ADD, [g, b.add(const(GF(7).of(3)))])
    c = b.build(s)
    c2 = deserialize(serialize(c))
    assert c2.field == GF(7)
    assert len(c2) == len(c)
    r = compare_by_random_eval(c, c2, trials=16)
    assert r.consistent


def test_serialize_round_trip_partition_gates():
    parts = {"1": QQ.of(1), "1/2": QQ.of("1/2")}
    b = CircuitBuilder(QQ, ["a", "b"])
    a = b.add(input_label("a"))
    bb = b.add(input_label("b"))
    g = b.add(psum(QQ.of("3/2"), parts), [(a, "1"), (bb, "1/2")])
    c = b.build(g)
    c2 = deserialize(serialize(c))
    assert evaluate_bool(c2, {"a": 1, "b": 1}) == 1
    assert evaluate_bool(c2, {"a": 1, "b": 0}) == 0


def test_deserialize_rejects_malformed():
    with pytest.raises(SchemaError):
        deserialize("{}")
    with pytest.raises(SchemaError):
        deserialize('{"schema_version": 1, "field": "Q"}')


def test_export_dot_mentions_gates():
    c = build_xy_sum()
    dot = export_dot(c)
    assert "digraph" in dot
    assert dot.count("->") == 2
