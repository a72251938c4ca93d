"""Circuit IR: construction and its structural rules, evaluation, serialization."""

from __future__ import annotations

import gc
import hashlib
import inspect
import json
import sys

import pytest

from serialize_oracle import label_doc, serialize_oracle
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
    GateLabel,
    const,
    deserialize,
    evaluate_arith,
    evaluate_bool,
    expand_to_threshold,
    input_label,
    leverrier_det_circuit,
    lower_to_partition_basis,
    pprod,
    psum,
    ryser_perm_circuit,
    serialize,
    size_stats,
    th_eq,
    th_ge,
    value_sets,
)
from symcirc import lowering
from symcirc.circuit import _kahn, arith_lane_values, bool_lane_values
from symcirc.errors import BudgetExceededError, FieldMismatchError, SchemaError


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
    assert sorted(order) == sorted(c.gates)


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
    assert b.names["yx"] == b.names["xy"] == m
    assert b.add(input_label("x")) == x
    assert b.add(MUL, [x, y], name="xy") == m
    assert b.add(MUL, [x, x]) != m
    with pytest.raises(ValueError, match="duplicate gate name"):
        b.add(ADD, [x, y], name="xy")
    assert len(b.build(m)) == 4


def test_tagged_wires_allow_repeated_child():
    b = CircuitBuilder(QQ, ["x"])
    x = b.add(input_label("x"))
    m = b.add(MUL, [x, x])
    c = b.build(m)
    assert evaluate_arith(c, {"x": QQ.of(3)}) == QQ.of(9)


def test_unknown_variable_flagged():
    b = CircuitBuilder(QQ, ["x"])
    z = b.add(input_label("z"))
    with pytest.raises(CircuitError, match="gate 0: variable 'z' is not declared"):
        b.build(z)


def test_cycle_detected():
    b = CircuitBuilder(QQ, ["x"])
    b.add(const(QQ.of(1)))
    a = b.add(ADD, [0, 2])   # gate 1 reads gate 2, made next
    m = b.add(MUL, [a])      # gate 2 reads gate 1: 1 -> 2 -> 1
    assert m == 2
    with pytest.raises(CircuitError, match="gate 1 lies on a cycle"):
        b.build(b.add(ADD, [a]))
    # a gate wired to itself
    with pytest.raises(CircuitError, match="gate 0 lies on a cycle"):
        Circuit(QQ, [], {0: ADD}, {0: [0]}, 0)


def test_build_hands_over_sorted_wires():
    """build gives each gate the label it was added with and the wires
    Circuit gives from the same raw children, hands the hash-cons table
    over as the gate index, and shares none of these dicts with the
    builder."""
    fld = GF(3)
    b = CircuitBuilder(fld, ["x", "y"])
    labels, raw = {}, {}

    def add(lab, children=()):
        g = b.add(lab, children)
        labels[g], raw[g] = lab, children
        return g

    x = add(input_label("x"))
    y = add(input_label("y"))
    s = add(ADD, [y, x, y])
    p = add(psum(fld.of(1), {"0": fld.of(0), "1": fld.of(1)}),
            [(s, "1"), (x, "0"), (x, "1"), (s, "0")])
    out = add(MUL, [p, s, p])
    built = b.build(out)
    assert built.gates == labels
    assert built.wires == Circuit(fld, ["x", "y"], labels, raw, out).wires
    assert built.wires[p] == ((x, "0"), (x, "1"), (s, "0"), (s, "1"))
    assert built.wires[out] == ((s, None), (p, None), (p, None))
    assert built._gate_index == b._made == {(labels[g], built.wires[g]): g for g in labels}
    b.add(MUL, [out, out])
    assert len(built.gates) == len(built.wires) == len(built._gate_index) == out + 1


@pytest.mark.parametrize("children, message", [
    ([(0, "a", "junk")], r"child \(0, 'a', 'junk'\) is neither an id nor an"),
    ([1.5], "child 1.5 is neither an id nor an"),
    (5, "children 5 are not a list"),
    ([(0, 7), (0, "a")], r"children \[\(0, 7\), \(0, 'a'\)\] have ids or tags of types"),
])
def test_add_refuses_children_as_the_constructor(children, message):
    b = CircuitBuilder(QQ, ["x"])
    x = b.add(input_label("x"), name="x")
    lab = psum(QQ.of(1), {"a": QQ.of(1)})
    with pytest.raises(CircuitError, match=f"gate 1: {message}") as added:
        b.add(lab, children, name="bad")
    with pytest.raises(CircuitError) as made:
        Circuit(QQ, ["x"], {x: input_label("x"), 1: lab}, {1: children}, 1)
    assert str(added.value) == str(made.value)
    # the refused gate left no trace: neither its gate nor its name
    assert b._made == {(input_label("x"), ()): x}
    assert b.names == {"x": x}
    assert b.add(lab, [(x, "a")]) == 1


def test_wire_to_missing_child():
    with pytest.raises(CircuitError, match="gate 1: child 5 is not a gate"):
        Circuit(QQ, ["x"], {0: input_label("x"), 1: ADD}, {1: [0, 5]}, 1)


# One case per structural rule of the constructor: (variables, gates, wires,
# output, message).
_MALFORMED = {
    "output_not_a_gate": (["x"], {0: input_label("x")}, {}, 1, "output 1 is not a gate"),
    "variables_repeat": (["x", "x"], {0: input_label("x")}, {}, 0, "are not distinct"),
    "unknown_kind": (["x"], {0: input_label("x"), 1: GateLabel("xor")}, {1: [0]}, 1,
                     "gate 1: unknown label kind 'xor'"),
    "input_with_child": (["x"], {0: const(QQ.of(1)), 1: input_label("x")}, {1: [0]}, 1,
                         "gate 1: input gate has children"),
    "const_with_child": (["x"], {0: input_label("x"), 1: const(QQ.of(1))}, {1: [0]}, 1,
                         "gate 1: const gate has children"),
    "not_without_child": (["x"], {0: NOT}, {}, 0, "gate 0: not gate has 0 children"),
    "not_with_two_children": (["x", "y"], {0: input_label("x"), 1: input_label("y"), 2: NOT},
                              {2: [0, 1]}, 2, "gate 2: not gate has 2 children"),
    "variable_on_two_gates": (["x"], {0: input_label("x"), 1: input_label("x"), 2: ADD},
                              {2: [0, 1]}, 2, "gate 1: variable 'x' already labels gate 0"),
    "constant_outside_field": ([], {0: const(GF(5).of(2))}, {}, 0,
                               "gate 0: constant 2 is not in Q"),
    "target_outside_field": (["x"], {0: input_label("x"), 1: psum(GF(5).of(1), {"a": QQ.of(1)})},
                             {1: [(0, "a")]}, 1, "gate 1: target 1 is not in Q"),
    "weight_outside_field": (["x"], {0: input_label("x"), 1: pprod(QQ.of(1), {"a": GF(5).of(1)})},
                             {1: [(0, "a")]}, 1, "gate 1: a part weight is not in Q"),
    "negative_threshold": (["x"], {0: input_label("x"), 1: GateLabel("th_ge", k=-1)},
                           {1: [0]}, 1, "gate 1: threshold -1 is not an integer >= 0"),
    "tag_on_add_wire": (["x"], {0: input_label("x"), 1: ADD}, {1: [(0, "a")]}, 1,
                        "gate 1: wire from 0 has tag 'a', but only psum/pprod"),
    "untagged_psum_wire": (["x"], {0: input_label("x"), 1: psum(QQ.of(1), {"a": QQ.of(1)})},
                           {1: [0]}, 1, "gate 1: wire from 0 has tag None outside the parts"),
    # the types the file schema reads back: int ids (never bool), str
    # variables and str part tags
    "string_gate_id": (["x"], {0: input_label("x"), "a": NOT}, {"a": [(0, None)]}, 0,
                       "gate 'a': id is not an int"),
    "bool_gate_id": (["x"], {0: input_label("x"), True: NOT}, {True: [0]}, 0,
                     "gate True: id is not an int"),
    "string_output": (["x"], {"a": input_label("x")}, {}, "a", "output 'a' is not an int"),
    "bool_output": (["x"], {0: input_label("x"), 1: NOT}, {1: [0]}, True,
                    "output True is not an int"),
    "bool_child_id": (["x", "y"], {0: input_label("x"), 1: input_label("y"), 2: ADD},
                      {2: [0, True]}, 2, "gate 2: child True is not an int"),
    "variable_not_a_string": ([5], {0: input_label(5)}, {}, 0, "variable 5 is not a string"),
    "part_tag_not_a_string": (["x"], {0: input_label("x"), 1: psum(QQ.of(1), {7: QQ.of(1)})},
                              {1: [(0, 7)]}, 1, "gate 1: part tag 7 is not a string"),
    "bool_threshold": (["x"], {0: input_label("x"), 1: GateLabel("th_ge", k=True)}, {1: [0]}, 1,
                       "gate 1: threshold True is not an integer >= 0"),
    # children that are neither ids nor (id, tag) pairs, or do not sort
    "children_not_a_list": (["x"], {0: input_label("x"), 1: ADD}, {1: 5}, 1,
                            "gate 1: children 5 are not a list"),
    "string_child": (["x"], {0: input_label("x"), 1: psum(QQ.of(1), {"a": QQ.of(1)})},
                     {1: ["a"]}, 1, "gate 1: child 'a' is neither an id nor an"),
    "float_child": (["x"], {0: input_label("x"), 1: psum(QQ.of(1), {"a": QQ.of(1)})},
                    {1: [1.5]}, 1, "gate 1: child 1.5 is neither an id nor an"),
    "int_and_str_tags": (["x"], {0: input_label("x"), 1: psum(QQ.of(1), {"a": QQ.of(1)})},
                         {1: [(0, 7), (0, "a")]}, 1,
                         r"gate 1: children \[\(0, 7\), \(0, 'a'\)\] have ids or tags of types"),
    # parts not of the form psum makes: a non-empty tuple of (tag, weight)
    # pairs, sorted by tag, with distinct tags
    "parts_unsorted": (["x"], {0: input_label("x"), 1: GateLabel(
                           "psum", c=QQ.of(1), parts=(("b", QQ.of(1)), ("a", QQ.of(1))))},
                       {1: [(0, "a")]}, 1,
                       r"gate 1: part tags \['b', 'a'\] are not sorted and distinct"),
    "parts_repeat_a_tag": (["x"], {0: input_label("x"), 1: GateLabel(
                               "psum", c=QQ.of(1), parts=(("a", QQ.of(1)), ("a", QQ.of(2))))},
                           {1: [(0, "a")]}, 1,
                           r"gate 1: part tags \['a', 'a'\] are not sorted and distinct"),
    "parts_empty": (["x"], {0: input_label("x"), 1: GateLabel("psum", c=QQ.of(1), parts=())},
                    {}, 1, r"gate 1: parts \(\) are not a non-empty tuple of \(tag, weight\)"),
    "parts_none": (["x"], {0: input_label("x"), 1: GateLabel("psum", c=QQ.of(1))}, {}, 1,
                   r"gate 1: parts None are not a non-empty tuple of \(tag, weight\)"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_constructor_rejects(case):
    variables, gates, wires, output, message = _MALFORMED[case]
    with pytest.raises(CircuitError, match=message):
        Circuit(QQ, variables, gates, wires, output)


@pytest.mark.parametrize("case", sorted(c for c in _MALFORMED if c.startswith("parts_")))
def test_builder_rejects_malformed_parts(case):
    variables, gates, wires, output, message = _MALFORMED[case]
    b = CircuitBuilder(QQ, variables)
    b.add(gates[0])
    with pytest.raises(CircuitError, match=message):
        b.build(b.add(gates[1], wires.get(1, ())))


@pytest.mark.parametrize("tag", [["a"], 7, ("a",)], ids=["list", "int", "tuple"])
def test_builder_refuses_a_tag_that_is_no_str(tag):
    # refused before the hash-cons key is hashed, naming the id the gate would get
    b = CircuitBuilder(QQ, ["x"])
    x = b.add(input_label("x"))
    with pytest.raises(CircuitError,
                       match=r"gate 1: child \(0, .*\) has a tag that is neither None nor a str"):
        b.add(ADD, [(x, tag)], name="bad")
    with pytest.raises(CircuitError, match="gate 1: child"):
        b.add(psum(QQ.of(1), {"a": QQ.of(1)}), [(x, "a"), (x + 1, tag)])
    assert b.names == {}
    assert b.add(ADD, [x]) == 1
    assert len(b.build(1)) == 2


_SHARED_PSUM = psum(QQ.of(1), {"a": QQ.of(1)})
_SHARED_X = input_label("x")

# One label object on a well-formed gate and on a later malformed one: each
# label is judged once per circuit, and the rules on wires still run per gate.
# (variables, gates, wires, output, message), as in _MALFORMED.
_SHARED_LABELS = {
    "not_with_two_children": (["x", "y"], {0: input_label("x"), 1: input_label("y"), 2: NOT,
                                           3: NOT, 4: OR},
                              {2: [0], 3: [0, 1], 4: [2, 3]}, 4,
                              "gate 3: not gate has 2 children"),
    "psum_tag_outside_parts": (["x"], {0: _SHARED_X, 1: _SHARED_PSUM, 2: _SHARED_PSUM, 3: OR},
                               {1: [(0, "a")], 2: [(0, "b")], 3: [1, 2]}, 3,
                               r"gate 2: wire from 0 has tag 'b' outside the parts \['a'\]"),
    "second_input_on_a_variable": (["x"], {0: _SHARED_X, 1: _SHARED_X, 2: ADD}, {2: [0, 1]}, 2,
                                   "gate 1: variable 'x' already labels gate 0"),
}


@pytest.mark.parametrize("case", sorted(_SHARED_LABELS))
def test_shared_label_still_judged_per_gate(case):
    variables, gates, wires, output, message = _SHARED_LABELS[case]
    with pytest.raises(CircuitError, match=message) as built_exc:
        Circuit(QQ, variables, gates, wires, output)
    doc = {"field": "Q", "variables": variables, "output": output,
           "gates": [{"id": g, "label": label_doc(lab),
                      "children": [{"id": w} if isinstance(w, int) else {"id": w[0], "tag": w[1]}
                                   for w in wires.get(g, [])]}
                     for g, lab in gates.items()]}
    with pytest.raises(SchemaError) as read_exc:
        deserialize(json.dumps(doc))
    assert (read_exc.value.path, str(read_exc.value)) == ("$.gates", f"$.gates: {built_exc.value}")


def test_label_rules_follow_each_label_object():
    # two labels sharing one parts tuple, the later one's target outside the field
    bad = GateLabel("psum", c=GF(5).of(1), parts=_SHARED_PSUM.parts)
    with pytest.raises(CircuitError, match="gate 2: target 1 is not in Q"):
        Circuit(QQ, ["x"], {0: _SHARED_X, 1: _SHARED_PSUM, 2: bad, 3: OR},
                {1: [(0, "a")], 2: [(0, "a")], 3: [1, 2]}, 3)
    # equal labels, one of them with a bool threshold (k=True == 1)
    assert GateLabel("th_ge", k=True) == th_ge(1)
    with pytest.raises(CircuitError, match="gate 2: threshold True is not an integer >= 0"):
        Circuit(QQ, ["x"], {0: _SHARED_X, 1: th_ge(1), 2: GateLabel("th_ge", k=True), 3: OR},
                {1: [0], 2: [0], 3: [1, 2]}, 3)


# Labels carrying a field their kind does not use, which serialize would
# drop: (label, children of gate 1 over input gate 0, message).
_STRAY_FIELDS = {
    "add_with_k": (GateLabel("add", k=3), [0], "gate 1: add label carries k, which its kind"),
    "input_with_value": (GateLabel("input", var="y", value=QQ.of(1)), [],
                         "gate 1: input label carries value"),
    "psum_with_k": (_SHARED_PSUM._replace(k=1), [(0, "a")], "gate 1: psum label carries k"),
}


@pytest.mark.parametrize("case", sorted(_STRAY_FIELDS))
def test_label_carries_only_its_kinds_fields(case):
    lab, kids, message = _STRAY_FIELDS[case]
    with pytest.raises(CircuitError, match=message):
        Circuit(QQ, ["x", "y"], {0: _SHARED_X, 1: lab}, {1: kids}, 1)
    b = CircuitBuilder(QQ, ["x", "y"])
    b.add(_SHARED_X)
    with pytest.raises(CircuitError, match=message):
        b.build(b.add(lab, kids))
    # after a well-formed label of the same kind (for psum, the same parts tuple)
    good = {"add": ADD, "input": input_label("y"), "psum": _SHARED_PSUM}[lab.kind]
    with pytest.raises(CircuitError, match=message.replace("gate 1", "gate 2")):
        Circuit(QQ, ["x", "y"], {0: _SHARED_X, 1: good, 2: lab, 3: OR},
                {1: kids, 2: kids, 3: [1, 2]}, 3)


def test_constructor_accepts_each_rule_satisfied():
    x = input_label("x")
    circuits = [
        (["x"], {0: x}, {}, 0),
        (["x"], {0: x, 1: NOT}, {1: [0]}, 1),
        (["x"], {0: x, 1: th_ge(0)}, {1: [0]}, 1),
        (["x"], {0: x, 1: psum(QQ.of(1), {"a": QQ.of(1)})}, {1: [(0, "a")]}, 1),
        # a parent may have a smaller id than its children
        (["x"], {0: ADD, 1: x, 2: const(QQ.of(2))}, {0: [2, 1]}, 0),
    ]
    for variables, gates, wires, output in circuits:
        c = Circuit(QQ, variables, gates, wires, output)
        assert c.topo_order()[-1] == output
        # ascending ids when every child precedes its parent, else Kahn's order
        assert list(c.topo_order()) == _kahn(c)


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


def test_label_repr_shows_its_kinds_fields():
    labels = [input_label("x"), const(QQ.of("-3/7")), th_ge(2),
              psum(QQ.of("1/2"), {"b": QQ.of(-3), "a": QQ.of(1)}), ADD]
    assert [repr(lab) for lab in labels] == [
        "input(x)", "const(-3/7)", "th_ge(2)",
        "psum(c=1/2, parts={'a': <1 in Q>, 'b': <-3 in Q>})", "add"]


def test_label_repr_shows_malformed_parts_as_they_are():
    # Circuit refuses these labels; repr still shows them, to debug them by
    assert repr(GateLabel("psum", c=QQ.of(1))) == "psum(c=1, parts=None)"
    assert repr(GateLabel("pprod", c=QQ.of(1), parts=(("a",),))) == "pprod(c=1, parts=(('a',),))"
    assert (repr(GateLabel("psum", c=QQ.of(1), parts=[("a", QQ.of(1))]))
            == "psum(c=1, parts=[('a', <1 in Q>)])")


def test_labels_hash_as_their_fields():
    assert th_eq(3) is th_eq(3) and th_ge(3) is th_ge(3)
    assert GateLabel("th_eq", k=3) == th_eq(3)
    assert hash(GateLabel("th_eq", k=3)) == hash(th_eq(3))
    parts = {"1": QQ.of(1), "2": QQ.of(2)}
    moved = psum(QQ.of(1), parts)._replace(c=QQ.of(3))
    assert moved == psum(QQ.of(3), parts)
    assert hash(moved) == hash(psum(QQ.of(3), parts))
    assert moved != psum(QQ.of(1), parts)
    # a raising call is not cached
    for _ in range(2):
        with pytest.raises(ValueError):
            th_ge(-1)
        with pytest.raises(ValueError):
            th_eq(-1)


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
    with pytest.raises(CircuitError, match="gate 1: wire from 0 has tag '9' outside the parts"):
        b.build(g)


def test_mixed_arith_bool_evaluation_guards():
    c = build_xy_sum()
    with pytest.raises(CircuitError):
        evaluate_bool(c, {"x": QQ.of(1), "y": QQ.of(1)})
    # 0/1 inputs pass the input check and reach the kind guard
    with pytest.raises(CircuitError, match="gate 2: label 'add' is not Boolean"):
        evaluate_bool(c, {"x": 1, "y": 0})


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


def test_serialize_round_trip():
    b = CircuitBuilder(GF(7), ["x", "y"])
    x = b.add(input_label("x"))
    y = b.add(input_label("y"))
    g = b.add(MUL, [x, y])
    s = b.add(ADD, [g, b.add(const(GF(7).of(3)))])
    c = b.build(s)
    c2 = deserialize(serialize(c))
    assert c2.field == GF(7)
    assert (c2.gates, c2.wires, c2.output) == (c.gates, c.wires, c.output)


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


def test_serialize_round_trip_threshold_stage():
    c = leverrier_det_circuit(2).circuit
    low = lower_to_partition_basis(c, {0}, value_sets(c, "compositional"))
    text = serialize(expand_to_threshold(low).circuit)
    assert '"th_eq"' in text and '"th_ge"' in text
    assert serialize(deserialize(text)) == text


def test_serialize_matches_oracle_on_escapes():
    # a variable and part tags that JSON must escape, fractional and F_p
    # constants, and both threshold kinds
    odd = 'q"b\\s\u00e9\x01'
    b = CircuitBuilder(QQ, [odd, "y"])
    x, y = b.add(input_label(odd)), b.add(input_label("y"))
    frac = b.add(const(QQ.of("-3/7")))
    s = b.add(psum(QQ.of("-3/7"), {odd: QQ.of("-3/7"), "\t": QQ.of(2)}),
              [(x, odd), (y, "\t"), (x, "\t"), (x, odd)])
    ge, eq = b.add(th_ge(2), [s, x, x]), b.add(th_eq(1), [s, y])
    rational = b.build(b.add(OR, [ge, eq, frac]))
    b = CircuitBuilder(GF(5), ["x"])
    x = b.add(input_label("x"))
    modular = b.build(b.add(MUL, [x, b.add(const(GF(5).of("-3/7"))), b.add(const(GF(5).of(4)))]))
    for c in (rational, modular):
        text = serialize(c)
        assert text == serialize_oracle(c)
        back = deserialize(text)
        assert (back.variables, back.gates, back.wires, back.output) == (
            c.variables, c.gates, c.wires, c.output)
    assert "\\u00e9" in serialize(rational) and "\\u0001" in serialize(rational)


# SHA-256 of the concatenated serialize texts of each generator family,
# frozen so that a change to the file format or to the generators' gate
# numbering shows
_FROZEN_STREAMS = {
    "det_Q_1_12": (lambda n: leverrier_det_circuit(n), range(1, 13),
                   "fdedde40fb7a1f783da3533f8633b58549fcdf92bc635ba871720bd3baba21de"),
    "det_F13_1_12": (lambda n: leverrier_det_circuit(n, GF(13), allow_positive_char=True),
                     range(1, 13),
                     "3b86625107ee18c8b8a4d5df208f62a49b5817d74a69ff751539efb918a340ed"),
    "perm_Q_1_8": (lambda n: ryser_perm_circuit(n), range(1, 9),
                   "01ee04574fa9735cce058336fee48e92e20ef6132a4fb58347ff6124239778e7"),
    "perm_F2_1_8": (lambda n: ryser_perm_circuit(n, GF(2)), range(1, 9),
                    "233c13dcdb6904fd6ad663aa6818890aae03f6572763e2ee1b7878a6d7bc43d6"),
    "perm_F3_1_8": (lambda n: ryser_perm_circuit(n, GF(3)), range(1, 9),
                    "5d839b6fdb1a469c4fe04cd69881c5efd9a3b37cac9b84c1595be628b33e6d6e"),
}


@pytest.mark.parametrize("family", sorted(_FROZEN_STREAMS))
def test_serialize_stream_is_frozen(family):
    make, sizes, digest = _FROZEN_STREAMS[family]
    stream = hashlib.sha256()
    for n in sizes:
        c = make(n).circuit
        text = serialize(c)
        stream.update(text.encode())
        back = deserialize(text)
        assert (back.gates, back.wires, back.output) == (c.gates, c.wires, c.output)
    assert stream.hexdigest() == digest


def test_deserialize_sorts_unusual_files_as_the_constructor_does():
    # gate ids out of topological order, children unsorted and repeated,
    # and one child read under two tags
    gates = {7: OR, 0: th_ge(2), 2: psum(QQ.of(2), {"a": QQ.of(1), "b": QQ.of(1)}),
             4: NOT, 9: input_label("x"), 1: input_label("y"), 3: const(QQ.of(1))}
    wires = {7: [4, 0], 0: [2, 9, 2, 3], 2: [(9, "b"), (1, "a"), (9, "a"), (1, "a")], 4: [1]}
    doc = {"field": "Q", "variables": ["x", "y"], "output": 7, "gates": [
        {"id": g, "label": label_doc(lab),
         "children": [{"id": w} if isinstance(w, int) else {"id": w[0], "tag": w[1]}
                      for w in wires.get(g, [])]}
        for g, lab in gates.items()]}
    built = Circuit(QQ, ["x", "y"], gates, wires, 7)
    read = deserialize(json.dumps(doc))
    assert (read.gates, read.wires, read.output) == (built.gates, built.wires, built.output)
    assert read.topo_order() == built.topo_order() != tuple(sorted(gates))
    assert read.wires[2] == ((1, "a"), (1, "a"), (9, "a"), (9, "b"))
    assert serialize(read) == serialize(built)
    # a child listed untagged and tagged sorts, and is refused, alike
    wires[2].append(9)
    doc["gates"][2]["children"].append({"id": 9})
    with pytest.raises(CircuitError) as built_exc:
        Circuit(QQ, ["x", "y"], gates, wires, 7)
    with pytest.raises(SchemaError) as read_exc:
        deserialize(json.dumps(doc))
    assert read_exc.value.path == "$.gates"
    assert str(built_exc.value) in str(read_exc.value)
    assert "wire from 9 has tag None outside the parts" in str(built_exc.value)


def test_deserialize_rejects_malformed():
    with pytest.raises(SchemaError):
        deserialize("{}")
    with pytest.raises(SchemaError):
        deserialize('{"schema_version": 1, "field": "Q"}')
    with pytest.raises(SchemaError, match="invalid JSON") as exc:
        deserialize('{"field": "Q",')
    assert exc.value.path == "$"
    with pytest.raises(SchemaError, match="variable ids must be strings") as exc:
        deserialize(json.dumps({"field": "Q", "variables": [3], "gates": [], "output": 0}))
    assert exc.value.path == "$.variables[0]"


@pytest.mark.parametrize("variables, output, path", [(["x", "x"], 1, "$.variables"),
                                                     (["x"], 5, "$.output")])
def test_deserialize_reports_constructor_refusals_at_their_field(variables, output, path):
    # the constructor's wording, at the JSON path of the field at fault
    gates = {0: const(QQ.of(1)), 1: input_label("x")}
    with pytest.raises(CircuitError) as built_exc:
        Circuit(QQ, variables, gates, {}, output)
    doc = {"field": "Q", "variables": variables, "output": output,
           "gates": [{"id": g, "label": label_doc(lab), "children": []} for g, lab in gates.items()]}
    with pytest.raises(SchemaError) as read_exc:
        deserialize(json.dumps(doc))
    assert (read_exc.value.path, str(read_exc.value)) == (path, f"{path}: {built_exc.value}")


@pytest.mark.parametrize("name, message", [("R", "unknown field 'R'"),
                                           ("Fp:4", "modulus 4 is not prime")])
def test_deserialize_rejects_unknown_fields(name, message):
    text = json.dumps({"field": name, "variables": [], "gates": [], "output": 0})
    with pytest.raises(SchemaError, match=message) as exc:
        deserialize(text)
    assert exc.value.path == "$.field"


def _threshold_doc() -> dict:
    """A th_ge(1) gate over input x, with a constant 0 gate before it."""
    return {"field": "Q", "variables": ["x"], "output": 2, "gates": [
        {"id": 0, "label": {"kind": "const", "value": "0"}, "children": []},
        {"id": 1, "label": {"kind": "input", "var": "x"}, "children": []},
        {"id": 2, "label": {"kind": "th_ge", "k": 1}, "children": [{"id": 1}]}]}


@pytest.mark.parametrize("path", ["$.gates[1].id", "$.gates[2].children[0].id",
                                  "$.output", "$.gates[2].label.k"])
def test_deserialize_rejects_booleans_as_integers(path):
    # JSON true loads as Python True, which equals 1; each field must
    # still be refused, naming its path
    doc = _threshold_doc()
    assert evaluate_bool(deserialize(json.dumps(doc)), {"x": 1}) == 1
    if path == "$.gates[1].id":
        doc["gates"][1]["id"] = True
    elif path == "$.gates[2].children[0].id":
        doc["gates"][2]["children"][0]["id"] = True
    elif path == "$.output":
        doc["output"] = True
    else:
        doc["gates"][2]["label"]["k"] = True
    with pytest.raises(SchemaError, match="expected int, got bool") as exc:
        deserialize(json.dumps(doc))
    assert exc.value.path == path


def _psum_doc() -> dict:
    """A psum gate over input x, tagged "a", with a constant 1 gate before it."""
    return {"field": "Q", "variables": ["x"], "output": 2, "gates": [
        {"id": 0, "label": {"kind": "const", "value": "1"}, "children": []},
        {"id": 1, "label": {"kind": "input", "var": "x"}, "children": []},
        {"id": 2, "label": {"kind": "psum", "c": "1", "parts": {"a": "1"}},
         "children": [{"id": 1, "tag": "a"}]}]}


_DROP = object()   # as a _MALFORMED_GATES value: delete the field

# One case per field of a gate entry: (keys from _psum_doc down to the
# field, its new value or _DROP, the SchemaError's path and message).
_MALFORMED_GATES = {
    "entry_not_an_object": (("gates", 1), [], "$.gates[1]", "expected object, got list"),
    "id_missing": (("gates", 1, "id"), _DROP, "$.gates[1].id", "missing"),
    "id_str": (("gates", 1, "id"), "1", "$.gates[1].id", "expected int, got str"),
    "id_bool": (("gates", 1, "id"), True, "$.gates[1].id", "expected int, got bool"),
    "id_duplicate": (("gates", 1, "id"), 0, "$.gates[1].id", "duplicate gate id 0"),
    "label_missing": (("gates", 1, "label"), _DROP, "$.gates[1].label", "missing"),
    "label_list": (("gates", 1, "label"), [], "$.gates[1].label", "expected dict, got list"),
    "kind_missing": (("gates", 1, "label", "kind"), _DROP, "$.gates[1].label.kind", "missing"),
    "kind_int": (("gates", 1, "label", "kind"), 3, "$.gates[1].label.kind",
                 "expected str, got int"),
    "var_int": (("gates", 1, "label", "var"), 3, "$.gates[1].label.var", "expected str, got int"),
    "value_int": (("gates", 0, "label", "value"), 1, "$.gates[0].label.value",
                  "expected str, got int"),
    "value_zero_denominator": (("gates", 0, "label", "value"), "1/0", "$.gates[0].label",
                               "Fraction(1, 0)"),
    "parts_list": (("gates", 2, "label", "parts"), [], "$.gates[2].label.parts",
                   "expected dict, got list"),
    "weight_not_a_number": (("gates", 2, "label", "parts", "a"), "x", "$.gates[2].label",
                            "Invalid literal for Fraction: 'x'"),
    "weight_list": (("gates", 2, "label", "parts", "a"), [], "$.gates[2].label.parts.a",
                    "expected str, got list"),
    "weight_float": (("gates", 2, "label", "parts", "a"), 1.5, "$.gates[2].label.parts.a",
                     "expected str, got float"),
    "weight_null": (("gates", 2, "label", "parts", "a"), None, "$.gates[2].label.parts.a",
                    "expected str, got NoneType"),
    "weight_int": (("gates", 2, "label", "parts", "a"), 1, "$.gates[2].label.parts.a",
                   "expected str, got int"),
    "weight_bool": (("gates", 2, "label", "parts", "a"), True, "$.gates[2].label.parts.a",
                    "expected str, got bool"),
    "children_missing": (("gates", 2, "children"), _DROP, "$.gates[2].children", "missing"),
    "children_dict": (("gates", 2, "children"), {}, "$.gates[2].children",
                      "expected list, got dict"),
    "child_int": (("gates", 2, "children", 0), 1, "$.gates[2].children[0]",
                  "expected object, got int"),
    "child_id_missing": (("gates", 2, "children", 0, "id"), _DROP, "$.gates[2].children[0].id",
                         "missing"),
    "child_id_float": (("gates", 2, "children", 0, "id"), 1.0, "$.gates[2].children[0].id",
                       "expected int, got float"),
    "child_id_bool": (("gates", 2, "children", 0, "id"), True, "$.gates[2].children[0].id",
                      "expected int, got bool"),
    "tag_int": (("gates", 2, "children", 0, "tag"), 7, "$.gates[2].children[0].tag",
                "tag must be a string"),
    "second_child_id_float": (("gates", 2, "children"), [{"id": 1, "tag": "a"}, {"id": 1.5}],
                              "$.gates[2].children[1].id", "expected int, got float"),
    "second_child_tag_int": (("gates", 2, "children"), [{"id": 1, "tag": "a"}, {"id": 0, "tag": 7}],
                             "$.gates[2].children[1].tag", "tag must be a string"),
    # the constructor's refusals, reported at $.gates
    "unknown_kind": (("gates", 2, "label", "kind"), "xor", "$.gates",
                     "gate 2: unknown label kind 'xor'"),
    "tag_on_add_wire": (("gates", 2, "label"), {"kind": "add"}, "$.gates",
                        "gate 2: wire from 1 has tag 'a', but only psum/pprod wires are tagged"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_GATES))
def test_deserialize_names_the_faulty_field(case):
    keys, value, path, message = _MALFORMED_GATES[case]
    doc = _psum_doc()
    obj = doc
    for key in keys[:-1]:
        obj = obj[key]
    if value is _DROP:
        del obj[keys[-1]]
    else:
        obj[keys[-1]] = value
    with pytest.raises(SchemaError) as exc:
        deserialize(json.dumps(doc))
    assert (exc.value.path, str(exc.value)) == (path, f"{path}: {message}")


# ---------------------------------------------------------------------------
# The cyclic collector is held off while whole structures are built


@pytest.fixture
def collections_in():
    """collections_in(routine, call): the cyclic-GC passes that start while
    routine's own body is on the stack during call(), counted through
    gc.callbacks with the collector on and threshold 1, so that every
    allocation the hold-off misses would collect.  The caller's thresholds
    and setting are restored afterwards."""
    thresholds, was_on = gc.get_threshold(), gc.isenabled()
    watched, passes = [None], []

    def seen(phase, _info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code is watched[0]:
                passes.append(frame.f_code.co_name)
                break
            frame = frame.f_back

    def count(routine, call):
        watched[0] = inspect.unwrap(routine).__code__
        passes.clear()
        call()
        watched[0] = None
        return len(passes)

    gc.callbacks.append(seen)
    gc.set_threshold(1)
    gc.enable()
    try:
        yield count
    finally:
        gc.callbacks.remove(seen)
        gc.set_threshold(*thresholds)
        (gc.enable if was_on else gc.disable)()


def test_whole_structure_builds_run_no_collection(collections_in):
    fld = GF(3)
    text = serialize(leverrier_det_circuit(6).circuit)
    perm = ryser_perm_circuit(3, fld).circuit
    low = lower_to_partition_basis(perm, {fld.zero()}, value_sets(perm, "exact"))
    det3 = leverrier_det_circuit(3).circuit
    lanes = dict.fromkeys(det3.variables, {QQ.zero(): 0b01, QQ.one(): 0b10})
    calls = [(deserialize, lambda: deserialize(text)),
             (leverrier_det_circuit, lambda: leverrier_det_circuit(6)),
             (expand_to_threshold, lambda: expand_to_threshold(low)),
             (arith_lane_values, lambda: arith_lane_values(det3, lanes, 2))]
    assert {f.__name__: collections_in(f, call) for f, call in calls} == \
        {f.__name__: 0 for f, _call in calls}


@pytest.fixture(params=[True, False], ids=["gc on", "gc off"])
def caller_gc(request):
    """The collector switched on or off for the test, the setting before
    it restored afterwards."""
    was_on = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_on else gc.disable)()


def test_hold_off_restores_the_callers_setting(caller_gc, monkeypatch):
    fld = GF(3)
    text = serialize(ryser_perm_circuit(2).circuit)
    perm = ryser_perm_circuit(3, fld).circuit
    low = lower_to_partition_basis(perm, {fld.zero()}, value_sets(perm, "exact"))
    det2 = leverrier_det_circuit(2).circuit
    returning = [lambda: deserialize(text), lambda: leverrier_det_circuit(3),
                 lambda: ryser_perm_circuit(3),
                 lambda: lower_to_partition_basis(perm, {fld.zero()}, value_sets(perm, "exact")),
                 lambda: expand_to_threshold(low),
                 lambda: arith_lane_values(det2, {v: {QQ.one(): 1} for v in det2.variables}, 1),
                 lambda: bool_lane_values(low.circuit, dict.fromkeys(perm.variables, 1), 1)]
    for call in returning:
        call()
        assert gc.isenabled() is caller_gc
    monkeypatch.setattr(lowering, "_LADDER_BUDGET", 1)
    raising = [(SchemaError, lambda: deserialize(text[:len(text) // 2])),
               (CircuitError, lambda: leverrier_det_circuit(0)),
               (CircuitError, lambda: ryser_perm_circuit(0)),
               (CircuitError, lambda: lower_to_partition_basis(low.circuit, {0}, None)),
               (BudgetExceededError, lambda: expand_to_threshold(low)),
               (CircuitError, lambda: arith_lane_values(det2, {}, 1)),
               (CircuitError, lambda: bool_lane_values(low.circuit, {}, 1))]
    for error, call in raising:
        with pytest.raises(error):
            call()
        assert gc.isenabled() is caller_gc
