"""Property tests: lowering agrees with the source on random small circuits
and keeps the largest orbit of random symmetric ones."""

from __future__ import annotations

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from symcirc import (  # noqa: E402
    ADD,
    AND,
    GF,
    MUL,
    CircuitBuilder,
    PartitionCircuit,
    const,
    evaluate_bool,
    expand_to_threshold,
    input_label,
    lower_to_partition_basis,
    orbit_preservation_check,
    value_sets,
    verify_lowering,
)
from symcirc.circuit import pprod, psum  # noqa: E402
from test_lowering import one_gate  # noqa: E402
from test_symmetry_properties import symmetric_circuits  # noqa: E402

PRIMES = (2, 3, 5)


@st.composite
def small_circuits(draw):
    """An arithmetic circuit over F_p with at most four inputs, one constant
    and a few add/mul gates whose children are drawn from all earlier gates,
    so a child is often shared between parents."""
    fld = GF(draw(st.sampled_from(PRIMES)))
    nvars = draw(st.integers(1, 4))
    variables = [f"x{i}" for i in range(nvars)]
    b = CircuitBuilder(fld, variables)
    pool = [b.add(input_label(v)) for v in variables]
    pool.append(b.add(const(fld.of(draw(st.integers(0, fld.p - 1))))))
    for _ in range(draw(st.integers(1, 4))):
        kids = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=3))
        pool.append(b.add(draw(st.sampled_from((ADD, MUL))), sorted(kids)))
    accept = draw(st.sets(st.integers(0, fld.p - 1), min_size=1, max_size=fld.p - 1))
    return b.build(pool[-1]), {fld.of(a) for a in accept}


@settings(max_examples=50, deadline=None)
@given(small_circuits(), st.sampled_from(("compositional", "exact")))
def test_lowering_agrees_with_source(case, mode):
    circuit, accept = case
    low = lower_to_partition_basis(circuit, accept, value_sets(circuit, mode))
    assert verify_lowering(circuit, accept, low.circuit)
    if low.trivial is None:
        assert verify_lowering(circuit, accept, expand_to_threshold(low).circuit)


@settings(max_examples=300, deadline=None)
@given(symmetric_circuits(), st.sampled_from(("compositional", "exact")), st.data())
def test_lowering_preserves_orbits(case, mode, data):
    circuit, taus = case
    vs = value_sets(circuit, mode)
    out_values = vs.sets[circuit.output]
    hypothesis.assume(len(out_values) > 1)
    accept = data.draw(st.sets(st.sampled_from(out_values), min_size=1,
                               max_size=len(out_values) - 1))
    low = lower_to_partition_basis(circuit, accept, vs)
    exp = expand_to_threshold(low)
    assert not [g for g, lab in exp.circuit.gates.items()
                if lab == AND and len(exp.circuit.wires[g]) == 1]
    assert orbit_preservation_check(circuit, taus, low, exp).equal


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(PRIMES), st.sampled_from(("psum", "pprod")), st.data())
def test_gadget_matches_partition_gate(p, kind, data):
    fld = GF(p)
    values = data.draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=3))
    parts = {str(v): fld.of(v) for v in values}
    sizes = {t: data.draw(st.integers(0, 3)) for t in sorted(parts)}
    c = fld.of(data.draw(st.integers(0, p - 1)))
    label = (psum if kind == "psum" else pprod)(c, parts)
    direct, names = one_gate(label, sizes)
    flat = [v for ns in names.values() for v in ns]
    gadget = expand_to_threshold(PartitionCircuit(direct, None)).circuit
    for bits in itertools.product((0, 1), repeat=len(flat)):
        asg = dict(zip(flat, bits))
        assert evaluate_bool(gadget, asg) == evaluate_bool(direct, asg)
