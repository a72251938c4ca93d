"""Property tests: the extension pass is sound on random small circuits.

Every witness find_extension returns must pass verify_automorphism, which
the pass does not call itself, a circuit built to be symmetric under
variable involutions must yield a witness for each of them, and the pass
must agree with the backtracking search it replaced.  Gates may read a
child more than once.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from extension_oracle import Witness, fixing, search_extension, verify_automorphism  # noqa: E402
from symcirc import (  # noqa: E402
    ADD,
    GF,
    MUL,
    CircuitBuilder,
    const,
    find_extension,
    input_label,
)

LABELS = {"add": ADD, "mul": MUL}


def _image(name, tau):
    """The gate name that tau's automorphism maps `name` to."""
    if name[0] == "x":
        return ("x", tau.get(name[1], name[1]))
    if name[0] == "c":
        return name
    return (name[0], tuple(sorted((_image(c, tau) for c in name[1]), key=repr)))


def _involution(draw, variables):
    order = draw(st.permutations(variables))
    pairs = draw(st.integers(1, len(variables) // 2))
    tau = {}
    for a, b in zip(order[:pairs], order[pairs:2 * pairs]):
        tau[a], tau[b] = b, a
    return tau


@st.composite
def symmetric_circuits(draw):
    """A circuit over F_p and one or two variable involutions under which it
    is symmetric: every add/mul gate is emitted together with its images
    under the group they generate, and gates are named canonically by label
    and children, so a gate that the group fixes is emitted once.  The
    output adds up the orbit of the last gate, so the group fixes it too."""
    fld = GF(draw(st.sampled_from((2, 3, 5))))
    variables = [f"v{i}" for i in range(draw(st.integers(2, 5)))]
    taus = [_involution(draw, variables) for _ in range(draw(st.integers(1, 2)))]
    b = CircuitBuilder(fld, variables)
    for v in variables:
        b.add(input_label(v), name=("x", v))
    value = draw(st.integers(0, fld.p - 1))
    b.add(const(fld.of(value)), name=("c", value))
    pool = list(b.names)

    def emit(kind, kids):
        """Emit the orbit of gate (kind, kids) and return it."""
        orbit = [(kind, tuple(sorted(kids, key=repr)))]
        for name in orbit:
            if name not in b:
                b.add(LABELS[kind], [b[c] for c in name[1]], name=name)
                pool.append(name)
            for tau in taus:
                img = _image(name, tau)
                if img not in orbit:
                    orbit.append(img)
        return orbit

    orbit = None
    for _ in range(draw(st.integers(1, 4))):
        kids = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        orbit = emit(draw(st.sampled_from(sorted(LABELS))), kids)
    out = emit("add", orbit)
    return b.build(b[out[0]]), taus


@settings(max_examples=60, deadline=None)
@given(symmetric_circuits())
def test_symmetric_circuit_has_verified_witness(case):
    circuit, taus = case
    for tau in taus:
        pi = find_extension(circuit, tau)
        assert pi is not None
        assert verify_automorphism(circuit, Witness(tau, pi)) == []


@settings(max_examples=60, deadline=None)
@given(symmetric_circuits(), st.data())
def test_any_returned_witness_verifies(case, data):
    circuit, _ = case
    variables = circuit.variables
    sigma = dict(zip(variables, data.draw(st.permutations(variables))))
    pi = find_extension(circuit, sigma)
    if pi is not None:
        assert verify_automorphism(circuit, Witness(sigma, pi)) == []


@settings(max_examples=60, deadline=None)
@given(symmetric_circuits(), st.data())
def test_extension_matches_search(case, data):
    circuit, taus = case
    variables = circuit.variables
    sigma = data.draw(st.sampled_from(taus) | st.permutations(variables).map(
        lambda image: dict(zip(variables, image))))
    fix = data.draw(st.none() | st.sampled_from(sorted(circuit.gates)))
    assert fixing(find_extension(circuit, sigma), fix) == search_extension(circuit, sigma, fix)
