"""Lowering arithmetic circuits to Boolean threshold circuits.

The translation asks, for an arithmetic circuit Phi and a finite accepting
set B, for a Boolean circuit that accepts a 0-1 assignment exactly when
Phi evaluates into B.  It proceeds in two symmetry-preserving steps:

1. lower_to_partition_basis: one Boolean gate (v, c) per arithmetic gate v
   and candidate value c, true iff v evaluates to c.  Internal gates are
   PartitionSum / PartitionProd gates whose tagged wires group the children
   gates (u, q) by the value q they assert.
2. expand_to_threshold: each partition gate is replaced by an OR of ANDs of
   exact-threshold gates, which computes the same function using only
   standard Boolean labels.  Part i of a gate reads its children through
   identity towers of height i.  There is one tower per child and height,
   ("tw", d, level), shared by every gadget that reads child d at that
   height, so the towers add no orbit larger than the child's own.

Both steps map gate names componentwise under a circuit automorphism, so
witnesses lift and orbit sizes are preserved.  The builder hash-conses, so
gates that come out equal (constants, threshold and AND gates of different
gadgets) are one gate under several names; lift maps every name, and the
aliases of one gate lift to one gate.

verify_lowering checks either step exhaustively on every 0-1 assignment.
It evaluates the Boolean circuit bit-sliced, each gate's values over a block
of up to 2^12 assignments held as the bits of one int, and compares them
with the arithmetic circuit's exact values on the same assignments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .circuit import (
    AND,
    NOT,
    OR,
    Circuit,
    CircuitBuilder,
    arith_gate_values,
    bool_lane_values,
    const,
    input_label,
    partition_rule,
    pprod,
    psum,
    th_eq,
)
from .errors import BudgetExceededError, CircuitError
from .field import QQ, Field, FieldValue
from .symmetry import Witness, orbits

_ARITH_KINDS = ("input", "const", "add", "mul")
_VEC_BUDGET = 10 ** 6
_BLOCK_BITS = 12   # verify_lowering evaluates up to 2^12 assignments at once


def _sorted_vals(vals) -> tuple:
    return tuple(sorted(set(vals), key=lambda v: v.sort_key()))


@dataclass
class ValueSetMap:
    sets: dict   # gate id -> tuple of FieldValue, sorted
    exact: bool


def _require_arith(circuit: Circuit):
    for g, lab in circuit.gates.items():
        if lab.kind not in _ARITH_KINDS:
            raise CircuitError(f"gate {g}: cannot lower label {lab!r}")


def _input_variables(circuit: Circuit, max_inputs: int) -> list:
    """The variables the circuit's input gates read, sorted."""
    variables = sorted({lab.var for lab in circuit.gates.values() if lab.kind == "input"})
    if len(variables) > max_inputs:
        raise BudgetExceededError(f"{len(variables)} inputs exceed budget {max_inputs}")
    return variables


def _zero_one_runs(circuit: Circuit, variables: list):
    """Yield the exact gate values on every 0-1 assignment of variables, in
    itertools.product order (the last variable changes fastest)."""
    fld = circuit.field
    bit_values = (fld.zero(), fld.one())
    for bits in itertools.product(bit_values, repeat=len(variables)):
        yield arith_gate_values(circuit, dict(zip(variables, bits)))


def value_sets(circuit: Circuit, mode: str = "compositional", max_inputs: int = 20) -> ValueSetMap:
    """Per-gate candidate value sets over 0-1 assignments.

    exact mode enumerates all assignments (the true Q_v); compositional mode
    folds Minkowski sums / product sets over children, a superset that only
    depends on the children's sets and is therefore symmetry-invariant.
    """
    _require_arith(circuit)
    fld = circuit.field
    if mode == "exact":
        seen = {g: set() for g in circuit.gates}
        for vals in _zero_one_runs(circuit, _input_variables(circuit, max_inputs)):
            for g, val in vals.items():
                seen[g].add(val)
        return ValueSetMap({g: _sorted_vals(vs) for g, vs in seen.items()}, exact=True)
    if mode != "compositional":
        raise CircuitError(f"unknown value-set mode {mode!r}")
    sets = {}
    for g in circuit.topo_order():
        lab = circuit.gates[g]
        if lab.kind == "input":
            sets[g] = _sorted_vals((fld.zero(), fld.one()))
        elif lab.kind == "const":
            sets[g] = (lab.value,)
        else:
            unit = fld.zero() if lab.kind == "add" else fld.one()
            acc = {unit}
            for c, _t in circuit.wires[g]:
                if lab.kind == "add":
                    acc = {a + b for a in acc for b in sets[c]}
                else:
                    acc = {a * b for a in acc for b in sets[c]}
            sets[g] = _sorted_vals(acc)
    return ValueSetMap(sets, exact=False)


@dataclass
class PartitionCircuit:
    circuit: Circuit
    gate_of: dict          # (v, c) -> gate id; also ("out",) -> output
    trivial: str | None    # "const1" | "const0" | None
    values: ValueSetMap

    def lift(self, witness: Witness) -> Witness:
        """Image of a witness of the source circuit: (v, c) -> (pi(v), c)."""
        pi = {}
        for name, g in self.gate_of.items():
            if name == ("out",):
                pi[g] = g
            else:
                v, c = name
                pi[g] = self.gate_of[(witness.pi[v], c)]
        return Witness(dict(witness.sigma), pi)


def lower_to_partition_basis(circuit: Circuit, accept, values: ValueSetMap) -> PartitionCircuit:
    """Boolean circuit true iff the arithmetic circuit evaluates into accept."""
    _require_arith(circuit)
    fld = circuit.field
    accept = {fld.of(a) for a in accept}
    out_set = set(values.sets[circuit.output])
    hits = out_set & accept
    if hits == out_set or not hits:
        b = CircuitBuilder(fld, circuit.variables)
        g = b.add(const(fld.one() if hits else fld.zero()))
        kind = "const1" if hits else "const0"
        return PartitionCircuit(b.build(g), {}, kind, values)

    b = CircuitBuilder(fld, circuit.variables)
    for v in circuit.topo_order():
        lab = circuit.gates[v]
        if lab.kind == "input":
            one = b.add(input_label(lab.var), name=(v, fld.one()))
            b.add(NOT, [one], name=(v, fld.zero()))
        elif lab.kind == "const":
            b.add(const(fld.one()), name=(v, lab.value))
        elif not circuit.wires[v]:
            # childless Add/Mul: value is the fold unit, so (v, unit) is true
            unit = fld.zero() if lab.kind == "add" else fld.one()
            b.add(const(fld.one()), name=(v, unit))
        else:
            parts = {}
            for u, _t in circuit.wires[v]:
                for q in values.sets[u]:
                    parts[str(q)] = q
            kids = [(b.names[(u, q)], str(q))
                    for u, _t in circuit.wires[v]
                    for q in values.sets[u]]
            make = psum if lab.kind == "add" else pprod
            for c in values.sets[v]:
                b.add(make(c, parts), kids, name=(v, c))
    out = b.add(OR, [b.names[(circuit.output, c)]
                     for c in values.sets[circuit.output] if c in accept],
                name=("out",))
    return PartitionCircuit(b.build(out), dict(b.names), None, values)


# ---------------------------------------------------------------------------
# Partition gadgets


@dataclass(frozen=True)
class GadgetSpec:
    """A partition-symmetric Boolean function: inputs come in parts named by
    tags (given in canonical order, which fixes tower heights 1..len(tags)),
    sizes[i] inputs in part i, accepted iff the per-part count vector of true
    inputs lies in accept."""
    tags: tuple
    sizes: tuple
    accept: frozenset  # of count tuples aligned with tags

    def __post_init__(self):
        if len(self.tags) != len(self.sizes):
            raise CircuitError("tags and sizes differ in length")
        if len(set(self.tags)) != len(self.tags):
            raise CircuitError("duplicate part tags")
        if any(s < 0 for s in self.sizes):
            raise CircuitError("negative part size")
        for vec in self.accept:
            if len(vec) != len(self.tags) or any(
                    not (0 <= k <= s) for k, s in zip(vec, self.sizes)):
                raise CircuitError(f"accept vector {vec} out of range")


def gadget_input_names(spec: GadgetSpec) -> dict:
    return {t: tuple(f"in_{t}_{i}" for i in range(1, s + 1))
            for t, s in zip(spec.tags, spec.sizes)}


def _emit_gadget(b: CircuitBuilder, g, parts: list, accept) -> int:
    """Emit the threshold gadget standing for partition gate g; return its OR.

    parts lists (tag, [(d, base), ...]) in canonical order.  Part i (from 1)
    reads each source gate d, built as gate base, through the identity tower
    ("tw", d, 1..i); every gadget that reads d at height i shares it.  accept
    holds the accepted count vectors, aligned with parts.
    """
    tops = []
    for height, (_t, kids) in enumerate(parts, start=1):
        part_tops = []
        for d, top in kids:
            for level in range(1, height + 1):
                top = b.add(AND, [top], ("tw", d, level))
            part_tops.append(top)
        tops.append(part_tops)
    accs = []
    for vec in sorted(accept):
        tes = [b.add(th_eq(k), part_tops, name=("te", g, vec, t))
               for (t, _kids), part_tops, k in zip(parts, tops, vec)]
        accs.append(b.add(AND, tes, name=("ac", g, vec)))
    return b.add(OR, accs, name=("d", g))


def gadget_for_partition_function(spec: GadgetSpec, fld: Field = QQ) -> Circuit:
    """OR over accepted vectors of AND over parts of exact-threshold gates,
    each part's inputs routed through an identity tower of that part's height.
    """
    names = gadget_input_names(spec)
    b = CircuitBuilder(fld, [n for t in spec.tags for n in names[t]])
    parts = []
    for t in spec.tags:
        ins = [b.add(input_label(n)) for n in names[t]]
        parts.append((t, [(g, g) for g in ins]))
    return b.build(_emit_gadget(b, "gadget", parts, spec.accept))


def accepting_vectors(kind: str, c: FieldValue, parts: dict, counts: dict) -> frozenset:
    """Count vectors over the parts realizing the sum / product equation.

    parts maps tag -> part value, counts maps tag -> number of wires; tags are
    taken in ascending part-value order, matching gadget tower heights.
    Each part's terms are tabled once; a depth-first walk over the parts
    carries the partial sum or product.
    """
    tags = sorted(parts, key=lambda t: parts[t].sort_key())
    total = 1
    for t in tags:
        total *= counts[t] + 1
        if total > _VEC_BUDGET:
            raise BudgetExceededError("part-count enumeration overflow")
    unit, term, combine = partition_rule(kind, c.field)
    tables = [[term(parts[t], k) for k in range(counts[t] + 1)] for t in tags]
    found = []

    def walk(i, acc, vec):
        if i == len(tables):
            if acc == c:
                found.append(vec)
            return
        for k, x in enumerate(tables[i]):
            walk(i + 1, combine(acc, x), vec + (k,))

    walk(0, unit, ())
    return frozenset(found)


@dataclass
class ExpandedCircuit:
    circuit: Circuit
    gate_of: dict   # ("copy" | "d", g) | ("tw", d, level) | ("te", g, vec, tag) | ("ac", g, vec) -> id
    source: Circuit

    def lift(self, witness: Witness) -> Witness:
        """Image of a witness of the partition circuit: every name's source
        gate (its second entry) maps through the witness, the rest stays."""
        p = witness.pi
        pi = {g: self.gate_of[(name[0], p[name[1]], *name[2:])]
              for name, g in self.gate_of.items()}
        return Witness(dict(witness.sigma), pi)


def expand_to_threshold(lowered: PartitionCircuit) -> ExpandedCircuit:
    """Replace every partition gate with its threshold gadget."""
    src = lowered.circuit
    b = CircuitBuilder(src.field, src.variables)
    image = {}   # source gate -> the gate standing for it: its copy or its gadget OR
    for g in src.topo_order():
        lab = src.gates[g]
        if lab.kind not in ("psum", "pprod"):
            kids = [(image[c], t) for c, t in src.wires[g]]
            image[g] = b.add(lab, kids, name=("copy", g))
            continue
        parts = lab.parts_map()
        tags = sorted(parts, key=lambda t: parts[t].sort_key())
        by_tag = {t: [] for t in tags}
        for w, t in src.wires[g]:
            by_tag[t].append((w, image[w]))
        counts = {t: len(by_tag[t]) for t in tags}
        vecs = accepting_vectors(lab.kind, lab.c, parts, counts)
        image[g] = _emit_gadget(b, g, [(t, by_tag[t]) for t in tags], vecs)
    return ExpandedCircuit(b.build(image[src.output]), dict(b.names), src)


# ---------------------------------------------------------------------------
# Checks


def _lane_pattern(s: int, bits: int) -> int:
    """Lanes 0..2^bits-1 whose index has bit s set, as one int."""
    run = 1 << s
    return int(("1" * run + "0" * run) * ((1 << bits) // (2 * run)), 2)


def verify_lowering(circuit: Circuit, accept, lowered_circuit: Circuit,
                    max_inputs: int = 20) -> bool:
    """True iff on every 0-1 assignment the Boolean circuit accepts exactly
    when the arithmetic circuit evaluates into accept.

    The Boolean circuit is evaluated bit-sliced over blocks of up to
    2^_BLOCK_BITS assignments: the fastest-changing variables of the 0-1
    driver's order are spread over the lanes, the others are constant in a
    block, and the expected accept mask comes from the driver's own runs.
    """
    _require_arith(circuit)
    accept = {circuit.field.of(a) for a in accept}
    variables = _input_variables(circuit, max_inputs)
    low = min(len(variables), _BLOCK_BITS)
    width = 1 << low
    full = (1 << width) - 1
    high = variables[:len(variables) - low]
    sliced = {v: _lane_pattern(s, low) for s, v in enumerate(reversed(variables[len(high):]))}
    runs = _zero_one_runs(circuit, variables)
    for bits in itertools.product((0, full), repeat=len(high)):
        want = 0
        for j, vals in zip(range(width), runs):
            if vals[circuit.output] in accept:
                want |= 1 << j
        lanes = dict(zip(high, bits)) | sliced
        if bool_lane_values(lowered_circuit, lanes, width)[lowered_circuit.output] != want:
            return False
    return True


@dataclass
class OrbitPreservationReport:
    orb_phi: int
    orb_d: int
    orb_c: int
    equal: bool


def orbit_preservation_check(circuit: Circuit, witnesses,
                             lowered: PartitionCircuit,
                             expanded: ExpandedCircuit) -> OrbitPreservationReport:
    """Lift witnesses through both passes and compare max orbit sizes."""
    if lowered.trivial is not None:
        raise CircuitError("orbit check needs a non-trivial lowering")
    orb_phi = orbits(circuit, witnesses).max_orbit   # rejects invalid witnesses
    lifted_d = [lowered.lift(w) for w in witnesses]
    lifted_c = [expanded.lift(w) for w in lifted_d]
    orb_d = orbits(lowered.circuit, lifted_d).max_orbit
    orb_c = orbits(expanded.circuit, lifted_c).max_orbit
    return OrbitPreservationReport(orb_phi, orb_d, orb_c,
                                   orb_phi == orb_d == orb_c)
