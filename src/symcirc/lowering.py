"""Lowering arithmetic circuits to Boolean threshold circuits.

The translation asks, for an arithmetic circuit Phi and a finite accepting
set B, for a Boolean circuit that accepts a 0-1 assignment exactly when
Phi evaluates into B.  It proceeds in two symmetry-preserving steps:

1. lower_to_partition_basis: one Boolean gate (v, c) per arithmetic gate v
   and candidate value c, true iff v evaluates to c.  Internal gates are
   PartitionSum / PartitionProd gates whose tagged wires group the children
   gates (u, q) by the value q they assert.
2. expand_to_threshold: each partition gate becomes a partial-sum ladder.
   With the parts in ascending value order, layer i has one gate per value
   s that parts 1..i can fold to and from which some target is still
   reachable: an OR over ANDs of th_eq(k) on part i and the layer i-1 gate
   at each s' that k inputs of part i extend to s, or that AND itself when
   it is the only one.  An identity part (psum weight 0, pprod weight 1)
   passes each s through one AND with th_ge(0) on its wires, which keeps
   the wires, and so the gadgets of different gates, apart.  Only the last
   layer depends on the target c, so the gates (v, c) sharing parts and
   wires share one ladder, prefix included, and (v, c)'s gadget is named
   by the last layer's gate at c: its OR, or its one edge's gate when it
   has one edge (an empty OR when it has none).  Ladders of one shape
   (kind, parts, wire count per tag, target set) share one plan per
   expansion.  Part i's threshold gates read the children's images
   directly, through one wire tuple.  The ladders of one expansion may have
   _LADDER_BUDGET AND gates, charged before pruning and per ladder, also
   when it reuses a plan.

The builder hash-conses, so both stages are rigid, and
orbit_preservation_check runs symmetry.orbits on the source and on each
stage with the source's variable permutations: a stage is symmetric under
the source's group exactly when each of them extends to it.  orbits closes
over the cached maps of the gates each extension moves, so the check's
cost follows the gates with a moved child.

One driver, _zero_one, evaluates the source exactly on every 0-1
assignment at once with one arith_lane_values call, each assignment one
lane of an int, and caches on the circuit every gate's exact value set, the
lanes and the output's {value: lanes}.  Exact value sets read the former;
verify_lowering checks either step exhaustively by evaluating the Boolean
circuit bit-sliced on the cached lanes in one bool_lane_values call and
comparing its output with the lanes where the source lands in the
accepting set, so an exact lowering verified on both stages enumerates the
source once.  Each evaluation holds a 2^inputs-bit mask per gate (per
value, on the source): 8 KB at 16 inputs, 128 KB at the 20-input limit.
On the partition stage, bool_lane_values folds each family of gates
(v, c) once, and each member reads the lanes where v takes c.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .circuit import (
    _ARITH_KINDS,
    AND,
    NOT,
    OR,
    Circuit,
    CircuitBuilder,
    GateLabel,
    _acyclic,
    arith_lane_values,
    bool_lane_values,
    const,
    input_label,
    partition_rule,
    partition_terms,
    th_eq,
    th_ge,
)
from .errors import BudgetExceededError, CircuitError
from .field import FieldValue
from .symmetry import orbits

_LADDER_BUDGET = 2 * 10 ** 5   # AND gates in all ladders of one expansion
_MAX_INPUTS = 20   # _zero_one evaluates at most 2^20 assignments, one lane each


def _sorted_vals(vals: dict) -> tuple:
    return tuple(sorted(vals, key=FieldValue.sort_key))


@dataclass
class ValueSetMap:
    sets: dict   # gate id -> tuple of FieldValue, sorted
    exact: bool


def _require_arith(circuit: Circuit):
    for g, lab in circuit.gates.items():
        if lab.kind not in _ARITH_KINDS:
            raise CircuitError(f"gate {g}: cannot lower label {lab!r}")


def _lane_pattern(s: int, bits: int) -> int:
    """Lanes 0..2^bits-1 whose index has bit s set, as one int."""
    run = 1 << s
    return int(("1" * run + "0" * run) * ((1 << bits) // (2 * run)), 2)


def _zero_one(circuit: Circuit) -> tuple:
    """(sets, lanes, width, out) from one arith_lane_values call on every
    0-1 assignment of the variables the input gates read, cached on the
    circuit.  Lane j of the width = 2^inputs lanes is assignment j in
    itertools.product order over the sorted variables (the last changes
    fastest): lanes maps each variable to its 0/1 lane int, sets maps each
    gate to the sorted tuple of values it takes, and out is the output's
    {value: lanes}.  A pass that raises caches nothing."""
    if circuit._zero_one is None:
        variables = sorted(circuit.inputs_by_var)
        if len(variables) > _MAX_INPUTS:
            raise BudgetExceededError(f"{len(variables)} inputs exceed budget {_MAX_INPUTS}")
        width = 1 << len(variables)
        full = (1 << width) - 1
        lanes = {v: _lane_pattern(s, len(variables)) for s, v in enumerate(reversed(variables))}
        zero, one = circuit.field.zero(), circuit.field.one()
        values = arith_lane_values(circuit, {v: {zero: full ^ m, one: m}
                                             for v, m in lanes.items()}, width)
        circuit._zero_one = ({g: _sorted_vals(vs) for g, vs in values.items()},
                             lanes, width, values[circuit.output])
    return circuit._zero_one


def value_sets(circuit: Circuit, mode: str = "compositional") -> ValueSetMap:
    """Per-gate candidate value sets over 0-1 assignments.

    exact mode collects the values of every 0-1 assignment (the true Q_v);
    compositional mode evaluates one lane on which every input is both 0
    and 1, so each gate gets the Minkowski sums / product sets of its
    children's sets, a superset that only depends on the children's sets
    and is therefore symmetry-invariant.
    """
    _require_arith(circuit)
    fld = circuit.field
    if mode == "exact":
        return ValueSetMap(dict(_zero_one(circuit)[0]), exact=True)
    if mode != "compositional":
        raise CircuitError(f"unknown value-set mode {mode!r}")
    both = {fld.zero(): 1, fld.one(): 1}
    values = arith_lane_values(circuit, dict.fromkeys(circuit.inputs_by_var, both), 1)
    return ValueSetMap({g: _sorted_vals(vs) for g, vs in values.items()}, exact=False)


@dataclass
class PartitionCircuit:
    circuit: Circuit
    trivial: str | None    # "const1" | "const0" | None


@_acyclic
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
        return PartitionCircuit(b.build(g), kind)

    b = CircuitBuilder(fld, circuit.variables)
    gate = {}   # (v, c) -> the gate true iff v evaluates to c
    for v in circuit.topo_order():
        lab = circuit.gates[v]
        if lab.kind == "input":
            one = gate[v, fld.one()] = b.add(input_label(lab.var))
            gate[v, fld.zero()] = b.add(NOT, [one])
        elif lab.kind == "const":
            gate[v, lab.value] = b.add(const(fld.one()))
        elif not circuit.wires[v]:
            # childless Add/Mul: value is the fold unit, so (v, unit) is true
            unit = fld.zero() if lab.kind == "add" else fld.one()
            gate[v, unit] = b.add(const(fld.one()))
        else:
            parts, kids = {}, []
            for u, _t in circuit.wires[v]:
                for q in values.sets[u]:
                    tag = str(q)
                    parts[tag] = q
                    kids.append((gate[u, q], tag))
            kind = "psum" if lab.kind == "add" else "pprod"
            parts = tuple(sorted(parts.items()))   # one parts tuple and one wire
            wires = tuple(sorted(kids))            # tuple for every member (v, c)
            for c in values.sets[v]:
                gate[v, c] = b._add(GateLabel(kind, c=c, parts=parts), wires)
    out = b.add(OR, [gate[circuit.output, c]
                     for c in values.sets[circuit.output] if c in accept])
    return PartitionCircuit(b.build(out), None)


# ---------------------------------------------------------------------------
# Partition gadgets


def _overdrawn() -> BudgetExceededError:
    return BudgetExceededError(f"partial-sum ladders need more than {_LADDER_BUDGET} AND gates")


def _ladder_edges(label: GateLabel, counts: dict, targets: frozenset, left: int) -> tuple:
    """Plan a ladder from its wire counts per tag: (layers, AND gates
    charged), layer i as (tag, threshold, counts read, {s: [(s', k), ...]})
    where the threshold gate of count k on part i carries s' to s.  It is
    th_eq(k) when combine(s', x) = s for x the k-th term of part i
    (partition_terms).  An identity part keeps every s' whatever its count,
    so its one edge per s' reads th_ge(0).  The forward plan charges one
    AND gate per edge past layer 1 and raises BudgetExceededError once the
    charge passes left; a backward pass then keeps, per layer, the sums
    from which some target is reachable, and the counts their edges read."""
    unit, combine = partition_rule(label.kind, label.c.field)
    parts = label.parts_map()
    tags = sorted(parts, key=lambda t: parts[t].sort_key())
    layers = []
    reached = (unit,)
    charged = 0
    for i, t in enumerate(tags, start=1):
        identity = parts[t] == unit
        terms = [unit] if identity else partition_terms(unit, combine, parts[t], counts[t])
        edges = {}
        for k, x in enumerate(terms):
            for s0 in reached:
                # terms[0] is unit, and layer 1 extends unit alone
                s = s0 if k == 0 else x if i == 1 else combine(s0, x)
                if i < len(tags) or s in targets:
                    edges.setdefault(s, []).append((s0, k))
                    charged += i > 1   # layer 1 reads its thresholds without AND gates
            if charged > left:
                raise _overdrawn()
        layers.append((t, th_ge if identity else th_eq, edges))
        reached = edges
    keep = targets
    for i in reversed(range(len(layers))):
        t, threshold, edges = layers[i]
        edges = {s: pairs for s, pairs in edges.items() if s in keep}
        read = sorted({k for pairs in edges.values() for _s0, k in pairs})
        layers[i] = (t, threshold, read, edges)
        keep = {s0 for pairs in edges.values() for s0, _k in pairs}
    return layers, charged


def _pair(x: int, y: int) -> tuple:
    """The wire tuple of a gate reading x and y, as _gate_wires sorts it."""
    return ((x, None), (y, None)) if x <= y else ((y, None), (x, None))


def _untagged(ids: list) -> tuple:
    """The wire tuple of a gate reading the ids, as _gate_wires sorts it."""
    return tuple([(c, None) for c in sorted(ids)])


@dataclass
class ExpandedCircuit:
    circuit: Circuit
    # ("copy", g) per non-partition gate g of the partition stage and ("d", m)
    # per psum/pprod gate m -> the gate standing for it; m's gadget is named
    # by its OR, or by its one edge's gate; other ladder gates are unnamed
    gate_of: dict


@_acyclic
def expand_to_threshold(lowered: PartitionCircuit) -> ExpandedCircuit:
    """Replace every partition gate with its ladder.  A family of gates
    sharing kind, parts and wires gets one, built at its first member in
    topological order, and the families of one shape (kind, parts, wire
    count per tag, target set) share one plan; the AND-gate budget is
    charged per family all the same.  In every layer, a sum is the OR over
    its edges, or that edge's gate when it has one; member m's gadget
    ("d", m) is the last layer's gate at its target, or an empty OR when
    the target has no edge.  All ladders are planned first, so
    BudgetExceededError comes before anything is built."""
    src = lowered.circuit
    families = {}   # (kind, parts, wires) -> members, then (members, layers)
    for g in src.topo_order():
        lab = src.gates[g]
        if lab.kind in ("psum", "pprod"):
            families.setdefault((lab.kind, lab.parts, src.wires[g]), []).append(g)
    plans = {}   # (kind, parts, counts, targets) -> (layers, AND gates charged)
    left = _LADDER_BUDGET
    for key, members in families.items():
        kind, parts, wires = key
        counts = Counter(t for _w, t in wires)
        targets = frozenset(src.gates[m].c for m in members)
        shape = (kind, parts, tuple(sorted(counts.items())), targets)
        if shape not in plans:
            plans[shape] = _ladder_edges(src.gates[members[0]], counts, targets, left)
        layers, charged = plans[shape]
        left -= charged
        if left < 0:
            raise _overdrawn()
        families[key] = (members, layers)
    b = CircuitBuilder(src.field, src.variables)
    image = {}   # source gate -> the gate standing for it: its copy or its gadget
    for g in src.topo_order():
        lab = src.gates[g]
        if lab.kind not in ("psum", "pprod"):
            image[g] = b.add(lab, [(image[c], t) for c, t in src.wires[g]])
        elif g not in image:
            members, layers = families[(lab.kind, lab.parts, src.wires[g])]
            by_tag = {t: [] for t, *_ in layers}
            for d, tag in src.wires[g]:
                by_tag[tag].append(image[d])
            layer = {}
            for i, (t, threshold, read, edges) in enumerate(layers, start=1):
                kids = _untagged(by_tag[t])   # one wire tuple for the part's thresholds
                tes = {k: b._add(threshold(k), kids) for k in read}
                ins = {s: [tes[k] if i == 1 else b._add(AND, _pair(tes[k], layer[s0]))
                           for s0, k in pairs]
                       for s, pairs in edges.items()}
                layer = {s: ws[0] if len(ws) == 1 else b._add(OR, _untagged(ws))
                         for s, ws in ins.items()}
            for m in members:
                h = layer.get(src.gates[m].c)
                image[m] = b.add(OR, []) if h is None else h
    gate_of = {("d" if src.gates[g].kind in ("psum", "pprod") else "copy", g): h
               for g, h in image.items()}
    return ExpandedCircuit(b.build(image[src.output]), gate_of)


# ---------------------------------------------------------------------------
# Checks


def verify_lowering(circuit: Circuit, accept, lowered_circuit: Circuit) -> bool:
    """True iff on every 0-1 assignment the Boolean circuit accepts exactly
    when the arithmetic circuit evaluates into accept.

    Both circuits are evaluated once on the same lanes, the source's from
    its cached pass (_zero_one): the expected accept mask is the OR of the
    source output's lane masks at accepted values, and the Boolean output's
    lanes must equal it.
    """
    _require_arith(circuit)
    accept = frozenset(circuit.field.of(a) for a in accept)
    _sets, lanes, width, out = _zero_one(circuit)
    want = 0
    for val, m in out.items():
        if val in accept:
            want |= m
    return bool_lane_values(lowered_circuit, lanes, width)[lowered_circuit.output] == want


@dataclass
class OrbitPreservationReport:
    orb_phi: int
    orb_d: int
    orb_c: int
    equal: bool


def orbit_preservation_check(circuit: Circuit, witnesses,
                             lowered: PartitionCircuit,
                             expanded: ExpandedCircuit) -> OrbitPreservationReport:
    """Max orbit sizes of the source and of both stages under the group the
    variable permutations witnesses generate, each from orbits.  A source
    permutation without an extension raises CircuitError, and so does a
    stage without an extension of one of them, naming the stage."""
    if lowered.trivial is not None:
        raise CircuitError("orbit check needs a non-trivial lowering")
    sizes = [orbits(circuit, witnesses).max_orbit]
    for stage, lowered_circuit in (("partition", lowered.circuit),
                                   ("threshold", expanded.circuit)):
        try:
            sizes.append(orbits(lowered_circuit, witnesses).max_orbit)
        except CircuitError as exc:
            raise CircuitError(f"the {stage} stage has no extension of the "
                               f"source's group: {exc}") from exc
    return OrbitPreservationReport(*sizes, sizes[0] == sizes[1] == sizes[2])
