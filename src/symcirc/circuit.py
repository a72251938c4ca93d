"""Circuit intermediate representation.

A circuit is a labelled DAG with unbounded fan-in and a single designated
output gate.  Wires are sorted multisets of (child, tag) pairs: a child
listed twice counts twice, so x*x is one mul gate reading x twice.  Tags are
only meaningful on the partition-counting labels; everywhere else they must
be absent.  CircuitBuilder hash-conses gates on (label, children), so the
circuits it builds are rigid: no two gates share a label and children.

Two evaluation semantics share the representation: exact field evaluation
(input/const/add/mul) and Boolean evaluation (input, 0/1 constants, and/or/not,
thresholds, and the partition-counting gates used by the lowering).  Both
evaluate many assignments (lanes) at once, with ints as lane masks: a
Boolean gate's value is one mask, an arithmetic gate's a map from each
value it takes to the mask of lanes where it takes it.
"""

from __future__ import annotations

import heapq
import json
import operator
import random
from dataclasses import dataclass

from .errors import CircuitError, FieldMismatchError, SchemaError
from .field import QQ, Field, FieldValue

_ARITH_KINDS = {"input", "const", "add", "mul"}
_BOOL_KINDS = {"input", "const", "and", "or", "not", "th_ge", "th_eq", "psum", "pprod"}
_KINDS = _ARITH_KINDS | _BOOL_KINDS


@dataclass(frozen=True)
class GateLabel:
    kind: str
    var: str | None = None            # input
    value: FieldValue | None = None   # const
    k: int | None = None              # th_ge / th_eq
    c: FieldValue | None = None       # psum / pprod target
    parts: tuple[tuple[str, FieldValue], ...] | None = None  # tag -> weight, sorted by tag

    def parts_map(self) -> dict:
        return dict(self.parts or ())

    def __repr__(self) -> str:
        if self.kind == "input":
            return f"input({self.var})"
        if self.kind == "const":
            return f"const({self.value})"
        if self.kind in ("th_ge", "th_eq"):
            return f"{self.kind}({self.k})"
        if self.kind in ("psum", "pprod"):
            return f"{self.kind}(c={self.c}, parts={dict(self.parts)})"
        return self.kind


def input_label(var: str) -> GateLabel:
    return GateLabel("input", var=var)


def const(value: FieldValue) -> GateLabel:
    return GateLabel("const", value=value)


ADD = GateLabel("add")
MUL = GateLabel("mul")
AND = GateLabel("and")
OR = GateLabel("or")
NOT = GateLabel("not")


def th_ge(k: int) -> GateLabel:
    if k < 0:
        raise ValueError("threshold must be >= 0")
    return GateLabel("th_ge", k=k)


def th_eq(k: int) -> GateLabel:
    if k < 0:
        raise ValueError("threshold must be >= 0")
    return GateLabel("th_eq", k=k)


def _parts_tuple(parts: dict) -> tuple:
    if not parts:
        raise ValueError("partition label needs at least one part")
    return tuple(sorted(parts.items()))


def psum(c: FieldValue, parts: dict) -> GateLabel:
    return GateLabel("psum", c=c, parts=_parts_tuple(parts))


def pprod(c: FieldValue, parts: dict) -> GateLabel:
    return GateLabel("pprod", c=c, parts=_parts_tuple(parts))


def _child_key(ch):
    cid, tag = ch
    return (cid, "" if tag is None else tag)


def _wire_tuple(children) -> tuple:
    """Children (ids or (id, tag) pairs) as a sorted multiset of pairs."""
    return tuple(sorted(((c, None) if isinstance(c, int) else (c[0], c[1])
                         for c in children), key=_child_key))


class Circuit:
    """Immutable labelled DAG.  Mutating after construction is not supported;
    derived adjacency data is cached on the instance."""

    def __init__(self, fld: Field, variables, gates: dict, wires: dict, output: int):
        self.field = fld
        self.variables = tuple(variables)
        self.gates = dict(gates)
        norm = {}
        for g in self.gates:
            norm[g] = _wire_tuple(wires.get(g, ()))
        for g in wires:
            if g not in self.gates:
                raise CircuitError(f"wires reference unknown gate {g}")
        self.wires = norm
        self.output = output
        self._parents = None
        self._topo = None
        self._inputs_by_var = None

    def children(self, g: int):
        return self.wires[g]

    def parents(self) -> dict:
        """Map gate -> its (parent, tag) pairs, one per wire; wires to
        children that are not gates are skipped."""
        if self._parents is None:
            par = {g: [] for g in self.gates}
            for g, ws in self.wires.items():
                for c, tag in ws:
                    if c in par:
                        par[c].append((g, tag))
            self._parents = {g: tuple(sorted(ps, key=_child_key)) for g, ps in par.items()}
        return self._parents

    def topo_order(self):
        """Children-first order; raises CircuitError on a wire to a missing
        child or on a cycle."""
        if self._topo is None:
            missing = next(_missing_children(self), None)
            if missing is not None:
                raise CircuitError("gate {}: child {} does not exist".format(*missing))
            order = _kahn(self)
            if len(order) != len(self.gates):
                stuck = sorted(set(self.gates) - set(order))
                raise CircuitError(f"cycle through gates {stuck[:8]}")
            self._topo = tuple(order)
        return self._topo

    def inputs_by_var(self) -> dict:
        """Map variable -> its input gate; raises if a variable labels two gates."""
        if self._inputs_by_var is None:
            out = {}
            for g, lab in self.gates.items():
                if lab.kind == "input":
                    if lab.var in out:
                        raise CircuitError(f"variable {lab.var} labels gates {out[lab.var]} and {g}")
                    out[lab.var] = g
            self._inputs_by_var = out
        return self._inputs_by_var

    def __len__(self):
        return len(self.gates)


def _missing_children(circuit: Circuit):
    """Yield (gate, child) for every wire to a child that is not a gate."""
    for g, ws in circuit.wires.items():
        for c, _t in ws:
            if c not in circuit.gates:
                yield g, c


def _kahn(circuit: Circuit) -> list:
    """Kahn's algorithm, least ready gate first: the gates in children-first
    order, wires to missing children skipped; gates on a cycle, or above
    one, are left out."""
    parents = circuit.parents()
    indeg = {g: sum(c in parents for c, _t in ws) for g, ws in circuit.wires.items()}
    ready = [g for g, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        g = heapq.heappop(ready)
        order.append(g)
        for p, _t in parents[g]:
            indeg[p] -= 1
            if indeg[p] == 0:
                heapq.heappush(ready, p)
    return order


class CircuitBuilder:
    """Incremental, hash-consing construction with optional structured gate
    names.  Several names may alias one gate."""

    def __init__(self, fld: Field, variables):
        self.field = fld
        self.variables = list(variables)
        self.gates = {}
        self.wires = {}
        self.names = {}
        self._made = {}   # (label, wire tuple) -> gate

    def add(self, label: GateLabel, children=(), name=None) -> int:
        """The gate with this label and children, made on first request.
        A name aliases the gate; naming a different gate with a name already
        in use raises ValueError."""
        key = (label, _wire_tuple(children))
        g = self._made.get(key, len(self.gates))
        if name is not None and self.names.get(name, g) != g:
            raise ValueError(f"duplicate gate name {name!r}")
        if g == len(self.gates):
            self._made[key] = g
            self.gates[g], self.wires[g] = key
        if name is not None:
            self.names[name] = g
        return g

    def __getitem__(self, name) -> int:
        return self.names[name]

    def __contains__(self, name) -> bool:
        return name in self.names

    def build(self, output) -> Circuit:
        out = output if isinstance(output, int) else self.names[output]
        return Circuit(self.field, self.variables, self.gates, self.wires, out)


@dataclass
class Diagnostic:
    code: str
    gate: int | None
    message: str

    def __str__(self):
        where = "circuit" if self.gate is None else f"gate {self.gate}"
        return f"[{self.code}] {where}: {self.message}"


def validate(circuit: Circuit) -> list:
    """Structural diagnostics; an empty list means the invariants hold."""
    probs = []
    gates = circuit.gates
    if circuit.output not in gates:
        probs.append(Diagnostic("output", None, f"output {circuit.output} is not a gate"))
    for g, c in _missing_children(circuit):
        probs.append(Diagnostic("wire", g, f"child {c} does not exist"))
    order = _kahn(circuit)
    if len(order) != len(gates):
        stuck = sorted(set(gates) - set(order))
        for g in stuck[:4]:
            probs.append(Diagnostic("cycle", g, "gate lies on a cycle"))
    for g, lab in sorted(gates.items()):
        ws = circuit.wires[g]
        if lab.kind not in _KINDS:
            probs.append(Diagnostic("label", g, f"unknown kind {lab.kind!r}"))
            continue
        if lab.kind in ("input", "const") and ws:
            probs.append(Diagnostic("arity", g, f"{lab.kind} gate has children"))
        if lab.kind == "not" and len(ws) != 1:
            probs.append(Diagnostic("arity", g, f"not gate has fan-in {len(ws)}"))
        if lab.kind == "input" and lab.var not in circuit.variables:
            probs.append(Diagnostic("var", g, f"variable {lab.var!r} not declared"))
        if lab.kind == "const" and lab.value.field != circuit.field:
            probs.append(Diagnostic("field", g, "constant from a different field"))
        if lab.kind in ("th_ge", "th_eq") and lab.k < 0:
            probs.append(Diagnostic("label", g, "negative threshold"))
        if lab.kind in ("psum", "pprod"):
            tags = {t for t, _q in lab.parts}
            for q in (w for _t, w in lab.parts):
                if q.field != circuit.field:
                    probs.append(Diagnostic("field", g, "part weight from a different field"))
            if lab.c.field != circuit.field:
                probs.append(Diagnostic("field", g, "target from a different field"))
            for c, tag in ws:
                if tag is None or tag not in tags:
                    probs.append(Diagnostic("tag", g, f"wire from {c} has tag {tag!r} outside parts"))
        else:
            for c, tag in ws:
                if tag is not None:
                    probs.append(Diagnostic("tag", g, f"tag {tag!r} on a non-partition gate"))
    return probs


def arith_lane_values(circuit: Circuit, lanes: dict, width: int) -> dict:
    """Exact values of every gate over width lanes at once, each gate's as
    {value: lane mask}: bit j of a mask is set iff the gate takes that value
    on lane j.  Empty masks are dropped.

    lanes maps each variable to its own {value: mask}.  An add or mul gate
    folds its children from the first child's map, one child at a time,
    giving combine(a, b) the lanes where both a and b hold.  When every lane
    of a variable holds exactly one value, that is plain evaluation on each
    lane; a variable holding several values on one lane yields, on that
    lane, every value any choice of them gives (Minkowski sums and product
    sets).
    """
    fld = circuit.field
    full = (1 << width) - 1
    vals = {}
    for g in circuit.topo_order():
        lab = circuit.gates[g]
        kind = lab.kind
        if kind == "add" or kind == "mul":
            ws = circuit.wires[g]
            combine = operator.add if kind == "add" else operator.mul
            acc = vals[ws[0][0]] if ws else {fld.zero() if kind == "add" else fld.one(): full}
            for c, _t in ws[1:]:
                kid = vals[c]
                nxt = {}
                for a, ma in acc.items():
                    for b, mb in kid.items():
                        m = ma & mb
                        if m:
                            s = combine(a, b)
                            nxt[s] = nxt[s] | m if s in nxt else m
                acc = nxt
        elif kind == "input":
            try:
                given = lanes[lab.var]
            except KeyError:
                raise CircuitError(f"missing variable {lab.var!r}") from None
            acc = {}
            for v, m in given.items():
                if not isinstance(v, FieldValue) or v.field != fld:
                    raise FieldMismatchError(f"assignment for {lab.var!r} is not in {fld.name()}")
                if m:
                    acc[v] = m
        elif kind == "const":
            if lab.value.field != fld:
                raise FieldMismatchError(f"gate {g}: constant outside {fld.name()}")
            acc = {lab.value: full}
        else:
            raise CircuitError(f"gate {g}: label {kind!r} is not arithmetic")
        vals[g] = acc
    return vals


def evaluate_arith(circuit: Circuit, assignment: dict) -> FieldValue:
    """Exact value of the output under a variable assignment."""
    # None stands for a value that is no field element (it may be unhashable);
    # arith_lane_values rejects it once an input reads it
    lanes = {v: {x if isinstance(x, FieldValue) else None: 1} for v, x in assignment.items()}
    [value] = arith_lane_values(circuit, lanes, 1)[circuit.output]
    return value


def partition_rule(kind: str, fld: Field):
    """The psum / pprod rule as (unit, term, combine): a gate with weights
    q_i and per-part counts k_i folds combine over term(q_i, k_i) from unit,
    that is sum(k_i * q_i) for psum and prod(q_i ** k_i) for pprod."""
    if kind == "psum":
        return fld.zero(), FieldValue.scaled, operator.add
    return fld.one(), FieldValue.power, operator.mul


def partition_hits(kind: str, c: FieldValue, weights, counts) -> bool:
    """True iff the per-part counts (aligned with weights) hit the target c."""
    acc, term, combine = partition_rule(kind, c.field)
    for q, k in zip(weights, counts):
        acc = combine(acc, term(q, k))
    return acc == c


def _lane_add(planes: list, x: int):
    """Add the 0/1 lanes of x to the bit-sliced counter planes (low bit
    first) by ripple carry."""
    for i, p in enumerate(planes):
        if not x:
            return
        planes[i], x = p ^ x, p & x
    if x:
        planes.append(x)


def _lane_compare(planes: list, k: int, full: int):
    """(lanes whose count exceeds k, lanes whose count equals k)."""
    if k >> len(planes):
        return 0, 0
    gt, eq = 0, full
    for i in reversed(range(len(planes))):
        if k >> i & 1:
            eq &= planes[i]
        else:
            gt |= eq & planes[i]
            eq &= ~planes[i]
    return gt, eq


def _lane_counts(planes: list, mask: int) -> list:
    """[(count, lanes of mask with that count)] for every count that occurs
    in some lane of mask."""
    groups = [(0, mask)]
    for i, p in enumerate(planes):
        split = []
        for k, m in groups:
            if m & ~p:
                split.append((k, m & ~p))
            if m & p:
                split.append((k | 1 << i, m & p))
        groups = split
    return groups


def bool_lane_values(circuit: Circuit, lanes: dict, width: int) -> dict:
    """Bit-sliced 0/1 value of every gate over width assignments at once.

    lanes maps each variable to an int whose bit j is its value on
    assignment j; every gate's value comes back in the same layout.  A
    threshold gate counts its children with a bit-sliced counter; a
    partition gate keeps one counter per part and applies partition_hits
    once per count vector that occurs in some lane.
    """
    full = (1 << width) - 1
    vals = {}
    for g in circuit.topo_order():
        lab = circuit.gates[g]
        kind = lab.kind
        ws = circuit.wires[g]
        if kind == "and":
            acc = full
            for c, _t in ws:
                acc &= vals[c]
        elif kind == "or":
            acc = 0
            for c, _t in ws:
                acc |= vals[c]
        elif kind == "not":
            acc = full ^ vals[ws[0][0]]
        elif kind in ("th_ge", "th_eq"):
            planes = []
            for c, _t in ws:
                _lane_add(planes, vals[c])
            gt, eq = _lane_compare(planes, lab.k, full)
            acc = eq if kind == "th_eq" else gt | eq
        elif kind in ("psum", "pprod"):
            slot = {t: i for i, (t, _q) in enumerate(lab.parts)}
            counters = [[] for _ in slot]
            for c, tag in ws:
                _lane_add(counters[slot[tag]], vals[c])
            vectors = [((), full)]
            for planes in counters:
                vectors = [(vec + (k,), m & mk)
                           for vec, m in vectors
                           for k, mk in _lane_counts(planes, m)]
            weights = [q for _t, q in lab.parts]
            acc = 0
            for vec, m in vectors:
                if partition_hits(kind, lab.c, weights, vec):
                    acc |= m
        elif kind == "input":
            try:
                acc = lanes[lab.var]
            except KeyError:
                raise CircuitError(f"missing variable {lab.var!r}") from None
            if not (isinstance(acc, int) and 0 <= acc <= full):
                raise CircuitError(f"variable {lab.var!r} must be 0 or 1 in every lane")
        elif kind == "const":
            if lab.value.is_zero():
                acc = 0
            elif lab.value.is_one():
                acc = full
            else:
                raise CircuitError(f"gate {g}: constant {lab.value} is not a bit")
        else:
            raise CircuitError(f"gate {g}: label {kind!r} is not Boolean")
        vals[g] = acc
    return vals


def evaluate_bool(circuit: Circuit, assignment: dict) -> int:
    """0/1 value of the output under a 0/1 variable assignment."""
    lanes = {v: int(x) if x in (0, 1) else x for v, x in assignment.items()}
    return bool_lane_values(circuit, lanes, 1)[circuit.output]


@dataclass
class SizeStats:
    gates: int
    wires: int
    depth: int
    by_kind: dict


def size_stats(circuit: Circuit) -> SizeStats:
    by_kind = {}
    for lab in circuit.gates.values():
        by_kind[lab.kind] = by_kind.get(lab.kind, 0) + 1
    depth = {}
    best = 0
    for g in circuit.topo_order():
        ws = circuit.wires[g]
        depth[g] = 0 if not ws else 1 + max(depth[c] for c, _t in ws)
        best = max(best, depth[g])
    nwires = sum(len(ws) for ws in circuit.wires.values())
    return SizeStats(len(circuit.gates), nwires, best, dict(sorted(by_kind.items())))


@dataclass
class RandomCompareResult:
    consistent: bool
    counterexample: dict | None
    trials: int


def compare_by_random_eval(c1: Circuit, c2: Circuit, trials: int = 20, seed: int = 1729) -> RandomCompareResult:
    """Probabilistic polynomial-identity check on shared variables.

    Rationals draw integer points from [-10^6, 10^6]; F_p draws uniformly.
    Agreement on all trials is evidence, not proof, of identity.
    """
    if c1.field != c2.field:
        raise FieldMismatchError("circuits live over different fields")
    if set(c1.variables) != set(c2.variables):
        raise CircuitError("circuits have different variable spaces")
    rng = random.Random(seed)
    fld = c1.field
    for t in range(trials):
        if fld.p is None:
            asg = {v: fld.of(rng.randint(-(10 ** 6), 10 ** 6)) for v in c1.variables}
        else:
            asg = {v: fld.of(rng.randrange(fld.p)) for v in c1.variables}
        if evaluate_arith(c1, asg) != evaluate_arith(c2, asg):
            return RandomCompareResult(False, {k: str(v) for k, v in sorted(asg.items())}, t + 1)
    return RandomCompareResult(True, None, trials)


def desugar_threshold_eq(circuit: Circuit) -> Circuit:
    """Rewrite every th_eq(k) gate as and(th_ge(k), not(th_ge(k+1)))."""
    gates = dict(circuit.gates)
    wires = {g: list(ws) for g, ws in circuit.wires.items()}
    nxt = max(gates) + 1 if gates else 0
    for g in sorted(circuit.gates):
        lab = circuit.gates[g]
        if lab.kind != "th_eq":
            continue
        kids = circuit.wires[g]
        lo = nxt
        hi = nxt + 1
        neg = nxt + 2
        nxt += 3
        gates[lo] = th_ge(lab.k)
        wires[lo] = list(kids)
        gates[hi] = th_ge(lab.k + 1)
        wires[hi] = list(kids)
        gates[neg] = NOT
        wires[neg] = [(hi, None)]
        gates[g] = AND
        wires[g] = [(lo, None), (neg, None)]
    return Circuit(circuit.field, circuit.variables, gates, wires, circuit.output)


# ---------------------------------------------------------------------------
# JSON round-trip


def _label_to_json(lab: GateLabel) -> dict:
    if lab.kind == "input":
        return {"kind": "input", "var": lab.var}
    if lab.kind == "const":
        return {"kind": "const", "value": str(lab.value)}
    if lab.kind in ("th_ge", "th_eq"):
        return {"kind": lab.kind, "k": lab.k}
    if lab.kind in ("psum", "pprod"):
        return {
            "kind": lab.kind,
            "c": str(lab.c),
            "parts": {t: str(q) for t, q in lab.parts},
        }
    return {"kind": lab.kind}


def serialize(circuit: Circuit) -> str:
    gates = []
    for g in sorted(circuit.gates):
        entry = {"id": g, "label": _label_to_json(circuit.gates[g])}
        kids = []
        for c, tag in circuit.wires[g]:
            kids.append({"id": c} if tag is None else {"id": c, "tag": tag})
        entry["children"] = kids
        gates.append(entry)
    doc = {
        "field": circuit.field.name(),
        "variables": list(circuit.variables),
        "gates": gates,
        "output": circuit.output,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _want(obj, key, typ, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing")
    v = obj[key]
    if typ is not None and not isinstance(v, typ):
        raise SchemaError(f"{path}.{key}", f"expected {typ.__name__}, got {type(v).__name__}")
    return v


def _label_from_json(obj, fld: Field, path: str) -> GateLabel:
    kind = _want(obj, "kind", str, path)
    try:
        if kind == "input":
            return input_label(_want(obj, "var", str, path))
        if kind == "const":
            return const(fld.of(_want(obj, "value", str, path)))
        if kind in ("add", "mul", "and", "or", "not"):
            return GateLabel(kind)
        if kind in ("th_ge", "th_eq"):
            k = _want(obj, "k", int, path)
            if k < 0:
                raise SchemaError(f"{path}.k", "negative threshold")
            return GateLabel(kind, k=k)
        if kind in ("psum", "pprod"):
            c = fld.of(_want(obj, "c", str, path))
            raw = _want(obj, "parts", dict, path)
            if not raw:
                raise SchemaError(f"{path}.parts", "empty parts")
            parts = {t: fld.of(q) for t, q in raw.items()}
            return GateLabel(kind, c=c, parts=_parts_tuple(parts))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, str(exc)) from None
    raise SchemaError(f"{path}.kind", f"unknown kind {kind!r}")


def deserialize(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    fld = Field.parse(_want(doc, "field", str, "$"))
    variables = _want(doc, "variables", list, "$")
    for i, v in enumerate(variables):
        if not isinstance(v, str):
            raise SchemaError(f"$.variables[{i}]", "variable ids must be strings")
    raw_gates = _want(doc, "gates", list, "$")
    gates = {}
    wires = {}
    for i, entry in enumerate(raw_gates):
        path = f"$.gates[{i}]"
        gid = _want(entry, "id", int, path)
        if gid in gates:
            raise SchemaError(f"{path}.id", f"duplicate gate id {gid}")
        gates[gid] = _label_from_json(_want(entry, "label", dict, path), fld, f"{path}.label")
        kids = []
        for j, ch in enumerate(_want(entry, "children", list, path)):
            cpath = f"{path}.children[{j}]"
            cid = _want(ch, "id", int, cpath)
            tag = ch.get("tag")
            if tag is not None and not isinstance(tag, str):
                raise SchemaError(f"{cpath}.tag", "tag must be a string")
            kids.append((cid, tag))
        wires[gid] = kids
    output = _want(doc, "output", int, "$")
    for gid, kids in wires.items():
        for cid, _tag in kids:
            if cid not in gates:
                raise SchemaError("$.gates", f"gate {gid} references unknown child {cid}")
    if output not in gates:
        raise SchemaError("$.output", f"unknown gate {output}")
    try:
        return Circuit(fld, variables, gates, wires, output)
    except CircuitError as exc:
        raise SchemaError("$.gates", str(exc)) from None


def export_dot(circuit: Circuit) -> str:
    lines = ["digraph circuit {", "  rankdir=BT;"]
    for g in sorted(circuit.gates):
        lab = repr(circuit.gates[g]).replace('"', "'")
        shape = "box" if circuit.gates[g].kind in ("input", "const") else "ellipse"
        extra = ", peripheries=2" if g == circuit.output else ""
        lines.append(f'  n{g} [label="{g}: {lab}", shape={shape}{extra}];')
    for g in sorted(circuit.gates):
        for c, tag in circuit.wires[g]:
            attr = "" if tag is None else f' [label="{tag}"]'
            lines.append(f"  n{c} -> n{g}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
