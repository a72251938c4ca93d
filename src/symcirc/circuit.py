"""Circuit intermediate representation.

A circuit is a labelled DAG with unbounded fan-in and a single designated
output gate.  Wires are sorted multisets of (child, tag) pairs: a child
listed twice counts twice, so x*x is one mul gate reading x twice.  Tags are
only meaningful on the partition-counting labels; everywhere else they must
be absent.  A Circuit is well-formed by construction: its constructor
checks every structural rule and the types a circuit file holds, and
raises CircuitError naming the gate that breaks one, so no other code
handles a malformed circuit and every circuit serializes to a file that
deserialize reads back.  A label's rules hold or break on whatever gate
carries it, and are judged once per label object: a known kind with only
its kind's fields (the table _OWN_FIELDS, which also drives repr and the
JSON codec), a declared variable, field elements in the circuit's field,
an int threshold >= 0, and parts of the form psum makes, a non-empty tuple
of (tag, weight) pairs sorted by distinct str tags.  A gate's rules are
checked per gate: int ids (not bools), children that are gates, no cycle,
wire tags only from its label's parts, no children on an input or const
and one on a not, and one input gate per variable.  One function,
_gate_wires, turns children into wires for the constructor and
CircuitBuilder alike, and one, _gate_from_json, reads a gate of a circuit
file.
CircuitBuilder hash-conses gates on (label, children) and keeps them only
in that table, so the circuits it builds are rigid: no two gates share a
label and children, and no gate can change behind the table.  Rigidity is
not a rule of the representation; the symmetry routines require it, and
build hands the table over as the circuit's (label, wires) -> gate index.

Two evaluation semantics share the representation: exact field evaluation
(input/const/add/mul) and Boolean evaluation (input, 0/1 constants, and/or/not,
thresholds, and the partition-counting gates used by the lowering).  Both
evaluate many assignments (lanes) at once, with ints as lane masks: a
Boolean gate's value is one mask, an arithmetic gate's a map from each
value it takes to the mask of lanes where it takes it.
"""

from __future__ import annotations

import functools
import gc
import heapq
import itertools
import json
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CircuitError, FieldMismatchError, SchemaError
from .field import Field, FieldValue

_ARITH_KINDS = {"input", "const", "add", "mul"}


def _acyclic(fn):
    """fn run with the cyclic garbage collector held off, the caller's
    setting restored in finally: a collector that was off stays off.
    The routines it wraps build a whole structure of gates, labels, wires
    or lane maps, which holds no reference cycle, so reference counting
    frees whatever of it dies and a collection pass could only re-scan
    objects that are alive, a cost that grows with the structure (over
    the dict tree json.loads makes, for deserialize).  A cycle made
    meanwhile is not lost: the first collection after the call finds it.
    gc.disable acts on the whole process; the library runs in one
    thread, so nothing else allocates while the collector is held off."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        was_on = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_on:
                gc.enable()
    return run


def _same(x, *_):
    return x


def _show_parts(parts):
    """parts as a dict if a tuple of pairs, else as it is: repr shows malformed labels too."""
    pairs = type(parts) is tuple and all(type(p) is tuple and len(p) == 2 for p in parts)
    return dict(parts) if pairs else parts


def _read_parts(raw: dict, fld: Field, path: str) -> tuple:
    return _parts_tuple({t: fld.of(_want(raw, t, str, f"{path}.parts")) for t in raw})


# Every label kind and the fields it carries, the others being None.  Per
# field: the JSON type _want tests, read(JSON value, field, path), write to
# JSON and show for repr; text and int fields are kept as they are
_TEXT, _INT = (str, _same, _same, _same), (int, _same, _same, _same)
_ELEMENT = (str, lambda text, fld, _path: fld.of(text), str, _same)
_PARTS = (dict, _read_parts, lambda parts: {t: str(q) for t, q in parts}, _show_parts)
_OWN_FIELDS = {"input": {"var": _TEXT}, "const": {"value": _ELEMENT}, "th_ge": {"k": _INT},
               "th_eq": {"k": _INT}, "psum": {"c": _ELEMENT, "parts": _PARTS},
               "pprod": {"c": _ELEMENT, "parts": _PARTS},
               "add": {}, "mul": {}, "and": {}, "or": {}, "not": {}}


class GateLabel(NamedTuple):
    """A gate's label: a named tuple, so it is made, hashed and compared by
    tuple code, and equal labels hash equal.  Each kind carries only its
    own fields (_OWN_FIELDS), the others None; Circuit refuses a label that
    does not.  The lane evaluators' per-gate loops read fields by index,
    lab[0] for kind, which costs less than the field's descriptor."""

    kind: str
    var: str | None = None            # input
    value: FieldValue | None = None   # const
    k: int | None = None              # th_ge / th_eq
    c: FieldValue | None = None       # psum / pprod target
    parts: tuple[tuple[str, FieldValue], ...] | None = None  # tag -> weight, sorted by tag

    def parts_map(self) -> dict:
        return dict(self.parts or ())

    def __repr__(self) -> str:
        """The kind, then its own fields in brackets, named when there are
        several: input(x), th_ge(2), psum(c=1, parts={...}), add."""
        own = _OWN_FIELDS.get(self.kind, {})
        args = [f"{f}={show(getattr(self, f))}" if len(own) > 1 else str(show(getattr(self, f)))
                for f, (_typ, _read, _write, show) in own.items()]
        return f"{self.kind}({', '.join(args)})" if args else self.kind


def input_label(var: str) -> GateLabel:
    return GateLabel("input", var=var)


def const(value: FieldValue) -> GateLabel:
    return GateLabel("const", value=value)


ADD = GateLabel("add")
MUL = GateLabel("mul")
AND = GateLabel("and")
OR = GateLabel("or")
NOT = GateLabel("not")
_PLAIN_LABELS = {lab.kind: lab for lab in (ADD, MUL, AND, OR, NOT)}   # reused by deserialize


@functools.cache   # one label object per k
def th_ge(k: int) -> GateLabel:
    if k < 0:
        raise ValueError("threshold must be >= 0")
    return GateLabel("th_ge", k=k)


@functools.cache
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


def _sorted_wires(pairs: list) -> tuple:
    """The (id, tag) pairs, sorted in place in _child_key order, as a tuple."""
    try:
        pairs.sort()   # _child_key order, one pass when already sorted
    except TypeError:  # one id with a None tag and a str tag
        pairs.sort(key=_child_key)
    return tuple(pairs)


def _gate_wires(g, children, str_tags=False) -> tuple:
    """Gate g's children (ids or (id, tag) pairs) as a sorted multiset of
    pairs, for the constructor and CircuitBuilder alike, with CircuitError
    naming the gate for children that are not iterable, a child that is
    neither an id nor an (id, tag) pair, and ids or tags that do not sort.
    With str_tags (CircuitBuilder, which hashes the wires next), children
    that sort but carry a tag that is neither None nor a str are refused."""
    try:
        children = iter(children)
    except TypeError:
        raise CircuitError(f"gate {g!r}: children {children!r} are not a list") from None
    pairs, odd = [], None   # odd: a child with a tag str_tags refuses
    for c in children:
        if isinstance(c, int):
            pairs.append((c, None))
        elif isinstance(c, (tuple, list)) and len(c) == 2:
            if str_tags and c[1] is not None and type(c[1]) is not str:
                odd = c
            pairs.append((c[0], c[1]))
        else:
            raise CircuitError(f"gate {g!r}: child {c!r} is neither an id nor an (id, tag) pair")
    try:
        wires = _sorted_wires(pairs)
    except TypeError:
        raise CircuitError(f"gate {g!r}: children {pairs} have ids or tags "
                           "of types that do not sort together") from None
    if odd is not None:
        raise CircuitError(f"gate {g!r}: child {odd!r} has a tag that is neither None nor a str")
    return wires


class Circuit:
    """Immutable labelled DAG, well-formed by construction: the constructor
    turns each gate's children into wires with _gate_wires and raises
    CircuitError naming the first gate that breaks a rule of the
    representation (see _check).  Mutating after construction is not
    supported; derived data is cached on the instance: the parent map and
    four caches, _gate_index (the (label, wires) index of the gates),
    _extensions (each variable permutation's moved-gate map), _stars (the
    extensions of the star transpositions (1 k) of each factor per group,
    read by supports) and _zero_one (the one pass of lowering._zero_one
    over every 0-1 assignment at once: exact value sets, the lanes and the
    output's {value: lanes})."""

    def __init__(self, fld: Field, variables, gates: dict, wires: dict, output: int):
        self._init(fld, variables, dict(gates),
                   {g: _gate_wires(g, wires.get(g, ())) for g in gates}, output)

    def _init(self, fld: Field, variables, gates: dict, wires: dict, output: int):
        """Set up from gates and wires the circuit owns, wires[g] being
        gate g's sorted tuple of (id, tag) pairs for every gate g."""
        self.field = fld
        self.variables = tuple(variables)
        self.gates = gates
        self.wires = wires
        self.output = output
        self._parents = None
        self._gate_index = None   # (label, wires) -> gate, see symmetry._gate_index
        self._extensions = {}     # sorted sigma items -> moved gates, see symmetry._extension
        self._stars = {}          # spec -> star extensions, see symmetry._point_classes
        self._zero_one = None     # (sets, lanes, width, out), see lowering._zero_one
        self.inputs_by_var = {}   # variable -> its input gate, filled by _check
        self._topo = self._check()

    def _check(self) -> tuple:
        """The children-first order, least ready gate first (Kahn's
        algorithm), after checking that variables are distinct strings and
        the output is a gate, then the rules of each label once per label
        object (_label_rule, keyed by identity, since equal labels may
        differ in a type a rule tests, k=1 and k=True) and the rules of
        each gate: an int id, children that are gates, wire tags its label
        allows, the fixed fan-in of input, const and not, no variable on
        two gates, and no cycle."""
        for v in self.variables:
            if type(v) is not str:
                raise CircuitError(f"variable {v!r} is not a string")
        declared = frozenset(self.variables)
        if len(declared) != len(self.variables):
            raise CircuitError(f"variables {list(self.variables)} are not distinct")
        # ids are ints and never bools (True == 1), as the file schema reads them
        if type(self.output) is not int:
            raise CircuitError(f"output {self.output!r} is not an int")
        if self.output not in self.gates:
            raise CircuitError(f"output {self.output} is not a gate")
        forward = True
        # the label objects and parts tuples outlive the check, so their ids stay theirs
        rules, parts_rules = {}, {}   # id(label) -> _label_rule; id(parts) -> _parts_rule
        gates, inputs, fld = self.gates, self.inputs_by_var, self.field
        for g, lab in gates.items():
            if type(g) is not int:
                raise CircuitError(f"gate {g!r}: id is not an int")
            tags = rules.get(id(lab))
            if tags is None:
                tags = rules[id(lab)] = _label_rule(lab, declared, fld, parts_rules)
                if type(tags) is str:
                    raise CircuitError(f"gate {g}: {tags}")
            ws = self.wires[g]
            for c, t in ws:
                if type(c) is not int:
                    raise CircuitError(f"gate {g}: child {c!r} is not an int")
                if c not in gates:
                    raise CircuitError(f"gate {g}: child {c} is not a gate")
                forward = forward and c < g
                # only a label with parts allows tags, and then on every wire
                if (t is not None or tags) and (type(t) is not str or t not in tags):
                    raise CircuitError(f"gate {g}: wire from {c} has tag {t!r}" + (
                        f" outside the parts {sorted(tags)}" if tags
                        else ", but only psum/pprod wires are tagged"))
            if tags is _FIXED_FAN_IN:
                kind = lab.kind
                if kind == "not":
                    if len(ws) != 1:
                        raise CircuitError(f"gate {g}: not gate has {len(ws)} children")
                elif ws:
                    raise CircuitError(f"gate {g}: {kind} gate has children")
                elif kind == "input":
                    if lab.var in inputs:
                        raise CircuitError(f"gate {g}: variable {lab.var!r} already "
                                           f"labels gate {inputs[lab.var]}")
                    inputs[lab.var] = g
        if forward:
            # every child precedes its parent, so ascending ids is the order
            # Kahn's algorithm would give (the case of every built circuit)
            return tuple(sorted(self.gates))
        order = _kahn(self)
        if len(order) != len(self.gates):
            stuck = set(self.gates) - set(order)
            # every gate left out has a child left out; follow them to a cycle
            path, g = set(), min(stuck)
            while g not in path:
                path.add(g)
                g = next(c for c, _t in self.wires[g] if c in stuck)
            raise CircuitError(f"gate {g} lies on a cycle")
        return tuple(order)

    def parents(self) -> dict:
        """Map gate -> its (parent, tag) pairs, one per wire."""
        if self._parents is None:
            par = {g: [] for g in self.gates}
            for g, ws in self.wires.items():
                for c, tag in ws:
                    par[c].append((g, tag))
            self._parents = {g: _sorted_wires(ps) for g, ps in par.items()}
        return self._parents

    def topo_order(self):
        """Children-first order, least ready gate first."""
        return self._topo

    def __len__(self):
        return len(self.gates)


def _in_field(value, fld: Field) -> bool:
    return type(value) is fld._values   # the value class of fld's modulus, as Field.of tests


# The tags a label without parts allows, none, as two objects: the second
# tells _check to test its gates' fan-in (the empty frozenset is one object)
_UNTAGGED, _FIXED_FAN_IN = (), frozenset()


def _parts_rule(parts, fld: Field):
    """The tags of a psum/pprod parts tuple, or the text of the rule it
    breaks: parts are a non-empty tuple of (tag, weight) pairs with str tags,
    sorted and distinct, as psum makes them, and weights in fld."""
    if not (type(parts) is tuple and parts
            and all(type(p) is tuple and len(p) == 2 for p in parts)):
        return f"parts {parts!r} are not a non-empty tuple of (tag, weight) pairs"
    tags = [t for t, _q in parts]
    for t in tags:
        if type(t) is not str:
            return f"part tag {t!r} is not a string"
    if tags != sorted(set(tags)):
        return f"part tags {tags} are not sorted and distinct"
    if not all(_in_field(q, fld) for _t, q in parts):
        return f"a part weight is not in {fld.name()}"
    return frozenset(tags)


def _label_rule(lab: GateLabel, declared, fld: Field, parts_rules: dict):
    """The tags the wires of a gate with this label may carry (_UNTAGGED or
    _FIXED_FAN_IN when it has no parts), or the text of the rule the label
    breaks; parts_rules keeps _parts_rule per parts tuple."""
    kind, var, value, k, c, parts = lab
    own = _OWN_FIELDS.get(kind)
    if own is None:
        return f"unknown label kind {kind!r}"
    # a count that fits means no stray field, or an own field None, which
    # breaks that field's rule below
    if lab.count(None) != 5 - len(own):
        for f, x in zip(lab._fields[1:], lab[1:]):
            if x is not None and f not in own:
                return f"{kind} label carries {f}, which its kind does not use"
    if "parts" in own:
        tags = parts_rules.get(id(parts))
        if tags is None:
            tags = parts_rules[id(parts)] = _parts_rule(parts, fld)
        if type(tags) is not str and not _in_field(c, fld):
            return f"target {c} is not in {fld.name()}"
        return tags
    if "var" in own and not (type(var) is str and var in declared):
        return f"variable {var!r} is not declared"
    if "value" in own and not _in_field(value, fld):
        return f"constant {value} is not in {fld.name()}"
    if "k" in own and not (type(k) is int and k >= 0):
        return f"threshold {k} is not an integer >= 0"
    return _FIXED_FAN_IN if kind in ("input", "const", "not") else _UNTAGGED


def _kahn(circuit: Circuit) -> list:
    """Kahn's algorithm, least ready gate first: the gates in children-first
    order; gates on a cycle, or above one, are left out."""
    parents = circuit.parents()
    indeg = {g: len(ws) for g, ws in circuit.wires.items()}
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
    names.  Several names may alias one gate.  The hash-cons table
    _made, (label, wire tuple) -> gate, is the only store of gates, so no
    gate can change behind it and every circuit built is rigid."""

    def __init__(self, fld: Field, variables):
        self.field = fld
        self.variables = list(variables)
        self.names = {}
        self._made = {}   # (label, wire tuple) -> gate, ids 0, 1, ... in order

    def add(self, label: GateLabel, children=(), name=None) -> int:
        """The gate with this label and children, made on first request.
        A name aliases the gate; naming a different gate with a name already
        in use raises ValueError.  Children _gate_wires refuses raise
        CircuitError naming the new gate's id and leave the builder as it was."""
        return self._add(label, _gate_wires(len(self._made), children, True), name)

    def _add(self, label: GateLabel, wires: tuple, name=None) -> int:
        """add, for wires already in _gate_wires's form, a tuple of (id,
        tag) pairs in sorted order: callers adding many gates over one wire
        list normalize it once, and the ladders build theirs directly."""
        new = len(self._made)
        key = (label, wires)
        if name is None:   # one lookup, which hashes the key once
            return self._made.setdefault(key, new)
        g = self._made.get(key, new)
        if self.names.get(name, g) != g:
            raise ValueError(f"duplicate gate name {name!r}")
        if g == new:
            self._made[key] = g
        self.names[name] = g
        return g

    def build(self, output) -> Circuit:
        """The circuit of every gate added so far, output being a gate id or
        a name.  Its gates and wires are read off the hash-cons table, which
        the circuit also takes as its gate index: the index's keys are the
        gates' own, one per gate, so the circuit is rigid.  The constructor's
        checks (see Circuit._check) run as for any circuit."""
        out = output if isinstance(output, int) else self.names[output]
        gates, wires = {}, {}
        for key, g in self._made.items():
            gates[g], wires[g] = key
        circuit = Circuit.__new__(Circuit)
        circuit._init(self.field, self.variables, gates, wires, out)
        circuit._gate_index = dict(self._made)
        return circuit


def _lane_fold(acc: dict, kid: dict, combine) -> dict:
    """{combine(a, b): the lanes where a and b both hold} over acc's and
    kid's {value: lane mask} maps, with the lanes of equal results merged."""
    nxt = {}
    for a, ma in acc.items():
        for b, mb in kid.items():
            m = ma & mb
            if m:
                s = combine(a, b)
                nxt[s] = nxt.get(s, 0) | m
    return nxt


@_acyclic
def arith_lane_values(circuit: Circuit, lanes: dict, width: int) -> dict:
    """Exact values of every gate over width lanes at once, each gate's as
    {value: lane mask}: bit j of a mask is set iff the gate takes that value
    on lane j.  Empty masks are dropped.

    lanes maps each variable to its own {value: mask}.  An add or mul gate
    folds its children from the first child's map, one child at a time, with
    _lane_fold.  When every lane of a variable holds exactly one value, that
    is plain evaluation on each lane; a variable holding several values on
    one lane yields, on that lane, every value any choice of them gives
    (Minkowski sums and product sets).
    """
    fld = circuit.field
    full = (1 << width) - 1
    vals = {}
    gates, wires = circuit.gates, circuit.wires
    for g in circuit.topo_order():
        lab = gates[g]
        kind = lab[0]
        if kind == "add" or kind == "mul":
            ws = wires[g]
            combine = operator.add if kind == "add" else operator.mul
            acc = vals[ws[0][0]] if ws else {fld.zero() if kind == "add" else fld.one(): full}
            for c, _t in ws[1:]:
                acc = _lane_fold(acc, vals[c], combine)
        elif kind == "input":
            var = lab[1]
            try:
                given = lanes[var]
            except KeyError:
                raise CircuitError(f"missing variable {var!r}") from None
            acc = {}
            for v, m in given.items():
                if not isinstance(v, FieldValue) or v.field != fld:
                    raise FieldMismatchError(f"assignment for {var!r} is not in {fld.name()}")
                if m:
                    acc[v] = m
        elif kind == "const":
            acc = {lab[2]: full}
        else:
            raise CircuitError(f"gate {g}: label {kind!r} is not arithmetic")
        vals[g] = acc
    return vals


def _refuse_undeclared(circuit: Circuit, assignment: dict):
    """Refuse the assignment's keys that the circuit does not declare, unless
    a variable that an input gate reads is missing, which evaluation names
    first."""
    unknown = assignment.keys() - circuit.variables
    if unknown and circuit.inputs_by_var.keys() <= assignment.keys():
        # by str: string names keep their own order, and mixed kinds still sort
        raise CircuitError(f"the circuit declares no variables {sorted(unknown, key=str)}")


def evaluate_arith(circuit: Circuit, assignment: dict) -> FieldValue:
    """Exact value of the output under a variable assignment."""
    _refuse_undeclared(circuit, assignment)
    # None stands for a value that is no field element (it may be unhashable);
    # arith_lane_values rejects it once an input reads it
    lanes = {v: {x if isinstance(x, FieldValue) else None: 1} for v, x in assignment.items()}
    [value] = arith_lane_values(circuit, lanes, 1)[circuit.output]
    return value


def partition_rule(kind: str, fld: Field):
    """The psum / pprod rule as (unit, combine): a gate with weights q_i and
    per-part counts k_i folds combine over k_i copies of each q_i from unit,
    that is sum(k_i * q_i) for psum and prod(q_i ** k_i) for pprod."""
    if kind == "psum":
        return fld.zero(), operator.add
    return fld.one(), operator.mul


def partition_terms(unit, combine, q: FieldValue, top: int) -> list:
    """Part q's terms for the counts 0..top: the k-th is combine applied k
    times to q from unit."""
    return list(itertools.accumulate(itertools.repeat(q, top), combine, initial=unit))


def _count_map(masks, full: int) -> dict:
    """{count: lanes of full on which exactly count of the 0/1 lane masks
    are set}, for every count that occurs.  The masks are added into
    bit-sliced counter planes (low bit first) by ripple carry, and the
    planes then split full by count, one plane at a time."""
    planes = []
    for x in masks:
        for i, p in enumerate(planes):
            if not x:
                break
            planes[i], x = p ^ x, p & x
        if x:
            planes.append(x)
    counts = {0: full}
    for i, p in enumerate(planes):
        split = {}
        for k, m in counts.items():
            if m & ~p:
                split[k] = m & ~p
            if m & p:
                split[k | 1 << i] = m & p
        counts = split
    return counts


def _partition_fold(fld: Field, kind: str, parts: tuple, ws: tuple, vals: dict,
                    full: int) -> dict:
    """{value: lanes} of the partition family with these parts and wires:
    the wires are grouped by tag in one pass, each part's count map
    (_count_map) becomes that part's terms, and the parts fold like
    arith_lane_values."""
    unit, combine = partition_rule(kind, fld)
    by_tag = {t: [] for t, _q in parts}
    for c, tag in ws:
        by_tag[tag].append(vals[c])
    acc = None
    for t, q in parts:
        counts = _count_map(by_tag[t], full)
        terms = partition_terms(unit, combine, q, max(counts))
        by_term = {}
        for k, m in counts.items():
            x = terms[k]
            by_term[x] = by_term.get(x, 0) | m
        # the first part's terms are the fold from unit
        acc = by_term if acc is None else _lane_fold(acc, by_term, combine)
    return acc


@_acyclic
def bool_lane_values(circuit: Circuit, lanes: dict, width: int) -> dict:
    """Bit-sliced 0/1 value of every gate over width assignments at once.

    lanes maps each variable to an int whose bit j is its value on
    assignment j; every gate's value comes back in the same layout.  Gates
    that count one wire tuple share one fold per call: the threshold gates
    reading it share its count map (_count_map), th_eq(k) reading count k
    and th_ge(k) every count from k up; the partition gates sharing kind,
    parts and wires form a family, which _partition_fold evaluates, and
    each member reads the lanes where the fold hits its target.
    """
    full = (1 << width) - 1
    vals = {}
    families = {}   # (kind, parts, wires) -> {value: lanes}; (None, None, wires) -> {count: lanes}
    gates, wires = circuit.gates, circuit.wires
    for g in circuit.topo_order():
        lab = gates[g]
        kind = lab[0]
        ws = wires[g]
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
            key = (None, None, ws)
            counts = families.get(key)
            if counts is None:
                counts = families[key] = _count_map([vals[c] for c, _t in ws], full)
            k = lab[3]
            if kind == "th_eq":
                acc = counts.get(k, 0)
            else:
                acc = 0
                for n, m in counts.items():
                    if n >= k:
                        acc |= m
        elif kind in ("psum", "pprod"):
            parts = lab[5]
            key = (kind, parts, ws)
            folded = families.get(key)
            if folded is None:
                folded = families[key] = _partition_fold(circuit.field, kind, parts,
                                                          ws, vals, full)
            acc = folded.get(lab[4], 0)
        elif kind == "input":
            var = lab[1]
            try:
                acc = lanes[var]
            except KeyError:
                raise CircuitError(f"missing variable {var!r}") from None
            if not (isinstance(acc, int) and 0 <= acc <= full):
                raise CircuitError(f"variable {var!r} must be 0 or 1 in every lane")
        elif kind == "const":
            value = lab[2]
            if value.is_zero():
                acc = 0
            elif value.is_one():
                acc = full
            else:
                raise CircuitError(f"gate {g}: constant {value} is not a bit")
        else:
            raise CircuitError(f"gate {g}: label {kind!r} is not Boolean")
        vals[g] = acc
    return vals


def evaluate_bool(circuit: Circuit, assignment: dict) -> int:
    """0/1 value of the output under a 0/1 variable assignment."""
    _refuse_undeclared(circuit, assignment)
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


# ---------------------------------------------------------------------------
# JSON round-trip


def _label_to_json(lab: GateLabel) -> dict:
    doc = {"kind": lab.kind}
    for f, (_typ, _read, write, _show) in _OWN_FIELDS[lab.kind].items():
        doc[f] = write(getattr(lab, f))
    return doc


def serialize(circuit: Circuit) -> str:
    """The circuit as one line of JSON and a newline: the object
    {"field", "gates", "output", "variables"}, each gate {"children", "id",
    "label"} in ascending id order and each child {"id"} or {"id", "tag"}
    in wire order, every object's keys sorted and separated by ", " and
    ": ", as json.dumps(doc, sort_keys=True) writes it.  The text is
    formatted directly, each distinct label encoded once, so equal circuits
    give equal bytes."""
    dumps = json.dumps
    labels = {}
    gates = []
    for g in sorted(circuit.gates):
        lab = circuit.gates[g]
        text = labels.get(lab)
        if text is None:
            text = labels[lab] = dumps(_label_to_json(lab), sort_keys=True)
        kids = ", ".join([f'{{"id": {c}}}' if tag is None else f'{{"id": {c}, "tag": {dumps(tag)}}}'
                          for c, tag in circuit.wires[g]])
        gates.append(f'{{"children": [{kids}], "id": {g}, "label": {text}}}')
    return (f'{{"field": {dumps(circuit.field.name())}, "gates": [{", ".join(gates)}], '
            f'"output": {circuit.output}, "variables": {dumps(list(circuit.variables))}}}\n')


def _want(obj, key, typ, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing")
    v = obj[key]
    # a JSON true/false loads as a bool, which is an int to isinstance
    if typ is not None and (not isinstance(v, typ) or typ is int and isinstance(v, bool)):
        raise SchemaError(f"{path}.{key}", f"expected {typ.__name__}, got {type(v).__name__}")
    return v


def _label_from_json(obj, fld: Field, path: str) -> GateLabel:
    kind = _want(obj, "kind", str, path)
    # an unknown kind has no fields; the Circuit constructor rejects it, naming the gate
    own = _OWN_FIELDS.get(kind, {})
    try:
        return GateLabel(kind, **{f: read(_want(obj, f, typ, path), fld, path)
                                  for f, (typ, read, _write, _show) in own.items()})
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, str(exc)) from None


def _gate_from_json(entry, i: int, fld: Field, gates: dict) -> tuple:
    """The i-th entry of "gates" as (id, label, children as (id, tag)
    pairs): the one reader of a JSON gate.  Each field (id, then the ids in
    gates, label, children, and per child its id and tag) is read with one
    type test; a field that fails it gets its JSON path, and _want or the
    tag rule raises the SchemaError naming it.  Labels of kinds without
    fields come from _PLAIN_LABELS, any other from _label_from_json."""
    gid = entry.get("id") if type(entry) is dict else None
    if type(gid) is not int:
        _want(entry, "id", int, f"$.gates[{i}]")
    if gid in gates:
        raise SchemaError(f"$.gates[{i}].id", f"duplicate gate id {gid}")
    label = entry.get("label")
    if type(label) is not dict:
        _want(entry, "label", dict, f"$.gates[{i}]")
    kind = label.get("kind")
    lab = _PLAIN_LABELS.get(kind) if type(kind) is str else None
    if lab is None:
        lab = _label_from_json(label, fld, f"$.gates[{i}].label")
    raw = entry.get("children")
    if type(raw) is not list:
        _want(entry, "children", list, f"$.gates[{i}]")
    kids = []
    for ch in raw:
        cid = ch.get("id") if type(ch) is dict else None
        if type(cid) is not int:
            _want(ch, "id", int, f"$.gates[{i}].children[{len(kids)}]")
        tag = ch.get("tag")
        if tag is not None and type(tag) is not str:
            raise SchemaError(f"$.gates[{i}].children[{len(kids)}].tag", "tag must be a string")
        kids.append((cid, tag))
    return gid, lab, kids


@_acyclic
def deserialize(text: str) -> Circuit:
    """The circuit a serialize text describes.  Any JSON object with the
    schema's fields is read, whatever its key order, spacing, gate order
    and child order; _gate_from_json reads each gate, and its children are
    sorted once, into the circuit's wire order.  A field of the wrong type
    raises SchemaError naming its JSON path (JSON true and false are not
    ints), as does a circuit the Circuit constructor would refuse, in its
    wording: at $.variables or $.output when they are at fault, else at
    $.gates."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    try:
        fld = Field.parse(_want(doc, "field", str, "$"))
    except ValueError as exc:
        raise SchemaError("$.field", str(exc)) from None
    variables = _want(doc, "variables", list, "$")
    for i, v in enumerate(variables):
        if not isinstance(v, str):
            raise SchemaError(f"$.variables[{i}]", "variable ids must be strings")
    if len(set(variables)) != len(variables):
        raise SchemaError("$.variables", f"variables {variables} are not distinct")
    gates = {}
    wires = {}
    for i, entry in enumerate(_want(doc, "gates", list, "$")):
        gid, lab, kids = _gate_from_json(entry, i, fld, gates)
        gates[gid] = lab
        wires[gid] = _sorted_wires(kids)
    output = _want(doc, "output", int, "$")
    if output not in gates:
        raise SchemaError("$.output", f"output {output} is not a gate")
    circuit = Circuit.__new__(Circuit)
    try:
        circuit._init(fld, variables, gates, wires, output)
    except CircuitError as exc:
        raise SchemaError("$.gates", str(exc)) from None
    return circuit
