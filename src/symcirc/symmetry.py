"""Group actions on variable spaces, circuit automorphisms, orbits, supports.

A variable permutation is a dict mapping variable ids to variable ids
(identity where missing).  The circuits are rigid (no two gates share a
label and children), so a variable permutation has at most one extension
to the gates, and the permutation alone witnesses it.  _extension computes
it in one bottom-up pass, cached per permutation as the map of the gates
it moves: a gate none of whose children moved is fixed by rigidity, so the
pass looks up only gates with a moved child, and its cost follows those
gates rather than the whole circuit.  find_extension is the one place that
widens it to a full gate map.  Non-rigid input is rejected with
CircuitError rather than merged: merging can make a circuit symmetric that
was not.  Each group spec (Square, Matrix, Transpose, Partition) gives its
own generators, factors and text, and parse_group reads the text of the
first three back.  The variable permutations that extend
form a group, so symmetry is checked on generators only: per factor, the
transposition (1 2) and the cycle (2 3 ... n), which generate Sym(n) at
any n, plus the transpose map (for a Partition, the same pair per block).
orbits extends each permutation it is given and closes the orbits over the
moved gates only.  Supports are read from the same cached extensions: for
a fixed gate, a ~ b iff the transposition (a b) of index points has an
extension fixing it, an equivalence on each factor's points since
extensions compose and (a c) = (a b)(b c)(a b).  The star transpositions
(1 k) are the conjugates of (1 2) by powers of the cycle, so their
extensions follow from the two generators' by relabelling the moved gates,
and (a b) = (1 a)(1 b)(1 a) is read in at most three lookups.  One pass
reads the classes off the stars; the bad pairs cross classes, and a
minimum support leaves out one largest class per factor, with no search.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .circuit import Circuit, _sorted_wires
from .errors import CircuitError


def matrix_var(i: int, j: int) -> str:
    return f"x_{i}_{j}"


def matrix_variables(m: int, n: int | None = None) -> list:
    """Row-major variable ids for an m x n (default square) matrix."""
    if n is None:
        n = m
    return [matrix_var(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Group specifications


class _IndexAction:
    """A group acting on matrix index points; its fields are sizes, ints >= 1.
    factors() gives (tag, size, make) per factor, rows before columns: tag
    is None for the diagonal action and "r"/"c" for rows/columns, and
    make(perm) is the variable permutation of a permutation of 1..size."""

    def __post_init__(self):
        for size in vars(self).values():
            if not isinstance(size, int) or isinstance(size, bool) or size < 1:
                raise CircuitError(f"bad group spec {self!r} (sizes are integers >= 1)")

    def generators(self) -> list:
        """Per factor in order, (1 2) and, from three points on, (2 3 ... n)."""
        return [make(perm) for _tag, size, make in self.factors()
                for perm in _generating_pair(range(1, size + 1))]


@dataclass(frozen=True)
class Square(_IndexAction):
    """Sym([n]) acting diagonally: x_ij -> x_{s(i)s(j)}."""

    n: int

    def factors(self) -> list:
        return [(None, self.n, lambda perm: diagonal_sigma(self.n, perm))]

    def text(self) -> str:
        return f"square:{self.n}"


@dataclass(frozen=True)
class Matrix(_IndexAction):
    """Sym([m]) x Sym([n]): rows and columns permuted independently."""

    m: int
    n: int

    def factors(self) -> list:
        return [("r", self.m, lambda perm: row_sigma(self.m, self.n, perm)),
                ("c", self.n, lambda perm: col_sigma(self.m, self.n, perm))]

    def text(self) -> str:
        return f"matrix:{self.m},{self.n}"


@dataclass(frozen=True)
class Transpose(_IndexAction):
    """Group generated by the diagonal action of Sym([n]) and x_ij -> x_ji."""

    n: int
    factors = Square.factors

    def generators(self) -> list:
        return super().generators() + [transpose_sigma(self.n)]

    def text(self) -> str:
        return f"transpose:{self.n}"


@dataclass(frozen=True)
class Partition:
    """Product of symmetric groups, one per block of variable ids: parts is
    a tuple of tuples of str, with no variable in two places."""

    parts: tuple

    def __post_init__(self):
        nested = isinstance(self.parts, tuple) and all(isinstance(b, tuple) for b in self.parts)
        names = [v for b in self.parts for v in b] if nested else [None]
        if not all(isinstance(v, str) for v in names) or len(set(names)) < len(names):
            raise CircuitError(f"bad group spec {self!r} (parts are tuples of distinct str)")

    def factors(self) -> list:
        raise CircuitError(f"{self!r} has no index points; supports are defined "
                           "for Square, Transpose and Matrix groups")

    def generators(self) -> list:
        """(b1 b2) and the cycle (b2 ... bk) of each block (b1 ... bk)."""
        return [gen for block in self.parts for gen in _generating_pair(block)]

    def text(self) -> str:
        return "partition"


def parse_group(text: str):
    """The spec whose text() is text: square:N, matrix:M,N or transpose:N.
    A Partition's blocks are data, not text; the CLI reads them from the
    JSON file of partition:FILE.  Any other text raises CircuitError."""
    kind, _, sizes = text.partition(":")
    make = {"square": Square, "transpose": Transpose, "matrix": Matrix}.get(kind)
    if make is None:
        raise CircuitError(f"unknown group kind {kind!r} "
                           "(want square:N | matrix:M,N | transpose:N | partition:FILE)")
    try:
        return make(*(int(t) for t in sizes.split(",")))
    except (ValueError, TypeError, CircuitError):
        raise CircuitError(f"bad group spec {text!r} (sizes are integers >= 1)") from None


def _matrix_sigma(m: int, n: int, f) -> dict:
    """The variable permutation x_ij -> x_f(i,j) of an m x n matrix."""
    sigma = {}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if (t := f(i, j)) != (i, j):
                sigma[matrix_var(i, j)] = matrix_var(*t)
    return sigma


def diagonal_sigma(n: int, perm: dict) -> dict:
    return _matrix_sigma(n, n, lambda i, j: (perm.get(i, i), perm.get(j, j)))


def row_sigma(m: int, n: int, perm: dict) -> dict:
    return _matrix_sigma(m, n, lambda i, j: (perm.get(i, i), j))


def col_sigma(m: int, n: int, perm: dict) -> dict:
    return _matrix_sigma(m, n, lambda i, j: (i, perm.get(j, j)))


def transpose_sigma(n: int) -> dict:
    return _matrix_sigma(n, n, lambda i, j: (j, i))


def _point(tag, a):
    return a if tag is None else (tag, a)


def _generating_pair(points) -> list:
    """The transposition (p1 p2) and, for three or more points, the cycle
    (p2 p3 ... pk), as maps of the points they move; together they generate
    Sym(points), since conjugating (p1 p2) by the powers of the cycle gives
    every star transposition (p1 pk)."""
    p = tuple(points)
    gens = [{p[0]: p[1], p[1]: p[0]}] if len(p) >= 2 else []
    if len(p) >= 3:
        gens.append(dict(zip(p[1:], p[2:] + p[1:2])))
    return gens


def group_generators(spec) -> list:
    """spec.generators(): variable permutations generating the group, fresh dicts."""
    return spec.generators()


def _check_sigma(circuit: Circuit, sigma: dict):
    vs = set(circuit.variables)
    for a, b in sigma.items():
        if a not in vs or b not in vs:
            raise CircuitError("permutation mentions unknown variable " + " and ".join(
                repr(x) for x in dict.fromkeys((a, b)) if x not in vs))
    if {sigma.get(v, v) for v in vs} != vs:
        raise CircuitError("map is not a permutation of the variables")


# ---------------------------------------------------------------------------
# Extensions


def _gate_index(circuit: Circuit) -> dict:
    """(label, wires) -> gate.  A circuit built by CircuitBuilder comes with
    its hash-cons table as the index (see CircuitBuilder.build); any other
    circuit is indexed here, and CircuitError names the first two gates
    that share a label and children."""
    if circuit._gate_index is None:
        index = {}
        for g in sorted(circuit.gates):
            h = index.setdefault((circuit.gates[g], circuit.wires[g]), g)
            if h != g:
                raise CircuitError(f"gates {h} and {g} share a label and children; "
                                   "the circuit is not rigid")
        circuit._gate_index = index
    return circuit._gate_index


def _extension(circuit: Circuit, sigma: dict):
    """The extension of sigma as {gate: image} over the gates it moves, or
    None if sigma has no extension; cached per sigma.

    Input gates map through inputs_by_var.  One pass in topological order
    then looks up the image of each gate with a moved child, by its label
    and the images of its wires; a gate none of whose children moved keeps
    its own (label, wires) key, which by rigidity is its own index entry, so
    it is fixed without a lookup.  The work follows the gates with a moved
    child, not the whole circuit."""
    _gate_index(circuit)
    key = tuple(sorted(sigma.items()))
    if key not in circuit._extensions:
        _check_sigma(circuit, sigma)
        circuit._extensions[key] = _moved_gates(circuit, sigma)
    return circuit._extensions[key]


def _moved_gates(circuit: Circuit, sigma: dict):
    """The uncached pass of _extension."""
    index, gates, wires = circuit._gate_index, circuit.gates, circuit.wires
    by_var = circuit.inputs_by_var
    moved = {}
    for var, image in sigma.items():
        if var != image and var in by_var:
            if image not in by_var:
                return None
            moved[by_var[var]] = by_var[image]
    for g in circuit.topo_order():
        ws = wires[g]
        for c, _t in ws:
            if c in moved:
                break
        else:
            continue
        if len(ws) == 2:   # most gates of a threshold stage: no list, one compare
            (c, s), (d, t) = ws
            c, d = moved.get(c, c), moved.get(d, d)
            ws = (((c, s), (d, t)) if c < d else ((d, t), (c, s)) if d < c
                  else _sorted_wires([(c, s), (d, t)]))
        else:
            ws = _sorted_wires([(moved.get(c, c), t) for c, t in ws])
        h = index.get((gates[g], ws))
        if h is None:
            return None
        if h != g:
            moved[g] = h
    return None if circuit.output in moved else moved


def find_extension(circuit: Circuit, sigma: dict):
    """The gate map pi making (sigma, pi) an automorphism, or None if none
    exists.  The circuit must be rigid.

    Any automorphism maps each gate to the gate whose label is its own (with
    sigma applied to an input's variable) and whose wires are the images of
    its own, so the extension is unique, and one pass in topological order
    computes it.  The map is injective by induction along the order: two
    gates with one image have equal labels and, by induction, equal
    children, so by rigidity they are one gate.  An injective map of the
    gates into themselves is a bijection, and it keeps labels and maps wires
    onto wires by construction.  The pass is cached per sigma as the map of
    the gates it moves (_extension); the full map returned here is the
    identity updated with it.
    """
    moved = _extension(circuit, sigma)
    if moved is None:
        return None
    order = circuit.topo_order()
    pi = dict(zip(order, order))
    pi.update(moved)
    return pi


# ---------------------------------------------------------------------------
# Symmetry checking and orbits


@dataclass
class SymmetryReport:
    symmetric: bool
    witnesses: list       # generator's variable permutation, None where it has no extension
    failed: list          # indices of generators without extensions


def check_symmetric(circuit: Circuit, spec) -> SymmetryReport:
    """Extend every spec.generators() entry, in that order, and report
    it as its own witness, or None where it has no extension.  The variable
    permutations with an extension form a group (extensions compose and
    invert), so the circuit is symmetric under the whole group iff every
    generator extends.  The extensions stay cached for orbits and supports."""
    witnesses = []
    failed = []
    for idx, sigma in enumerate(spec.generators()):
        if _extension(circuit, sigma) is None:
            witnesses.append(None)
            failed.append(idx)
        else:
            witnesses.append(sigma)
    return SymmetryReport(not failed, witnesses, failed)


@dataclass
class OrbitReport:
    orbits: list          # sorted list of sorted gate-id lists
    max_orbit: int

    @functools.cached_property
    def _orbit_index(self) -> dict:
        return {g: orb for orb in self.orbits for g in orb}

    def orbit_of(self, gate: int) -> list:
        """The orbit holding gate, from an index of the gates made on the
        first call; KeyError for a gate in no orbit."""
        return self._orbit_index[gate]


def orbits(circuit: Circuit, perms: list) -> OrbitReport:
    """Orbit partition of the gates under the group generated by the
    extensions of the variable permutations perms.  The circuit must be
    rigid; CircuitError names the first entry that has no extension (a None
    entry of SymmetryReport.witnesses included).  Each orbit is closed over
    the cached moved-gate maps (_extension), so the closure touches only
    the gates some extension moves; every other gate is a singleton orbit."""
    moves = []
    for i, sigma in enumerate(perms):
        moved = None if sigma is None else _extension(circuit, sigma)
        if moved is None:
            raise CircuitError(f"permutation {i} has no extension")
        moves.append(moved)
    seen = set()
    orbs = []
    for moved in moves:
        for g in moved:
            if g not in seen:
                # the closure of g under the extensions: each maps a gate
                # it does not move to itself
                seen.add(g)
                orb = [g]
                for x in orb:
                    for m in moves:
                        y = m.get(x, x)
                        if y not in seen:
                            seen.add(y)
                            orb.append(y)
                orb.sort()
                orbs.append(orb)
    orbs += [[g] for g in circuit.gates if g not in seen]
    orbs.sort()
    return OrbitReport(orbs, max(map(len, orbs)))


# ---------------------------------------------------------------------------
# Supports


def _stars(circuit: Circuit, size: int, make) -> dict:
    """{k: t_k} for 2 <= k <= size, t_k the extension (moved-gate map) of
    the star transposition (1 k) of one factor's points, or None where
    (1 k) has none.  With t_2 and the cycle c = (2 3 ... size) extended (the factor's
    generators, cached by check_symmetric), t_(k+1) is t_k conjugated by c,
    since c (1 k) c^-1 = (1 k+1): c(g) -> c(t_k(g)) over the gates t_k
    moves, dict work with no gate lookup.  Otherwise each star gets its own
    extension."""
    gens = [_extension(circuit, make(perm)) for perm in _generating_pair(range(1, size + 1))]
    if None in gens:
        return {k: _extension(circuit, make({1: k, k: 1})) for k in range(2, size + 1)}
    stars = gens[:1]
    cycle = gens[1] if size >= 3 else {}
    for _k in range(3, size + 1):
        stars.append({cycle.get(g, g): cycle.get(h, h) for g, h in stars[-1].items()})
    return dict(enumerate(stars, start=2))


def _point_classes(circuit: Circuit, gate: int, spec) -> list:
    """(tag, classes) per entry of spec.factors(): the classes of ~ on the
    factor's points 1..size, each ascending, in order of first points.  Each
    point b joins the first class whose first point a has (a b) fixing the
    gate, in O(size * classes) reads.  (a b) is the star (1 b) when a = 1,
    else (1 a)(1 b)(1 a), and the stars' extensions (_stars) are cached
    once per (circuit, spec), so the gate's image takes at most three
    reads; when a star has no extension, (a b) may still have one, and its
    own extension, cached in direct, is read instead."""
    if gate not in circuit.gates:
        raise CircuitError(f"gate {gate} does not exist")
    _gate_index(circuit)
    if spec not in circuit._stars:
        circuit._stars[spec] = [(tag, size, make, _stars(circuit, size, make), {})
                                for tag, size, make in spec.factors()]
    out = []
    for tag, size, make, stars, direct in circuit._stars[spec]:
        classes = []
        for b in range(1, size + 1):
            for cls in classes:
                a = cls[0]
                chain = (stars[b],) if a == 1 else (stars[a], stars[b], stars[a])
                if None in chain:
                    if (a, b) not in direct:
                        direct[a, b] = _extension(circuit, make({a: b, b: a}))
                    pi = direct[a, b]
                    image = None if pi is None else pi.get(gate, gate)
                else:
                    image = gate
                    for pi in chain:
                        image = pi.get(image, image)
                if image == gate:
                    cls.append(b)
                    break
            else:
                classes.append([b])
        out.append((tag, classes))
    return out


def bad_pairs(circuit: Circuit, gate: int, spec) -> list:
    """Index pairs (a, b), a < b, of one factor whose transposition has no
    extension fixing the gate, rows before columns and each factor in
    combinations order: the pairs across the classes of _point_classes.
    Under Transpose(n) they are the Square(n) pairs (see minimal_support)."""
    bad = []
    for tag, classes in _point_classes(circuit, gate, spec):
        cls_of = {p: i for i, cls in enumerate(classes) for p in cls}
        bad += [(_point(tag, a), _point(tag, b))
                for a, b in itertools.combinations(sorted(cls_of), 2)
                if cls_of[a] != cls_of[b]]
    return bad


def minimal_support(circuit: Circuit, gate: int, spec):
    """A minimum-cardinality support of the gate in the index-point action.

    The transpositions of points outside a set generate its pointwise
    stabilizer, so the set is a support iff it meets every bad pair.  Those
    of a factor form a complete multipartite graph on its point classes, so
    a minimum cover is the factor's points minus one largest class: among
    equal ones, the class with the latest first point, which makes the
    cover the lexicographically first.  Under Transpose(n) it is the
    Square(n) support: the transpose map fixes every point, so a gate it
    moves has no support in the full group."""
    support = set()
    for tag, classes in _point_classes(circuit, gate, spec):
        left_out = max(reversed(classes), key=len, default=[])
        support.update(_point(tag, p) for cls in classes if cls is not left_out for p in cls)
    return support
