"""Group actions on variable spaces, circuit automorphisms, orbits, supports.

A variable permutation is a dict mapping variable ids to variable ids
(identity where missing).  A witness pairs such a permutation with a gate
bijection.  find_extension searches for a witness extending a given variable
permutation: invariant color refinement first, then backtracking with forced
propagation.  The search is complete, so a None answer means no extension
exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .circuit import Circuit
from .errors import CircuitError
from .wl import refine


def matrix_var(i: int, j: int) -> str:
    return f"x_{i}_{j}"


def matrix_variables(m: int, n: int | None = None) -> list:
    """Row-major variable ids for an m x n (default square) matrix."""
    if n is None:
        n = m
    return [matrix_var(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Group specifications


@dataclass(frozen=True)
class Square:
    """Sym([n]) acting diagonally: x_ij -> x_{s(i)s(j)}."""

    n: int


@dataclass(frozen=True)
class Matrix:
    """Sym([m]) x Sym([n]): rows and columns permuted independently."""

    m: int
    n: int


@dataclass(frozen=True)
class Transpose:
    """Group generated by the diagonal action of Sym([n]) and x_ij -> x_ji."""

    n: int


@dataclass(frozen=True)
class Partition:
    """Product of symmetric groups, one per block of variable ids."""

    parts: tuple


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


def group_generators(spec) -> list:
    """Variable permutations generating the group: all transpositions of the
    index set(s), plus the transpose map for Transpose specs."""
    if isinstance(spec, Partition):
        return [{a: b, b: a} for block in spec.parts
                for a, b in itertools.combinations(block, 2)]
    gens = [sigma for a, b in itertools.combinations(_support_points(spec), 2)
            if (sigma := _point_transposition(spec, a, b)) is not None]
    if isinstance(spec, Transpose):
        gens.append(transpose_sigma(spec.n))
    return gens


def apply_sigma(sigma: dict, var: str) -> str:
    return sigma.get(var, var)


def compose_sigma(first: dict, then: dict) -> dict:
    """Permutation applying `first`, then `then`."""
    out = {}
    for v in set(first) | set(then):
        w = apply_sigma(then, apply_sigma(first, v))
        if w != v:
            out[v] = w
    return out


def invert_sigma(sigma: dict) -> dict:
    return {w: v for v, w in sigma.items() if v != w}


def _check_sigma(circuit: Circuit, sigma: dict):
    vs = set(circuit.variables)
    for a, b in sigma.items():
        if a not in vs or b not in vs:
            raise CircuitError(f"permutation mentions unknown variable {a!r} or {b!r}")
    if {apply_sigma(sigma, v) for v in vs} != vs:
        raise CircuitError("map is not a permutation of the variables")


# ---------------------------------------------------------------------------
# Automorphism verification


@dataclass
class Witness:
    sigma: dict  # variable permutation
    pi: dict     # gate bijection

    def inverse(self) -> "Witness":
        return Witness(invert_sigma(self.sigma), {h: g for g, h in self.pi.items()})

    def compose(self, then: "Witness") -> "Witness":
        """Witness applying self, then `then`."""
        return Witness(compose_sigma(self.sigma, then.sigma),
                       {g: then.pi[h] for g, h in self.pi.items()})


def verify_automorphism(circuit: Circuit, witness: Witness) -> list:
    """All violations of the automorphism conditions; empty list means valid.

    Conditions: pi is a gate bijection fixing the output and every constant
    gate, acts on input gates as sigma does on variables, preserves every
    other label exactly, and maps the wire set onto itself tag-for-tag.
    """
    pi = witness.pi
    sigma = witness.sigma
    gates = circuit.gates
    probs = []
    if set(pi) != set(gates) or set(pi.values()) != set(gates):
        return ["gate map is not a bijection on the gate set"]
    if pi[circuit.output] != circuit.output:
        probs.append(f"output gate {circuit.output} maps to {pi[circuit.output]}")
    for g, lab in gates.items():
        h = pi[g]
        hlab = gates[h]
        if lab.kind == "input":
            want = apply_sigma(sigma, lab.var)
            if hlab.kind != "input" or hlab.var != want:
                probs.append(f"input gate {g} ({lab.var}) maps to {h} ({hlab!r}), wanted {want}")
        elif lab.kind == "const":
            if h != g:
                probs.append(f"constant gate {g} moves to {h}")
        elif hlab != lab:
            probs.append(f"gate {g} label {lab!r} maps to {h} label {hlab!r}")
        image = {(pi[c], t) for c, t in circuit.wires[g]}
        if image != set(circuit.wires[h]):
            probs.append(f"wires of gate {g} do not map onto wires of {h}")
    return probs


# ---------------------------------------------------------------------------
# Extension search


def invariant_colors(circuit: Circuit) -> dict:
    """Automorphism-invariant gate coloring (cached on the circuit).

    Seeds: each constant gate and the output get unique colors; input gates
    share one color; other gates are colored by exact label.  Refines by the
    (tag, color) multisets of children and of parents until stable.  Any
    automorphism preserves these colors.
    """
    if circuit._colors is not None:
        return circuit._colors
    order = list(circuit.gates)
    index = {g: i for i, g in enumerate(order)}
    seeds = []
    for g, lab in circuit.gates.items():
        if lab.kind == "const":
            seeds.append(("pin", g))
        elif g == circuit.output:
            seeds.append(("out", lab))
        elif lab.kind == "input":
            seeds.append(("inp",))
        else:
            seeds.append(("lab", lab))
    parents = circuit.parents()
    kids = [[(t or "", index[c]) for c, t in circuit.wires[g]] for g in order]
    pars = [[(t or "", index[p]) for p, t in parents[g]] for g in order]

    def step(col):
        return [(tuple(sorted((t, col[c]) for t, c in ks)),
                 tuple(sorted((t, col[p]) for t, p in ps)))
                for ks, ps in zip(kids, pars)]

    for col, _ in refine(seeds, step):
        pass
    circuit._colors = dict(zip(order, col))
    return circuit._colors


def _ext_cache(circuit: Circuit) -> dict:
    cache = getattr(circuit, "_extension_cache", None)
    if cache is None:
        cache = {}
        circuit._extension_cache = cache
    return cache


def find_extension(circuit: Circuit, sigma: dict, fix: int | None = None):
    """A gate map pi making (sigma, pi) an automorphism, with pi(fix)=fix if
    given; None if none exists.  Deterministic: decisions take gates in
    ascending id order and try candidate images in ascending id order.
    """
    key = (tuple(sorted(sigma.items())), fix)
    cache = _ext_cache(circuit)
    if key in cache:
        hit = cache[key]
        return dict(hit) if hit is not None else None
    _check_sigma(circuit, sigma)
    result = _search_extension(circuit, sigma, fix)
    cache[key] = dict(result) if result is not None else None
    return result


def _search_extension(circuit: Circuit, sigma: dict, fix):
    """Backtracking search; any total map it accepts is an automorphism.

    Invariant: `assign` keeps the map injective, maps a gate only to one of
    its own color (so labels match: colors refine labels), and checks the
    tagged wires of both gates against already-mapped neighbors in both
    directions, so every wire of the source and of the image is checked
    when its second end is mapped.  Seeds pin constants and the output and
    send each input gate where sigma sends its variable.  So a total map
    that `assign` accepts is a witness, and none is re-checked with
    verify_automorphism.
    """
    gates = circuit.gates
    colors = invariant_colors(circuit)
    parents = circuit.parents()
    childset = {g: circuit.child_set(g) for g in gates}
    parset = {g: frozenset(ps) for g, ps in parents.items()}

    members = {}
    for g in sorted(gates):
        members.setdefault(colors[g], []).append(g)

    rho = {}
    rinv = {}
    trail = []

    def assign(a, b) -> bool:
        """Map a -> b plus all consequences; False on contradiction."""
        queue = [(a, b)]
        while queue:
            g, h = queue.pop()
            if g in rho:
                if rho[g] != h:
                    return False
                continue
            if h in rinv or colors[g] != colors[h]:
                return False
            rho[g] = h
            rinv[h] = g
            trail.append(g)
            # wire consistency against already-mapped neighbors, both directions
            for c, t in circuit.wires[g]:
                if c in rho and (rho[c], t) not in childset[h]:
                    return False
            for c, t in circuit.wires[h]:
                if c in rinv and (rinv[c], t) not in childset[g]:
                    return False
            for p, t in parents[g]:
                if p in rho and (rho[p], t) not in parset[h]:
                    return False
            for p, t in parents[h]:
                if p in rinv and (rinv[p], t) not in parset[g]:
                    return False
            # forced singletons among (tag, color) classes of children/parents
            for side_g, side_h in ((circuit.wires[g], circuit.wires[h]),
                                   (parents[g], parents[h])):
                free_g = {}
                for c, t in side_g:
                    if c not in rho:
                        free_g.setdefault((t, colors[c]), []).append(c)
                free_h = {}
                for c, t in side_h:
                    if c not in rinv:
                        free_h.setdefault((t, colors[c]), []).append(c)
                if set(free_g) != set(free_h):
                    return False
                for cls, items in free_g.items():
                    other = free_h[cls]
                    if len(items) != len(other):
                        return False
                    if len(items) == 1:
                        queue.append((items[0], other[0]))
        return True

    def undo(mark):
        while len(trail) > mark:
            g = trail.pop()
            del rinv[rho[g]]
            del rho[g]

    # forced seeds: constants pin, inputs follow sigma, output pins, fix pins
    by_var = circuit.inputs_by_var()
    seeds = []
    for g, lab in sorted(gates.items()):
        if lab.kind == "const":
            seeds.append((g, g))
        elif lab.kind == "input":
            target = by_var.get(apply_sigma(sigma, lab.var))
            if target is None:
                return None
            seeds.append((g, target))
    seeds.append((circuit.output, circuit.output))
    if fix is not None:
        if fix not in gates:
            raise CircuitError(f"fix gate {fix} does not exist")
        seeds.append((fix, fix))
    for g, h in seeds:
        if not assign(g, h):
            return None

    order = sorted(gates)

    def next_unassigned():
        for g in order:
            if g not in rho:
                return g
        return None

    stack = []
    g = next_unassigned()
    if g is None:
        return dict(rho)
    stack.append((g, iter(members[colors[g]]), len(trail)))
    while stack:
        g, cands, mark = stack[-1]
        advanced = False
        for h in cands:
            if h in rinv:
                continue
            if assign(g, h):
                nxt = next_unassigned()
                if nxt is None:
                    return dict(rho)
                stack.append((nxt, iter(members[colors[nxt]]), len(trail)))
                advanced = True
                break
            undo(mark)
        if not advanced:
            undo(mark)
            stack.pop()
            if stack:
                undo(stack[-1][2])
    return None


# ---------------------------------------------------------------------------
# Symmetry checking and orbits


@dataclass
class SymmetryReport:
    symmetric: bool
    witnesses: list       # Witness per generator, None where no extension exists
    failed: list          # indices of generators without extensions


def check_symmetric(circuit: Circuit, spec) -> SymmetryReport:
    """Search an extension for every group generator.  Extensions compose, so
    covering the generators covers the whole group."""
    witnesses = []
    failed = []
    for idx, sigma in enumerate(group_generators(spec)):
        pi = find_extension(circuit, sigma)
        if pi is None:
            witnesses.append(None)
            failed.append(idx)
        else:
            witnesses.append(Witness(sigma, pi))
    return SymmetryReport(not failed, witnesses, failed)


@dataclass
class OrbitReport:
    orbits: list          # sorted list of sorted gate-id lists
    max_orbit: int

    def orbit_of(self, gate: int) -> list:
        for orb in self.orbits:
            if gate in orb:
                return orb
        raise KeyError(gate)


def orbits(circuit: Circuit, witnesses: list) -> OrbitReport:
    """Orbit partition of the gates under the group generated by the witness
    gate maps (union-find closure).  Invalid witnesses are rejected."""
    for w in witnesses:
        problems = verify_automorphism(circuit, w)
        if problems:
            raise CircuitError("invalid witness: " + problems[0])
    parent = {g: g for g in circuit.gates}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for w in witnesses:
        for g, h in w.pi.items():
            rg, rh = find(g), find(h)
            if rg != rh:
                parent[rg] = rh
    classes = {}
    for g in circuit.gates:
        classes.setdefault(find(g), []).append(g)
    orbs = sorted(sorted(c) for c in classes.values())
    return OrbitReport(orbs, max(len(c) for c in orbs))


# ---------------------------------------------------------------------------
# Supports


def _support_points(spec):
    if isinstance(spec, (Square, Transpose)):
        return list(range(1, spec.n + 1))
    if isinstance(spec, Matrix):
        return [("r", i) for i in range(1, spec.m + 1)] + \
               [("c", j) for j in range(1, spec.n + 1)]
    raise CircuitError(f"{spec!r} has no index points; supports are defined "
                       "for Square, Transpose and Matrix groups")


def _point_transposition(spec, a, b):
    """Variable permutation for the transposition (a b), or None when the
    pair does not lie in one factor of the group."""
    if isinstance(spec, (Square, Transpose)):
        return diagonal_sigma(spec.n, {a: b, b: a})
    ka, ia = a
    kb, ib = b
    if ka != kb:
        return None
    if ka == "r":
        return row_sigma(spec.m, spec.n, {ia: ib, ib: ia})
    return col_sigma(spec.m, spec.n, {ia: ib, ib: ia})


def _bad_pairs(circuit: Circuit, gate: int, spec, points):
    """Pairs of the given index points, in combinations order, whose
    transposition has no extension fixing the gate."""
    for a, b in itertools.combinations(points, 2):
        sigma = _point_transposition(spec, a, b)
        if sigma is not None and find_extension(circuit, sigma, fix=gate) is None:
            yield a, b


def is_support(circuit: Circuit, gate: int, S, spec) -> bool:
    """True iff every transposition of index points outside S extends to an
    automorphism fixing the gate.  Such transpositions generate the pointwise
    stabilizer of S, so this is exactly the support condition."""
    points = _support_points(spec)
    sset = set(S)
    for p in sset:
        if p not in points:
            raise CircuitError(f"{p!r} is not an index point of {spec!r}")
    outside = [p for p in points if p not in sset]
    return next(_bad_pairs(circuit, gate, spec, outside), None) is None


def bad_pairs(circuit: Circuit, gate: int, spec) -> list:
    """Index pairs whose transposition has no extension fixing the gate."""
    return list(_bad_pairs(circuit, gate, spec, _support_points(spec)))


def minimal_support(circuit: Circuit, gate: int, spec):
    """A minimum-cardinality support of the gate.

    A set is a support iff it meets every pair in bad_pairs (a transposition
    avoiding the set must have a fixing extension), so the minimum support is
    a minimum vertex cover of the bad-pair graph.  Searched smallest-first
    with lexicographic tie-break; exponential in the point count, intended
    for desk-scale index sets.
    """
    points = _support_points(spec)
    bad = bad_pairs(circuit, gate, spec)
    for size in range(len(points) + 1):
        for cand in itertools.combinations(points, size):
            cset = set(cand)
            if all(a in cset or b in cset for a, b in bad):
                return set(cand)
    raise AssertionError("unreachable: the full point set is always a support")
