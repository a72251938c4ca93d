"""The backtracking extension search that find_extension replaced, and the
automorphism conditions, kept as test oracles.

verify_automorphism checks a (sigma, pi) pair against the conditions
directly, and is the independent judge of every gate map find_extension
returns.  The search does not assume rigidity: it refines an
automorphism-invariant gate coloring, then backtracks over candidate
images with forced propagation.  It is complete, so a None answer means no
extension exists.  It prunes on wire sets; a total map is accepted only if
verify_automorphism, which counts multiplicities, passes, and the search
goes on otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from symcirc.circuit import _child_key
from symcirc.errors import CircuitError
from symcirc.symmetry import (
    Matrix,
    Partition,
    Transpose,
    col_sigma,
    diagonal_sigma,
    find_extension,
    row_sigma,
    transpose_sigma,
)
from symcirc.wl import refine


@dataclass
class Witness:
    sigma: dict  # variable permutation
    pi: dict     # gate bijection


def verify_automorphism(circuit, witness: Witness) -> list:
    """All violations of the automorphism conditions; empty list means valid.

    Conditions: pi is a gate bijection fixing the output and every constant
    gate, acts on input gates as sigma does on variables, preserves every
    other label exactly, and maps each gate's wire multiset onto its image's
    tag-for-tag, multiplicities included.
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
            want = sigma.get(lab.var, lab.var)
            if hlab.kind != "input" or hlab.var != want:
                probs.append(f"input gate {g} ({lab.var}) maps to {h} ({hlab!r}), wanted {want}")
        elif lab.kind == "const":
            if h != g:
                probs.append(f"constant gate {g} moves to {h}")
        elif hlab != lab:
            probs.append(f"gate {g} label {lab!r} maps to {h} label {hlab!r}")
        image = tuple(sorted(((pi[c], t) for c, t in circuit.wires[g]), key=_child_key))
        if image != circuit.wires[h]:
            probs.append(f"wires of gate {g} do not map onto wires of {h}")
    return probs


def invariant_colors(circuit) -> dict:
    """Automorphism-invariant gate coloring.

    Seeds: each constant gate and the output get unique colors; input gates
    share one color; other gates are colored by exact label.  Refines by the
    (tag, color) multisets of children and of parents until stable.
    """
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

    def step(col, ids):
        return [ids.setdefault((col[i], tuple(sorted((t, col[c]) for t, c in ks)),
                                tuple(sorted((t, col[p]) for t, p in ps))), len(ids))
                for i, (ks, ps) in enumerate(zip(kids, pars))]

    for col, _ in refine(seeds, step):
        pass
    return dict(zip(order, col))


def search_extension(circuit, sigma: dict, fix=None, colors=None):
    """A gate map pi making (sigma, pi) an automorphism with pi(fix) = fix,
    or None.  Decisions take gates in ascending id order and try candidate
    images in ascending id order."""
    gates = circuit.gates
    colors = invariant_colors(circuit) if colors is None else colors
    parents = circuit.parents()
    childset = {g: frozenset(ws) for g, ws in circuit.wires.items()}
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

    def accept():
        return verify_automorphism(circuit, Witness(sigma, dict(rho))) == []

    by_var = circuit.inputs_by_var
    seeds = []
    for g, lab in sorted(gates.items()):
        if lab.kind == "const":
            seeds.append((g, g))
        elif lab.kind == "input":
            target = by_var.get(sigma.get(lab.var, lab.var))
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

    g = next_unassigned()
    if g is None:
        return dict(rho) if accept() else None
    stack = [(g, iter(members[colors[g]]), len(trail))]
    while stack:
        g, cands, mark = stack[-1]
        advanced = False
        for h in cands:
            if h in rinv:
                continue
            if assign(g, h):
                nxt = next_unassigned()
                if nxt is None:
                    if accept():
                        return dict(rho)
                else:
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


def fixing(pi, fix):
    """A gate map from find_extension as search_extension answers with the
    same fix: pi if it fixes that gate (or fix is None), else None."""
    if pi is None or (fix is not None and pi[fix] != fix):
        return None
    return pi


def point_transpositions(spec) -> list:
    """((a, b), sigma) per transposition of two index points of one factor
    of the group: rows before columns, each factor in combinations order."""
    if isinstance(spec, Matrix):
        factors = [(("r", spec.m), lambda p: row_sigma(spec.m, spec.n, p)),
                   (("c", spec.n), lambda p: col_sigma(spec.m, spec.n, p))]
        return [(((tag, a), (tag, b)), make({a: b, b: a}))
                for (tag, size), make in factors
                for a, b in itertools.combinations(range(1, size + 1), 2)]
    return [((a, b), diagonal_sigma(spec.n, {a: b, b: a}))
            for a, b in itertools.combinations(range(1, spec.n + 1), 2)]


def all_transpositions(spec) -> list:
    """Every transposition of the group's points (and, for Transpose, the
    transpose map): a generating set with one map per pair of points."""
    if isinstance(spec, Partition):
        return [{a: b, b: a} for block in spec.parts
                for a, b in itertools.combinations(block, 2)]
    gens = [sigma for _pair, sigma in point_transpositions(spec)]
    if isinstance(spec, Transpose):
        gens.append(transpose_sigma(spec.n))
    return gens


def bad_pairs(circuit, gate, spec, colors=None) -> list:
    """Index pairs whose transposition has no extension fixing the gate."""
    return [pair for pair, sigma in point_transpositions(spec)
            if search_extension(circuit, sigma, gate, colors) is None]


def minimal_support(circuit, gate, spec, colors=None) -> set:
    """Smallest point set meeting every bad pair, lexicographic tie-break
    over the points of the transpositions in their order."""
    points = list(dict.fromkeys(p for pair, _sigma in point_transpositions(spec)
                                for p in pair))
    bad = bad_pairs(circuit, gate, spec, colors)
    for size in range(len(points) + 1):
        for cand in itertools.combinations(points, size):
            if all(a in cand or b in cand for a, b in bad):
                return set(cand)
    raise AssertionError("unreachable: the full point set is always a support")


def orbit_partition(circuit, perms) -> list:
    """Orbits of the group the full gate maps of perms' extensions
    generate, as a sorted list of sorted gate lists: union-find over every
    gate, each map read at every gate."""
    parent = {g: g for g in circuit.gates}

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for sigma in perms:
        pi = find_extension(circuit, sigma)
        for g in circuit.gates:
            parent[find(g)] = find(pi[g])
    classes = {}
    for g in circuit.gates:
        classes.setdefault(find(g), []).append(g)
    return sorted(sorted(c) for c in classes.values())
