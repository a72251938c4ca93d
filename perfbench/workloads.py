"""The three seeded workloads: their inputs, known answers and checks.

A check is one guarantee verdict on one generated input.  Its function calls
symcirc's public API inside spans named ``<module>.<call>``, adds counters
taken from inputs and public return values, and returns what it observed.
``judge`` compares the observation with the known answers from ``oracles``.

Every workload is a fixed list of checks per seed: the seed picks matrices,
gates, accept sets, relabelings and twist vertices, while the list's shape
stays the same, so the work (and every gate total) is the same for any seed.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from symcirc import (  # noqa: E402
    GF,
    QQ,
    Matrix,
    Transpose,
    build_cfi,
    check_symmetric,
    complete_graph,
    cycle_graph,
    deserialize,
    enumerate_perfect_matchings,
    eval_on_matrix,
    expand_to_threshold,
    group_generators,
    leverrier_det_circuit,
    lower_to_partition_basis,
    matching_count_via_permanent,
    minimal_support,
    orbit_preservation_check,
    orbits,
    orientation_odd_set_census,
    petersen_graph,
    ryser_perm_circuit,
    serialize,
    value_sets,
    verify_lowering,
    wl_equivalent,
)
from symcirc.cli import run as cli_run  # noqa: E402

import oracles  # noqa: E402

WORKLOADS = ("families", "lowering", "cfi_wl")

#: Checks whose failure is a known defect of the program, with the reason.
#: They still count as failed; they only leave the run's ``correct`` true.
KNOWN_DEFECTS = {
    ("perm3_F3_exact", "orbit_sizes"):
        "expand_to_threshold builds a tower per wire, so orbit sizes go 9 -> 9 -> 18",
}


# ---------------------------------------------------------------------------
# Known-answer predicates


@dataclass(frozen=True)
class AtMost:
    bound: int


@dataclass(frozen=True)
class Includes:
    """The observed collection contains every one of these items."""
    items: frozenset


@dataclass(frozen=True)
class AllEqual:
    """Every entry of the observed tuple is the same."""


def matches(observed, expected) -> bool:
    if isinstance(expected, AtMost):
        return observed <= expected.bound
    if isinstance(expected, Includes):
        return expected.items <= set(observed)
    if isinstance(expected, AllEqual):
        return len(set(observed)) == 1
    return observed == expected


@dataclass
class Check:
    name: str
    fn: object       # fn(ctx, **args) -> dict of observations
    args: dict
    expect: dict     # guarantee -> known answer or predicate


def judge(check: Check, observed: dict) -> list:
    """Guarantees whose observation differs from the known answer."""
    return [g for g, want in check.expect.items()
            if g not in observed or not matches(observed[g], want)]


@dataclass
class Ctx:
    """What a check may use besides its inputs: the tracer's span factory,
    the pass's counters and a scratch directory for CLI files."""
    span: object
    tmpdir: Path
    counts: Counter = field(default_factory=Counter)


# ---------------------------------------------------------------------------
# families


def family_check(ctx, kind, n, matrix, gate):
    with ctx.span("generators.build"):
        gen = leverrier_det_circuit(n) if kind == "det" else ryser_perm_circuit(n)
    src = gen.circuit
    ctx.counts["circuit_gates"] += len(src.gates)
    with ctx.span("circuit.serialize"):
        text = serialize(src)
    ctx.counts["circuit.json_bytes"] += len(text.encode())
    with ctx.span("circuit.deserialize"):
        c = deserialize(text)
    with ctx.span("circuit.eval"):
        value = eval_on_matrix(c, matrix)
    spec = Transpose(n) if kind == "det" else Matrix(n, n)
    with ctx.span("symmetry.check_symmetric"):
        rep = check_symmetric(c, spec)
    ctx.counts["symmetry.generators"] += len(group_generators(spec))
    with ctx.span("symmetry.orbits"):
        orb = orbits(c, rep.witnesses)
    with ctx.span("symmetry.minimal_support"):
        support = minimal_support(c, gen.names[gate], spec)
    ctx.counts["symmetry.support_pairs"] += oracles.transpositions_tried(
        "matrix" if kind == "perm" else "transpose", n, n)
    return {
        "gates": len(src.gates),
        "roundtrip": (c.gates, c.wires, c.output) == (src.gates, src.wires, src.output),
        "value": value.as_fraction(),
        "symmetric": rep.symmetric,
        "input_orbits": {
            "diagonal": len(orb.orbit_of(gen.names[("x", 1, 1)])),
            "off_diagonal": len(orb.orbit_of(gen.names[("x", 1, 2)])),
        },
        "output_orbit": len(orb.orbit_of(c.output)),
        "support": frozenset(support),
    }


def _family_inputs(rng) -> list:
    checks = []
    for kind in ("det", "perm"):
        for n in (4, 5, 6):
            matrix = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)] for _ in range(n)]
            if kind == "det":
                i, j = rng.sample(range(1, n + 1), 2)
                gate = ("pow", 2, i, j)
                support = oracles.pow_support(i, j)
                value = oracles.det(matrix)
                bound = oracles.det_gate_bound(n)
            else:
                # |S| = 1 or n - 1 by n, so both sides of the rule show and
                # the work does not depend on the seed
                size = 1 if n % 2 == 0 else n - 1
                S = tuple(sorted(rng.sample(range(1, n + 1), size)))
                gate = ("rprod", S)
                support = oracles.rprod_support(S, n)
                value = Fraction(oracles.perm(matrix))
                bound = oracles.perm_gate_bound(n)
            checks.append(Check(
                f"{kind}{n}", family_check,
                {"kind": kind, "n": n, "matrix": matrix, "gate": gate},
                {"gates": AtMost(bound), "roundtrip": True, "value": value,
                 "symmetric": True, "input_orbits": oracles.input_orbit_sizes(kind, n),
                 "output_orbit": 1, "support": support}))
    rng.shuffle(checks)
    return checks


# ---------------------------------------------------------------------------
# CLI pass


def cli_check(ctx, sub, argv, prepare=None):
    """Run one subcommand in process; argv entries starting with '@' name
    files in the scratch directory.  prepare(tmpdir) writes input files."""
    if prepare is not None:
        prepare(ctx.tmpdir)
    argv = [str(ctx.tmpdir / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with ctx.span(f"cli.{sub}"), redirect_stdout(out), redirect_stderr(err):
        code = cli_run(argv)
    doc = json.loads(out.getvalue()) if out.getvalue().strip() else {}
    return {"exit": code, **doc}


def _circuit_output(path: Path) -> int:
    """Output gate id of a circuit file the CLI wrote.  The CLI stores the
    serialized text as a JSON string, so the document may need a second
    decode."""
    doc = json.loads(path.read_text())
    if isinstance(doc, str):
        doc = json.loads(doc)
    return doc["output"]


def support_of_output(ctx, circuit, group):
    gate = _circuit_output(ctx.tmpdir / circuit[1:])
    obs = cli_check(ctx, "support", ["support", "--circuit", circuit,
                                     "--group", group, "--gate", str(gate)])
    obs["support"] = frozenset(obs.get("support", ()))
    return obs


def _cli_families(rng) -> list:
    n = 4
    matrix = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)] for _ in range(n)]
    text = ";".join(",".join(str(x) for x in row) for row in matrix)
    circ, group = "@det4.json", f"transpose:{n}"
    sizes = oracles.input_orbit_sizes("det", n)
    return [
        Check("cli.gen", cli_check,
              {"sub": "gen", "argv": ["gen", "det", "--n", str(n), "--out", circ]},
              {"exit": 0, "n": n, "group": group, "gates": AtMost(oracles.det_gate_bound(n))}),
        Check("cli.eval", cli_check,
              {"sub": "eval", "argv": ["eval", "--circuit", circ, f"--matrix={text}"]},
              {"exit": 0, "value": str(oracles.det(matrix))}),
        Check("cli.check-sym", cli_check,
              {"sub": "check-sym", "argv": ["check-sym", "--circuit", circ, "--group", group]},
              {"exit": 0, "symmetric": True, "failed_generators": []}),
        Check("cli.orbits", cli_check,
              {"sub": "orbits", "argv": ["orbits", "--circuit", circ, "--group", group]},
              {"exit": 0, "symmetric": True,
               "orbit_sizes": Includes(frozenset({sizes["diagonal"], sizes["off_diagonal"], 1}))}),
        Check("cli.support", support_of_output, {"circuit": circ, "group": group},
              {"exit": 0, "support": frozenset()}),
    ]


# ---------------------------------------------------------------------------
# lowering

#: (kind, n, p, value-set mode, accept sets); p None is Q.  Perm n=2 over Q
#: (exact) and over F_5 run with all six non-trivial accept sets, so one size
#: class holds 12 of the 22 checks and both check_s_p50 and check_s_tail of
#: the single pass fall inside it, not on the edge between two sizes; the
#: seeded shuffle spreads those 12 over the whole pass.  Perm
#: n=2 over Q with compositional value sets is left out: its expansion alone
#: (131k gates) takes longer than the rest of the list together.
LOWERING_INSTANCES = (
    ("det", 2, None, "exact", 1),
    ("det", 2, None, "compositional", 1),
    ("perm", 2, None, "exact", 6),
    ("det", 2, 5, "compositional", 1),
    ("perm", 2, 5, "compositional", 6),
    ("det", 2, 7, "compositional", 1),
    ("perm", 2, 7, "compositional", 1),
    ("det", 2, 11, "compositional", 1),
    ("perm", 2, 11, "compositional", 1),
    ("perm", 3, 3, "exact", 1),
)


def lowering_check(ctx, kind, n, p, mode, accept):
    fld = QQ if p is None else GF(p)
    with ctx.span("generators.build"):
        gen = (leverrier_det_circuit(n, fld, allow_positive_char=True) if kind == "det"
               else ryser_perm_circuit(n, fld))
    c = gen.circuit
    with ctx.span("lowering.value_sets"):
        vs = value_sets(c, mode)
    ctx.counts["lowering.value_set_size"] += sum(len(s) for s in vs.sets.values())
    with ctx.span("lowering.partition"):
        low = lower_to_partition_basis(c, accept, vs)
    ctx.counts["lowering.partition_gates"] += len(low.circuit.gates)
    ctx.counts["lowering.vectors_tried"] += vectors_tried(low.circuit)
    with ctx.span("lowering.expand"):
        ex = expand_to_threshold(low)
    ctx.counts["lowered_gates"] += len(ex.circuit.gates)
    ctx.counts["lowering.vectors_accepted"] += sum(1 for k in ex.gate_of if k[0] == "ac")
    with ctx.span("lowering.verify"):
        ok_d = verify_lowering(c, accept, low.circuit)
    with ctx.span("lowering.verify"):
        ok_c = verify_lowering(c, accept, ex.circuit)
    ctx.counts["lowering.assignments"] += 2 * 2 ** len(c.variables)
    with ctx.span("lowering.orbit_check"):
        rep = orbit_preservation_check(c, gen.witnesses, low, ex)
    return {
        "out_values": {v.as_fraction() for v in vs.sets[c.output]},
        "trivial": low.trivial,
        "verified_partition": ok_d,
        "verified_threshold": ok_c,
        "orbit_sizes": (rep.orb_phi, rep.orb_d, rep.orb_c),
    }


def vectors_tried(partition_circuit) -> int:
    """Count vectors the gadget expansion enumerates: over partition gates,
    the product of (wires in the part + 1) over the gate's parts."""
    total = 0
    for g, lab in partition_circuit.gates.items():
        if lab.kind not in ("psum", "pprod"):
            continue
        wires = Counter(t for _c, t in partition_circuit.wires[g])
        size = 1
        for tag in lab.parts_map():
            size *= wires[tag] + 1
        total += size
    return total


def accept_sets(rng, exact, count) -> list:
    """Distinct non-empty proper subsets of the reachable outputs, which
    keep the lowering non-trivial."""
    subsets = [list(c) for r in range(1, len(exact))
               for c in itertools.combinations(exact, r)]
    return rng.sample(subsets, count)


def _lowering_inputs(rng) -> list:
    checks = []
    for kind, n, p, mode, count in LOWERING_INSTANCES:
        exact = sorted(oracles.zero_one_values(kind, n, p))
        name = f"{kind}{n}_{'Q' if p is None else f'F{p}'}_{mode}"
        for i, accept in enumerate(accept_sets(rng, exact, count), start=1):
            checks.append(Check(
                name if count == 1 else f"{name}/{i}", lowering_check,
                {"kind": kind, "n": n, "p": p, "mode": mode, "accept": accept},
                {"out_values": set(exact) if mode == "exact" else Includes(frozenset(exact)),
                 "trivial": None, "verified_partition": True, "verified_threshold": True,
                 "orbit_sizes": AllEqual()}))
    rng.shuffle(checks)
    return checks


def _cli_lowering(rng) -> list:
    [accept] = accept_sets(rng, sorted(oracles.zero_one_values("det", 2, None)), 1)
    circ = "@det2.json"
    return [
        Check("cli.gen", cli_check,
              {"sub": "gen", "argv": ["gen", "det", "--n", "2", "--out", circ]},
              {"exit": 0, "n": 2, "group": "transpose:2"}),
        Check("cli.lower", cli_check,
              {"sub": "lower", "argv": ["lower", "--circuit", circ, "--mode", "exact",
                                        "--accept=" + ",".join(str(a) for a in accept),
                                        "--out", "@det2_low.json"]},
              {"exit": 0, "trivial": None, "verified_d": True, "verified_c": True}),
    ]


# ---------------------------------------------------------------------------
# cfi_wl


def matchings_check(ctx, labels, twisted, special):
    base = complete_graph(4, "K4").relabel(dict(zip(range(1, 5), labels)))
    with ctx.span("cfi.build"):
        x = build_cfi(base, twisted=twisted, special=special)
    with ctx.span("cfi.enumerate"):
        rep = enumerate_perfect_matchings(x, "classify")
    ctx.counts["cfi.search_nodes"] += rep.nodes
    return {"count": rep.count, "uniform": rep.uniform}


def permanent_check(ctx, labels, twisted, special):
    base = complete_graph(4, "K4").relabel(dict(zip(range(1, 5), labels)))
    with ctx.span("cfi.build"):
        x = build_cfi(base, twisted=twisted, special=special)
    with ctx.span("cfi.permanent"):
        count = matching_count_via_permanent(x.graph)
    return {"count": count}


def _wl(ctx, g1, g2, k):
    with ctx.span(f"wl.k{k}"):
        rep = wl_equivalent(g1, g2, k)
    ctx.counts["wl.rounds"] += rep.rounds
    ctx.counts["wl.tuples"] += (len(g1.vertices) + len(g2.vertices)) ** k
    return rep


def cfi_wl_check(ctx, base, mapping, special, k):
    g = (complete_graph(4, "K4") if base == "k4" else petersen_graph()).relabel(mapping)
    with ctx.span("cfi.build"):
        x = build_cfi(g)
        y = build_cfi(g, twisted=True, special=special)
    return {"equivalent": _wl(ctx, x.graph, y.graph, k).equivalent}


def census_check(ctx, mapping):
    g = petersen_graph().relabel(mapping)
    with ctx.span("cfi.census"):
        census = orientation_odd_set_census(g)
    return {"odd_sets": len(census), "per_set": set(census.values())}


def cycles_check(ctx, m):
    return {"equivalent": _wl(ctx, cycle_graph(2 * m),
                              cycle_graph(m).disjoint_union(cycle_graph(m)), 2).equivalent}


def _cfi_inputs(rng) -> list:
    labels = rng.sample(range(1, 100), 4)
    special = rng.choice(labels)
    k4_map = dict(zip(range(1, 5), labels))
    pet_map = dict(zip(range(1, 11), rng.sample(range(1, 11), 10)))
    pet_special = rng.randint(1, 10)
    m = rng.choice((4, 5, 6))
    pet = petersen_graph()
    c2m = cycle_graph(2 * m)
    cmm = cycle_graph(m).disjoint_union(cycle_graph(m))
    checks = []
    for twisted in (False, True):
        tag = "y" if twisted else "x"
        args = {"labels": labels, "twisted": twisted, "special": special if twisted else None}
        checks.append(Check(f"k4_{tag}_matchings", matchings_check, args,
                            {"count": oracles.K4_MATCHINGS[twisted],
                             "uniform": oracles.K4_UNIFORM[twisted]}))
        checks.append(Check(f"k4_{tag}_permanent", permanent_check, args,
                            {"count": oracles.K4_MATCHINGS[twisted]}))
    for k in (1, 2):
        checks.append(Check(f"k4_wl{k}", cfi_wl_check,
                            {"base": "k4", "mapping": k4_map, "special": special, "k": k},
                            {"equivalent": True}))
    checks.append(Check("petersen_wl1", cfi_wl_check,
                        {"base": "petersen", "mapping": pet_map, "special": pet_special, "k": 1},
                        {"equivalent": True}))
    expect = oracles.census(len(pet.vertices), len(pet.edges))
    checks.append(Check("petersen_census", census_check, {"mapping": pet_map},
                        {"odd_sets": expect["odd_sets"], "per_set": {expect["per_set"]}}))
    separates = oracles.pair_refinement_separates((c2m.vertices, c2m.edges),
                                                  (cmm.vertices, cmm.edges))
    checks.append(Check("cycles_wl2", cycles_check, {"m": m},
                        {"equivalent": not separates}))
    rng.shuffle(checks)
    return checks


def _write_k4(tmpdir: Path):
    edges = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    (tmpdir / "k4.graph").write_text(
        f"graph 4 {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges))


def _cli_cfi(rng) -> list:
    special = rng.randint(1, 4)
    m = rng.randint(2, 40)
    nv, ne = oracles.cfi_size(4, 6)
    p, q = oracles.pq(m)
    base = "@k4.graph"
    build = {"exit": 0, "vertices": nv, "edges": ne}
    return [
        Check("cli.cfi-check", cli_check,
              {"sub": "cfi-check", "argv": ["cfi", "check", "--graph", base],
               "prepare": _write_k4},
              {"exit": 0, "valid": True, "odd": False}),
        Check("cli.cfi-build:x", cli_check,
              {"sub": "cfi-build", "argv": ["cfi", "build", "--graph", base, "--out", "@x.graph"]},
              build),
        Check("cli.cfi-build:y", cli_check,
              {"sub": "cfi-build", "argv": ["cfi", "build", "--graph", base, "--twisted",
                                            "--special", str(special), "--out", "@y.graph"]},
              {**build, "special": special}),
        Check("cli.wl", cli_check,
              {"sub": "wl", "argv": ["wl", "--k", "2", "@x.graph", "@y.graph"]},
              {"exit": 0, "equivalent": True}),
        Check("cli.cfi-count", cli_check,
              {"sub": "cfi-count", "argv": ["cfi", "count", "--graph", base, "--twisted",
                                            "--special", str(special)]},
              {"exit": 0, "count": oracles.K4_MATCHINGS[True],
               "uniform": oracles.K4_UNIFORM[True]}),
        Check("cli.cfi-experiment", cli_check,
              {"sub": "cfi-experiment", "argv": ["cfi", "experiment", "--graph", base,
                                                 "--wl", "1", "--mod", "2,3"]},
              {"exit": 0, "passed": True,
               "count_x": oracles.K4_MATCHINGS[False], "count_y": oracles.K4_MATCHINGS[True],
               "uniform_x": oracles.K4_UNIFORM[False], "uniform_y": oracles.K4_UNIFORM[True],
               "expected_diff": oracles.K4_GAP}),
        Check("cli.pq", cli_check, {"sub": "pq", "argv": ["pq", "--m", str(m)]},
              {"exit": 0, "p": p, "q": q}),
    ]


# ---------------------------------------------------------------------------


def make_checks(workload: str, seed: int) -> list:
    """The run's list of checks, from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "families":
        return _family_inputs(rng) + _cli_families(rng)
    if workload == "lowering":
        return _lowering_inputs(rng) + _cli_lowering(rng)
    if workload == "cfi_wl":
        return _cfi_inputs(rng) + _cli_cfi(rng)
    raise ValueError(f"unknown workload {workload!r}")
