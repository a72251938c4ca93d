"""Command-line interface.

Machine-readable JSON goes to stdout (stable key order, schema_version, no
timestamps); human-oriented notes go to stderr.  Circuit files hold the text
of circuit.serialize, so the API and the CLI read each other's files.  Exit
codes: 0 success, 1 failed check, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .cfi import (
    build_cfi,
    check_base_graph,
    enumerate_perfect_matchings,
    matching_experiment,
    pq,
    uniform_count_formula,
)
from .circuit import deserialize, evaluate_arith, serialize, size_stats
from .errors import BudgetExceededError, SymcircError
from .field import Field
from .generators import leverrier_det_circuit, matrix_assignment, ryser_perm_circuit
from .graphs import BUILTIN_GRAPHS, builtin_graph, format_graph, parse_graph
from .lowering import (
    expand_to_threshold,
    lower_to_partition_basis,
    value_sets,
    verify_lowering,
)
from .symmetry import Partition, check_symmetric, minimal_support, orbits, parse_group
from .wl import wl_equivalent

SCHEMA_VERSION = 1


def _emit(report: dict):
    report = {"schema_version": SCHEMA_VERSION, **report}
    print(json.dumps(report, sort_keys=True, indent=2))


def _note(msg: str):
    print(msg, file=sys.stderr)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_circuit(path: str):
    return deserialize(_read(path))


def _parse_group(text: str):
    kind, _, path = text.partition(":")
    if kind != "partition":
        return parse_group(text)
    doc = json.loads(_read(path))
    blocks = doc.get("blocks") if isinstance(doc, dict) else None
    if not (isinstance(blocks, list) and all(isinstance(b, list) for b in blocks)):
        raise SymcircError(f"{path}: expected a JSON object whose 'blocks' "
                           "is a list of lists of variable names")
    return Partition(tuple(map(tuple, blocks)))


def _load_graph(text: str, name=""):
    if text.lower() in BUILTIN_GRAPHS:
        return builtin_graph(text)
    return parse_graph(_read(text), name or text)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_gen(args) -> int:
    fld = Field.parse(args.field)
    if args.kind == "det":
        gen = leverrier_det_circuit(args.n, fld, allow_positive_char=True)
    else:
        gen = ryser_perm_circuit(args.n, fld)
    _write(args.out, serialize(gen.circuit))
    stats = size_stats(gen.circuit)
    _note(f"wrote {args.kind} circuit for n={args.n} ({stats.gates} gates) to {args.out}")
    _emit({"command": "gen", "kind": args.kind, "n": args.n, "field": fld.name(),
           "gates": stats.gates, "wires": stats.wires, "depth": stats.depth,
           "circuit": args.out, "group": gen.group.text()})
    return 0


def _parse_assignment(circuit, args) -> dict:
    fld = circuit.field
    if args.matrix is not None:
        rows = [[fld.of(Fraction(cell)) for cell in row.split(",")]
                for row in args.matrix.split(";")]
        return matrix_assignment(fld, rows)
    asg = {}
    for item in args.assign.split(","):
        var, _, val = item.partition("=")
        if not _:
            raise SymcircError(f"bad assignment item {item!r}")
        asg[var.strip()] = fld.of(Fraction(val.strip()))
    return asg


def _cmd_eval(args) -> int:
    circuit = _load_circuit(args.circuit)
    asg = _parse_assignment(circuit, args)
    unknown = sorted(set(asg) - set(circuit.variables))
    if unknown:
        raise SymcircError(f"the circuit declares no variables {unknown}")
    value = evaluate_arith(circuit, asg)
    _note(f"value: {value}")
    _emit({"command": "eval", "circuit": args.circuit, "value": str(value)})
    return 0


def _cmd_check_sym(args) -> int:
    circuit = _load_circuit(args.circuit)
    rep = check_symmetric(circuit, _parse_group(args.group))
    _note(f"symmetric: {'yes' if rep.symmetric else 'no'} "
          f"({len(rep.witnesses)} generators)")
    _emit({"command": "check-sym", "circuit": args.circuit, "group": args.group,
           "symmetric": rep.symmetric,
           "failed_generators": rep.failed})
    return 0 if rep.symmetric else 1


def _cmd_orbits(args) -> int:
    circuit = _load_circuit(args.circuit)
    spec = _parse_group(args.group)
    rep = check_symmetric(circuit, spec)
    if not rep.symmetric:
        _note("circuit is not symmetric under the group; no orbit partition")
        _emit({"command": "orbits", "circuit": args.circuit, "group": args.group,
               "symmetric": False})
        return 1
    orb = orbits(circuit, rep.witnesses)
    sizes = sorted((len(o) for o in orb.orbits), reverse=True)
    _note(f"{len(orb.orbits)} orbits, largest {orb.max_orbit}")
    _emit({"command": "orbits", "circuit": args.circuit, "group": args.group,
           "symmetric": True, "orbit_count": len(orb.orbits),
           "max_orbit": orb.max_orbit, "orbit_sizes": sizes})
    return 0


def _cmd_support(args) -> int:
    circuit = _load_circuit(args.circuit)
    spec = _parse_group(args.group)
    sup = minimal_support(circuit, args.gate, spec)
    points = sorted(list(p) if isinstance(p, tuple) else p for p in sup)
    _note(f"gate {args.gate}: minimal support {points}")
    _emit({"command": "support", "circuit": args.circuit, "group": args.group,
           "gate": args.gate, "support": points})
    return 0


def _cmd_lower(args) -> int:
    circuit = _load_circuit(args.circuit)
    fld = circuit.field
    accept = [fld.of(Fraction(tok)) for tok in args.accept.split(",")]
    vs = value_sets(circuit, args.mode)
    lowered = lower_to_partition_basis(circuit, accept, vs)
    expanded = expand_to_threshold(lowered)
    d_path = (args.out[:-5] if args.out.endswith(".json") else args.out) + ".d.json"
    _write(d_path, serialize(lowered.circuit))
    _write(args.out, serialize(expanded.circuit))
    try:
        verified_d = verify_lowering(circuit, accept, lowered.circuit)
        verified_c = verify_lowering(circuit, accept, expanded.circuit)
    except BudgetExceededError:   # too many inputs to check every assignment
        verified_d = verified_c = None
    _note(f"partition circuit: {len(lowered.circuit)} gates -> {d_path}")
    _note(f"threshold circuit: {len(expanded.circuit)} gates -> {args.out}")
    _emit({"command": "lower", "circuit": args.circuit, "accept": args.accept,
           "mode": args.mode, "trivial": lowered.trivial,
           "d_out": d_path, "c_out": args.out,
           "d_gates": len(lowered.circuit),
           "c_gates": len(expanded.circuit),
           "verified_d": verified_d, "verified_c": verified_c})
    if verified_d is False or verified_c is False:
        return 1
    return 0


def _cmd_cfi_build(args) -> int:
    g = _load_graph(args.graph)
    x = build_cfi(g, twisted=args.twisted, special=args.special)
    _write(args.out, format_graph(x.graph))
    _note(f"wrote {x.graph.name or 'CFI graph'} to {args.out}")
    _emit({"command": "cfi-build", "graph": args.graph, "twisted": args.twisted,
           "special": x.special, "vertices": len(x.graph.vertices),
           "edges": len(x.graph.edges), "out": args.out})
    return 0


def _cmd_cfi_count(args) -> int:
    g = _load_graph(args.graph)
    x = build_cfi(g, twisted=args.twisted, special=args.special)
    rep = enumerate_perfect_matchings(x)
    formula = uniform_count_formula(g, args.twisted)
    _note(f"{rep.count} perfect matchings ({rep.uniform} uniform)")
    _emit({"command": "cfi-count", "graph": args.graph, "twisted": args.twisted,
           "count": rep.count, "uniform": rep.uniform, "nonuniform": rep.nonuniform,
           "formula_uniform": formula, "uniform_matches_formula": rep.uniform == formula,
           "nodes": rep.nodes})
    return 0 if rep.uniform == formula else 1


def _cmd_cfi_experiment(args) -> int:
    g = _load_graph(args.graph)
    k_list = [int(t) for t in args.wl.split(",")] if args.wl else []
    p_list = [int(t) for t in args.mod.split(",")] if args.mod else []
    rep = matching_experiment(g, k_list, p_list)
    _note(f"experiment on {rep.base}: "
          f"{'all checks passed' if rep.passed() else 'CHECKS FAILED'}")
    _emit({"command": "cfi-experiment", "graph": args.graph,
           "enumerated": rep.enumerated,
           "count_x": rep.count_x, "count_y": rep.count_y,
           "uniform_x": rep.uniform_x, "uniform_y": rep.uniform_y,
           "nonuniform_x": rep.nonuniform_x, "nonuniform_y": rep.nonuniform_y,
           "formula_uniform_x": rep.formula_uniform_x,
           "formula_uniform_y": rep.formula_uniform_y,
           "expected_diff": rep.expected_diff,
           "permanent_checked": rep.permanent_checked,
           "mod": {str(p): v for p, v in rep.mod.items()},
           "wl": {str(k): v for k, v in rep.wl.items()},
           "checks": rep.checks, "passed": rep.passed()})
    return 0 if rep.passed() else 1


def _cmd_wl(args) -> int:
    g1 = _load_graph(args.g1)
    g2 = _load_graph(args.g2)
    rep = wl_equivalent(g1, g2, args.k)
    _note(f"{args.k}-WL equivalent: {'yes' if rep.equivalent else 'no'}")
    _emit({"command": "wl", "k": args.k, "g1": args.g1, "g2": args.g2,
           "equivalent": rep.equivalent, "rounds": rep.rounds,
           "distinguishing_round": rep.distinguishing_round,
           "class_counts": list(rep.class_counts), "signatures": list(rep.signatures)})
    return 0


def _cmd_pq(args) -> int:
    p, q = pq(args.m)
    _note(f"P_{args.m} = {p}, Q_{args.m} = {q}")
    _emit({"command": "pq", "m": args.m, "p": p, "q": q, "difference": p - q})
    return 0


def _cmd_base_check(args) -> int:
    g = _load_graph(args.graph)
    rep = check_base_graph(g)
    _note("valid base graph" if rep.valid else f"invalid: {'; '.join(rep.problems)}")
    _emit({"command": "cfi-base-check", "graph": args.graph, "valid": rep.valid,
           "problems": rep.problems, "odd": rep.odd})
    return 0 if rep.valid else 1


# ---------------------------------------------------------------------------
# Parser


@functools.cache   # parse_args keeps its state in a fresh Namespace
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="symcirc",
        description="symmetric circuits, Boolean lowering, CFI matchings, WL")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a determinant or permanent circuit")
    p.add_argument("kind", choices=("det", "perm"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", default="Q", help="Q or Fp:<prime> (default Q)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("eval", help="evaluate a circuit on an assignment")
    p.add_argument("--circuit", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--assign", help="comma list var=value")
    g.add_argument("--matrix", help="rows 'a,b;c,d' for matrix-variable circuits")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check-sym", help="check symmetry under a group")
    p.add_argument("--circuit", required=True)
    p.add_argument("--group", required=True,
                   help="square:N | matrix:M,N | transpose:N | partition:FILE")
    p.set_defaults(func=_cmd_check_sym)

    p = sub.add_parser("orbits", help="gate orbits under the group witnesses")
    p.add_argument("--circuit", required=True)
    p.add_argument("--group", required=True)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("support", help="minimal support of a gate")
    p.add_argument("--circuit", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--gate", type=int, required=True)
    p.set_defaults(func=_cmd_support)

    p = sub.add_parser("lower", help="lower an arithmetic circuit to Boolean")
    p.add_argument("--circuit", required=True)
    p.add_argument("--accept", required=True, help="comma list of accepted values")
    p.add_argument("--mode", choices=("compositional", "exact"), default="compositional")
    p.add_argument("--out", required=True, help="threshold circuit path (partition "
                   "circuit goes to the same name with a .d.json suffix)")
    p.set_defaults(func=_cmd_lower)

    p = sub.add_parser("cfi", help="CFI graph operations")
    csub = p.add_subparsers(dest="cfi_command", required=True)
    b = csub.add_parser("build", help="write a CFI graph file")
    b.add_argument("--graph", required=True, help=" | ".join([*BUILTIN_GRAPHS, "graph file"]))
    b.add_argument("--twisted", action="store_true")
    b.add_argument("--special", type=int)
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_cfi_build)
    c = csub.add_parser("count", help="count perfect matchings of a CFI graph")
    c.add_argument("--graph", required=True)
    c.add_argument("--twisted", action="store_true")
    c.add_argument("--special", type=int)
    c.set_defaults(func=_cmd_cfi_count)
    e = csub.add_parser("experiment", help="full twisted/untwisted comparison")
    e.add_argument("--graph", required=True)
    e.add_argument("--wl", default="1,2", help="comma list of WL dimensions")
    e.add_argument("--mod", default="2,3,5", help="comma list of moduli")
    e.set_defaults(func=_cmd_cfi_experiment)
    k = csub.add_parser("check", help="validate a base graph")
    k.add_argument("--graph", required=True)
    k.set_defaults(func=_cmd_base_check)

    p = sub.add_parser("wl", help="k-WL equivalence of two graphs")
    p.add_argument("--k", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("g1")
    p.add_argument("g2")
    p.set_defaults(func=_cmd_wl)

    p = sub.add_parser("pq", help="matching count pair (P_m, Q_m)")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_pq)
    return top


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code or 0
        return code if isinstance(code, int) else 2
    # reports carry exact integers, such as P_m and Q_m, past Python's
    # int-to-str digit limit, so the limit is lifted while a command runs
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (SymcircError, OSError, ValueError, ZeroDivisionError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entry():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()
