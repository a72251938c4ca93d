"""Command line interface: reports, files, and exit codes."""

from __future__ import annotations

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from symcirc import (
    ADD,
    MUL,
    QQ,
    Circuit,
    CircuitBuilder,
    CircuitError,
    cfi,
    cli,
    const,
    deserialize,
    input_label,
    leverrier_det_circuit,
    lowering,
    parse_group,
    serialize,
)
from symcirc.cli import _build_parser, run
from symcirc.symmetry import Matrix, Square, Transpose, matrix_var, matrix_variables


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def write_asymmetric_circuit(path):
    # x11 + x12 * x21 is not symmetric under the full row/column action
    b = CircuitBuilder(QQ, matrix_variables(2))
    ins = {(i, j): b.add(input_label(matrix_var(i, j)))
           for i in (1, 2) for j in (1, 2)}
    m = b.add(MUL, [ins[(1, 2)], ins[(2, 1)]])
    out = b.add(ADD, [ins[(1, 1)], m])
    path.write_text(serialize(b.build(out)))


def test_gen_det_writes_only_the_circuit(tmp_path, capsys):
    out = tmp_path / "det3.json"
    code, rep, _ = invoke(capsys, "gen", "det", "--n", "3", "--out", str(out))
    assert code == 0
    assert rep["schema_version"] == 1
    assert rep["gates"] == 65
    assert rep["group"] == "transpose:3"
    assert "witnesses" not in rep
    assert [p.name for p in tmp_path.iterdir()] == ["det3.json"]
    circuit = deserialize(out.read_text())
    assert len(circuit) == 65


def test_gen_perm(tmp_path, capsys):
    out = tmp_path / "perm2.json"
    code, rep, _ = invoke(capsys, "gen", "perm", "--n", "2", "--out", str(out))
    assert code == 0
    assert rep["gates"] == 26
    assert rep["group"] == "matrix:2,2"


def test_group_text_is_read_back():
    specs = ([cls(n) for cls in (Square, Transpose) for n in range(1, 5)]
             + [Matrix(m, n) for m in range(1, 5) for n in range(1, 5)])
    for spec in specs:
        assert parse_group(spec.text()) == spec
    for text, message in (("square:0", "bad group spec 'square:0' (sizes are integers >= 1)"),
                          ("matrix:2", "bad group spec 'matrix:2' (sizes are integers >= 1)"),
                          ("cube:3", "unknown group kind 'cube' (want square:N | matrix:M,N "
                                     "| transpose:N | partition:FILE)")):
        with pytest.raises(CircuitError) as exc:
            parse_group(text)
        assert str(exc.value) == message


@pytest.mark.parametrize("kind", ["det", "perm"])
def test_gen_group_is_read_back_by_check_sym(tmp_path, capsys, kind):
    out = tmp_path / f"{kind}3.json"
    _code, rep, _ = invoke(capsys, "gen", kind, "--n", "3", "--out", str(out))
    code, check, _ = invoke(capsys, "check-sym", "--circuit", str(out), "--group", rep["group"])
    assert (code, check["symmetric"], check["group"]) == (0, True, rep["group"])


def test_gen_det_over_fp_needs_p_above_n(tmp_path, capsys):
    # Le Verrier divides by 1..n, so F_p with p > n is exact and p <= n is bad input
    out = tmp_path / "d.json"
    code, rep, _ = invoke(capsys, "gen", "det", "--n", "3", "--field", "Fp:7",
                          "--out", str(out))
    assert code == 0
    assert rep["field"] == "Fp:7"
    assert deserialize(out.read_text()).field.p == 7
    out.unlink()
    code, rep, err = invoke(capsys, "gen", "det", "--n", "3", "--field", "Fp:3",
                            "--out", str(out))
    assert (code, rep) == (2, None)
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()
    code, _, err = invoke(capsys, "gen", "det", "--n", "3", "--field", "Fp:7",
                          "--allow-positive-char", "--out", str(out))
    assert code == 2 and "unrecognized arguments: --allow-positive-char" in err


def test_eval_matrix(tmp_path, capsys):
    out = tmp_path / "det3.json"
    invoke(capsys, "gen", "det", "--n", "3", "--out", str(out))
    code, rep, _ = invoke(capsys, "eval", "--circuit", str(out),
                          "--matrix", "1,2,3;4,5,6;7,8,10")
    assert code == 0
    assert rep["value"] == "-3"


def test_eval_assignment(tmp_path, capsys):
    out = tmp_path / "det2.json"
    invoke(capsys, "gen", "det", "--n", "2", "--out", str(out))
    code, rep, _ = invoke(capsys, "eval", "--circuit", str(out), "--assign",
                          "x_1_1=1, x_1_2=2, x_2_1=3, x_2_2=4")
    assert code == 0
    assert rep["value"] == "-2"


@pytest.mark.parametrize("given, message", [
    (["--matrix", "1,2;3,4;5,6"], "the circuit declares no variables ['x_3_1', 'x_3_2']"),
    (["--assign", "x_1_1=1,x_1_2=2,x_2_1=3,x_2_2=4,zz=5"],
     "the circuit declares no variables ['zz']"),
    (["--assign", "x_1_1=1,x_1_2"], "bad assignment item 'x_1_2'"),
])
def test_eval_refuses_bad_assignments(tmp_path, capsys, given, message):
    out = tmp_path / "det2.json"
    invoke(capsys, "gen", "det", "--n", "2", "--out", str(out))
    code, rep, err = invoke(capsys, "eval", "--circuit", str(out), *given)
    assert (code, rep) == (2, None)
    assert err == f"error: {message}\n"


def test_eval_fractional(tmp_path, capsys):
    out = tmp_path / "det2.json"
    invoke(capsys, "gen", "det", "--n", "2", "--out", str(out))
    code, rep, _ = invoke(capsys, "eval", "--circuit", str(out),
                          "--matrix", "1/2,0;7,1/3")
    assert code == 0
    assert rep["value"] == "1/6"


def test_check_sym_pass_and_fail(tmp_path, capsys):
    det = tmp_path / "det2.json"
    invoke(capsys, "gen", "det", "--n", "2", "--out", str(det))
    code, rep, _ = invoke(capsys, "check-sym", "--circuit", str(det),
                          "--group", "transpose:2")
    assert code == 0
    assert rep["symmetric"] is True

    bad = tmp_path / "bad.json"
    write_asymmetric_circuit(bad)
    code, rep, _ = invoke(capsys, "check-sym", "--circuit", str(bad),
                          "--group", "matrix:2,2")
    assert code == 1
    assert rep["symmetric"] is False
    assert rep["failed_generators"]


def test_check_sym_reports_failed_adjacent_transpositions(tmp_path, capsys):
    # x_1_1 + x_3_3 under square:3: the generators are (1 2) and (2 3), and
    # neither extends, though (1 3) does
    b = CircuitBuilder(QQ, matrix_variables(3))
    c = b.build(b.add(ADD, [b.add(input_label(matrix_var(1, 1))),
                            b.add(input_label(matrix_var(3, 3)))]))
    path = tmp_path / "corners.json"
    path.write_text(serialize(c))
    code, rep, err = invoke(capsys, "check-sym", "--circuit", str(path),
                            "--group", "square:3")
    assert code == 1
    assert rep["symmetric"] is False
    assert rep["failed_generators"] == [0, 1]
    assert "(2 generators)" in err
    code, rep, _ = invoke(capsys, "support", "--circuit", str(path),
                          "--group", "square:3", "--gate", str(c.output))
    assert code == 0
    assert rep["support"] == [2]


def test_orbits(tmp_path, capsys):
    det = tmp_path / "det2.json"
    invoke(capsys, "gen", "det", "--n", "2", "--out", str(det))
    code, rep, _ = invoke(capsys, "orbits", "--circuit", str(det),
                          "--group", "transpose:2")
    assert code == 0
    assert rep["max_orbit"] >= 2
    assert sum(rep["orbit_sizes"]) == 15

    bad = tmp_path / "bad.json"
    write_asymmetric_circuit(bad)
    code, rep, _ = invoke(capsys, "orbits", "--circuit", str(bad),
                          "--group", "matrix:2,2")
    assert code == 1
    assert rep["symmetric"] is False


def test_support(tmp_path, capsys):
    det = tmp_path / "det2.json"
    invoke(capsys, "gen", "det", "--n", "2", "--out", str(det))
    circuit = deserialize(det.read_text())
    out_gate = circuit.output
    code, rep, _ = invoke(capsys, "support", "--circuit", str(det),
                          "--group", "transpose:2", "--gate", str(out_gate))
    assert code == 0
    assert rep["support"] == []
    # no row or column swap of det 6 extends, so every point is its own class
    # and the support leaves out only the last row and the last column
    det6 = tmp_path / "det6.json"
    invoke(capsys, "gen", "det", "--n", "6", "--out", str(det6))
    code, rep, _ = invoke(capsys, "support", "--circuit", str(det6), "--group", "matrix:6,6",
                          "--gate", str(deserialize(det6.read_text()).output))
    assert code == 0
    assert rep["support"] == [[tag, a] for tag in "cr" for a in range(1, 6)]
    # README's example: gate 29 is ("pow", 2, 1, 2), the (1, 2) entry of M^2,
    # which the transpose map moves to gate 44, the (2, 1) entry
    det4 = tmp_path / "det4.json"
    invoke(capsys, "gen", "det", "--n", "4", "--out", str(det4))
    names = leverrier_det_circuit(4).names
    assert [names[("pow", 2, 1, 2)], names[("pow", 2, 2, 1)]] == [29, 44]
    code, rep, _ = invoke(capsys, "support", "--circuit", str(det4),
                          "--group", "transpose:4", "--gate", "29")
    assert code == 0
    assert rep["support"] == [1, 2]


@pytest.mark.parametrize("n", [1, 2])
def test_support_of_missing_gate_exits_2(tmp_path, capsys, n):
    det = tmp_path / "det.json"
    invoke(capsys, "gen", "det", "--n", str(n), "--out", str(det))
    code, rep, err = invoke(capsys, "support", "--circuit", str(det),
                            "--group", f"square:{n}", "--gate", "999")
    assert code == 2
    assert rep is None
    assert err == "error: gate 999 does not exist\n"


def test_non_rigid_circuit_rejected(tmp_path, capsys):
    # With x = x_1_2, y = x_2_1: P = A*x, Q = A'*y, R = A' + 1, A and A'
    # both x*y.  Swapping x and y has no extension here, but would have one
    # if A and A' were merged, so the symmetry commands refuse the file
    # instead of merging on load.
    gates = {0: input_label("x_1_2"), 1: input_label("x_2_1"), 2: const(QQ.of(1)),
             3: MUL, 4: MUL, 5: MUL, 6: MUL, 7: ADD, 8: ADD}
    wires = {3: [0, 1], 4: [0, 1], 5: [3, 0], 6: [4, 1], 7: [4, 2], 8: [5, 6, 7]}
    path = tmp_path / "nonrigid.json"
    path.write_text(serialize(Circuit(QQ, matrix_variables(2), gates, wires, 8)))
    for argv in (["check-sym"], ["orbits"], ["support", "--gate", "8"]):
        code, rep, err = invoke(capsys, *argv, "--circuit", str(path), "--group", "square:2")
        assert code == 2, argv
        assert rep is None
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "gates 3 and 4 share a label and children" in err
    code, rep, _ = invoke(capsys, "eval", "--circuit", str(path),
                          "--assign", "x_1_2=2,x_2_1=3")
    assert (code, rep["value"]) == (0, "37")


def test_lower_round_trip(tmp_path, capsys):
    det = tmp_path / "det2.json"
    invoke(capsys, "gen", "det", "--n", "2", "--out", str(det))
    cout = tmp_path / "low.json"
    code, rep, _ = invoke(capsys, "lower", "--circuit", str(det),
                          "--accept", "0", "--mode", "exact", "--out", str(cout))
    assert code == 0
    assert rep["verified_d"] is True
    assert rep["verified_c"] is True
    assert rep["trivial"] is None
    d = deserialize((tmp_path / "low.d.json").read_text())
    c = deserialize(cout.read_text())
    assert rep["d_gates"] == len(d)
    assert rep["c_gates"] == len(c)


def test_lower_skips_verification_over_input_budget(tmp_path, capsys, monkeypatch):
    # det n=2 has 4 inputs: over the budget, lower writes both stages and
    # reports them unverified
    monkeypatch.setattr(lowering, "_MAX_INPUTS", 3)
    det = tmp_path / "det2.json"
    det.write_text(serialize(leverrier_det_circuit(2).circuit))
    code, rep, _ = invoke(capsys, "lower", "--circuit", str(det), "--accept", "0",
                          "--out", str(tmp_path / "low.json"))
    assert code == 0
    assert (rep["verified_d"], rep["verified_c"]) == (None, None)
    assert (tmp_path / "low.json").exists() and (tmp_path / "low.d.json").exists()


def test_lower_exits_1_when_a_verification_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_lowering", lambda circuit, accept, lowered: False)
    det = tmp_path / "det2.json"
    det.write_text(serialize(leverrier_det_circuit(2).circuit))
    code, rep, _ = invoke(capsys, "lower", "--circuit", str(det), "--accept", "0",
                          "--out", str(tmp_path / "low.json"))
    assert code == 1
    assert (rep["verified_d"], rep["verified_c"]) == (False, False)


def test_lower_det3_over_q(tmp_path, capsys):
    det = tmp_path / "det3.json"
    invoke(capsys, "gen", "det", "--n", "3", "--out", str(det))
    cout = tmp_path / "low.json"
    code, rep, _ = invoke(capsys, "lower", "--circuit", str(det),
                          "--accept", "0", "--mode", "exact", "--out", str(cout))
    assert code == 0
    assert rep["verified_d"] is True
    assert rep["verified_c"] is True
    assert rep["c_gates"] == len(deserialize(cout.read_text()))
    # compositional value sets make the partial-sum ladders overrun their budget
    code, rep, err = invoke(capsys, "lower", "--circuit", str(det),
                            "--accept", "0", "--mode", "compositional",
                            "--out", str(tmp_path / "comp.json"))
    assert (code, rep) == (2, None)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "AND gates" in err


def test_cfi_build_and_check(tmp_path, capsys):
    out = tmp_path / "xk4.graph"
    code, rep, _ = invoke(capsys, "cfi", "build", "--graph", "k4",
                          "--out", str(out))
    assert code == 0
    assert rep["vertices"] == 32
    assert rep["edges"] == 64

    code, rep, _ = invoke(capsys, "cfi", "check", "--graph", "k4")
    assert code == 0
    assert rep["valid"] is True

    code, rep, _ = invoke(capsys, "cfi", "check", "--graph", str(out))
    assert code == 1
    assert rep["valid"] is False


@pytest.mark.parametrize("sub", ["build", "count"])
def test_cfi_special_without_twist_exit_2(tmp_path, capsys, sub):
    out = ["--out", str(tmp_path / "x.graph")] if sub == "build" else []
    code, rep, err = invoke(capsys, "cfi", sub, "--graph", "k4", "--special", "3", *out)
    assert (code, rep) == (2, None)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "x.graph").exists()


@pytest.mark.parametrize("header", ["graph -2 0", "graph 3 -1"])
def test_negative_graph_counts_exit_2(tmp_path, capsys, header):
    path = tmp_path / "g.graph"
    path.write_text(header + "\n")
    code, rep, err = invoke(capsys, "cfi", "check", "--graph", str(path))
    assert (code, rep) == (2, None)
    assert err.startswith("error: $.header: vertex/edge counts must not be negative"), err


def test_cfi_count(capsys):
    code, rep, _ = invoke(capsys, "cfi", "count", "--graph", "k4")
    assert code == 0
    assert rep["count"] == 23680
    assert rep["uniform"] == 5248
    assert rep["uniform_matches_formula"] is True
    assert rep["nodes"] == 244

    code, rep, _ = invoke(capsys, "cfi", "count", "--graph", "k4", "--twisted")
    assert code == 0
    assert rep["count"] == 23552
    assert rep["uniform"] == 5120


def test_cfi_experiment_formula_only(capsys, monkeypatch):
    # a contraction over its budget reports the formula values only
    monkeypatch.setattr(cfi, "_FRONTIER_BUDGET", 10)
    code, rep, _ = invoke(capsys, "cfi", "experiment", "--graph", "k4",
                          "--wl", "1", "--mod", "")
    assert code == 0
    assert rep["passed"] is True
    assert rep["enumerated"] is False
    assert rep["expected_diff"] == 128


def test_cfi_experiment_petersen(capsys):
    code, rep, _ = invoke(capsys, "cfi", "experiment", "--graph", "petersen",
                          "--wl", "1", "--mod", "2,3")
    assert code == 0
    assert rep["passed"] is True
    assert rep["enumerated"] is True
    assert (rep["count_x"], rep["count_y"]) == (16531062784, 16531128320)
    assert (rep["uniform_x"], rep["uniform_y"]) == (1934884864, 1934950400)
    assert rep["nonuniform_x"] == rep["nonuniform_y"]
    assert rep["expected_diff"] == 2 ** 16
    # the experiment counts by the contraction alone; the tests run the permanent DP
    assert "permanent_checked" not in rep


@pytest.mark.parametrize("argv", [
    ["count", "--graph", "k4", "--budget", "1000"],
    ["experiment", "--graph", "k4", "--budget", "1000"],
    ["experiment", "--graph", "k4", "--no-enumerate"],
])
def test_cfi_removed_flags_exit_2(capsys, argv):
    code, rep, err = invoke(capsys, "cfi", *argv)
    assert code == 2
    assert rep is None
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["wl", "--k", "1", "--budget", "10", "k4", "k4"],
    ["lower", "--circuit", "c.json", "--accept", "0", "--max-inputs", "5", "--out", "d.json"],
    ["check-sym", "--circuit", "c.json", "--group", "square:2", "--witnesses-out", "w.json"],
])
def test_removed_flags_exit_2(capsys, argv):
    code, rep, err = invoke(capsys, *argv)
    assert code == 2
    assert rep is None
    assert "unrecognized arguments" in err


def test_cfi_experiment_modulus_rule(capsys):
    # 4 divides the gap 2^7 of K4, so the counts must agree modulo 4
    code, rep, _ = invoke(capsys, "cfi", "experiment", "--graph", "k4",
                          "--wl", "", "--mod", "4")
    assert (code, rep["passed"]) == (0, True)
    assert rep["checks"]["counts_agree_mod_4"] is True
    assert rep["mod"]["4"] == {"x": 0, "y": 0, "differ": False}
    for bad in ("1", "-3"):
        code, rep, err = invoke(capsys, "cfi", "experiment", "--graph", "k4",
                                "--wl", "", "--mod", bad)
        assert (code, rep) == (2, None), bad
        assert err == f"error: modulus {bad} is below 2\n"


def test_wl_command(tmp_path, capsys):
    g1 = tmp_path / "c6.graph"
    g1.write_text("graph 6 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n")
    g2 = tmp_path / "cc.graph"
    g2.write_text("graph 6 6\n1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n")
    code, rep, _ = invoke(capsys, "wl", "--k", "1", str(g1), str(g2))
    assert code == 0
    assert rep["equivalent"] is True
    code, rep, _ = invoke(capsys, "wl", "--k", "2", str(g1), str(g2))
    assert code == 0
    assert rep["equivalent"] is False
    assert rep["distinguishing_round"] == 1


def test_wl_command_splits_cfi_k4_pair_at_dimension_three(tmp_path, capsys):
    x, y = tmp_path / "x.graph", tmp_path / "y.graph"
    assert invoke(capsys, "cfi", "build", "--graph", "k4", "--out", str(x))[0] == 0
    assert invoke(capsys, "cfi", "build", "--graph", "k4", "--twisted", "--special", "1",
                  "--out", str(y))[0] == 0
    code, rep, _ = invoke(capsys, "wl", "--k", "3", str(x), str(y))
    assert code == 0
    assert rep["equivalent"] is False
    assert rep["class_counts"] == [14, 62, 357]
    assert rep["signatures"] == [12203, 12673]


def test_pq_command(capsys):
    code, rep, _ = invoke(capsys, "pq", "--m", "3")
    assert code == 0
    assert (rep["p"], rep["q"]) == (23360, 23296)
    assert rep["difference"] == 4 ** 3
    code, _, err = invoke(capsys, "pq", "--m", "3", "--direct")
    assert code == 2 and "unrecognized arguments: --direct" in err


def test_api_cli_api_round_trip(tmp_path, capsys):
    # a file written by the API evaluates through the CLI, and a file the
    # CLI writes is read back by the API
    gen = leverrier_det_circuit(2)
    api_file = tmp_path / "api.json"
    api_file.write_text(serialize(gen.circuit))
    code, rep, err = invoke(capsys, "eval", "--circuit", str(api_file),
                            "--matrix", "1,2;3,4")
    assert code == 0, err
    assert rep["value"] == "-2"
    cli_file = tmp_path / "cli.json"
    code, _, _ = invoke(capsys, "gen", "det", "--n", "2", "--out", str(cli_file))
    assert code == 0
    assert cli_file.read_text() == api_file.read_text()
    assert serialize(deserialize(cli_file.read_text())) == serialize(gen.circuit)


@pytest.mark.parametrize("text", ['"not a circuit"', '{"field": "Q"}', "[1, 2]",
                                  json.dumps(json.dumps({"field": "Q"}))])
def test_non_circuit_json_exits_2(tmp_path, capsys, text):
    path = tmp_path / "junk.json"
    path.write_text(text)
    code, rep, err = invoke(capsys, "eval", "--circuit", str(path), "--assign", "x=1")
    assert code == 2
    assert rep is None
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_json_boolean_for_integer_exits_2(tmp_path, capsys):
    # true equals 1 in Python; as a threshold k it is still bad input
    path = tmp_path / "bool.json"
    gates = [{"id": 0, "label": {"kind": "input", "var": "x"}, "children": []},
             {"id": 1, "label": {"kind": "th_ge", "k": True}, "children": [{"id": 0}]}]
    path.write_text(json.dumps({"field": "Q", "variables": ["x"], "gates": gates, "output": 1}))
    code, rep, err = invoke(capsys, "eval", "--circuit", str(path), "--assign", "x=1")
    assert (code, rep) == (2, None)
    assert err == "error: $.gates[1].label.k: expected int, got bool\n"


def _gate(gid, label, *children):
    kids = [{"id": c} if isinstance(c, int) else {"id": c[0], "tag": c[1]} for c in children]
    return {"id": gid, "label": label, "children": kids}


_X, _ONE = {"kind": "input", "var": "x"}, {"kind": "const", "value": "1"}
# files that parse as JSON circuits but break a structural rule
_MALFORMED_FILES = {
    "input_with_child": [_gate(0, _ONE), _gate(1, _X, 0), _gate(2, {"kind": "add"}, 0, 1)],
    "undeclared_variable": [_gate(0, {"kind": "input", "var": "y"}), _gate(1, _ONE),
                            _gate(2, {"kind": "add"}, 0, 1)],
    "tag_on_add_wire": [_gate(0, _X), _gate(1, _ONE), _gate(2, {"kind": "add"}, (0, "a"), 1)],
    "psum_tag_outside_parts": [_gate(0, _X), _gate(1, _ONE),
                               _gate(2, {"kind": "psum", "c": "1", "parts": {"a": "1"}},
                                     (0, "b"), (1, "a"))],
    "not_without_child": [_gate(0, _X), _gate(1, {"kind": "not"}), _gate(2, {"kind": "and"}, 0, 1)],
    "cycle": [_gate(0, _X), _gate(1, {"kind": "add"}, 0, 3), _gate(2, {"kind": "mul"}, 1),
              _gate(3, {"kind": "add"}, 2)],
}


@pytest.mark.parametrize("command", ["eval", "check-sym", "lower", "support"])
@pytest.mark.parametrize("case", sorted(_MALFORMED_FILES))
def test_malformed_circuit_file_exits_2(tmp_path, capsys, case, command):
    path = tmp_path / "bad.json"
    output = 1 if case == "cycle" else 2
    path.write_text(json.dumps({"field": "Q", "variables": ["x"],
                                "gates": _MALFORMED_FILES[case], "output": output}))
    argv = {"eval": ["--assign", "x=1,y=2"],
            "check-sym": ["--group", "square:1"],
            "lower": ["--accept", "1", "--out", str(tmp_path / "low.json")],
            "support": ["--group", "square:1", "--gate", str(output)]}[command]
    code, rep, err = invoke(capsys, command, "--circuit", str(path), *argv)
    assert (code, rep) == (2, None), err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "low.json").exists()


@pytest.mark.parametrize("variables, output, message", [
    (["x", "x"], 1, "$.variables: variables ['x', 'x'] are not distinct"),
    (["x"], 5, "$.output: output 5 is not a gate"),
])
def test_variables_and_output_refusals_name_their_field(tmp_path, capsys, variables, output,
                                                          message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": "Q", "variables": variables, "output": output,
                                "gates": [_gate(0, _ONE), _gate(1, _X)]}))
    code, rep, err = invoke(capsys, "eval", "--circuit", str(path), "--assign", "x=1")
    assert (code, rep) == (2, None)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("weight", [[], 1.5, None, 1, True], ids=repr)
def test_part_weight_that_is_not_a_string_exits_2(tmp_path, capsys, weight):
    path = tmp_path / "weight.json"
    gates = [_gate(0, _X), _gate(1, {"kind": "psum", "c": "1", "parts": {"a": weight}}, (0, "a"))]
    path.write_text(json.dumps({"field": "Q", "variables": ["x"], "gates": gates, "output": 1}))
    code, rep, err = invoke(capsys, "eval", "--circuit", str(path), "--assign", "x=1")
    assert (code, rep) == (2, None)
    assert err == f"error: $.gates[1].label.parts.a: expected str, got {type(weight).__name__}\n"


@pytest.mark.parametrize("command, group, doc", [
    ("check-sym", None, [["x_1_1", "x_2_2"]]),  # a JSON list, not an object
    ("check-sym", None, {"blocks": [1, 2]}),
    ("support", None, {"blocks": [["x_1_1", "x_2_2"]]}),  # supports need index points
    ("check-sym", "square:0", None),
    ("check-sym", "transpose:0", None),
    ("check-sym", "matrix:2,0", None),
    ("check-sym", None, {"blocks": [["x_1_1", "x_1_2"], ["x_1_2", "x_2_1"]]}),
    ("check-sym", None, {"blocks": [["x_1_1", "x_1_1"]]}),
])
def test_bad_group_exits_2(tmp_path, capsys, command, group, doc):
    det = tmp_path / "det2.json"
    det.write_text(serialize(leverrier_det_circuit(2).circuit))
    if doc is not None:
        spec = tmp_path / "group.json"
        spec.write_text(json.dumps(doc))
        group = f"partition:{spec}"
    argv = [command, "--circuit", str(det), "--group", group]
    if command == "support":
        argv += ["--gate", "1"]
    code, rep, err = invoke(capsys, *argv)
    assert code == 2
    assert rep is None
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_usage_errors(tmp_path, capsys):
    code, _, _ = invoke(capsys, "nonsense")
    assert code == 2
    code, _, _ = invoke(capsys, "eval", "--circuit", str(tmp_path / "nope.json"),
                        "--assign", "x=1")
    assert code == 2
    code, _, _ = invoke(capsys, "gen", "det", "--n", "3", "--field", "Fp:9",
                        "--out", str(tmp_path / "x.json"))
    assert code == 2
    g = tmp_path / "bad.graph"
    g.write_text("graph x y\n")
    code, _, _ = invoke(capsys, "cfi", "check", "--graph", str(g))
    assert code == 2


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "symcirc.cli", "pq", "--m", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p"] == 656


def test_report_is_byte_stable(tmp_path, capsys):
    # one process, one parser: every command run twice gives the same exit
    # code and byte-identical stdout, so a parse leaves nothing behind
    det, bad, graph = (str(tmp_path / name) for name in ("det2.json", "bad.json", "x.graph"))
    write_asymmetric_circuit(tmp_path / "bad.json")
    output = str(leverrier_det_circuit(2).circuit.output)
    runs = [
        (2, ["nonsense"]),
        (0, ["--help"]),
        (0, ["gen", "det", "--n", "2", "--out", det]),
        (0, ["eval", "--circuit", det, "--matrix", "1,2;3,4"]),
        (0, ["check-sym", "--circuit", det, "--group", "transpose:2"]),
        (1, ["check-sym", "--circuit", bad, "--group", "matrix:2,2"]),
        (0, ["orbits", "--circuit", det, "--group", "transpose:2"]),
        (0, ["support", "--circuit", det, "--group", "transpose:2", "--gate", output]),
        (0, ["lower", "--circuit", det, "--accept", "0", "--mode", "exact",
             "--out", str(tmp_path / "low.json")]),
        (0, ["cfi", "check", "--graph", "k4"]),
        (0, ["cfi", "build", "--graph", "k4", "--out", graph]),
        (1, ["cfi", "check", "--graph", graph]),
        (0, ["cfi", "count", "--graph", "k4", "--twisted"]),
        (0, ["cfi", "experiment", "--graph", "k4", "--wl", "1", "--mod", "2,3"]),
        (2, ["cfi", "experiment", "--graph", "k4", "--wl", "4"]),
        (0, ["wl", "--k", "1", "k4", "k4"]),
        (0, ["pq", "--m", "2"]),
    ]
    _build_parser.cache_clear()
    for want, argv in runs:
        outs = []
        for _ in range(2):
            assert run(argv) == want, argv
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], argv
        assert "timestamp" not in outs[0]
    assert _build_parser.cache_info().misses == 1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int-to-str digit limit")
def test_pq_prints_exact_integers_past_the_digit_limit(capsys):
    # P_3000 and Q_3000 have 4,669 digits; run lifts the digit limit while
    # the command runs and gives the caller its own limit back
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4321)
        assert run(["pq", "--m", "3000"]) == 0
        assert sys.get_int_max_str_digits() == 4321
        sys.set_int_max_str_digits(0)
        rep = json.loads(capsys.readouterr().out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert rep["p"] - rep["q"] == rep["difference"] == 4 ** 3000
    assert rep["p"] + rep["q"] == 36 ** 3000


def test_cfi_experiment_rejects_wl_dimension_before_counting(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("counted matchings before validating --wl")

    monkeypatch.setattr(cfi, "enumerate_perfect_matchings", boom)
    code, rep, err = invoke(capsys, "cfi", "experiment", "--graph", "petersen", "--wl", "4")
    assert (code, rep) == (2, None)
    assert err == "error: k must be 1, 2, or 3\n"


def readme_block(section: str, lang: str) -> str:
    """The first ```lang block of README's section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(f"## {section}", 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def readme_commands() -> list:
    """The symcirc lines of README's command-line block, in order."""
    block = readme_block("Command line", "sh")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("symcirc ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # every example runs as written, in order, from one directory: the
    # later lines read the files the earlier ones write
    commands = readme_commands()
    assert len(commands) >= 15
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, report, err = invoke(capsys, *argv)
        assert code == 0, (argv, err)
        assert report["command"], argv


def test_readme_python_api_runs(capsys):
    # the block runs as written and prints the values its comments state
    exec(readme_block("Python API", "python"), {})
    assert capsys.readouterr().out.splitlines() == ["-2", "23680", "23552", "True"]
