"""Determinant and permanent circuit families plus the reference oracles."""

from __future__ import annotations

import random

import pytest

from extension_oracle import Witness, verify_automorphism
from matrix_oracle import det_oracle, gauss_det, leibniz_det, leibniz_perm, perm_oracle
from symcirc import (
    GF,
    QQ,
    CircuitError,
    Matrix,
    Transpose,
    check_symmetric,
    eval_on_matrix,
    find_extension,
    leverrier_det_circuit,
    matrix_assignment,
    ryser_perm_circuit,
)


def rand_rows(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_leibniz_known_values():
    assert leibniz_det(QQ, [[1, 2], [3, 4]]) == QQ.of(-2)
    assert leibniz_perm(QQ, [[1, 2], [3, 4]]) == QQ.of(10)
    assert leibniz_det(QQ, [[2]]) == QQ.of(2)
    assert leibniz_perm(QQ, [[0, 1], [1, 0]]) == QQ.of(1)


def test_det_oracles_agree():
    # two independent algorithms: sign-summed expansion vs elimination
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            rows = rand_rows(rng, n)
            assert leibniz_det(QQ, rows) == gauss_det(QQ, rows)
    f7 = GF(7)
    for _ in range(10):
        rows = rand_rows(rng, 4, 0, 6)
        assert leibniz_det(f7, rows) == gauss_det(f7, rows)


def test_det_oracle_dispatch():
    rng = random.Random(11)
    rows = rand_rows(rng, 3)
    assert det_oracle(QQ, rows) == leibniz_det(QQ, rows)
    rows8 = rand_rows(rng, 8, -2, 2)
    assert det_oracle(QQ, rows8) == gauss_det(QQ, rows8)


def test_perm_oracle_identity_and_ones():
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert perm_oracle(QQ, eye).is_one()
    ones = [[1] * 4 for _ in range(4)]
    assert perm_oracle(QQ, ones) == QQ.of(24)


def test_leverrier_matches_oracle():
    rng = random.Random(101)
    for n in (2, 3, 4, 5):
        gen = leverrier_det_circuit(n)
        for _ in range(5):
            rows = rand_rows(rng, n)
            assert eval_on_matrix(gen.circuit, rows) == det_oracle(QQ, rows)


def test_leverrier_fractional_entries():
    gen = leverrier_det_circuit(3)
    rows = [["1/2", "2/3", 0], [1, "-1/3", 2], [0, 1, "5/7"]]
    assert eval_on_matrix(gen.circuit, rows) == leibniz_det(QQ, rows)


def test_leverrier_gate_counts_frozen():
    got = [len(leverrier_det_circuit(n).circuit) for n in range(2, 13)]
    assert got == [15, 65, 138, 510, 859, 1702, 2510, 5033, 6863, 10475, 13546]


def test_leverrier_gate_count_bounds():
    for n in range(2, 9):
        size = len(leverrier_det_circuit(n).circuit)
        assert size <= 10 * n ** 3
        if n >= 4:
            assert size >= n ** 3 // 2


def test_leverrier_witnesses_verify():
    for n in (2, 3, 4):
        gen = leverrier_det_circuit(n)
        assert gen.group == Transpose(n)
        assert gen.witnesses
        for sigma in gen.witnesses:
            pi = find_extension(gen.circuit, sigma)
            assert verify_automorphism(gen.circuit, Witness(sigma, pi)) == []


def test_leverrier_transpose_symmetry_search():
    gen = leverrier_det_circuit(3)
    rep = check_symmetric(gen.circuit, Transpose(3))
    assert rep.symmetric


def test_leverrier_transpose_symmetry_n8():
    assert check_symmetric(leverrier_det_circuit(8).circuit, Transpose(8)).symmetric


def test_leverrier_positive_characteristic():
    f7 = GF(7)
    gen = leverrier_det_circuit(3, f7, allow_positive_char=True)
    rng = random.Random(5)
    for _ in range(10):
        rows = rand_rows(rng, 3, 0, 6)
        assert eval_on_matrix(gen.circuit, rows) == det_oracle(f7, rows)


def test_leverrier_characteristic_guards():
    with pytest.raises(CircuitError):
        leverrier_det_circuit(3, GF(7))
    # divisions by 1..n collapse when the characteristic is too small
    with pytest.raises(CircuitError):
        leverrier_det_circuit(3, GF(2), allow_positive_char=True)
    with pytest.raises(CircuitError):
        leverrier_det_circuit(5, GF(5), allow_positive_char=True)


def test_ryser_matches_oracle():
    rng = random.Random(202)
    for n in (2, 3, 4):
        gen = ryser_perm_circuit(n)
        for _ in range(5):
            rows = rand_rows(rng, n)
            assert eval_on_matrix(gen.circuit, rows) == perm_oracle(QQ, rows)


def test_ryser_gate_counts_frozen():
    got = [len(ryser_perm_circuit(n).circuit) for n in range(2, 6)]
    assert got == [26, 66, 170, 406]


@pytest.mark.parametrize("kind", ["det", "perm"])
@pytest.mark.parametrize("fld", [QQ, GF(7)], ids=["Q", "F7"])
def test_every_gate_is_read(kind, fld):
    # the output reads every gate, constants included, for n = 1..6
    for n in range(1, 7):
        if kind == "det":
            circuit = leverrier_det_circuit(n, fld, allow_positive_char=True).circuit
        else:
            circuit = ryser_perm_circuit(n, fld).circuit
        seen, todo = {circuit.output}, [circuit.output]
        while todo:
            for c, _t in circuit.wires[todo.pop()]:
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
        assert seen == set(circuit.gates), (kind, n)


DET_LANDMARKS = {"x", "pow", "trace", "p", "psum", "pterm", "const"}
PERM_LANDMARKS = {"x", "rprod", "cprod", "rneg", "cneg", "total", "out", "const"}


def test_names_are_the_landmarks():
    # only the gates a caller looks up are named; the products and sums
    # between them are not, so the name table is a small share of the gates
    gens = [(leverrier_det_circuit(n), DET_LANDMARKS) for n in range(2, 9)]
    gens += [(ryser_perm_circuit(n), PERM_LANDMARKS) for n in range(2, 7)]
    for gen, landmarks in gens:
        assert {name[0] for name in gen.names} == landmarks, gen.names.keys()
        assert set(gen.names.values()) <= set(gen.circuit.gates)
    for gen in (leverrier_det_circuit(16), ryser_perm_circuit(10)):
        assert 4 * len(gen.names) < len(gen.circuit.gates)


def test_ryser_witnesses_verify():
    for n in (2, 3):
        gen = ryser_perm_circuit(n)
        assert gen.group == Matrix(n, n)
        for sigma in gen.witnesses:
            pi = find_extension(gen.circuit, sigma)
            assert verify_automorphism(gen.circuit, Witness(sigma, pi)) == []


def test_ryser_matrix_and_transpose_symmetry():
    gen = ryser_perm_circuit(3)
    assert check_symmetric(gen.circuit, Matrix(3, 3)).symmetric
    assert check_symmetric(gen.circuit, Transpose(3)).symmetric


def test_ryser_characteristic_two():
    f2 = GF(2)
    gen = ryser_perm_circuit(2, f2)
    for rows in ([[1, 0], [0, 1]], [[1, 1], [1, 1]], [[1, 1], [0, 1]]):
        assert eval_on_matrix(gen.circuit, rows) == perm_oracle(f2, rows)
    assert check_symmetric(gen.circuit, Matrix(2, 2)).symmetric


def test_matrix_assignment_shape_checks():
    with pytest.raises(CircuitError):
        matrix_assignment(QQ, [[1, 2], [3]])
    asg = matrix_assignment(QQ, [[1, 2], [3, 4]])
    assert asg["x_2_1"] == QQ.of(3)


def test_eval_on_matrix_known_determinant():
    gen = leverrier_det_circuit(2)
    assert eval_on_matrix(gen.circuit, [[1, 2], [3, 4]]) == QQ.of(-2)
    gen = ryser_perm_circuit(2)
    assert eval_on_matrix(gen.circuit, [[1, 2], [3, 4]]) == QQ.of(10)
