"""The bottom-up extension pass against the backtracking search it replaced.

On every generated family below, find_extension must find an extension
exactly when the old search does, with the same gate map, and
minimal_support must agree with the old per-gate search on every gate.
orbits, which closes over the gates the extensions move, must give the
orbits a union-find over the full gate maps gives.
"""

from __future__ import annotations

import random

import pytest

from extension_oracle import all_transpositions
from extension_oracle import bad_pairs as oracle_bad_pairs
from extension_oracle import Witness, fixing, invariant_colors, orbit_partition, search_extension
from extension_oracle import minimal_support as oracle_support
from extension_oracle import verify_automorphism
from symcirc import (
    GF,
    QQ,
    Matrix,
    Square,
    Transpose,
    check_symmetric,
    expand_to_threshold,
    find_extension,
    leverrier_det_circuit,
    lower_to_partition_basis,
    minimal_support,
    orbits,
    ryser_perm_circuit,
    value_sets,
)
from symcirc.symmetry import _matrix_sigma, bad_pairs

CASES = ([("det", n, QQ) for n in (2, 3, 4, 5)]
         + [("det", n, GF(7)) for n in (2, 3, 4, 5)]
         + [("perm", n, QQ) for n in (2, 3, 4)]
         + [("perm", n, GF(3)) for n in (2, 3, 4)])


def build(kind, n, fld):
    if kind == "det":
        return leverrier_det_circuit(n, fld, allow_positive_char=fld.p is not None)
    return ryser_perm_circuit(n, fld)


def sigmas(n, rng):
    """Every row, column and diagonal transposition and the transpose map,
    a row cycle composed with the transpose, and two random variable
    permutations."""
    out = all_transpositions(Matrix(n, n)) + all_transpositions(Transpose(n))
    # the row cycle i -> i+1 (mod n), then the transpose
    out.append(_matrix_sigma(n, n, lambda i, j: (j, i % n + 1)))
    variables = [f"x_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    for _ in range(2):
        shuffled = rng.sample(variables, len(variables))
        out.append(dict(zip(variables, shuffled)))
    return out


@pytest.mark.parametrize("kind, n, fld", CASES,
                         ids=[f"{k}{n}-{f.name()}" for k, n, f in CASES])
def test_extension_matches_search(kind, n, fld):
    c = build(kind, n, fld).circuit
    colors = invariant_colors(c)
    rng = random.Random(n)
    gates = sorted(c.gates)
    found = 0
    for sigma in sigmas(n, rng):
        for fix in (None, rng.choice(gates)):
            want = search_extension(c, sigma, fix, colors)
            got = find_extension(c, sigma)
            assert fixing(got, fix) == want, (sigma, fix)
            if got is not None:
                assert verify_automorphism(c, Witness(sigma, got)) == []
            found += want is not None
    assert found >= len(all_transpositions(Transpose(n)))


@pytest.mark.parametrize("kind, spec", [("det", Transpose(4)), ("perm", Matrix(4, 4)),
                                        ("det", Matrix(4, 4))])
def test_minimal_support_matches_search(kind, spec):
    c = build(kind, 4, QQ).circuit
    colors = invariant_colors(c)
    for g in sorted(c.gates):
        assert minimal_support(c, g, spec) == oracle_support(c, g, spec, colors), g


@pytest.mark.parametrize("kind, n, spec",
                         [("det", n, spec) for n in (3, 4) for spec in (Transpose(n), Square(n))]
                         + [("perm", n, Matrix(n, n)) for n in (3, 4)]
                         + [("det", n, Matrix(n, n)) for n in (3, 4)],
                         ids=str)
def test_bad_pairs_match_search(kind, n, spec):
    c = build(kind, n, QQ).circuit
    colors = invariant_colors(c)
    for g in sorted(c.gates):
        assert bad_pairs(c, g, spec) == oracle_bad_pairs(c, g, spec, colors), g


ORBIT_CASES = [(kind, n, spec) for kind in ("det", "perm") for n in (3, 4, 5)
               for spec in (Square(n), Transpose(n), Matrix(n, n))]


@pytest.mark.parametrize("kind, n, spec", ORBIT_CASES, ids=str)
def test_orbits_match_full_map_union_find(kind, n, spec):
    # the generators that extend: perm under Transpose closes the subgroup
    # of the diagonal swaps, and det under Matrix, where no row or column
    # swap extends, has only singleton orbits
    c = build(kind, n, QQ).circuit
    perms = [sigma for sigma in check_symmetric(c, spec).witnesses if sigma is not None]
    assert orbits(c, perms).orbits == orbit_partition(c, perms)


LOWERED_CASES = [(ryser_perm_circuit(3, GF(3)), Matrix(3, 3)),
                 (leverrier_det_circuit(3, GF(5), allow_positive_char=True), Transpose(3)),
                 (leverrier_det_circuit(3), Transpose(3)),
                 (ryser_perm_circuit(3), Matrix(3, 3))]


@pytest.mark.parametrize("gen, spec", LOWERED_CASES,
                         ids=[f"{gen.circuit.field.name()}-{spec}" for gen, spec in LOWERED_CASES])
def test_lowered_orbits_match_full_map_union_find(gen, spec):
    # both stages of the lowerings that orbit preservation is asserted on
    low = lower_to_partition_basis(gen.circuit, {0}, value_sets(gen.circuit, "exact"))
    exp = expand_to_threshold(low)
    perms = check_symmetric(gen.circuit, spec).witnesses
    for stage in (low.circuit, exp.circuit):
        assert orbits(stage, perms).orbits == orbit_partition(stage, perms)
