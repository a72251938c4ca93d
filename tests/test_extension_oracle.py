"""The bottom-up extension pass against the backtracking search it replaced.

On every generated family below, find_extension must find an extension
exactly when the old search does, with the same gate map, and
minimal_support must agree with the old per-gate search on every gate.
"""

from __future__ import annotations

import random

import pytest

from extension_oracle import all_transpositions
from extension_oracle import bad_pairs as oracle_bad_pairs
from extension_oracle import fixing, invariant_colors, search_extension
from extension_oracle import minimal_support as oracle_support
from symcirc import (
    GF,
    QQ,
    Matrix,
    Square,
    Transpose,
    Witness,
    find_extension,
    leverrier_det_circuit,
    minimal_support,
    ryser_perm_circuit,
    verify_automorphism,
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


@pytest.mark.parametrize("kind, spec", [("det", Transpose(4)), ("perm", Matrix(4, 4))])
def test_minimal_support_matches_search(kind, spec):
    c = build(kind, 4, QQ).circuit
    colors = invariant_colors(c)
    for g in sorted(c.gates):
        assert minimal_support(c, g, spec) == oracle_support(c, g, spec, colors), g


@pytest.mark.parametrize("kind, n, spec",
                         [("det", n, spec) for n in (3, 4) for spec in (Transpose(n), Square(n))]
                         + [("perm", n, Matrix(n, n)) for n in (3, 4)],
                         ids=str)
def test_bad_pairs_match_search(kind, n, spec):
    c = build(kind, n, QQ).circuit
    colors = invariant_colors(c)
    for g in sorted(c.gates):
        assert bad_pairs(c, g, spec) == oracle_bad_pairs(c, g, spec, colors), g
