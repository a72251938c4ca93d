"""Brute-force determinant and permanent oracles for the circuit families.

leibniz_det and leibniz_perm sum over all n! permutations; gauss_det is
exact Gaussian elimination.  det_oracle picks Leibniz up to n = 7 and
elimination above; perm_oracle refuses n > 10.
"""

from __future__ import annotations

import itertools

from symcirc import CircuitError, Field, FieldValue


def _square(fld: Field, rows) -> list:
    mat = [[fld.of(e) for e in row] for row in rows]
    if any(len(row) != len(mat) for row in mat):
        raise CircuitError("matrix is not square")
    return mat


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(fld: Field, rows) -> FieldValue:
    mat = _square(fld, rows)
    n = len(mat)
    acc = fld.zero()
    for perm in itertools.permutations(range(n)):
        prod = fld.of(_perm_sign(perm))
        for i in range(n):
            prod = prod * mat[i][perm[i]]
        acc = acc + prod
    return acc


def leibniz_perm(fld: Field, rows) -> FieldValue:
    mat = _square(fld, rows)
    n = len(mat)
    acc = fld.zero()
    for perm in itertools.permutations(range(n)):
        prod = fld.one()
        for i in range(n):
            prod = prod * mat[i][perm[i]]
        acc = acc + prod
    return acc


def gauss_det(fld: Field, rows) -> FieldValue:
    """Determinant by exact Gaussian elimination with row pivoting."""
    mat = _square(fld, rows)
    n = len(mat)
    det = fld.one()
    for col in range(n):
        pivot = next((r for r in range(col, n) if not mat[r][col].is_zero()), None)
        if pivot is None:
            return fld.zero()
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det = det * mat[col][col]
        inv = mat[col][col].inverse()
        for r in range(col + 1, n):
            factor = mat[r][col] * inv
            if factor.is_zero():
                continue
            for k in range(col, n):
                mat[r][k] = mat[r][k] - factor * mat[col][k]
    return det


def det_oracle(fld: Field, rows) -> FieldValue:
    mat = _square(fld, rows)
    return leibniz_det(fld, mat) if len(mat) <= 7 else gauss_det(fld, mat)


def perm_oracle(fld: Field, rows) -> FieldValue:
    mat = _square(fld, rows)
    if len(mat) > 10:
        raise CircuitError("permanent oracle limited to n <= 10")
    return leibniz_perm(fld, mat)
