"""Symmetric circuits for the determinant and permanent.

The determinant circuit follows Le Verrier's method: power-sum traces s_k
feed the coefficient recurrence p_k = (1/k)[p_{k-1}s_1 - p_{k-2}s_2 + ...
+/- s_k], and p_n is the determinant.  Two rules build it.  The power
rule makes M^(a+b) from built M^a and M^b: M^a M^a when a = b, else
(M^a M^b + M^b M^a)/2, so that the transpose map extends to a gate
automorphism, which a one-sided product M^a M^b would not admit.  The
trace rule reads tr M^k off the diagonal of a built power, or as the pair
sum of (M^a)_ij (M^b)_ji over built powers with a + b = k.  Powers up to
ceil(n/2) and the higher traces take the balanced split (m//2, m - m//2);
a baby-step/giant-step schedule would change only these exponents.

The permanent circuit symmetrises Ryser's formula over rows and columns:
PERM = (-1)^n sum_S (-1)^{|S|} prod_i sum_{j in S} x_ij, averaged with the
same expression on the transposed matrix, which yields transpose symmetry
on top of the row/column symmetry.  One term body builds both forms, which
differ only in index order.  Over characteristic 2 the average is
unavailable and the plain row form is emitted.

Both are built through the hash-consing CircuitBuilder, so they are rigid:
a term built twice, such as x_12*x_21, a product in both (M^2)_11 and
(M^2)_22, is one gate read by both sums, and a square reads its child
twice.  Only the landmark gates a caller looks up are named (see
GeneratedCircuit); the products and sums between them are not.  Each
carries its group spec, Transpose(n) or Matrix(n, n), whose generators()
are its witnesses: per index set (rows, then columns, for the permanent)
the transposition (1 2) and the cycle (2 3 ... n), plus the transpose map
for the determinant, so three for det and four for perm at any n >= 3.
check_symmetric extends each variable permutation to the gates on first
use and caches the extension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .circuit import (ADD, MUL, Circuit, CircuitBuilder, _acyclic, const, evaluate_arith,
                      input_label)
from .errors import CircuitError
from .field import QQ, Field, FieldValue
from .symmetry import Matrix, Transpose, check_symmetric, matrix_var, matrix_variables


@dataclass
class GeneratedCircuit:
    circuit: Circuit
    # landmark gate name -> gate id (aliases allowed).  det: ("x", i, j),
    # ("pow", k, i, j), ("trace", k), ("p", k), ("psum", k), ("pterm", k, j),
    # ("const", text); perm: ("x", i, j), ("rprod", S), ("cprod", S),
    # ("rneg", S), ("cneg", S), ("total",), ("out",), ("const", text)
    names: dict
    group: object

    @cached_property
    def witnesses(self) -> list:
        """check_symmetric's witnesses: the group.generators() entries,
        same order, each None where it has no extension."""
        return check_symmetric(self.circuit, self.group).witnesses


def matrix_assignment(fld: Field, rows) -> dict:
    rows = [list(r) for r in rows]
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise CircuitError(f"ragged matrix: row lengths {sorted(widths)}")
    asg = {}
    for i, row in enumerate(rows, start=1):
        for j, entry in enumerate(row, start=1):
            asg[matrix_var(i, j)] = fld.of(entry)
    return asg


def eval_on_matrix(circuit: Circuit, rows) -> FieldValue:
    return evaluate_arith(circuit, matrix_assignment(circuit.field, rows))


# ---------------------------------------------------------------------------
# Le Verrier determinant circuit


@_acyclic
def leverrier_det_circuit(n: int, fld: Field = QQ, allow_positive_char: bool = False) -> GeneratedCircuit:
    """Transpose symmetric determinant circuit over a characteristic-0 field.

    Positive characteristic p > n is accepted behind an experimental flag
    (the method divides by 1..n); p <= n is rejected.
    """
    if n < 1:
        raise CircuitError("n must be positive")
    if fld.p is not None:
        if not allow_positive_char:
            raise CircuitError("Le Verrier divides by 1..n; pass allow_positive_char for p > n")
        if fld.p <= n:
            raise CircuitError(f"characteristic {fld.p} does not exceed n = {n}")

    b = CircuitBuilder(fld, matrix_variables(n))
    idx = range(1, n + 1)
    for i in idx:
        for j in idx:
            g = b.add(input_label(matrix_var(i, j)), name=("x", i, j))
            b.names[("pow", 1, i, j)] = g
    # -1 signs the even traces and 1/k scales p_k, so n = 1 needs neither
    cvals = [("-1", -1)] if n > 1 else []
    cvals += [(f"1/{k}", Fraction(1, k)) for k in range(2, n + 1)]
    cgate = {lbl: b.add(const(fld.of(v)), name=("const", lbl)) for lbl, v in cvals}

    def pow_gate(k, i, j):
        return b.names[("pow", k, i, j)]

    def power(lo, hi):
        """M^(lo+hi) by the power rule, from the built M^lo and M^hi."""
        m = lo + hi
        for i in idx:
            for j in idx:
                kids = []
                for a in idx:
                    kids.append(b.add(MUL, [pow_gate(lo, i, a), pow_gate(hi, a, j)]))
                    if lo != hi:
                        kids.append(b.add(MUL, [pow_gate(hi, i, a), pow_gate(lo, a, j)]))
                if lo == hi:
                    b.add(ADD, kids, name=("pow", m, i, j))
                else:
                    b.add(MUL, [cgate["1/2"], b.add(ADD, kids)], name=("pow", m, i, j))

    def trace(lo, hi):
        """tr M^(lo+hi) by the trace rule; hi = 0 reads M^lo's diagonal."""
        k = lo + hi
        if hi == 0:
            kids = [pow_gate(k, a, a) for a in idx]
        else:
            kids = [b.add(MUL, [pow_gate(lo, a, c), pow_gate(hi, c, a)])
                    for a in idx for c in idx]
        b.add(ADD, kids, name=("trace", k))

    top = (n + 1) // 2  # full power matrices for 1..top
    for m in range(2, top + 1):
        power(m // 2, m - m // 2)
    for k in range(1, n + 1):
        if k <= top:
            trace(k, 0)
        else:
            trace(k // 2, k - k // 2)

    b.names[("p", 1)] = b.names[("trace", 1)]
    for k in range(2, n + 1):
        kids = []
        for j in range(1, k):
            ch = [b.names[("p", k - j)], b.names[("trace", j)]]
            if j % 2 == 0:
                ch.append(cgate["-1"])
            kids.append(b.add(MUL, ch, name=("pterm", k, j)))
        if k % 2 == 0:
            kids.append(b.add(MUL, [cgate["-1"], b.names[("trace", k)]], name=("pterm", k, k)))
        else:
            kids.append(b.names[("trace", k)])
        psum = b.add(ADD, kids, name=("psum", k))
        b.add(MUL, [cgate[f"1/{k}"], psum], name=("p", k))

    return GeneratedCircuit(b.build(("p", n)), b.names, Transpose(n))


# ---------------------------------------------------------------------------
# Ryser permanent circuit


@_acyclic
def ryser_perm_circuit(n: int, fld: Field = QQ) -> GeneratedCircuit:
    """Matrix symmetric permanent circuit; transpose symmetric too outside
    characteristic 2 (where the row/column average is unavailable and the
    plain row form is emitted).  Size is at most 8 * 2^n * n^2 gates.
    """
    if n < 1:
        raise CircuitError("n must be positive")
    two_sided = fld.char != 2
    b = CircuitBuilder(fld, matrix_variables(n))
    idx = range(1, n + 1)
    for i in idx:
        for j in idx:
            b.add(input_label(matrix_var(i, j)), name=("x", i, j))
    # some term has n + |S| odd exactly when n > 1
    neg_one = b.add(const(fld.of(-1)), name=("const", "-1")) if two_sided and n > 1 else None
    subsets = [S for size in range(1, n + 1)
               for S in itertools.combinations(idx, size)]

    def term(prefix, S):
        """The signed product over rows k ("r") or columns k ("c") of the
        sum of line k's entries at the indices in S."""
        kids = [b.add(ADD, [b.names[("x", k, j) if prefix == "r" else ("x", j, k)] for j in S])
                for k in idx]
        prod = b.add(MUL, kids, name=(prefix + "prod", S))
        if two_sided and (n + len(S)) % 2 == 1:
            return b.add(MUL, [neg_one, prod], name=(prefix + "neg", S))
        return prod

    terms = [term("r", S) for S in subsets]
    if two_sided:
        terms += [term("c", S) for S in subsets]
        total = b.add(ADD, terms, name=("total",))
        half = b.add(const(fld.of(Fraction(1, 2))), name=("const", "1/2"))
        out = b.add(MUL, [half, total], name=("out",))
    else:
        out = b.add(ADD, terms, name=("total",))
        b.names[("out",)] = out
    return GeneratedCircuit(b.build(out), b.names, Matrix(n, n))
