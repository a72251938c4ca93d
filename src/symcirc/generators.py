"""Symmetric circuits for the determinant and permanent.

The determinant circuit follows Le Verrier's method: power-sum traces s_k
feed the coefficient recurrence p_k = (1/k)[p_{k-1}s_1 - p_{k-2}s_2 + ...
+/- s_k], and p_n is the determinant.  Two rules build it.  The power
rule makes M^(a+b) from built M^a and M^b: M^a M^a when a = b, else
(M^a M^b + M^b M^a)/2, so that the transpose map extends to a gate
automorphism, which a one-sided product M^a M^b would not admit.  The
trace rule reads tr M^k off the diagonal of a built power, or as the pair
sum of (M^a)_ij (M^b)_ji over built powers with a + b = k.  Only the
exponents they are called with change with n, by baby steps and giant
steps (Paterson-Stockmeyer): for a baby step s, the powers M^2..M^s, then
M^(js) for j >= 2 and js < n from (floor(j/2)s, ceil(j/2)s), each by the
balanced split, and every trace whose power is not built by the pair of
built powers (a, k - a) nearest to the balanced split.  s runs over
1..ceil(n/2) and is the one of fewest gates by an exact count
(_schedule_gates), a tie going to ceil(n/2), which builds no giant step.
The chosen s lies near sqrt(n) to sqrt(2n), so about 2 sqrt(n) full
matrix products of n^3 to 2n^3 gates each are built: the size is
O(n^3.5), 2.0-2.5 n^3.5 for n = 16..32, and not O(n^3).

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
    # ("pow", k, i, j) for k = 1 (the inputs) and each power the schedule
    # builds, its baby steps 2..s and giant steps js < n, so k = 2 for any
    # n >= 3; ("trace", k), ("p", k), ("psum", k), ("pterm", k, j),
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


def _det_schedule(n: int, s: int) -> tuple:
    """The (lo, hi) calls of power and then of trace for baby step s.

    Baby steps M^2..M^s and giant steps M^(js), js < n, each take the
    balanced split of their exponent, in units of s for a giant; trace k
    reads a built M^k's diagonal (hi = 0), else pairs the built halves
    (a, k - a) nearest to balanced.  One always exists: k = qs + r with
    0 < r < s, or k = n = qs with q >= 2 and both (q-1)s and s built.
    """
    powers = [(m // 2, m - m // 2) for m in range(2, s + 1)]
    powers += [(j // 2 * s, (j + 1) // 2 * s) for j in range(2, n) if j * s < n]
    built = {1, *(lo + hi for lo, hi in powers)}
    traces = [(k, 0) if k in built else
              next((a, k - a) for a in range(k // 2, 0, -1) if {a, k - a} <= built)
              for k in range(1, n + 1)]
    return powers, traces


def _schedule_gates(n: int, powers, traces) -> int:
    """The gates the power and trace calls of a schedule add.  A square's
    diagonal entries share a product per unordered index pair, and a
    two-sided product's diagonal entries share their two halves."""
    tri = n * (n + 1) // 2
    return (sum(n ** 3 + tri if lo == hi else 2 * n ** 3 + n * n for lo, hi in powers)
            + sum(1 if hi == 0 else (tri if lo == hi else n * n) + 1 for lo, hi in traces))


def _det_plan(n: int) -> tuple:
    """The schedule of fewest gates over baby steps s = 1..ceil(n/2), a
    tie going to the larger s; s = ceil(n/2) builds no giant step."""
    plans = [_det_schedule(n, s) for s in range((n + 1) // 2, 0, -1)]
    return min(plans, key=lambda plan: _schedule_gates(n, *plan))


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
    return _leverrier(n, fld, *_det_plan(n))


def _leverrier(n: int, fld: Field, powers, traces) -> GeneratedCircuit:
    """The determinant circuit whose powers and traces follow a schedule."""
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

    for lo, hi in powers:
        power(lo, hi)
    for lo, hi in traces:
        trace(lo, hi)

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
