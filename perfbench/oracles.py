"""Known answers, computed here and never taken from symcirc.

Every expected value a check compares against comes from this module: exact
determinants and permanents, supports and orbit sizes derived by hand from
the circuit families' structure, and the CFI, census and P/Q numbers.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from fractions import Fraction
from math import comb, prod


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return sign * prod((a[i][i] for i in range(n)), start=Fraction(1))


def perm(rows) -> int:
    """Permanent as the naive sum over all permutations (n <= 6 here)."""
    n = len(rows)
    return sum(prod(rows[i][p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


def reduce(value, p):
    """An exact value as it reads in Q (p None) or in F_p, as a Fraction."""
    value = Fraction(value)
    if p is None:
        return value
    return Fraction(value.numerator * pow(value.denominator, -1, p) % p)


def zero_one_values(kind: str, n: int, p) -> set:
    """Every value the det or perm of an n x n 0/1 matrix takes, in the field:
    the exact value set Q_out of the output gate."""
    f = det if kind == "det" else perm
    out = set()
    for bits in itertools.product((0, 1), repeat=n * n):
        rows = [bits[i * n:(i + 1) * n] for i in range(n)]
        out.add(reduce(f(rows), p))
    return out


def det_gate_bound(n: int) -> int:
    """Gate budget of the O(n^3) determinant construction."""
    return 10 * n ** 3


def perm_gate_bound(n: int) -> int:
    """Gate budget of the symmetrised Ryser construction."""
    return 8 * 2 ** n * n ** 2


def input_orbit_sizes(kind: str, n: int) -> dict:
    """Orbit size of the input gate x_ij, keyed by whether i == j.

    Sym(n) acting diagonally, with transposition, moves x_ij (i != j) over
    the n(n-1) off-diagonal positions and x_ii over the n diagonal ones.
    Sym(n) x Sym(n) on rows and columns moves every x_ij over all n^2.
    """
    if kind == "det":
        return {"diagonal": n, "off_diagonal": n * (n - 1)}
    return {"diagonal": n * n, "off_diagonal": n * n}


def pow_support(i: int, j: int) -> frozenset:
    """Under Transpose(n), ("pow", k, i, j) is fixed exactly by the
    permutations fixing i and j, so its minimum support is {i, j}."""
    return frozenset({i, j})


def rprod_support(S, n: int) -> frozenset:
    """Under Matrix(n, n), ("rprod", S) is moved by a column transposition
    exactly when it swaps a column of S with one outside S: the bad pairs
    form the complete bipartite graph between S and its complement, whose
    minimum vertex cover is the smaller side."""
    S = set(S)
    rest = set(range(1, n + 1)) - S
    side = S if len(S) <= len(rest) else rest
    return frozenset(("c", j) for j in side)


def transpositions_tried(spec_kind: str, m: int, n: int) -> int:
    """Transpositions minimal_support tries for one gate: every pair of
    index points lying in one factor of the group."""
    if spec_kind == "matrix":
        return comb(m, 2) + comb(n, 2)
    return comb(n, 2)


# ---------------------------------------------------------------------------
# CFI graphs

#: Perfect matchings of X(K4) and ~X(K4), and how many of them are uniform.
K4_MATCHINGS = {False: 23680, True: 23552}
K4_UNIFORM = {False: 5248, True: 5120}
#: The two counts differ by 2^(3|V|/2 + 1) = 2^7 on K4.
K4_GAP = 2 ** 7


def cfi_size(nv: int, ne: int) -> tuple:
    """(vertices, edges) of X(G) for a cubic G: two vertices per base edge,
    and per base vertex a balance vertex plus four inner vertices, each
    inner vertex joined to the balance vertex and three edge vertices."""
    return 2 * ne + 5 * nv, 16 * nv


def census(nv: int, ne: int) -> dict:
    """Orientation census of a connected graph: the odd in-degree sets are
    exactly the vertex sets whose size has the parity of |E| (in-degrees sum
    to |E|), 2^(|V|-1) of them, and each arises from 2^(|E|-|V|+1)
    orientations (reversing an even subgraph keeps every in-degree parity)."""
    return {"odd_sets": 2 ** (nv - 1), "per_set": 2 ** (ne - nv + 1)}


def pq(m: int) -> tuple:
    """(P_m, Q_m): sums of 2^s 4^(2m-s) C(2m, s) over even and odd s.
    Their sum is 6^(2m) and their difference 2^(2m)."""
    return (36 ** m + 4 ** m) // 2, (36 ** m - 4 ** m) // 2


def distance_profile(vertices, edges) -> Counter:
    """Multiset of BFS distances over ordered vertex pairs (None when
    unreachable)."""
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    out = Counter()
    for s in vertices:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        for t in vertices:
            out[dist.get(t)] += 1
    return out


def pair_refinement_separates(g1, g2) -> bool:
    """Refinement over vertex pairs determines the distance between the two
    vertices of a pair, so differing distance profiles force 2-WL (in
    symcirc's tuple-length convention) to separate the graphs."""
    return distance_profile(*g1) != distance_profile(*g2)
