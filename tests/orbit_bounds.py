"""A gate's orbit against its point classes: the two-sided Young bound.

Let C_1..C_r be a gate's point classes in one factor of n index points
(symmetry._point_classes), and m_s the number of classes of size s.  Swaps
inside a class fix the gate, so its stabilizer contains the Young subgroup
prod Sym(C_i), and the orbit is at most n!/prod |C_i|!.  A permutation
fixing the gate maps a ~ b to pi(a) ~ pi(b), so it permutes the classes,
keeping sizes, and the orbit is at least n!/(prod |C_i|! prod_s m_s!).
Both ends multiply over the spec's factors.  Under Transpose(n) the
classes are the diagonal action's, and the transpose map can double the
upper end.  An orbit outside the bounds means orbits or _point_classes is
wrong.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, prod

from symcirc.symmetry import Transpose, _point_classes, orbits


def orbit_ratios(circuit, spec, witnesses) -> Counter:
    """Assert the bound on every gate of the circuit, each orbit taken
    under the group the witnesses generate, and count the gates by
    |orbit| / upper end (without the transpose map's factor 2)."""
    k = 2 if isinstance(spec, Transpose) else 1
    size = {g: len(orb) for orb in orbits(circuit, witnesses).orbits for g in orb}
    factors = spec.factors()
    ratios = Counter()
    for g in circuit.gates:
        low = high = 1
        for (_tag, n, _make), (_tag, classes) in zip(factors, _point_classes(circuit, g, spec)):
            young = factorial(n) // prod(factorial(len(c)) for c in classes)
            high *= young
            low *= young // prod(factorial(m) for m in Counter(map(len, classes)).values())
        assert low <= size[g] <= k * high, (g, low, size[g], k * high)
        ratios[Fraction(size[g], high)] += 1
    return ratios
