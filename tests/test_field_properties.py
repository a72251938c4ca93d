"""Property tests: the field axioms over Q and GF(p), p in {2, 3, 5, 7}, and
rational arithmetic and order against Fraction."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from symcirc import GF, QQ  # noqa: E402

FIELDS = (QQ, GF(2), GF(3), GF(5), GF(7))


@st.composite
def elements(draw, count):
    """A field from FIELDS and count of its elements; rationals have
    numerators and denominators up to 10^6 in absolute value."""
    fld = draw(st.sampled_from(FIELDS))
    if fld.p is None:
        values = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)
    else:
        values = st.integers(-3 * fld.p, 3 * fld.p)
    return fld, [fld.of(draw(values)) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(elements(3))
def test_ring_axioms(case):
    fld, (a, b, c) = case
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(max_examples=200, deadline=None)
@given(elements(1))
def test_identities_and_inverses(case):
    fld, (a,) = case
    assert a + fld.zero() == a
    assert a * fld.one() == a
    assert a * fld.zero() == fld.zero()
    assert a + (-a) == fld.zero()
    assert a - a == fld.zero()
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == fld.one()
        assert a / a == fld.one()


@settings(max_examples=200, deadline=None)
@given(elements(1), st.integers(-12, 12))
def test_scaled_and_power_repeat_the_operation(case, k):
    fld, (a,) = case
    total, product = fld.zero(), fld.one()
    for _ in range(abs(k)):
        total = total + a
        product = product * a
    assert a.scaled(k) == (total if k >= 0 else -total)
    if k >= 0:
        assert a.power(k) == product
    elif not a.is_zero():
        assert a.power(k) == product.inverse()


# integers and proper fractions, so that both the integer and the general
# route of rational + and * run, and mixed pairs of the two
RATIONALS = st.one_of(st.integers(-10 ** 6, 10 ** 6).map(Fraction),
                      st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                   max_denominator=10 ** 6))


def assert_normalized(value):
    num, den = value
    assert type(value) is type(QQ.zero())
    assert den > 0 and gcd(num, den) == 1


@settings(max_examples=300, deadline=None)
@given(RATIONALS, RATIONALS)
def test_rational_sum_and_product_are_fraction_arithmetic(x, y):
    a, b = QQ.of(x), QQ.of(y)
    for got, want in ((a + b, x + y), (a * b, x * y)):
        assert_normalized(got)
        assert got.as_fraction() == want


@settings(max_examples=200, deadline=None)
@given(st.lists(RATIONALS, max_size=12))
def test_sort_key_orders_as_fractions_do(xs):
    values = [QQ.of(x) for x in xs]
    by_key = sorted(values, key=lambda v: v.sort_key())
    assert by_key == sorted(values, key=lambda v: v.as_fraction())
