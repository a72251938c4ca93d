"""Exact field arithmetic over Q and prime fields."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from symcirc import GF, QQ, Circuit, Field, FieldMismatchError, leverrier_det_circuit, serialize


def test_rational_field_basics():
    assert QQ.char == 0
    assert QQ.name() == "Q"
    assert QQ.zero().is_zero()
    assert QQ.one().is_one()
    assert not QQ.one().is_zero()


def test_prime_field_basics():
    f7 = GF(7)
    assert f7.char == 7
    assert f7.name() == "Fp:7"
    assert f7.of(10) == f7.of(3)
    assert f7.of(-1) == f7.of(6)


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_parse_round_trip():
    assert Field.parse("Q") == QQ
    assert Field.parse("Fp:11") == GF(11)
    with pytest.raises(ValueError):
        Field.parse("R")
    with pytest.raises(ValueError):
        Field.parse("Fp:9")


def test_of_coercions():
    half = QQ.of(Fraction(1, 2))
    assert QQ.of("1/2") == half
    assert QQ.of(half) == half
    assert QQ.of(3) == QQ.of("3")
    assert GF(5).of("7") == GF(5).of(2)


def test_rational_arithmetic_is_exact():
    a = QQ.of(Fraction(1, 3))
    b = QQ.of(Fraction(1, 6))
    assert a + b == QQ.of(Fraction(1, 2))
    assert a - b == b
    assert (a * b).as_fraction() == Fraction(1, 18)
    assert (a / b).as_fraction() == Fraction(2)
    assert (-a).as_fraction() == Fraction(-1, 3)


def test_prime_field_arithmetic():
    f5 = GF(5)
    a = f5.of(3)
    b = f5.of(4)
    assert a + b == f5.of(2)
    assert a * b == f5.of(2)
    assert a - b == f5.of(4)
    assert (a / b) * b == a


def test_inverse():
    assert QQ.of(Fraction(-3, 7)).inverse() == QQ.of(Fraction(-7, 3))
    f11 = GF(11)
    for k in range(1, 11):
        v = f11.of(k)
        assert (v * v.inverse()).is_one()
    with pytest.raises(ZeroDivisionError):
        QQ.zero().inverse()


def test_scaled_and_power():
    a = QQ.of(Fraction(2, 3))
    assert a.scaled(3) == QQ.of(2)
    assert a.scaled(0).is_zero()
    assert a.power(0).is_one()
    assert a.power(3) == QQ.of(Fraction(8, 27))
    assert QQ.zero().power(0).is_one()
    assert QQ.zero().power(2).is_zero()


def test_mixed_field_operations_rejected():
    with pytest.raises(FieldMismatchError):
        QQ.one() + GF(3).one()
    with pytest.raises(FieldMismatchError):
        QQ.one() * GF(3).one()


def test_str_forms():
    assert str(QQ.of(3)) == "3"
    assert str(QQ.of(Fraction(-1, 2))) == "-1/2"
    assert str(GF(7).of(12)) == "5"


def test_sort_key_orders_values():
    vals = [QQ.of(x) for x in ("1/2", "-3", "0", "2")]
    ordered = sorted(vals, key=lambda v: v.sort_key())
    assert [str(v) for v in ordered] == ["-3", "0", "1/2", "2"]


def test_hashable_and_usable_in_sets():
    seen = {QQ.of(1), QQ.of("2/2"), QQ.of(2)}
    assert len(seen) == 2


def test_equal_values_of_different_fields_stay_apart():
    three_f5, three_q = GF(5).of(3), QQ.of(3)
    assert hash(three_f5) == hash(three_q)
    assert three_f5 != three_q
    assert three_f5 == GF(5).of(8)
    assert three_f5 != 3
    seen = {three_f5, three_q, GF(5).of(8), QQ.of("6/2"), GF(7).of(3)}
    assert seen == {three_f5, three_q, GF(7).of(3)}
    assert len(seen) == 3


_CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda x: pickle.loads(pickle.dumps(x))}


@pytest.mark.parametrize("obj", [QQ.of("-3/4"), GF(7).of(3), QQ, GF(7)], ids=repr)
@pytest.mark.parametrize("clone", _CLONES.values(), ids=list(_CLONES))
def test_values_and_fields_copy_and_pickle(obj, clone):
    twin = clone(obj)
    assert type(twin) is type(obj)
    assert twin == obj
    assert hash(twin) == hash(obj)


@pytest.mark.parametrize("clone", _CLONES.values(), ids=list(_CLONES))
def test_built_circuit_copies_and_pickles(clone):
    c = leverrier_det_circuit(3).circuit
    twin = clone(c)
    assert type(twin) is Circuit
    assert serialize(twin) == serialize(c)


def test_separately_made_prime_fields_agree():
    a, b = Field(7), Field(7)
    assert a.of(3) == b.of(10)
    assert hash(a.of(3)) == hash(b.of(10))
    assert len({a.of(3), b.of(3)}) == 1
    assert a.of(GF(7).of(3)) == b.of(3)
    assert a.of(3) + b.of(5) == GF(7).one()


@pytest.mark.parametrize("op", [lambda v: v < v, lambda v: v <= (3, 1), lambda v: (3, 1) < v,
                                lambda v: 2 * v, lambda v: v * 2, lambda v: (1,) + v],
                         ids=["v<v", "v<=pair", "pair<v", "2*v", "v*2", "tuple+v"])
def test_values_do_not_order_or_repeat(op):
    with pytest.raises(TypeError):
        op(QQ.of(3))


def test_values_are_not_equal_to_pairs():
    v = QQ.of(3)
    assert not v == (3, 1)
    assert not (3, 1) == v
    assert v != (3, 1)
    assert (3, 1) != v
