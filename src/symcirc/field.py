"""Exact scalar arithmetic over the rationals and over prime fields.

Values are immutable and always normalized: rationals in lowest terms with a
positive denominator, prime-field elements as representatives in [0, p).
Mixing values from different fields raises FieldMismatchError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import FieldMismatchError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Field:
    """Field descriptor: the rationals when ``p`` is None, otherwise F_p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        # values are immutable, so every caller shares one zero and one one
        object.__setattr__(self, "_zero", FieldValue(self, 0, 1))
        object.__setattr__(self, "_one", FieldValue(self, 1, 1))

    @property
    def char(self) -> int:
        return 0 if self.p is None else self.p

    def name(self) -> str:
        return "Q" if self.p is None else f"Fp:{self.p}"

    @staticmethod
    def parse(name: str) -> "Field":
        if name == "Q":
            return QQ
        if name.startswith("Fp:"):
            return Field(int(name[3:]))
        raise ValueError(f"unknown field {name!r} (expected 'Q' or 'Fp:<prime>')")

    def of(self, value) -> "FieldValue":
        """Coerce an int, Fraction, FieldValue or decimal/fraction string."""
        if isinstance(value, FieldValue):
            if value.field != self:
                raise FieldMismatchError(f"{value} is not in {self.name()}")
            return value
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, int):
            value = Fraction(value)
        if not isinstance(value, Fraction):
            raise TypeError(f"cannot coerce {value!r} into {self.name()}")
        if self.p is None:
            return FieldValue(self, value.numerator, value.denominator)
        den = value.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator divisible by {self.p}")
        num = value.numerator % self.p
        return FieldValue(self, num * pow(den, -1, self.p) % self.p, 1)

    def zero(self) -> "FieldValue":
        return self._zero

    def one(self) -> "FieldValue":
        return self._one


@dataclass(frozen=True)
class FieldValue:
    """A field element as a normalized numerator/denominator pair.

    Prime-field elements keep den == 1.  Construct through Field.of rather
    than directly so normalization is guaranteed.
    """

    field: Field
    num: int
    den: int = 1

    # Hash on (num, den) alone: the generated hash would rebuild a tuple
    # holding the Field on every call.  Equal values of different fields
    # share a hash but stay unequal.
    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldValue):
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and (self.field is other.field or self.field == other.field))

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def _check(self, other: "FieldValue"):
        if not isinstance(other, FieldValue):
            raise TypeError(f"expected FieldValue, got {other!r}")
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatchError(
                f"cannot mix {self.field.name()} and {other.field.name()}"
            )

    def __add__(self, other: "FieldValue") -> "FieldValue":
        self._check(other)
        if self.field.p is not None:
            return FieldValue(self.field, (self.num + other.num) % self.field.p, 1)
        return _mk(self.field, self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "FieldValue") -> "FieldValue":
        return self + (-other)

    def __neg__(self) -> "FieldValue":
        if self.field.p is not None:
            return FieldValue(self.field, (-self.num) % self.field.p, 1)
        return FieldValue(self.field, -self.num, self.den)

    def __mul__(self, other: "FieldValue") -> "FieldValue":
        self._check(other)
        if self.field.p is not None:
            return FieldValue(self.field, (self.num * other.num) % self.field.p, 1)
        return _mk(self.field, self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "FieldValue") -> "FieldValue":
        return self * other.inverse()

    def inverse(self) -> "FieldValue":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.field.p is not None:
            return FieldValue(self.field, pow(self.num, -1, self.field.p), 1)
        return _mk(self.field, self.den, self.num)

    def scaled(self, n: int) -> "FieldValue":
        """self multiplied by the integer n (n reduced into the field first)."""
        return self * self.field.of(n)

    def power(self, n: int) -> "FieldValue":
        """n-th power with the convention x**0 == 1 (also for x == 0)."""
        if n < 0:
            return self.inverse().power(-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self) -> bool:
        return self.num == 0

    def is_one(self) -> bool:
        return self.num == self.den

    def sort_key(self):
        if self.field.p is not None:
            return self.num
        return Fraction(self.num, self.den)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"<{self} in {self.field.name()}>"


QQ = Field(None)


def GF(p: int) -> Field:
    return Field(p)


def _mk(field: Field, num: int, den: int) -> FieldValue:
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return FieldValue(field, num, den)
