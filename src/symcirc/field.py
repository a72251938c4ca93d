"""Exact scalar arithmetic over the rationals and over prime fields.

A field element is an immutable (num, den) tuple of the FieldValue subclass
made once for its field's modulus, so values are built and hashed by tuple
code, and a dict keyed by values calls FieldValue.__eq__ only when a lookup
meets an equal key that is another object.  Values are always normalized:
rationals in lowest terms with a positive denominator, prime-field elements
as representatives in [0, p) over 1.  Values are equal only within one
field, and mixing fields in arithmetic raises FieldMismatchError.  To len,
iteration and json.dumps a value is the pair (num, den); str(value) is its
written form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import FieldMismatchError

_new = tuple.__new__
_VALUE_CLASSES = {}   # modulus, None for Q -> the FieldValue subclass of that field


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
    """Field descriptor: the rationals when ``p`` is None, otherwise F_p.
    Every Field with one ``p`` makes values of one FieldValue subclass,
    whose class attribute ``field`` is the first such Field made."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        cls = _VALUE_CLASSES.get(self.p)
        if cls is None:
            cls = _VALUE_CLASSES[self.p] = type("FieldValue", (FieldValue,),
                                                {"__slots__": (), "field": self})
        object.__setattr__(self, "_values", cls)
        # values are immutable, so every caller shares one zero and one one
        object.__setattr__(self, "_zero", _new(cls, (0, 1)))
        object.__setattr__(self, "_one", _new(cls, (1, 1)))

    def __reduce__(self):
        return Field, (self.p,)

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
            if type(value) is not self._values:
                raise FieldMismatchError(f"{value} is not in {self.name()}")
            return value
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, int):
            value = Fraction(value)
        if not isinstance(value, Fraction):
            raise TypeError(f"cannot coerce {value!r} into {self.name()}")
        if self.p is None:
            return _new(self._values, (value.numerator, value.denominator))
        den = value.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator divisible by {self.p}")
        num = value.numerator % self.p
        return _new(self._values, (num * pow(den, -1, self.p) % self.p, 1))

    def zero(self) -> "FieldValue":
        return self._zero

    def one(self) -> "FieldValue":
        return self._one


class FieldValue(tuple):
    """A field element: the normalized pair (num, den), of the subclass its
    Field made, which holds that Field as ``field``.  Prime-field elements
    keep den == 1.  Values are made by Field.of and the arithmetic."""

    __slots__ = ()
    field: Field
    # equal values of different fields share a hash, but not a class
    __hash__ = tuple.__hash__

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self[0] == other[0] and self[1] == other[1]

    def __ne__(self, other) -> bool:   # tuple's own would compare pairs
        return not self == other

    # raise, not NotImplemented, which would let the tuple operation run
    def _not_a_tuple(self, other):
        raise TypeError(f"{self!r} has no order, concatenation or repetition")

    __lt__ = __le__ = __gt__ = __ge__ = __radd__ = __rmul__ = _not_a_tuple

    def __reduce__(self):
        return Field.of, (self.field, str(self))

    def _refuse(self, other):
        """Raise for an operand that is not a value of this field."""
        if not isinstance(other, FieldValue):
            raise TypeError(f"expected FieldValue, got {other!r}")
        raise FieldMismatchError(f"cannot mix {self.field.name()} and {other.field.name()}")

    def __add__(self, other: "FieldValue") -> "FieldValue":
        if type(other) is not type(self):
            self._refuse(other)
        p = self.field.p
        if p is not None:
            return _new(type(self), ((self[0] + other[0]) % p, 1))
        a, b = self
        c, d = other
        if b == d == 1:   # integers are in lowest terms already
            return _new(type(self), (a + c, 1))
        return _mk(type(self), a * d + c * b, b * d)

    def __sub__(self, other: "FieldValue") -> "FieldValue":
        return self + (-other)

    def __neg__(self) -> "FieldValue":
        p = self.field.p
        if p is not None:
            return _new(type(self), (-self[0] % p, 1))
        return _new(type(self), (-self[0], self[1]))

    def __mul__(self, other: "FieldValue") -> "FieldValue":
        if type(other) is not type(self):
            self._refuse(other)
        p = self.field.p
        if p is not None:
            return _new(type(self), (self[0] * other[0] % p, 1))
        a, b = self
        c, d = other
        if b == d == 1:
            return _new(type(self), (a * c, 1))
        return _mk(type(self), a * c, b * d)

    def __truediv__(self, other: "FieldValue") -> "FieldValue":
        return self * other.inverse()

    def inverse(self) -> "FieldValue":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        p = self.field.p
        if p is not None:
            return _new(type(self), (pow(self[0], -1, p), 1))
        return _mk(type(self), self[1], self[0])

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
        return self[0] == 0

    def is_one(self) -> bool:
        return self[0] == self[1]

    def sort_key(self):
        """A key ordering the values of Q by size and those of F_p by
        representative: the int for an integer, which compares exactly
        with the Fractions of the others."""
        if self[1] == 1:
            return self[0]
        return Fraction(*self)

    def as_fraction(self) -> Fraction:
        return Fraction(*self)

    def __str__(self) -> str:
        return str(self[0]) if self[1] == 1 else f"{self[0]}/{self[1]}"

    def __repr__(self) -> str:
        return f"<{self} in {self.field.name()}>"


QQ = Field(None)


def GF(p: int) -> Field:
    return Field(p)


def _mk(cls: type, num: int, den: int) -> FieldValue:
    """The rational num/den as a value of class cls, in lowest terms."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return _new(cls, (num, den))
