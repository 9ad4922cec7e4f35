"""Exact scalars: rationals with an optional sqrt(5) part, an oracle for
the tests.

The package keeps root coordinates as ints, one per coordinate over Z and
a pair (a, b) for a + b*phi over Z[phi] (H3, H4).  The tests lift them to
:class:`Scalar` (`lift`), so linear algebra over the two base fields (Q for
the crystallographic types, Q(sqrt5) for H3 and H4) runs without any
floating point.  Values are immutable and hashable; the fraction parts are
always kept reduced with positive denominator, which `fractions.Fraction`
guarantees.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


def _coerce(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


@total_ordering
class Scalar:
    """The exact number ``a + b*sqrt(5)`` with rational ``a`` and ``b``."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = _coerce(a)
        self.b = _coerce(b)

    @staticmethod
    def of(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(_coerce(x))

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(5)."""
        a, b = self.a, self.b
        if not b:
            return (a > 0) - (a < 0)
        if not a:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Mixed signs: compare |a| against |b|*sqrt(5) via squares.
        if a > 0:  # b < 0: positive iff a^2 > 5 b^2
            return 1 if a * a > 5 * b * b else -1
        return 1 if 5 * b * b > a * a else -1

    def __lt__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self - other).sign() < 0

    def __neg__(self) -> "Scalar":
        return Scalar(-self.a, -self.b)

    def __add__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            return Scalar(self.a + other, self.b)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        return self + (-other if isinstance(other, Scalar) else Scalar(-_coerce(other)))

    def __rsub__(self, other) -> "Scalar":
        return (-self) + other

    def __mul__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            return Scalar(self.a * other, self.b * other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if not self.b and not other.b:
            return Scalar(self.a * other.a)
        return Scalar(
            self.a * other.a + 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if not self.b:
            return Scalar(1 / self.a)
        # (a + b r)^-1 = (a - b r) / (a^2 - 5 b^2); the norm is nonzero
        # because sqrt(5) is irrational.
        norm = self.a * self.a - 5 * self.b * self.b
        return Scalar(self.a / norm, -self.b / norm)

    def __truediv__(self, other) -> "Scalar":
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.of(other) * self.inverse()

    def __str__(self) -> str:
        if not self.b:
            return str(self.a)
        surd = f"{self.b}r5" if self.b != 1 else "r5"
        if not self.a:
            return surd
        sep = "+" if self.b > 0 else ""
        return f"{self.a}{sep}{surd}"

    __repr__ = __str__


ZERO = Scalar(0)
ONE = Scalar(1)
# The golden ratio (1 + sqrt 5) / 2, ubiquitous in the H3/H4 geometry.
GOLDEN = Scalar(Fraction(1, 2), Fraction(1, 2))


def lift(v: tuple[int, ...], width: int) -> tuple[Scalar, ...]:
    """A flat int vector as Scalars: one int per coordinate (width 1), or a
    pair (a, b) per coordinate standing for a + b*phi (width 2)."""
    if width == 1:
        return tuple(map(Scalar, v))
    return tuple(Scalar(a) + b * GOLDEN for a, b in zip(v[::2], v[1::2]))
