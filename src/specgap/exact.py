"""Exact arithmetic core: the product counter and real quadratic numbers.

Everything in this module is exact.  Rationals are ``fractions.Fraction``,
and numbers of the form a + b*sqrt(r) carry their two rational components
explicitly so that signs and floors are decided without ever rounding.
Floating point appears only in the rendering helpers.
"""

import math
import threading
from fractions import Fraction


class MultCounter:
    """Cumulative count of matrix-matrix products; safe for concurrent bumps."""

    __slots__ = ("_count", "_lock")

    def __init__(self):
        self._count = 0
        self._lock = threading.Lock()

    def bump(self):
        with self._lock:
            self._count += 1

    @property
    def count(self):
        return self._count

    def __repr__(self):
        return f"MultCounter({self._count})"


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Quadratic:
    """Exact number a + b*sqrt(r) with rational a, b and integer r >= 1.

    The sign is decided exactly by comparing a**2 against b**2 * r, so no
    floating point is involved anywhere.  A perfect-square radicand is
    allowed; the representation is not normalized in that case.
    """

    __slots__ = ("rational", "coeff", "radicand")

    def __init__(self, rational, coeff=0, radicand=1):
        self.rational = _as_fraction(rational)
        self.coeff = _as_fraction(coeff)
        if not isinstance(radicand, int) or radicand < 1:
            raise ValueError(f"radicand must be a positive integer, got {radicand!r}")
        self.radicand = radicand

    def sign(self):
        a, b = self.rational, self.coeff
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        lhs = a * a
        rhs = b * b * self.radicand
        if lhs == rhs:
            return 0
        if lhs > rhs:
            return 1 if a > 0 else -1
        return 1 if b > 0 else -1

    def is_zero(self):
        return self.sign() == 0

    def _coerce(self, other):
        if isinstance(other, Quadratic):
            if other.coeff != 0 and self.coeff != 0 and other.radicand != self.radicand:
                raise ValueError("mixed radicands are not supported")
            rad = self.radicand if self.coeff != 0 else other.radicand
            return other.rational, other.coeff, rad
        if isinstance(other, (int, Fraction)):
            return _as_fraction(other), Fraction(0), self.radicand
        return None

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oa, ob, rad = co
        return Quadratic(self.rational + oa, self.coeff + ob, rad)

    __radd__ = __add__

    def __neg__(self):
        return Quadratic(-self.rational, -self.coeff, self.radicand)

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oa, ob, rad = co
        return Quadratic(self.rational - oa, self.coeff - ob, rad)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            return Quadratic(self.rational * f, self.coeff * f, self.radicand)
        if isinstance(other, Quadratic):
            if self.coeff != 0 and other.coeff != 0 and self.radicand != other.radicand:
                raise ValueError("mixed radicands are not supported")
            rad = self.radicand if self.coeff != 0 else other.radicand
            a1, b1, a2, b2 = self.rational, self.coeff, other.rational, other.coeff
            return Quadratic(a1 * a2 + b1 * b2 * rad, a1 * b2 + a2 * b1, rad)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        norm = self.rational * self.rational - self.coeff * self.coeff * self.radicand
        if norm == 0:
            if self.sign() == 0:
                raise ZeroDivisionError("inverse of zero")
            # a = +-b*sqrt(r) with r a perfect square; collapse to a rational
            root = math.isqrt(self.radicand)
            value = self.rational + self.coeff * root
            return Quadratic(1 / value, 0, self.radicand)
        return Quadratic(self.rational / norm, -self.coeff / norm, self.radicand)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Quadratic(other, 0, self.radicand)
        if not isinstance(other, Quadratic):
            return NotImplemented
        try:
            return (self - other).sign() == 0
        except ValueError:
            return False

    def __hash__(self):
        if self.coeff == 0:
            return hash(self.rational)
        return hash((self.rational, self.coeff, self.radicand))

    def floor(self):
        """Exact floor, in closed form with integer arithmetic only.

        Over one denominator d > 0 the number is (N + M*sqrt(r)) / d, and
        floor((N + x) / d) == (N + floor(x)) // d for every real x.  With
        S = M*M*r, floor(M*sqrt(r)) is isqrt(S) for M >= 0, and for M < 0
        it is -isqrt(S), less one unless S is a perfect square.
        """
        a, b = self.rational, self.coeff
        d = math.lcm(a.denominator, b.denominator)
        m = b.numerator * (d // b.denominator)
        s = m * m * self.radicand
        root = math.isqrt(s)
        if m < 0:
            root = -root - (root * root != s)
        return (a.numerator * (d // a.denominator) + root) // d

    def decimal(self, digits=10):
        """Correctly rounded value with ``digits`` significant digits.

        Rounds half to even; ties are adjudicated exactly via sign tests,
        so the result is the true rounding of the represented number.
        """
        from decimal import Decimal, localcontext

        if digits < 1:
            raise ValueError("digits must be >= 1")
        sgn = self.sign()
        if sgn == 0:
            return Decimal(0)
        w = self if sgn > 0 else -self
        f = w.floor()
        if f >= 1:
            e = len(str(f)) - 1
        else:
            e = 0
            scaled = w
            while scaled.floor() < 1:
                scaled = scaled * 10
                e -= 1
        shift = digits - 1 - e
        scaled = w * (Fraction(10) ** shift)
        m = scaled.floor()
        half = (scaled - m - Fraction(1, 2)).sign()
        if half > 0 or (half == 0 and m % 2 == 1):
            m += 1
        if m == 10**digits:
            m //= 10
            e += 1
        exp10 = e - digits + 1
        while exp10 < 0 and m % 10 == 0:
            m //= 10
            exp10 += 1
        with localcontext() as ctx:
            ctx.prec = digits + 4
            return Decimal(sgn * m).scaleb(exp10)

    def to_float(self):
        """Nearest double, via a 25-digit correctly rounded decimal."""
        return float(self.decimal(25))

    def __float__(self):
        return self.to_float()

    def __repr__(self):
        if self.coeff == 0:
            return f"Quadratic({self.rational})"
        return f"Quadratic({self.rational} + {self.coeff}*sqrt({self.radicand}))"

    def __str__(self):
        if self.coeff == 0:
            return str(self.rational)
        op = "+" if self.coeff > 0 else "-"
        return f"{self.rational} {op} {abs(self.coeff)}*sqrt({self.radicand})"
