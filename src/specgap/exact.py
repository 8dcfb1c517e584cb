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


def _sign(n, m, r):
    """The sign of n + m*sqrt(r), for integers n, m and r >= 1."""
    sn, sm = (n > 0) - (n < 0), (m > 0) - (m < 0)
    if sn * sm >= 0:
        return sn or sm
    diff = n * n - m * m * r
    return sn if diff > 0 else sm if diff < 0 else 0


def _floor(n, m, r, d):
    """floor((n + m*sqrt(r)) / d), for integers n, m, r >= 1 and d >= 1.

    floor((n + x) / d) == (n + floor(x)) // d for every real x.  With
    S = m*m*r, floor(m*sqrt(r)) is isqrt(S) for m >= 0, and for m < 0 it
    is -isqrt(S), less one unless S is a perfect square.
    """
    s = m * m * r
    root = math.isqrt(s)
    if m < 0:
        root = -root - (root * root != s)
    return (n + root) // d


class Quadratic:
    """Exact number a + b*sqrt(r) with rational a, b and integer r >= 1.

    Over one denominator d > 0 the number is (N + M*sqrt(r)) / d with
    integers N, M, and its sign, floor and decimal digits are decided on
    those integers alone (the sign by comparing N**2 against M**2 * r), so
    no floating point is involved anywhere.  A perfect-square radicand is
    allowed; the representation is not normalized in that case.
    """

    __slots__ = ("rational", "coeff", "radicand")

    def __init__(self, rational, coeff=0, radicand=1):
        self.rational = _as_fraction(rational)
        self.coeff = _as_fraction(coeff)
        if not isinstance(radicand, int) or radicand < 1:
            raise ValueError(f"radicand must be a positive integer, got {radicand!r}")
        self.radicand = radicand

    def _integers(self):
        """(N, M, d) with d > 0 and value (N + M*sqrt(r)) / d."""
        a, b = self.rational, self.coeff
        d = math.lcm(a.denominator, b.denominator)
        return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d

    def sign(self):
        n, m, _ = self._integers()
        return _sign(n, m, self.radicand)

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
        """Exact floor, in closed form with integer arithmetic only."""
        n, m, d = self._integers()
        return _floor(n, m, self.radicand, d)

    def decimal(self, digits=10):
        """Correctly rounded value with ``digits`` significant digits.

        Rounds half to even; ties are adjudicated exactly via sign tests,
        so the result is the true rounding of the represented number.
        """
        from decimal import Decimal, localcontext

        if digits < 1:
            raise ValueError("digits must be >= 1")
        n, m, d = self._integers()
        r = self.radicand
        sgn = _sign(n, m, r)
        if sgn == 0:
            return Decimal(0)
        # w = (n + m*sqrt(r)) / d = |self|
        n, m = sgn * n, sgn * m
        # e = floor(log10(w)): floor(w * 10**j) has e + j + 1 digits once
        # it is at least 1
        j = 0
        while (f := _floor(n * 10**j, m * 10**j, r, d)) == 0:
            j = 2 * j or 1
        e = len(str(f)) - 1 - j
        shift = digits - 1 - e
        if shift >= 0:
            n, m = n * 10**shift, m * 10**shift
        else:
            d *= 10**-shift
        top = _floor(n, m, r, d)
        # the sign of w * 10**shift - top - 1/2, over the denominator 2d
        half = _sign(2 * (n - top * d) - d, 2 * m, r)
        if half > 0 or (half == 0 and top % 2 == 1):
            top += 1
        if top == 10**digits:
            top //= 10
            e += 1
        exp10 = e - digits + 1
        while exp10 < 0 and top % 10 == 0:
            top //= 10
            exp10 += 1
        with localcontext() as ctx:
            ctx.prec = digits + 4
            return Decimal(sgn * top).scaleb(exp10)

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
