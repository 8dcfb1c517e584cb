"""Exact numbers for the decision path: the product counter, slack values
and directed-rounding bounds on integer powers.

A slack value is a + b*sqrt(r) with rational a, b (``fractions.Fraction``)
and a positive integer r.  :class:`Quadratic` builds one, compares two,
and gives its sign, floor, correctly rounded decimal digits and text, all
decided on integers without ever rounding.  It has no arithmetic: nothing
on the decision path adds or multiplies slack values.  Floating point
appears only in ``to_float``.  :func:`_power_bounds` brackets an
integer power between two integers of a given bit length, each times the
same power of two: the even-index search compares powers with it, and the
ladder rounds its prime-sizing bounds up with it.
"""

import math
import threading
from decimal import Decimal, localcontext
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


def rational_text(x):
    """``str(x)`` for an int or Fraction, at any number of digits.

    ``str`` of an int refuses more than ``sys.get_int_max_str_digits()``
    digits; ``decimal.Decimal`` converts an int exactly with no such limit.
    """
    x = _as_fraction(x)
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def _power_bounds(x, e, bits):
    """(lo, hi, s) with lo * 2**s <= x**e <= hi * 2**s, for integers x >= 1, e >= 0.

    For x = 2**b, exactly (1, 1, b e).  Otherwise square-and-multiply on
    lower and upper bounds kept to about ``bits`` bits: each product drops
    its low bits, rounding lo down and hi up.  Once ``bits`` covers x**e,
    lo == hi == x**e and s == 0.
    """
    b = x.bit_length() - 1
    if x == 1 << b:
        return 1, 1, b * e
    lo = hi = 1
    shift = 0
    base_lo = base_hi = x
    base_shift = 0
    while True:
        if e & 1:
            lo, hi, shift = lo * base_lo, hi * base_hi, shift + base_shift
            d = hi.bit_length() - bits
            if d > 0:
                lo, hi, shift = lo >> d, -(-hi >> d), shift + d
        e >>= 1
        if not e:
            return lo, hi, shift
        base_lo, base_hi, base_shift = base_lo * base_lo, base_hi * base_hi, 2 * base_shift
        d = base_hi.bit_length() - bits
        if d > 0:
            base_lo, base_hi, base_shift = base_lo >> d, -(-base_hi >> d), base_shift + d


def _log10_floor(f):
    """floor(log10(f)) for an integer f >= 1, from its bit length.

    0.301029995 < log10(2), so the first guess is never too high.
    """
    e = (f.bit_length() - 1) * 301029995 // 10**9
    while 10 ** (e + 1) <= f:
        e += 1
    return e


def _strip_zeros(top, most):
    """(top // 10**z, z) for the largest z <= most with 10**z dividing top.

    z is found bit by bit, largest first, one division by 10**(2**i) per
    bit, so a value with thousands of trailing zeros takes O(log most)
    divisions, not one per zero.
    """
    powers = [10]
    while 1 << len(powers) <= most:
        powers.append(powers[-1] ** 2)
    z = 0
    for i in reversed(range(len(powers))):
        if z + (1 << i) <= most:
            quotient, remainder = divmod(top, powers[i])
            if remainder == 0:
                top, z = quotient, z + (1 << i)
    return top, z


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

    It is built, compared (``==`` against another Quadratic, an int or a
    Fraction), and read out as its sign, floor, decimal digits and text;
    there is no arithmetic on it.  Over one denominator d > 0 the number is
    (N + M*sqrt(r)) / d with integers N, M, and its sign, floor and decimal
    digits are decided on those integers alone (the sign by comparing N**2
    against M**2 * r), so no floating point is involved.  Its text has no
    digit limit.  A perfect-square radicand is allowed; the representation
    is not normalized in that case.
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

    def __eq__(self, other):
        """Equal values; nonzero sqrt parts over different radicands differ."""
        if isinstance(other, (int, Fraction)):
            other = Quadratic(other)
        if not isinstance(other, Quadratic):
            return NotImplemented
        if self.coeff and other.coeff and self.radicand != other.radicand:
            return False
        radicand = self.radicand if self.coeff else other.radicand
        diff = Quadratic(self.rational - other.rational, self.coeff - other.coeff, radicand)
        return diff.sign() == 0

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
        if digits < 1:
            raise ValueError("digits must be >= 1")
        n, m, d = self._integers()
        r = self.radicand
        sgn = _sign(n, m, r)
        if sgn == 0:
            return Decimal(0)
        # w = (n + m*sqrt(r)) / d = |self|
        n, m = sgn * n, sgn * m
        # e = floor(log10(w)) = floor(log10(f)) - j once f = floor(w * 10**j)
        # is at least 1
        j = 0
        while (f := _floor(n * 10**j, m * 10**j, r, d)) == 0:
            j = 2 * j or 1
        e = _log10_floor(f) - j
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
        if exp10 < 0 and top % 10 == 0:
            top, zeros = _strip_zeros(top, -exp10)
            exp10 += zeros
        with localcontext() as ctx:
            ctx.prec = digits + 4
            return Decimal(sgn * top).scaleb(exp10)

    def to_float(self):
        """Nearest double, via a 25-digit correctly rounded decimal."""
        return float(self.decimal(25))

    def __float__(self):
        return self.to_float()

    def __repr__(self):
        a = rational_text(self.rational)
        if self.coeff == 0:
            return f"Quadratic({a})"
        return f"Quadratic({a} + {rational_text(self.coeff)}*sqrt({self.radicand}))"

    def __str__(self):
        a = rational_text(self.rational)
        if self.coeff == 0:
            return a
        op = "+" if self.coeff > 0 else "-"
        return f"{a} {op} {rational_text(abs(self.coeff))}*sqrt({self.radicand})"
