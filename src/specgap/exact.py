"""Exact arithmetic core: big-integer matrices and real quadratic numbers.

Everything in this module is exact.  Matrix entries are Python ints (so
they never overflow), rationals are ``fractions.Fraction``, and numbers of
the form a + b*sqrt(r) carry their two rational components explicitly so
that signs can be decided without ever rounding.  Floating point appears
only in the rendering helpers.

:class:`IntMatrix` products are plain numpy object-dtype products, which
multiply Python ints directly.  They now serve only the edge-matrix
oracle (and the tests) as an independent reference: graphs store their
adjacency as an int8 array, and the Chebyshev ladder in
:mod:`specgap.ladder` runs on residues modulo word-size primes.
"""

import math
import threading
from fractions import Fraction

import numpy as np


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


def _freeze(data):
    data.flags.writeable = False
    return data


class IntMatrix:
    """Dense square matrix over arbitrary-precision integers.

    Instances are immutable.  Products share the left operand's counter,
    which increments by exactly 1 per matrix-matrix multiplication.
    """

    __slots__ = ("data", "counter")

    def __init__(self, data, counter=None):
        self.data = _freeze(data)
        self.counter = counter if counter is not None else MultCounter()

    @classmethod
    def from_rows(cls, rows, counter=None):
        n = len(rows)
        data = np.empty((n, n), dtype=object)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            for j, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, int):
                    raise TypeError(f"entry ({i},{j}) is not an integer: {v!r}")
                data[i, j] = v
        return cls(data, counter)

    @classmethod
    def identity(cls, n, counter=None):
        data = np.zeros((n, n), dtype=object)
        for i in range(n):
            data[i, i] = 1
        return cls(data, counter)

    @property
    def order(self):
        return self.data.shape[0]

    def with_counter(self, counter):
        """The same matrix bound to a different multiplication counter."""
        return IntMatrix(self.data, counter)

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )
        self.counter.bump()
        return IntMatrix(self.data @ other.data, self.counter)

    def trace(self):
        return int(self.data.trace())

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.order == other.order and bool(np.array_equal(self.data, other.data))

    __hash__ = None

    def __repr__(self):
        return f"IntMatrix(order={self.order})"


def matrix_power(m, k):
    """m**k for k >= 1 by square-and-multiply, highest bit first.

    Uses floor(log2 k) squarings plus (popcount(k) - 1) extra products,
    so the counter advances by at most 2*floor(log2 k).
    """
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    acc = m
    for bit in bin(k)[3:]:
        acc = acc @ acc
        if bit == "1":
            acc = acc @ m
    return acc


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
        """Exact floor, decided with integer arithmetic only."""
        a, b = self.rational, self.coeff
        if b == 0:
            return a.numerator // a.denominator
        num = abs(b.numerator)
        root = math.isqrt(num * num * self.radicand)
        approx = root // b.denominator
        if b < 0:
            approx = -approx - 1
        g = a.numerator // a.denominator + approx
        while (self - g).sign() < 0:
            g -= 1
        while (self - (g + 1)).sign() >= 0:
            g += 1
        return g

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
