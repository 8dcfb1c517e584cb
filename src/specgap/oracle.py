"""Independent cross-checks: edge-matrix traces, eigenvalues, scalar recurrences.

Everything the ladder computes can be recomputed here by a different
route.  Geodesic-cycle counts come from powers of the directed
(non-backtracking) edge matrix; the slack values come from the adjacency
spectrum via the scalar Chebyshev recurrence; the normalized spectral
radius comes straight from the eigenvalues.  The eigenvalues come from
LAPACK's symmetric eigensolver (``numpy.linalg.eigvalsh``), in floating
point.  These recomputation paths share no code with
:mod:`specgap.ladder`.  The deviation-bound scan is the one exception:
it consumes the ladder module's exact counts (one three-term sweep) and
checks them against the expected-count envelope with integer
comparisons.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import IntMatrix, MultCounter, matrix_power
from .ladder import geodesic_counts


class EigensolverError(RuntimeError):
    """The LAPACK eigensolver did not converge on the adjacency matrix."""


def oriented_edges(graph):
    """Oriented edge list; the undirected edge (u, v) with u < v at sorted
    position j yields index 2j for u->v and 2j+1 for v->u."""
    out = []
    for u, v in graph.edges():
        out.append((u, v))
        out.append((v, u))
    return out


def directed_edge_matrix(graph):
    """0/1 matrix W over oriented edges: W[e,f] = 1 iff e feeds into f
    without immediately turning back (end of e = start of f, f != reverse of e).

    Order m = n(q+1); every row sums to q.
    """
    edges = oriented_edges(graph)
    m = len(edges)
    data = np.zeros((m, m), dtype=object)
    for e, (_, ev) in enumerate(edges):
        rev = e ^ 1
        for f, (fu, _) in enumerate(edges):
            if fu == ev and f != rev:
                data[e, f] = 1
    return IntMatrix(data)


def geodesic_count_trace(graph, k):
    """Number of geodesic cycles of length k as trace(W**k), exactly."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    w = directed_edge_matrix(graph).with_counter(MultCounter())
    return matrix_power(w, k).trace()


def chebyshev_scalar(k, x):
    """T(k, x) from T(0) = 2, T(1) = x, T(j+1) = x*T(j) - T(j-1).

    Works on any numeric type with * and - (float, int, Fraction).
    Satisfies T(k, y + 1/y) = y**k + y**-k.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return x * 0 + 2
    prev, cur = x * 0 + 2, x
    for _ in range(k - 1):
        prev, cur = cur, x * cur - prev
    return cur


def chebyshev_even_from_square(k, x_squared):
    """T(k, x) for even k, given x**2; exact when x_squared is a Fraction.

    Uses T(2j+2) = (x**2 - 2)*T(2j) - T(2j-2) with T(0) = 2, T(2) = x**2 - 2.
    """
    if k < 0 or k % 2 != 0:
        raise ValueError(f"k must be even and >= 0, got {k}")
    if k == 0:
        return x_squared * 0 + 2
    mult = x_squared - 2
    prev, cur = x_squared * 0 + 2, mult
    for _ in range(k // 2 - 1):
        prev, cur = cur, mult * cur - prev
    return cur


@dataclass(frozen=True)
class Spectrum:
    """All adjacency eigenvalues, sorted descending."""

    values: tuple

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def adjacency_spectrum(graph):
    """All n eigenvalues of the adjacency matrix, from LAPACK ``eigvalsh``.

    Floating point; raises :class:`EigensolverError` if LAPACK does not
    converge.
    """
    try:
        ascending = np.linalg.eigvalsh(graph.adjacency.data.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigvalsh failed: {exc}") from exc
    return Spectrum(tuple(ascending[::-1].tolist()))


def expansion_slack_spectral(graph, k):
    """Slack at length k from the spectrum: 2(n-1) - sum T(k, eig/sqrt(q))
    over the nontrivial eigenvalues.  Floating point; cross-check only."""
    spectrum = adjacency_spectrum(graph)
    rq = math.sqrt(graph.q)
    return 2.0 * (graph.n - 1) - sum(
        chebyshev_scalar(k, lam / rq) for lam in spectrum[1:]
    )


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral-gap facts read directly from the eigenvalues.

    mu is the largest nontrivial eigenvalue magnitude divided by sqrt(q);
    spectral_gap is (q+1) minus that magnitude; is_ramanujan tells whether
    every eigenvalue of magnitude < q+1 is at most 2*sqrt(q) in magnitude.
    """

    mu: float
    spectral_gap: float
    is_ramanujan: bool
    nontrivial_radius: float


def spectral_summary(graph, spectrum=None):
    """Summarise ``spectrum`` (by default, the graph's adjacency spectrum)."""
    if spectrum is None:
        spectrum = adjacency_spectrum(graph)
    q = graph.q
    radius = max(abs(lam) for lam in spectrum[1:])
    mu = radius / math.sqrt(q)
    gap = (q + 1) - radius
    # magnitudes within eq_tol of q+1 count as trivial (bipartite -q-1 included)
    eq_tol = 1e-9 * (q + 1)
    inner = [abs(lam) for lam in spectrum if abs(lam) < (q + 1) - eq_tol]
    is_ram = (not inner) or max(inner) <= 2.0 * math.sqrt(q) + eq_tol
    return SpectralSummary(mu, gap, is_ram, radius)


def geodesic_bounds_hold(graph, k_max):
    """Whether |count_k - expected_k| <= 2(n-1) * q**(k/2) for every k <= k_max.

    expected_k is q**k + 1, plus n(q-1) when k is even.  Comparisons are
    exact: both sides are squared so the odd-k bound needs no sqrt(q).

    Holding for every k >= 1 is equivalent to the normalized nontrivial
    spectral radius being at most 2; a finite k_max only certifies the
    negative direction (any violation proves the radius exceeds 2).
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    n, q = graph.n, graph.q
    margin = 4 * (n - 1) ** 2
    for k, count in enumerate(geodesic_counts(graph, k_max), start=1):
        dev = count - q**k - 1
        if k % 2 == 0:
            dev -= n * (q - 1)
        if dev * dev > margin * q**k:
            return False
    return True


def exact_slack_from_integer_spectrum(n, q, eigenvalues, k):
    """Rational slack at even k for a graph whose spectrum is known exactly.

    ``eigenvalues`` lists all n adjacency eigenvalues as ints or Fractions
    (trivial eigenvalue included).  Independent of both the ladder and the
    floating-point spectral route.
    """
    if k % 2 != 0:
        raise ValueError("exact recomputation is defined for even k only")
    vals = sorted(eigenvalues, reverse=True)
    total = Fraction(0)
    for lam in vals[1:]:
        total += chebyshev_even_from_square(k, Fraction(lam) ** 2 / q)
    return Fraction(2 * (n - 1)) - total
