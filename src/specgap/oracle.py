"""Independent cross-checks: edge-matrix traces, eigenvalues, scalar recurrences.

Everything the ladder computes can be recomputed here by a different
route.  Geodesic-cycle counts come from powers of the directed
(non-backtracking) edge matrix, which numpy multiplies as an object array
of Python ints; the slack values come from the adjacency spectrum via the
scalar Chebyshev recurrence; the normalized spectral radius comes straight
from the eigenvalues.  The eigenvalues come from LAPACK's symmetric
eigensolver (``numpy.linalg.eigvalsh``), in floating point.  The module
imports nothing from the rest of the package, so these routes share no
code with :mod:`specgap.ladder`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# the largest edge-matrix order directed_edge_matrix builds: at 2**10 the
# m x m object array takes 8 MiB, and each exact product about 10**9
# Python-int multiply-adds
MAX_EDGE_ORDER = 2**10


class EigensolverError(RuntimeError):
    """The LAPACK eigensolver did not converge on the adjacency matrix."""


def directed_edge_matrix(graph):
    """0/1 matrix W over oriented edges: W[e,f] = 1 iff e feeds into f
    without immediately turning back (end of e = start of f, f != reverse of e).

    The undirected edge (u, v) with u < v at sorted position j yields
    index 2j for u->v and 2j+1 for v->u.  Order m = n(q+1); every row
    sums to q.  A read-only object-dtype array of Python ints, so numpy
    products and traces of it are exact at any length.  Raises ValueError,
    before any m x m array exists, if m exceeds MAX_EDGE_ORDER = 2**10.
    """
    m = graph.n * (graph.q + 1)
    if m > MAX_EDGE_ORDER:
        raise ValueError(
            f"the edge matrix of {m} oriented edges exceeds the oracle's limit of {MAX_EDGE_ORDER}"
        )
    ends = np.argwhere(np.triu(graph.adjacency))
    tail, head = ends.ravel(), ends[:, ::-1].ravel()
    feeds = head[:, None] == tail
    rows = np.arange(len(tail))
    feeds[rows, rows ^ 1] = False
    w = np.zeros(feeds.shape, dtype=object)
    w[feeds] = 1
    w.flags.writeable = False
    return w


def geodesic_count_trace(graph, k):
    """Number of geodesic cycles of length k as trace(W**k), exactly."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return int(np.linalg.matrix_power(directed_edge_matrix(graph), k).trace())


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

    By T(2j, x) = T(j, x**2 - 2) this is ``chebyshev_scalar(k // 2, x_squared - 2)``.
    """
    if k < 0 or k % 2 != 0:
        raise ValueError(f"k must be even and >= 0, got {k}")
    return chebyshev_scalar(k // 2, x_squared - 2)


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
        ascending = np.linalg.eigvalsh(graph.adjacency.astype(np.float64))
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
