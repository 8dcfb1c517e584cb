"""Geodesic-cycle counting via a Chebyshev double-and-add matrix ladder.

A geodesic cycle of length k is a closed walk of k oriented edges whose
every cyclic shift is backtrack-free.  For a connected (q+1)-regular
simple graph, the number of such cycles can be read off the normalized
Chebyshev value of the adjacency matrix A: with T defined by T(0,x) = 2,
T(1,x) = x, T(j+1,x) = x*T(j,x) - T(j-1,x), the count for length k equals

    q**(k/2) * trace(T(k, A/sqrt(q)))            (k odd)
    n*(q-1) + q**(k/2) * trace(T(k, A/sqrt(q)))  (k even)

and the scaled matrix M(k) = q**(k/2) * T(k, A/sqrt(q)) has integer
entries.  Only its trace is ever needed.

For one k, this module computes that trace exactly with O(log k) matrix
products, driven by a halving schedule: the product identities

    T(2j)   = T(j)**2 - T(0)
    T(i+j)  = T(i)*T(j) - T(j-i)

let each new index be built from one or two previously computed indices,
so the schedule only ever needs the last few entries, kept in a 4-slot
register file.  Power-of-q scalars ride along as plain exponents.  Every
M(j) is a polynomial in the symmetric matrix A, so all of them are
symmetric and commute.  Two consequences cut the work without changing
a single value:

* the last step is a trace contraction, trace(X @ Y) = sum(X * Y^T),
  which costs O(n^2) instead of O(n^3).  It still counts as one product,
  so a run for index k always counts len(ladder_indices(k)) - 1;
* the big-integer products fill only their upper triangle (see
  :meth:`specgap.exact.IntMatrix.as_generator`).

Consumers that want every k in 1..K use one sweep of the three-term
recurrence M(j+1) = A M(j) - q M(j-1) instead (:func:`chebyshev_sweep`).
A has q+1 nonzeros per row, so each step is a sum of neighbour rows,
O(q n^2) additions, and no product at all.

The same traces yield the exact slack of the deviation bound
|count - expected| <= 2(n-1) * q**(k/2): nonnegative slack for every
k >= 1 is equivalent to the graph's normalized nontrivial spectral
radius being at most 2, and for odd k the slack lives in the quadratic
field Q[sqrt(q)].
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from . import exact
from .exact import MultCounter, Quadratic
from .graphs import RegularGraph


def ladder_indices(k):
    """The halving schedule for target index k.

    Starts at k, halves while even, then repeatedly appends the pair
    (ceil(k/2), ceil(k/2) - 1) until reaching 1.  The first entry is k,
    the last is 1, and the length is 2*floor(log2 k) - h + 1 where h is
    the index of the lowest set bit of k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    out = [k]
    while k % 2 == 0:
        k //= 2
        out.append(k)
    while k != 1:
        k = (k + 1) // 2
        out.append(k)
        out.append(k - 1)
        if k % 2 == 0:
            k -= 1
    return out


def _sweep(adj_data, q):
    """Yield M(0), M(1), M(2), ... for the symmetric 0/1 matrix adj_data.

    Each step is M(j+1) = A M(j) - q M(j-1), with A M(j) summed from the
    q+1 neighbour rows of each row.  Entries stay int64 while the bound
    (q+1) max|M(j)| + q max|M(j-1)| on every intermediate value is below
    2**62, then move to Python ints (object dtype) for good.  Yields raw
    arrays, int64 or object; they must not be modified.
    """
    a = np.asarray(adj_data, dtype=np.int64)
    n = a.shape[0]
    # neighbours[c, i] is the c-th neighbour of row i
    neighbours = np.nonzero(a)[1].reshape(n, q + 1).T
    prev, cur = 2 * np.eye(n, dtype=np.int64), a
    big_prev, big_cur = 2, 1
    yield prev
    yield cur
    while True:
        if cur.dtype != object and (q + 1) * big_cur + q * big_prev >= exact._INT64_SAFE:
            prev, cur = prev.astype(object), cur.astype(object)
        nxt = cur[neighbours[0]]
        for rows in neighbours[1:]:
            nxt += cur[rows]
        nxt -= q * prev
        prev, cur = cur, nxt
        if cur.dtype != object:
            big_prev, big_cur = big_cur, int(np.abs(cur).max())
        yield cur


def _exact_trace(m):
    # int64 entries fit, but a sum of n of them may not
    return sum(m.diagonal().tolist())


def chebyshev_sweep(graph):
    """Lazy traces of M(1), M(2), M(3), ... from one three-term sweep.

    trace(M(k)) for every k in 1..K costs O(K q n^2) additions this way,
    against O(K log K) matrix products for one ladder per k.  The values
    are identical to the ladder's.
    """
    if not isinstance(graph, RegularGraph):
        raise TypeError("expected a validated RegularGraph")
    for m in islice(_sweep(graph.adjacency.data, graph.q), 1, None):
        yield _exact_trace(m)


class LadderInvariantError(AssertionError):
    """Checked-mode verification of the ladder state failed."""


def _run_ladder(graph, k, counter, checked=False):
    """Drive the register ladder; returns (trace, exponent).

    On return, trace is the trace of the scaled Chebyshev matrix for
    index k and the accompanying scalar is q**exponent with
    exponent = floor(k/2).  Every step but the last forms a matrix.  The
    last step forms only the trace: for the operands X, Y of the final
    identity it returns sum(X * Y^T) - 2 q**e n (even k) or
    sum(X * Y^T) - q**e trace(A) (odd k), in O(n^2) operations.  That
    contraction still counts as one product, so exactly
    len(ladder_indices(k)) - 1 products are counted on ``counter``.

    With checked=True, every iteration re-derives the leading register
    from scratch via the three-term recurrence and verifies the scalar
    exponent, and the final trace is compared with the trace of the
    recurrence matrix; this costs O(k q n^2) extra uncounted work per
    check.
    """
    q = graph.q
    n = graph.n
    schedule = ladder_indices(k)
    steps = len(schedule)
    adj = graph.adjacency.as_generator(counter)
    trace = adj.trace()  # k = 1 runs no step
    # registers: mats[r] is the scaled Chebyshev matrix for schedule[i + r - 1]
    # during iteration i (after the shift); exps[r] is its scalar's q-exponent
    mats = [adj, None, None, None]
    exps = [0, 0, 0, 0]
    for i in range(steps - 1, 0, -1):
        if checked:
            _check_state(schedule[i], mats[0], exps[0], adj.data, q)
        mats[3], mats[2], mats[1] = mats[2], mats[1], mats[0]
        exps[3], exps[2], exps[1] = exps[2], exps[1], exps[0]
        target = schedule[i - 1]
        if target % 2 == 0:
            j = 1 if target == 2 * schedule[i] else 2
            x = y = mats[j]
            exps[0] = e = 2 * exps[j] + (schedule[i + j - 1] % 2)
        else:
            # odd target: schedule ends ..., 2, 1, so i <= steps-3 here and
            # registers j, j+1 hold the half pair (target+1)/2, (target-1)/2
            j = 2 if target == 2 * schedule[i + 1] - 1 else 1
            x, y = mats[j], mats[j + 1]
            exps[0] = e = exps[j] + exps[j + 1]
        if i > 1:
            if target % 2 == 0:
                mats[0] = (x @ y).add_diag(-2 * q**e)
            else:
                mats[0] = (x @ y).sub_scaled(adj, q**e)
        elif target % 2 == 0:
            trace = x.product_trace(y) - 2 * q**e * n
        else:
            trace = x.product_trace(y) - q**e * adj.trace()
    if checked:
        _check_trace(schedule[0], trace, exps[0], adj.data, q)
    return trace, exps[0]


def _reference(index, exp, adj_data, q):
    """M(index) read off the sweep, after checking the scalar exponent."""
    if exp != index // 2:
        raise LadderInvariantError(
            f"scalar exponent {exp} at index {index}, expected {index // 2}"
        )
    return next(islice(_sweep(adj_data, q), index, None))


def _check_state(index, mat, exp, adj_data, q):
    expect = _reference(index, exp, adj_data, q)
    if not np.array_equal(mat.data, expect):
        raise LadderInvariantError(f"register mismatch at index {index}")


def _check_trace(index, trace, exp, adj_data, q):
    expect = _exact_trace(_reference(index, exp, adj_data, q))
    if trace != expect:
        raise LadderInvariantError(
            f"final trace {trace} at index {index}, expected {expect}"
        )


def _count_from_trace(graph, k, trace):
    if k % 2 == 1:
        return trace
    return graph.n * (graph.q - 1) + trace


def geodesic_count(graph, k, checked=False):
    """Exact number of geodesic cycles of length k in the graph."""
    if not isinstance(graph, RegularGraph):
        raise TypeError("expected a validated RegularGraph")
    trace, _ = _run_ladder(graph, k, MultCounter(), checked=checked)
    return _count_from_trace(graph, k, trace)


def geodesic_counts(graph, k_max):
    """Lazy geodesic-cycle counts for k = 1..k_max, from one sweep."""
    traces = chebyshev_sweep(graph)
    for k in range(1, k_max + 1):
        yield _count_from_trace(graph, k, next(traces))


@dataclass(frozen=True)
class SlackValue:
    """Exact slack of the length-k deviation bound, as an element of Q[sqrt(q)].

    For even k the value is rational (the sqrt coefficient is zero); for
    odd k it is 2(n-1) + c*sqrt(q) with rational c.  The sign is exact.
    """

    k: int
    value: Quadratic

    def sign(self):
        return self.value.sign()

    def as_fraction(self):
        """Rational value; only valid for even k."""
        if self.value.coeff != 0:
            raise ValueError(f"slack at odd k={self.k} is irrational")
        return self.value.rational

    def to_float(self):
        return self.value.to_float()


def _slack_from_trace(graph, k, trace):
    n, q, e = graph.n, graph.q, k // 2
    base = Fraction(2 * (n - 1))
    if k % 2 == 0:
        rat = base + q**e + Fraction(1 - trace, q**e)
        return SlackValue(k, Quadratic(rat, 0, q))
    coeff = Fraction(q**e) + Fraction(1 - trace, q ** (e + 1))
    return SlackValue(k, Quadratic(base, coeff, q))


def expansion_slack(graph, k, checked=False):
    """Exact slack of the geodesic-count deviation bound at length k.

    With s = q**(k/2) and c = n(q-1) for even k (0 for odd k), the value
    is 2(n-1) + s + 1/s - (count_k - c)/s, computed from the ladder's
    final trace without ever forming count_k in floating point.
    """
    if not isinstance(graph, RegularGraph):
        raise TypeError("expected a validated RegularGraph")
    trace, _ = _run_ladder(graph, k, MultCounter(), checked=checked)
    return _slack_from_trace(graph, k, trace)


def expansion_slacks(graph, k_max):
    """Lazy slack values for k = 1..k_max, from one sweep.

    Equal to expansion_slack(graph, k) for each k; a consumer that stops
    early pays only for the indices it has read.
    """
    traces = chebyshev_sweep(graph)
    for k in range(1, k_max + 1):
        yield _slack_from_trace(graph, k, next(traces))


def ladder_mult_count(graph, k):
    """Matrix products consumed by one ladder run for index k.

    Always equals len(ladder_indices(k)) - 1, which is
    2*floor(log2 k) - h where h indexes the lowest set bit of k.
    """
    counter = MultCounter()
    _run_ladder(graph, k, counter)
    return counter.count
