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
symmetric, and the last step, which only feeds the trace, is a trace
contraction trace(X @ Y) = sum(X * Y^T) in O(n^2) operations.  It still
counts as one product, so a run for index k always counts
len(ladder_indices(k)) - 1.  The decision procedure needs the traces at
an even k and at k+2 together; the schedule for k+1 = 2j+1 holds the
half pair M(j+1), M(j) just before its last step, so one ladder ends
instead with two trace contractions, the squares M(j)**2 and M(j+1)**2,
and counts len(ladder_indices(k + 1)) products.

The ladder runs on residues modulo word-size primes, and the Chinese
remainder theorem rebuilds each final trace.  The trace is bounded:
an eigenvalue lam of A has |lam| <= q+1, the matching eigenvalue of M(k)
is a**k + b**k with a + b = lam and a*b = q, so its modulus is at most
q**k + 1, and |trace M(k)| <= n (q**k + 1).  The fewest primes whose
product exceeds 2 n (q**k + 1) determine the trace, lifted into the
symmetric range; the run for k and k+2 sizes one prime set for k+2.
Residues are float64 values, so each step is one BLAS product (dgemm)
on a stack of n x n residue matrices, one per prime.
Reduction is delayed: r = x - p*floor(x * (1/p)) leaves r in [-p, 2p),
so every value a step accumulates is an integer of modulus below
n (2p)**2 + p, and the primes are chosen from n alone so that this stays
below 2**53, where float64 arithmetic on integers is exact.  Both
inequalities are checked before anything is computed.  The primes run
in blocks of 2**14 // n**2 (at least one), so one stack holds at most
2**14 entries unless a single n x n matrix is larger; a step keeps about
five stacks alive, so the working set stays near 640 KiB.

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

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .exact import MultCounter, Quadratic
from .graphs import RegularGraph

# the sweep stays on int64 while a bound on every intermediate is below this
_INT64_SAFE = 2**62
# float64 holds every integer of modulus below this exactly
_EXACT = 2**53
# one residue stack holds at most this many entries (128 KiB), unless a
# single n x n matrix is larger: larger blocks raised peak memory on the
# small-n eps tables without making the large-n ladders faster
_BLOCK_ENTRIES = 2**14


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


def _sweep(adj, q):
    """Yield M(0), M(1), M(2), ... for the symmetric 0/1 matrix adj.

    Each step is M(j+1) = A M(j) - q M(j-1), with A M(j) summed from the
    q+1 neighbour rows of each row.  Entries stay int64 while the bound
    (q+1) max|M(j)| + q max|M(j-1)| on every intermediate value is below
    2**62, then move to Python ints (object dtype) for good.  Yields raw
    arrays, int64 or object; they must not be modified.
    """
    a = np.asarray(adj, dtype=np.int64)
    n = a.shape[0]
    # neighbours[c, i] is the c-th neighbour of row i
    neighbours = np.nonzero(a)[1].reshape(n, q + 1).T
    prev, cur = 2 * np.eye(n, dtype=np.int64), a
    big_prev, big_cur = 2, 1
    yield prev
    yield cur
    while True:
        if cur.dtype != object and (q + 1) * big_cur + q * big_prev >= _INT64_SAFE:
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
    for m in islice(_sweep(graph.adjacency, graph.q), 1, None):
        yield _exact_trace(m)


class LadderInvariantError(AssertionError):
    """The ladder state failed verification.

    Checked mode raises it on any mismatch with the sweep; every run
    raises it if the rebuilt trace falls outside its proven bound.
    """


def _primes_between(lo, hi):
    """The primes p with lo <= p < hi, ascending; needs 2 <= lo < hi."""
    root = math.isqrt(hi - 1)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for d in range(2, math.isqrt(root) + 1):
        if small[d]:
            small[d * d::d] = False
    base = np.flatnonzero(small)
    # cross off every multiple m >= max(d*d, lo) of each base prime d, all
    # at once: d's multiples in the window are first[d] + d*j, j < count[d]
    first = np.maximum(base * base, -(-lo // base) * base) - lo
    count = np.maximum(0, (hi - lo - first + base - 1) // base)
    j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    sieve = np.ones(hi - lo, dtype=bool)
    sieve[np.repeat(first, count) + np.repeat(base, count) * j] = False
    return (np.flatnonzero(sieve) + lo).tolist()


def _prime_limit(n):
    """The largest p with n (2p)**2 + p < 2**53."""
    p = math.isqrt(_EXACT // (4 * n))
    while n * (2 * p) ** 2 + p >= _EXACT:
        p -= 1
    return p


def _moduli(n, bound):
    """The fewest primes, largest first below _prime_limit(n), with product > 2*bound.

    If even every prime below the limit falls short, returns them all,
    and :func:`_certify` rejects the set.
    """
    top = _prime_limit(n) + 1
    # primes near p have density 1/ln p, so a window of about
    # 0.7 * bits(2*bound) integers holds enough of them
    width = (2 * bound).bit_length() + 1024
    while True:
        lo = max(2, top - width)
        primes, product = [], 1
        for p in reversed(_primes_between(lo, top)):
            primes.append(p)
            product *= p
            if product > 2 * bound:
                return primes
        if lo == 2:
            return primes
        width *= 4


def _certify(n, bound, primes):
    """Raise unless the moduli make every step exact and determine the trace."""
    if any(n * (2 * p) ** 2 + p >= _EXACT for p in primes):
        raise ArithmeticError(f"a modulus is too large for exact products of order {n}")
    if math.prod(primes) <= 2 * bound:
        raise ArithmeticError(f"moduli do not determine a trace bounded by {bound}")


def _reduce(x, p, inv):
    """x mod p in place, into [-p, 2p); x holds integers below 2**53 in modulus."""
    t = x * inv
    np.floor(t, out=t)
    t *= p
    x -= t
    return x


def _trace_residues(x, y, p, inv):
    """Per prime, an integer congruent to trace(X @ Y) mod p.

    Ladder residues are symmetric mod p, so trace(X @ Y) = sum(X * Y).
    Row sums stay below n (2p)**2, and after one reduction their sum
    stays below 2pn, so every value is exact.
    """
    return _reduce(np.einsum("bij,bij->bi", x, y), p[:, :, 0], inv[:, :, 0]).sum(axis=1)


def _crt(residues, primes):
    """The integer in (-P/2, P/2] congruent to each residue, P = prod(primes)."""
    modulus = math.prod(primes)
    total = 0
    for r, p in zip(residues, primes):
        rest = modulus // p
        total += r * rest * pow(rest, -1, p)
    total %= modulus
    return total - modulus if 2 * total > modulus else total


def _operands(schedule, i):
    """Register slots (x, y) whose product builds schedule[i - 1] at step i.

    During step i, slot r holds the matrix for schedule[i + r - 1].  An
    even target is a square (x == y); an odd target multiplies the half
    pair (target+1)/2, (target-1)/2, which the schedule keeps adjacent.
    """
    target = schedule[i - 1]
    if target % 2 == 0:
        x = 1 if target == 2 * schedule[i] else 2
        return x, x
    # odd target: schedule ends ..., 2, 1, so i <= steps-3 here
    x = 2 if target == 2 * schedule[i + 1] - 1 else 1
    return x, x + 1


def _ladder_block(a, edges, schedule, q, primes, finishes, counter, checked):
    """Run the register ladder modulo each prime in ``primes``.

    ``edges`` is np.nonzero(a), the positions of the 0/1 matrix A's ones.

    Every step but the last forms a matrix.  The last step forms only
    traces: each finish (x, y) names two register slots of that step, and
    for M(u), M(v) held there, with |u - v| <= 1 and e = min(u, v), it
    yields the trace of M(u+v) = M(u) M(v) - q**e M(u-v) as
    sum(M(u) * M(v)) - q**e trace(M(|u-v|)).  Returns one (residues, e)
    per finish, the residues one Python int per prime.  The counter (or
    None) is bumped once per step before the last and once per finish.
    """
    n = a.shape[0]
    p = np.array(primes, dtype=np.float64)[:, None, None]
    inv = 1.0 / p
    diag = np.arange(n)
    # registers: mats[r] holds the residues of the scaled Chebyshev matrix for
    # schedule[i + r - 1] during step i (after the shift); exps[r] is its
    # scalar's q-exponent.  A's 0/1 entries are their own residues.
    mats = [np.repeat(a[None], len(primes), axis=0), None, None, None]
    exps = [0, 0, 0, 0]

    def exponent(i, x, y):
        # floor(target / 2), from the operands' exponents
        return exps[x] + exps[y] + (schedule[i + x - 1] % 2 if x == y else 0)

    for i in range(len(schedule) - 1, 0, -1):
        if checked:
            _check_state(schedule[i], mats[0], exps[0], a, q, primes)
        mats[3], mats[2], mats[1] = mats[2], mats[1], mats[0]
        exps[3], exps[2], exps[1] = exps[2], exps[1], exps[0]
        if i == 1:
            break
        x, y = _operands(schedule, i)
        exps[0] = e = exponent(i, x, y)
        if counter is not None:
            counter.bump()
        scalar = q**e
        out = np.matmul(mats[x], mats[y])
        if x == y:
            out[:, diag, diag] -= [[2 * scalar % pr] for pr in primes]
        else:
            out[:, edges[0], edges[1]] -= [[scalar % pr] for pr in primes]
        mats[0] = _reduce(out, p, inv)
    results = []
    for x, y in finishes:
        if counter is not None:
            counter.bump()
        e = exponent(1, x, y)
        fix = q**e * (2 * n if x == y else int(a.trace()))
        sums = _trace_residues(mats[x], mats[y], p, inv)
        results.append(([(int(s) - fix) % pr for s, pr in zip(sums.tolist(), primes)], e))
    return results


def _drive(graph, schedule, finishes, counter, checked):
    """Run the ladder for ``schedule`` and finish it with ``finishes``.

    Returns one (trace, exponent) per finish (x, y) of
    :func:`_ladder_block`: the trace of the scaled Chebyshev matrix for
    index schedule[x] + schedule[y], and the q-exponent floor(index/2) of
    its scalar.  The schedule needs at least two entries.

    All of it runs modulo the primes of :func:`_moduli` for the largest
    bound |trace| <= n (q**index + 1) among the finishes, block by
    block, and each trace's residues are combined once by the CRT.
    ArithmeticError is raised, before any product, if the primes could
    not make every step exact or could not determine every trace; each
    rebuilt trace must lie within its own bound.  Products are counted
    on ``counter`` once per step, however many prime blocks run it.
    """
    q, n = graph.q, graph.n
    a = graph.adjacency.astype(np.float64)
    indices = [schedule[x] + schedule[y] for x, y in finishes]
    bound = n * (q ** max(indices) + 1)
    primes = _moduli(n, bound)
    _certify(n, bound, primes)
    per_block = max(1, _BLOCK_ENTRIES // (n * n))
    edges = np.nonzero(a)
    residues = [[] for _ in finishes]
    for start in range(0, len(primes), per_block):
        block = _ladder_block(a, edges, schedule, q, primes[start:start + per_block], finishes,
                              counter if start == 0 else None, checked)
        for acc, (res, _) in zip(residues, block):
            acc += res
    out = []
    # every block ends with the same exponents
    for index, res, (_, exp) in zip(indices, residues, block):
        trace = _crt(res, primes)
        own = n * (q**index + 1)
        if abs(trace) > own:
            raise LadderInvariantError(f"trace {trace} at index {index} exceeds its bound {own}")
        if checked:
            _check_trace(index, trace, exp, a, q)
        out.append((trace, exp))
    return out


def _run_ladder(graph, k, counter, checked=False):
    """Drive the register ladder on residues; returns (trace, exponent).

    On return, trace is the trace of the scaled Chebyshev matrix for
    index k and the accompanying scalar is q**exponent with
    exponent = floor(k/2).  The last step of the schedule forms only the
    trace, in O(n^2) operations (see :func:`_ladder_block`).  That
    contraction still counts as one product, so exactly
    len(ladder_indices(k)) - 1 products are counted on ``counter``.

    With checked=True, every iteration re-derives the leading register
    from scratch via the three-term recurrence, reduced modulo each
    prime, and verifies the scalar exponent, and the final trace is
    compared with the trace of the recurrence matrix; this costs
    O(k q n^2) extra uncounted work per check.
    """
    schedule = ladder_indices(k)
    if len(schedule) == 1:  # k = 1 runs no step
        trace = int(graph.adjacency.trace())
        if checked:
            _check_trace(1, trace, 0, graph.adjacency, graph.q)
        return trace, 0
    [(trace, exp)] = _drive(graph, schedule, [_operands(schedule, 1)], counter, checked)
    return trace, exp


def _run_ladder_pair(graph, k, counter, checked=False):
    """Traces of the scaled Chebyshev matrices for indices k and k+2, one ladder.

    k must be even and at least 2.  With j = k/2, the schedule for the odd
    index k+1 = 2j+1 holds the half pair M(j+1), M(j) just before its last
    step.  Instead of that step, two trace finishes square them:
    M(2j) = M(j)**2 - 2 q**j I and M(2j+2) = M(j+1)**2 - 2 q**(j+1) I.
    Returns [(trace_k, exponent), (trace_k+2, exponent)].  Exactly
    len(ladder_indices(k + 1)) products are counted: one per step before
    the last and one per finish.  One prime set, sized for index k+2,
    serves both traces; checked mode verifies every register and both
    traces.
    """
    if k < 2 or k % 2:
        raise ValueError(f"k must be even and >= 2, got {k}")
    schedule = ladder_indices(k + 1)
    # during the last step, slot 1 holds M(j+1) and slot 2 holds M(j)
    return _drive(graph, schedule, [(2, 2), (1, 1)], counter, checked)


def _reference(index, exp, adj, q):
    """M(index) read off the sweep, after checking the scalar exponent."""
    if exp != index // 2:
        raise LadderInvariantError(
            f"scalar exponent {exp} at index {index}, expected {index // 2}"
        )
    return next(islice(_sweep(adj, q), index, None))


def _check_state(index, stack, exp, adj, q, primes):
    expect = _reference(index, exp, adj, q)
    for residues, p in zip(stack, primes):
        if not np.array_equal(residues.astype(np.int64) % p, (expect % p).astype(np.int64)):
            raise LadderInvariantError(f"register mismatch at index {index} modulo {p}")


def _check_trace(index, trace, exp, adj, q):
    expect = _exact_trace(_reference(index, exp, adj, q))
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


def expansion_slack_pair(graph, k, checked=False):
    """Exact slacks at the even length k and at k+2, from one ladder.

    Equal to (expansion_slack(graph, k), expansion_slack(graph, k + 2)),
    at about the cost of one of them: both traces come from the half pair
    of the schedule for k+1.
    """
    if not isinstance(graph, RegularGraph):
        raise TypeError("expected a validated RegularGraph")
    (trace, _), (trace_next, _) = _run_ladder_pair(graph, k, MultCounter(), checked=checked)
    return _slack_from_trace(graph, k, trace), _slack_from_trace(graph, k + 2, trace_next)


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
