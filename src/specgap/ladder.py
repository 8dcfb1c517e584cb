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
products.  The identities

    M(2h)   = M(h)**2 - 2 q**h I
    M(2h+1) = M(h+1) M(h) - q**h A

build each index t from (t+1)//2 and t//2, with a scalar that depends on
t alone, so the ladder is keyed by index: it forms, from 1 upward, the
entries of the halving schedule :func:`ladder_indices` and keeps only the
matrices later indices still read.  Every M(j) is a polynomial in the
symmetric matrix A, so all of them are symmetric, and the last step,
which only feeds the trace, is a trace contraction
trace(X @ Y) = sum(X * Y^T) in O(n^2) operations.  It still counts as one
product, so a run for index k always counts len(ladder_indices(k)) - 1.
The decision procedure needs the traces at an even k = 2j and at k+2
together; the schedule for k+1 = 2j+1 forms the half pair M(j), M(j+1)
for its last step, so one ladder ends instead with two trace
contractions, the squares M(j)**2 and M(j+1)**2, and counts
len(ladder_indices(k + 1)) products.

The ladder forms its leading indices exactly, once, and the rest on
residues modulo word-size primes; the Chinese remainder theorem rebuilds
each final trace.

Bounds.  An eigenvalue lam of A has |lam| <= q+1.  The matching
eigenvalue of M(t) is a**t + b**t with a + b = lam and a*b = q.  If
|lam| <= 2 sqrt(q), then |a| = |b| = sqrt(q) and its modulus is at most
2 q**(t/2) <= q**t + 1.  Otherwise a and b are real of one sign, and the
larger modulus x = |a| satisfies x + q/x = |lam| <= q + 1, so
sqrt(q) <= x <= q; x**t + (q/x)**t grows on that range, so the modulus
is again at most q**t + 1.  Hence |trace M(t)| <= n (q**t + 1), and, M(t)
being symmetric, every entry satisfies |M(t)_uv| <= ||M(t)||_2 <= q**t + 1.

Exact prefix.  Entry (u, v) of M(x) M(y) is row u of M(x) times column
v of M(y).  Every partial sum of it, in any order, is at most the sum of
the absolute products, which by Cauchy-Schwarz is at most the product of
the row's and the column's Euclidean norms; each is at most the spectral
norm, so the bound is (q**x + 1)(q**y + 1) (see Bounds).  So while
(q**x + 1)(q**y + 1) + 2 q**y < 2**53, with x = (t+1)//2 and y = t//2,
one float64 product (any BLAS) and its scalar correction form M(t)
exactly, with entries at most q**t + 1 < 2**53.  The ladder forms the
schedule's indices this way, on one n x n matrix, while the rule holds:
for q = 2 every index up to 52, for q = 3 up to 33, and for q = 1, whose
entries never pass 2, all of them (:func:`_exact_split`, known before
any array exists).  One step loop (:func:`_climb`) forms them once and
the rest once per prime block, from the residues of the exact matrices
later indices still read.  The schedule's duplicated M(2)
(:func:`ladder_indices`) thus costs one exact product per run.

Primes.  The fewest primes, largest first below a limit set by n, whose
product exceeds 2 n (q**k + 1) determine the trace at index k, lifted
into the symmetric range; the run for k and k+2 sizes one set for k+2.
Each window of candidates below the limit is sieved once and cached.
The ladder itself never needs that many: every matrix it forms is M(t)
with t at most top, the larger operand index of the finishes (ceil(k/2)
for one k, j+1 for the pair), so the ladder runs on the shortest prefix
of the set whose product exceeds 4 (q**top + 1), about half the primes,
rounded up to whole prime blocks.  A request whose primes all fit in one
block extends to nothing.  Nor does one where extending would cost more
multiply-adds than it saves: one extended prime costs about r n(n+1)
per operand for a prefix of r primes, one laddered prime n**3 per step,
so the prefix may hold at most steps n**2 / ((n+1) operands) primes.
That keeps small graphs at small eps, where the prefix runs to hundreds
of primes, on the whole set.

Products.  Residues are float64 values, so each step after the exact
prefix is the prefix's step, one BLAS product (dgemm) and its scalar
correction, on a stack of n x n residue matrices, one per prime, then
reduced.  A block's stacks start as the exact matrices reduced modulo
its primes, so their entries lie in [-p, 2p) like every later step's.
Reduction is delayed: r = x - p*floor(x * (1/p)) leaves r in [-p, 2p),
so every value a step accumulates is an integer of modulus below
n (2p)**2 + p, and the prime limit keeps that below 2**53, where float64
arithmetic on integers is exact.  Each step's scalar
(:func:`_scalar`) is reduced modulo every ladder prime once per
request.  The primes run in blocks of 2**14 // n**2 (at least one), so
one stack holds at most 2**14 entries unless a single n x n matrix is
larger; a step keeps about five stacks alive, so the working set stays
near 640 KiB.

Storage.  After its last step each block writes the canonical residues,
in [0, p), of every distinct finish operand's upper triangle (M(t) is
symmetric) into an int32 array of n(n+1)/2 entries per ladder prime,
zero-padded to whole rows of n entries; a square stores its operand once.
That is 2 n**2 bytes per ladder prime and operand: 1.4 MiB for the pair
at n = 100 with 35 ladder primes.

Base extension.  With P the product of the r ladder primes p_i and v_i
an operand entry x modulo p_i, y_i = v_i (P/p_i)**-1 mod p_i gives
sum_i y_i P/p_i = x + alpha P, so sum_i y_i/p_i = alpha + x/P with
|x/P| < 1/4.  The wrap count alpha is read off in fixed point,
sum_i y_i floor(2**s/p_i) < r 2**s, with 2**s >= 8 sum_i p_i so that the
truncation stays below 1/8; a fractional part outside the window that
leaves raises LadderInvariantError.  Then x mod e = sum_i y_i (P/p_i mod
e) - alpha (P mod e) for every other prime e of the set, one dgemm of y
with the high and low halves of the constants P/p_i mod e (Shenoy and
Kumaresan, IEEE Trans. Computers 1989; Kawamura et al., EUROCRYPT
2000).  Every float64 value stays an exact integer below 2**53;
:func:`_certify` checks the bounds that ensure it, and the ladder runs
on the whole set where they fail.

Finish.  For every prime, the finish for operands X, Y contracts
trace(X @ Y) = sum(w X Y) over the triangle, with weight w = 1 on the
diagonal and 2 above it, in rows of n entries.  The triangle runs in
chunks of about 2**14 residues, each extended and contracted at once,
so the extended residues are never stored.  One CRT per trace follows,
on weights built once for all traces of the run.

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

import functools
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
# the narrowest window _moduli sieves below the prime limit; wider ones
# are 4, 16, ... times this
_WINDOW = 2**16


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


@functools.lru_cache(maxsize=64)
def _primes_between(lo, hi):
    """The primes p with lo <= p < hi, ascending, as a read-only int32 array.

    Needs 2 <= lo < hi <= 2**31.  Cached, since the ladder asks for the
    same few windows below each order's prime limit.
    """
    root = math.isqrt(hi - 1)
    small = np.ones(root + 1, dtype=bool)
    sieve = np.ones(hi - lo, dtype=bool)
    # d is prime when reached: every smaller prime has crossed off its
    # multiples from its square on, in [2, root] and in the window alike
    for d in range(2, root + 1):
        if small[d]:
            small[d * d::d] = False
            sieve[max(d * d, -(-lo // d) * d) - lo::d] = False
    primes = (np.flatnonzero(sieve) + lo).astype(np.int32)
    primes.flags.writeable = False
    return primes


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
    # windows of fixed widths, so that every call at one n shares them; the
    # first holds thousands of primes, enough for k in the thousands
    width = _WINDOW
    while True:
        lo = max(2, top - width)
        primes, product = [], 1
        for p in map(int, _primes_between(lo, top)[::-1]):
            primes.append(p)
            product *= p
            if product > 2 * bound:
                return primes
        if lo == 2:
            return primes
        width *= 4


def _ladder_size(primes, entry, per_block, most):
    """How many of ``primes`` the ladder runs on.

    The shortest prefix whose product exceeds 4*entry, rounded up to
    whole blocks of ``per_block`` primes; the whole set if that leaves
    nothing to extend to, if the prefix is longer than ``most`` (the
    extension would cost more than it saves), or if the base extension
    would not be exact.
    """
    size, product = 0, 1
    while size < len(primes) and product <= 4 * entry:
        product *= primes[size]
        size += 1
    size = min(len(primes), -(-size // per_block) * per_block)
    return size if size <= most and _extension_bits(primes, size) else len(primes)


def _extension_bits(primes, size):
    """(s, h) for extending from primes[:size] to the rest; None if inexact.

    The wrap count is read off sum_i y_i floor(2**s / p_i), with 2**s the
    least power of two at or above 8 sum_i p_i; the cofactors P/p_i mod e
    are split at bit h, half the bits of the largest prime of the set.
    Extending from r primes keeps every float64 value an exact integer
    below 2**53 if (r + 1) 2**s <= 2**53 (the wrap sum plus a half) and
    r 2**h max(primes) <= 2**53 (the dgemm of y with either half of the
    cofactors); otherwise None.  With nothing to extend to, (0, 0).
    """
    if size == len(primes):
        return 0, 0
    s = (8 * sum(primes[:size]) - 1).bit_length()
    h = (max(primes).bit_length() + 1) // 2
    if (size + 1) << s > _EXACT or (size * max(primes)) << h > _EXACT:
        return None
    return s, h


def _certify(n, bound, primes, entry, size):
    """Raise unless the moduli make every step exact and determine the trace.

    The ladder's primes[:size] must also determine every operand entry,
    bounded by ``entry``, with the margin the base extension needs.
    """
    if any(n * (2 * p) ** 2 + p >= _EXACT for p in primes):
        raise ArithmeticError(f"a modulus is too large for exact products of order {n}")
    if math.prod(primes) <= 2 * bound:
        raise ArithmeticError(f"moduli do not determine a trace bounded by {bound}")
    if math.prod(primes[:size]) <= 4 * entry:
        raise ArithmeticError(f"ladder moduli do not determine entries bounded by {entry}")
    if _extension_bits(primes, size) is None:
        raise ArithmeticError(f"base extension from {size} moduli would not be exact")


def _reduce(x, p, inv):
    """x mod p in place, into [-p, 2p); x holds integers below 2**53 in modulus."""
    t = x * inv
    np.floor(t, out=t)
    t *= p
    x -= t
    return x


def _canonical(x, p, inv):
    """x mod p in place, into [0, p); x holds integers below 2**51 in modulus.

    (x + 1/2)/p lies at least 1/(2p) from every integer, and for
    |x| < 2**51 the rounding errors of (x + 1/2) * fl(1/p) stay below
    that, so its floor is exact.
    """
    t = x + 0.5
    t *= inv
    np.floor(t, out=t)
    t *= p
    x -= t
    return x


def _scan(x, m):
    """Running products down the rows of x modulo m, in O(log len(x)) steps.

    x holds int64 residues below m, with m < 2**26 broadcast along the
    rows, so every product is below 2**52.
    """
    x = x.copy()
    d = 1
    while d < len(x):
        x[d:] = x[d:] * x[:-d] % m
        d *= 2
    return x


def _extender(primes, size, inverses, width):
    """Base extension from the ladder's primes[:size] to primes[size:].

    ``inverses`` holds (Q/p)**-1 mod p for each prime p of the set, Q the
    product of all of them (the CRT's).  Returns extend(v): v is a
    (size, m) float64 array, m <= ``width``, of the canonical residues of
    m integers x with |x| < P/4, P = prod(primes[:size]), and extend(v)
    is the (len(primes) - size, m) float64 array of their canonical
    residues modulo each extension prime.  It raises LadderInvariantError
    if some x breaks that bound so far that the wrap count's fractional
    part leaves its window.  Needs _extension_bits(primes, size) to be
    (s, h), not None.

    The constants: the cofactors P/p_i modulo each extension prime e come
    from running products of p_i mod e taken from either end, in
    O(log size) vectorised int64 steps (:func:`_scan`), and P mod e is
    the last running product; (P/p_i)**-1 = (Q/p_i)**-1 (Q/P) mod p_i.
    In extend, with r = size and every prime below p_max < 2**26:
    v (P/p_i)**-1 < p_max**2 < 2**52; the wrap sum plus a half is below
    (r + 1) 2**s; each half of the cofactors' hi/lo split is below 2**h
    and y below p_max, so the dgemm sums to below r 2**h p_max;
    :func:`_extension_bits` checks these two.  After the reduction the
    recombination stays below (2**(h+1) + r + 3) p_max, under 2**40.
    """
    s, h = _extension_bits(primes, size)
    ladder = np.array(primes[:size], dtype=np.int64)
    others = np.array(primes[size:], dtype=np.int64)
    rest = math.prod(primes[size:])
    inv = [i * (rest % p) % p for i, p in zip(inverses, primes[:size])]
    # P/p_i mod e, from running products of p_i mod e from either end
    factors = ladder[:, None] % others
    prefix, suffix = _scan(factors, others), _scan(factors[::-1], others)[::-1]
    cofactor = np.ones_like(factors)
    cofactor[1:] = prefix[:-1]
    cofactor[:-1] = cofactor[:-1] * suffix[1:] % others
    # the cofactors' high and low halves, stacked: one dgemm with y gives
    # both partial sums
    basis = np.concatenate((cofactor.T >> h, cofactor.T & ((1 << h) - 1))).astype(np.float64)
    wrap = prefix[-1].astype(np.float64)[:, None]  # P mod e
    fraction = ((1 << s) // ladder).astype(np.float64)  # floor(2**s / p_i)

    def full(column):
        # elementwise steps run fastest on operands of one contiguous shape
        return np.ascontiguousarray(np.broadcast_to(np.array(column, dtype=np.float64)[:, None],
                                                    (len(column), width)))

    inv, lp, ep = full(inv), full(ladder), full(others)
    ep2 = np.concatenate((ep, ep))
    linv, einv, einv2 = 1.0 / lp, 1.0 / ep, 1.0 / ep2
    one, half, split = 2.0**s, 2.0 ** (s - 1), 2.0**h
    count = len(others)
    # |x|/P < 1/4 and a truncation below 2**(s-3) keep the fractional part
    # of the wrap sum plus a half strictly inside (2**(s-3), 3 * 2**(s-2))
    low, high = 2.0 ** (s - 3), 3 * 2.0 ** (s - 2)

    def extend(v):
        m = v.shape[1]
        y = _canonical(v * inv[:, :m], lp[:, :m], linv[:, :m])
        t = fraction @ y + half
        alpha = np.floor(t * (1.0 / one))
        t -= alpha * one
        if ((t <= low) | (t >= high)).any():
            raise LadderInvariantError(
                "an operand entry lies outside the bound its moduli were sized for"
            )
        halves = _reduce(basis @ y, ep2[:, :m], einv2[:, :m])
        z = halves[:count] * split
        z += halves[count:]
        z -= alpha * wrap
        return _canonical(z, ep[:, :m], einv[:, :m])

    return extend


def _contract(x, y, w, p, inv):
    """Per prime, an integer congruent to sum(w * x * y) mod p.

    x, y are (primes, g * n) canonical residues and w is (g, n), 1 on the
    triangle's diagonal, 2 above it and 0 in its padding.  Each row of n
    products sums to below 2 n p**2 < n (2p)**2, and after one reduction
    the g row sums stay below 2gp, so every value is exact.
    """
    g, n = w.shape
    rows = np.einsum("igc,igc,gc->ig", x.reshape(-1, g, n), y.reshape(-1, g, n), w)
    return _reduce(rows, p, inv).sum(axis=1)


def _crt_basis(primes):
    """Q = prod(primes) and, per prime p, the cofactor Q/p and (Q/p)**-1 mod p."""
    modulus = math.prod(primes)
    cofactors = [modulus // p for p in primes]
    return modulus, cofactors, [pow(c, -1, p) for c, p in zip(cofactors, primes)]


def _crt(rows, primes, basis):
    """Per row of residues, the integer in (-Q/2, Q/2] congruent to each.

    ``basis`` is _crt_basis(primes), built once for all rows.
    """
    modulus, cofactors, inverses = basis
    out = []
    for residues in rows:
        total = sum(r * i % p * c for r, p, c, i in zip(residues, primes, cofactors, inverses))
        total %= modulus
        out.append(total - modulus if 2 * total > modulus else total)
    return out


def _scalar(t, q):
    """What forming M(t) subtracts, times A for odd t and I for even t."""
    return (2 - t % 2) * q ** (t // 2)


def _step(mats, t, edges, c):
    """M((t+1)//2) M(t//2) minus the scalar correction of index t.

    That is c A for odd t (A's ones at ``edges``) and c I for even t.
    ``mats`` maps indices to one n x n matrix, with c a scalar, or to
    stacks of them, with c one value per matrix of the stack.
    """
    step = np.matmul(mats[(t + 1) // 2], mats[t // 2])
    c = np.asarray(c, dtype=np.float64)[..., None]
    if t % 2:
        step[..., edges[0], edges[1]] -= c
    else:
        step.reshape(*step.shape[:-2], -1)[..., ::step.shape[-1] + 1] -= c
    return step


def _exact_split(built, q):
    """How many leading entries of ``built`` the ladder forms exactly.

    Index t, from M((t+1)//2) = M(x) and M(t//2) = M(y), is formed on
    one float64 matrix while (q**x + 1)(q**y + 1) + 2 q**y < 2**53, which
    keeps every value of the product and of its correction an exact
    integer (see "Exact prefix" above).
    """
    for split, t in enumerate(built):
        x, y = (t + 1) // 2, t // 2
        if (q**x + 1) * (q**y + 1) + 2 * q**y >= _EXACT:
            return split
    return len(built)


def _climb(mats, indices, edges, scalars, primes, references):
    """Form each index of ``indices``, in order; returns the matrices left live.

    ``mats`` maps indices to exact n x n float64 matrices.  The climb runs
    on them, or with ``primes`` on stacks of their residues, one matrix
    per prime.  Each index t is formed by :func:`_step` (A's ones at
    ``edges``), with scalars[t] :func:`_scalar` itself or its residues.
    The indices never decrease, so the matrices below t//2 are dead and
    are dropped before M(t) is formed.  Every start and formed matrix is
    compared with ``references`` (index -> the sweep's matrix) when given.
    """
    if primes is not None:
        p = np.array(primes, dtype=np.float64)[:, None, None]
        inv = 1.0 / p
        mats = {t: _reduce(np.repeat(m[None], len(primes), axis=0), p, inv)
                for t, m in mats.items()}
    if references is not None:
        for t, m in mats.items():
            _check_state(t, m, references[t], primes)
    for t in indices:
        mats = {i: m for i, m in mats.items() if i >= t // 2}
        mats[t] = _step(mats, t, edges, scalars[t])
        if primes is not None:
            _reduce(mats[t], p, inv)
        if references is not None:
            _check_state(t, mats[t], references[t], primes)
    return mats


def _finish(store, finishes, primes, size, weights, inverses, triangles):
    """Per finish (x, y), per prime, an integer congruent to trace(M(x) @ M(y)).

    ``store`` maps each operand index to the int32 triangles of its
    matrix modulo primes[:size], in rows of n entries, and ``weights`` is
    the (rows, n) contraction weight.  Row groups of about _BLOCK_ENTRIES residues run
    in turn: each is extended to primes[size:] (``inverses`` as for
    :func:`_extender`), checked against ``triangles`` (index -> padded
    triangle of the sweep's matrix) when given, and contracted for every
    prime.  Returns one float64 array of integers below 2**51 per finish.
    """
    p = np.array(primes, dtype=np.float64)[:, None]
    inv = 1.0 / p
    rows, n = weights.shape
    group = max(1, _BLOCK_ENTRIES // (len(primes) * n))
    extend = _extender(primes, size, inverses, group * n) if size < len(primes) else None
    extension = np.array(primes[size:], dtype=np.int64)[:, None]
    totals = [np.zeros(len(primes)) for _ in finishes]
    for start in range(0, rows, group):
        cols = slice(start * n, (start + group) * n)
        chunk = {}
        for x, tri in store.items():
            chunk[x] = v = tri[:, cols].astype(np.float64)
            if extend is None:
                continue
            z = extend(v)
            if triangles is not None:
                bad = np.flatnonzero((z != triangles[x][cols] % extension).any(axis=1))
                if bad.size:
                    raise LadderInvariantError(
                        f"extended residue mismatch in M({x}) modulo {primes[size + bad[0]]}"
                    )
            chunk[x] = np.concatenate((v, z))
        for total, (x, y) in zip(totals, finishes):
            total += _contract(chunk[x], chunk[y], weights[start:start + group], p, inv)
    return totals


def _drive(graph, finishes, counter, checked):
    """Run the ladder and finish it with ``finishes``; returns their traces.

    Each finish is an index pair (x, y) with x - y in {0, 1} and gives
    trace(M(x + y)) = trace(M(x) M(y)) - q**y trace(M(x - y)), where
    trace(M(0)) = 2n and trace(M(1)) = trace(A) = 0, since a validated
    graph has no loops.  The ladder forms the entries of
    ladder_indices(lo + hi) between its first and its last, lo and hi
    the smallest and largest operand; they include every operand.  The
    leading ones, as many as :func:`_exact_split` allows, are formed
    exactly, once, and each prime block forms the rest from their
    residues; one step loop (:func:`_climb`) runs both.

    The traces are determined modulo the primes of :func:`_moduli` for
    the largest bound |trace| <= n (q**index + 1) among the finishes.
    The ladder runs, block by block, on the prefix of them that
    :func:`_ladder_size` picks for hi; the finish extends the operands to
    the other primes, contracts every trace modulo all of them, and one
    CRT per trace follows.  ArithmeticError is raised, before any
    product, if the primes could not make every step exact or could not
    determine every trace and operand entry (before any power of q if
    even all primes below the limit could not); each rebuilt trace must
    lie within its own bound.  Products are counted on ``counter`` here
    alone, once per formed index, however many prime blocks form it, and
    once per finish.  With ``checked``, every matrix the run
    forms, extends or traces is compared with one sweep's.
    """
    q, n = graph.q, graph.n
    indices = [x + y for x, y in finishes]
    k = max(indices)
    # the primes below L multiply to less than 4**L (Erdős) <= 2**(k floor(log2 q)) <= q**k
    if k * (q.bit_length() - 1) >= 2 * (_prime_limit(n) + 1):
        raise ArithmeticError(f"moduli do not determine a trace bounded by {n} * ({q}**{k} + 1)")
    operands = sorted({t for finish in finishes for t in finish})
    built = ladder_indices(operands[0] + operands[-1])[-2:0:-1]
    split = _exact_split(built, q)
    exact, rest = built[:split], built[split:]
    a = graph.adjacency.astype(np.float64)
    bound = n * (q**k + 1)
    primes = _moduli(n, bound)
    per_block = max(1, _BLOCK_ENTRIES // (n * n))
    entry = q ** operands[-1] + 1
    # extending one prime from r costs 2 r n(n+1)/2 multiply-adds per operand
    # (the dgemm with both halves of the cofactors); the ladder spends n**3 per
    # prime and index it forms, so extend only when that saves work
    most = len(built) * n**2 // ((n + 1) * len(operands))
    size = _ladder_size(primes, entry, per_block, most)
    _certify(n, bound, primes, entry, size)
    # the operands' upper triangles, zero-padded to whole rows of n entries
    upper = np.arange(n)
    triangle = np.nonzero(upper[:, None] <= upper)
    width = n * ((n + 2) // 2)
    store = {t: np.zeros((size, width), dtype=np.int32) for t in operands}
    edges = np.nonzero(a)
    references = _references(graph, [1, *built, *indices]) if checked else None
    live = _climb({1: a}, exact, edges, {t: _scalar(t, q) for t in exact}, None, references)
    read = set(operands).union(*(((t + 1) // 2, t // 2) for t in rest))
    live = {t: m for t, m in live.items() if t in read}
    scalars = {t: np.array([c % p for p in primes[:size]]) for t in rest for c in [_scalar(t, q)]}
    for start in range(0, size, per_block):
        block = slice(start, start + per_block)
        mats = _climb(live, rest, edges, {t: scalar[block] for t, scalar in scalars.items()},
                      primes[block], references)
        p = np.array(primes[block], dtype=np.float64)[:, None]
        for t, tri in store.items():
            residues = mats[t][:, triangle[0], triangle[1]]
            tri[block, :residues.shape[1]] = _canonical(residues, p, 1.0 / p)
        del mats, residues  # free this block's stacks before the next block forms its own
    for _ in [*built, *finishes]:
        counter.bump()
    triangles = None if references is None else {
        t: np.pad(references[t][triangle], (0, width - len(triangle[0]))) for t in operands}
    weights = np.zeros(width)
    weights[:len(triangle[0])] = 2.0 - (triangle[0] == triangle[1])
    basis = _crt_basis(primes)
    totals = _finish(store, finishes, primes, size, weights.reshape(-1, n), basis[2], triangles)
    rows = []
    for (x, y), total in zip(finishes, totals):
        fix = n * _scalar(2 * x, q) if x == y else 0
        rows.append([(int(t) - fix % p) % p for t, p in zip(total.tolist(), primes)])
    out = []
    for index, trace in zip(indices, _crt(rows, primes, basis)):
        own = n * (q**index + 1)
        if abs(trace) > own:
            raise LadderInvariantError(f"trace {trace} at index {index} exceeds its bound {own}")
        expect = trace if references is None else _exact_trace(references[index])
        if trace != expect:
            raise LadderInvariantError(f"final trace {trace} at index {index}, expected {expect}")
        out.append(trace)
    return out


def _run_ladder(graph, k, counter, checked=False):
    """The trace of the scaled Chebyshev matrix M(k), from one ladder.

    The ladder forms the entries of ladder_indices(k) between k and 1,
    the leading ones exactly and the rest on residues, and the last step,
    M(k) from its operands, forms only the trace, in O(n^2) operations
    (see :func:`_drive`).  That contraction still counts as one product,
    so exactly len(ladder_indices(k)) - 1 products are counted on
    ``counter``.

    With checked=True, one three-term sweep to k, O(k q n^2) extra
    uncounted work, gives every matrix the run forms, extends and traces
    to compare with (see :func:`_drive`).
    """
    if k == 1:  # M(1) = A; no step
        return int(graph.adjacency.trace())
    [trace] = _drive(graph, [((k + 1) // 2, k // 2)], counter, checked)
    return trace


def _run_ladder_pair(graph, k, counter, checked=False):
    """Traces of the scaled Chebyshev matrices for indices k and k+2, one ladder.

    k must be even and at least 2.  With j = k/2, the schedule for the odd
    index k+1 = 2j+1 forms the half pair M(j), M(j+1) for its last step.
    Instead of that step, two trace finishes square them:
    M(2j) = M(j)**2 - 2 q**j I and M(2j+2) = M(j+1)**2 - 2 q**(j+1) I.
    Returns [trace_k, trace_k+2].  Exactly len(ladder_indices(k + 1))
    products are counted: one per formed index, exact or on residues,
    and one per finish (see :func:`_drive`).  One
    prime set, sized for index k+2, serves both traces; checked mode
    compares every formed matrix and both traces with one sweep to k+2.
    """
    if k < 2 or k % 2:
        raise ValueError(f"k must be even and >= 2, got {k}")
    j = k // 2
    return _drive(graph, [(j, j), (j + 1, j + 1)], counter, checked)


def _references(graph, indices):
    """M(t) for each t in ``indices``, read off one sweep."""
    wanted = set(indices)
    sweep = zip(range(max(wanted) + 1), _sweep(graph.adjacency, graph.q))
    return {t: m for t, m in sweep if t in wanted}


def _check_state(index, state, expect, primes):
    """Raise unless ``state`` holds M(index) = ``expect``.

    ``state`` is the exact matrix (``primes`` None) or a stack of its
    residues modulo each of ``primes``.
    """
    if primes is None and not np.array_equal(state.astype(np.int64), expect):
        raise LadderInvariantError(f"register mismatch at index {index} in the exact prefix")
    for residues, p in zip(state, primes or []):
        if not np.array_equal(residues.astype(np.int64) % p, (expect % p).astype(np.int64)):
            raise LadderInvariantError(f"register mismatch at index {index} modulo {p}")


def geodesic_count(graph, k):
    """Exact number of geodesic cycles of length k in the graph."""
    if not isinstance(graph, RegularGraph):
        raise TypeError("expected a validated RegularGraph")
    trace = _run_ladder(graph, k, MultCounter())
    return trace if k % 2 else graph.n * (graph.q - 1) + trace


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


def expansion_slack(graph, k):
    """Exact slack of the geodesic-count deviation bound at length k.

    With s = q**(k/2) and c = n(q-1) for even k (0 for odd k), the value
    is 2(n-1) + s + 1/s - (count_k - c)/s, computed from the ladder's
    final trace without ever forming count_k in floating point.
    """
    if not isinstance(graph, RegularGraph):
        raise TypeError("expected a validated RegularGraph")
    trace = _run_ladder(graph, k, MultCounter())
    return _slack_from_trace(graph, k, trace)


def expansion_slack_pair(graph, k):
    """Exact slacks at the even length k and at k+2, from one ladder.

    Equal to (expansion_slack(graph, k), expansion_slack(graph, k + 2)),
    at about the cost of one of them: both traces come from the half pair
    of the schedule for k+1.
    """
    if not isinstance(graph, RegularGraph):
        raise TypeError("expected a validated RegularGraph")
    trace, trace_next = _run_ladder_pair(graph, k, MultCounter())
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
