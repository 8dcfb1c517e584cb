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
len(ladder_indices(k + 1)) products.  Several such pairs, one per eps of
a table, share one ladder: it climbs to the largest k's half pair, and
every smaller k reads its own pair off that ladder's levels (see
Levels).  Such a run counts each formed index once and each finish
once; the steps that take a level's pair up to a smaller k's are
additions, not products, and count nothing.

The ladder forms its leading indices exactly, once, and the rest on
residues modulo word-size primes; the Chinese remainder theorem rebuilds
each final trace's deviation, trace M(k) - q**k - 1.

Bounds.  An eigenvalue lam of A has |lam| <= q+1.  The matching
eigenvalue of M(t) is a**t + b**t with a + b = lam and a*b = q.  If
|lam| <= 2 sqrt(q), then |a| = |b| = sqrt(q) and its modulus is at most
2 q**(t/2) <= q**t + 1.  Otherwise a and b are real of one sign, and the
larger modulus x = |a| satisfies x + q/x = |lam| <= q + 1, so
sqrt(q) <= x <= q; x**t + (q/x)**t grows on that range, so the modulus
is again at most q**t + 1.  Hence |trace M(t)| <= n (q**t + 1), and, M(t)
being symmetric, every entry satisfies |M(t)_uv| <= ||M(t)||_2 <= q**t + 1.

That bound is set by the trivial eigenvalue, q**t + 1 on the all-ones
vector.  The decision reads only the deviation trace M(t) - q**t - 1,
the sum of the n - 1 nontrivial eigenvalues, so the run sizes its
primes by a bound e(t) on their modulus instead (:func:`_bounds`).  It
reads e(t) off the highest exact matrix M(h) (see Exact prefix): with
S = max(1, ceil(sum(Y(h)**2) / q**h)), Y(t) = M(t) - s_t J, J all ones
and s_t = (q**t + 1) // n, every nontrivial eigenvalue of M(t) is at
most q**(t/2) (S**(t/2h) + 1) in modulus, and at most q**t + 1; e(t) is
the smaller, rounded up in integers.  Then the deviation is at most
(n - 1) e(t), and every entry of Y(t) at most e(t).  For a graph whose
nontrivial spectrum lies near 2 sqrt(q), e(t) has about half the bits of
q**t + 1 once t passes 2h; a bipartite graph, whose -(q+1) counts as
nontrivial, and q = 1 keep q**t + 1.

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
entries never pass 2, all of them.  :func:`_exact_levels` applies the
rule to the list of levels (below), before any array exists.  The
schedule's duplicated M(2) (:func:`ladder_indices`) thus costs one exact
product per run.

Levels.  The schedule climbs in levels (:func:`_levels`): each holds
M(lo) and M(lo+1), formed from the level below by one square and one
cross product (M(2h) and M(2h+1), or M(2h+1) and M(2h+2), from M(h) and
M(h+1)), except the square-only levels at the top of a single-k run at
even k, which hold M(lo) alone.  One level loop (:func:`_climb`) forms
them, once on the exact matrix and then once per prime block on
residues.  Each level writes its products into a second buffer of two
slots and subtracts both scalar corrections in place; on residues, one
call then reduces both back into the first buffer, whose level is dead
by then, so a level allocates nothing (exact, the buffers swap).  The
buffers are allocated once per run.  Where the exact prefix ends inside
a level (its square is exact, its cross product is not), each prime
block starts that level from the residues of the exact member.

A run serves one or more targets, each a set of finishes on M(j) and
M(j+1) (or M(j) alone).  The levels climb to the top target's operands,
the largest; every other target attaches to the highest level that holds
a pair M(a), M(a+1) with a <= j, and :func:`_shift` takes that pair
j - a steps up by the three-term recurrence M(t+1) = A M(t) - q M(t-1),
each a sum of q+1 neighbour rows on residues, O(q n**2) additions per
prime and no product.  A pair on an exact level is kept once, as exact
matrices, and reduced modulo each block's primes.  For the table's eps =
2^-1 .. 2^-10, whose indices about double from one to the next, j - a
is 0 to 4 at every n measured (4 to 199 and up to 5000).  A pair of
ks closer together could sit hundreds of steps above every level, so
a k shares a ladder only while j - a is below the products a ladder of
its own would count (:func:`_run_ladder_pairs`).

Primes.  One function, :func:`_plan`, makes every prime-sizing decision
of a run, once its exact prefix is formed, since e(t) reads it; the run
only carries the plan out, and :func:`_certify` checks it independently.
One rule sizes every prefix (:func:`_prefix`): the fewest leading primes
whose product exceeds twice a bound.  The fewest primes, largest first
below a limit, whose product exceeds 2 (n - 1) e(k) determine the
deviation at index k, lifted into the symmetric range, and so the trace;
the run for k and k+2 sizes one set for k+2, and a run for several
targets one set for the largest deviation bound of any target.  Every
other target's deviations are determined by its own prefix of that
list, so the targets' prefixes are nested.  Each window of candidates
below the limit is sieved once and cached.  The limit is the largest p
with m (p/2 + 2)**2 + p < 2**53, m the largest inner dimension of any
product the run makes on residues (:func:`_inner`): n for the ladder's
and the finish's, and r + 1 for the base extension's from r ladder
primes (and 4, for its digits).  Since r depends on the primes, the plan
starts at m = n and raises m to r + 1 until it holds (at most three
rises for n from 3 to 8192 and k up to 24,472).  At n = 100 that gives
primes of 24.2 bits, two more than a floored reduction allowed.  The
ladder itself never needs the whole set: every matrix it forms or
shifts to is M(t) with t at most top, the larger operand index of the
top target's finishes (ceil(k/2) for one k, j+1 for the pair).  So the
ladder runs on the shortest prefix of the set whose product exceeds both
4 e(top), for the entries of the stored Y(top), and twice every other
target's largest deviation bound, rounded up to whole prime blocks.
That is still about half the primes, since every other target's operands
lie a few steps above a level below the top one (see Levels), and every
target but the top one is then determined inside the ladder's primes
(see Storage).  A request whose primes all fit in one block extends to
nothing.  Nor does one where extending would cost more multiply-adds
than it saves: one extended prime costs about r n(n+1) per operand for a
prefix of r primes, one laddered prime n**3 per step, so the prefix may
hold at most steps n**2 / ((n+1) operands) primes.  That keeps small
graphs at small eps, where the prefix runs to hundreds of primes, on the
whole set.  The whole set extends nothing, so its inner dimension is n,
and it is sized below the limit for n.

Products.  Residues are float64 values, so each step after the exact
prefix is the prefix's step, one BLAS product (dgemm) and its scalar
correction, on a stack of n x n residue matrices, one per prime, then
reduced.  The reduction r = x - p*rint(x * (1/p)) (:func:`_reduce`)
leaves |r| <= (p+3)/2, so every value a step accumulates is an integer
of modulus at most n ((p+3)/2)**2 + p, and the prime limit keeps that
and the reduction's own products within 2**53, where float64 arithmetic
on integers is exact.  A block's stacks start as the exact matrices
reduced modulo its primes.  The run keeps one table of the steps'
scalars (:func:`_scalar`), and each block reduces it modulo its own
primes into one array, a row per step.  The primes run in
blocks of 2**14 // n**2 (at least one), so one stack holds at most 2**14
entries unless a single n x n matrix is larger; a block keeps two
buffers of two stacks each, 512 KiB at most below n = 128.

Storage.  The run stores and contracts Y(t) = M(t) - s_t J, not M(t):
its entries, at most e(t), are what the ladder's primes determine.  Every
target but the top one has its prefix inside the ladder's primes (see
Primes), so it never needs an extended residue: each block that holds
primes of its prefix gathers its operands' upper triangles (M(t) is
symmetric), the diagonal first and then the entries above it, less s_t
and reduced again, into a small buffer and contracts them at once (see
Finish).  So does the top target when the ladder runs on every prime.
Otherwise its operands, and only they, are stored: each block gathers,
with one take per operand, those residues into one int32 array of shape
(ladder primes, operands, width): n(n+1)/2 entries per prime and
operand, zero-padded to whole rows of n entries; a square stores its
operand once.  That is 2 n**2 bytes per ladder prime and operand:
0.74 MiB for the pair at n = 100 with 19 ladder primes.

Base extension.  With P the product of the r ladder primes p_i and v_i
an operand entry x modulo p_i, the balanced digit y_i = v_i (P/p_i)**-1
mod p_i, |y_i| <= (p_i - 1)/2, gives sum_i y_i P/p_i = x + alpha P, so
sum_i y_i/p_i = alpha + x/P with |x/P| < 1/4.  The wrap count alpha is
read off in fixed point, sum_i y_i floor(2**s/p_i), with 2**s >= 8
sum_i p_i so that the truncation stays below 1/16; a fractional part
outside the window that leaves raises LadderInvariantError.  Then
x = sum_i y_i (P/p_i) - alpha P modulo every other prime e of the set:
alpha joins the digits as one more row, and one dgemm of the r + 1 rows
with the balanced constants P/p_i mod e and -(P mod e), all of modulus
at most e/2, gives every extended residue, followed by one reduction
(Shenoy and Kumaresan, IEEE Trans. Computers 1989; Kawamura et al.,
EUROCRYPT 2000).  Its sums stay below r p e/4 + (r/2 + 1) e/2, p and e
the largest ladder and extension primes, which the prime limit at
m >= r + 1 keeps below 2**53, so the tables' small graphs keep their
extension; :func:`_certify` checks the limit, and the ladder runs on the
whole set where the wrap sum's bound fails.

Finish.  For every prime, the finish for operands M(x), M(y) contracts
trace(Y(x) Y(y)) = sum(w Y(x) Y(y)) over the triangle, with weight w = 1
on the diagonal and 2 above it: in the prime blocks for every target the
ladder's primes determine, and after the ladder for the stored top
target.  The rest is known, since every row of M(t) sums to q**t + 1:
trace(M(x) M(y)) = trace(Y(x) Y(y)) + s_y n (q**x + 1) + s_x n (q**y + 1)
- s_x s_y n**2.  Its stored triangles run in chunks of about 2**14 residues per
operand with every prime's.  Every operand's chunk goes into one
buffer, reused from chunk to chunk, with a row per prime and the
operands side by side along it: the stored residues on top, and below
them the extended ones, which one extension call, one dgemm for all
operands, writes in place.  Each finish contracts its operands' column
slices.  Each row of n products is summed unweighted, which the prime
limit keeps exact, reduced, and only then weighted, so the weight 2
costs no bit of prime.  The extended residues are never stored.  One CRT
per deviation follows, over its target's own prefix: Garner's
mixed-radix constants, built once for the run's list of primes, serve
every prefix of it.  A rebuilt deviation outside its bound raises
LadderInvariantError.

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
from itertools import chain, islice

import numpy as np

from .exact import MultCounter, Quadratic, _power_bounds
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
    raises it if a rebuilt deviation falls outside its proven bound.
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


def _prime_limit(m):
    """The largest p with m (p/2 + 2)**2 + p < 2**53.

    m is the largest inner dimension of any product a run makes on
    residues (see "Primes" above).
    """
    # m (p + 4)**2 + 4p < 2**55, with p + 4 <= 2 sqrt(2**53 / m) to start
    p = 2 * math.isqrt(_EXACT // m)
    while m * (p + 4) ** 2 + 4 * p >= 4 * _EXACT:
        p -= 1
    return p


def _prefix(primes, bound):
    """The fewest leading ``primes`` whose product exceeds 2*bound; all of them if none do.

    Stops at the first prime that suffices, so a long candidate list is
    read only as far as it is needed.
    """
    size, product, limit = 0, 1, 2 * bound
    for p in primes:
        if product > limit:
            break
        product *= int(p)
        size += 1
    return size


def _moduli(m, bound):
    """The fewest primes, largest first below _prime_limit(m), with product > 2*bound.

    If even every prime below the limit falls short, returns them all,
    and :func:`_certify` rejects the set.
    """
    top = _prime_limit(m) + 1
    # windows of fixed widths, so that every call at one m shares them; the
    # first holds thousands of primes, enough for k in the thousands
    width = _WINDOW
    while True:
        lo = max(2, top - width)
        window = _primes_between(lo, top)[::-1]
        size = _prefix(window, bound)
        # a window used up may suffice only at its last prime, and a wider
        # one then gives the same primes
        if size < len(window) or lo == 2:
            return window[:size].tolist()
        width *= 4


def _inner(n, primes, size):
    """The inner dimension m whose prime limit every prime must meet.

    n, for the ladder's products and the contraction's rows of n
    entries; when extending from r = size primes, also r + 1, for the
    extension's dgemm of r digits and the wrap count, and 4, for its
    digits: the limit at m = 4 keeps their products, at most
    (p+3)(p-1)/4, below 2**51 - 1, where :func:`_reduce` balances
    exactly.
    """
    return n if size == len(primes) else max(n, size + 1, 4)


def _extension_bits(primes, size):
    """The s for extending from primes[:size] to the rest; None if inexact.

    The wrap count is read off sum_i y_i floor(2**s / p_i), with 2**s the
    least power of two at or above 8 sum_i p_i.  With exactly balanced
    digits, |y_i| <= (p_i - 1)/2, the wrap sum plus a half stays below
    (r + 1) 2**(s-1) for r = size, which must be at most 2**53.  The
    digits' and the dgemm's bounds follow from the prime limit
    (:func:`_inner`).  With nothing to extend to, 0.
    """
    if size == len(primes):
        return 0
    s = (8 * sum(primes[:size]) - 1).bit_length()
    if (size + 1) << (s - 1) > _EXACT:
        return None
    return s


def _certify(n, bound, primes, entry, size):
    """Raise unless the moduli make every step exact and determine the deviation.

    The primes must determine a deviation bounded by ``bound``, and so
    its trace.  Every prime must lie below the limit for the run's
    largest inner dimension (:func:`_inner`), and the ladder's
    primes[:size] must also determine every operand entry, bounded by
    ``entry``, with the margin the base extension needs, and so every
    deviation bounded by 2*entry: each target's but the top one's, whose
    prefix then lies inside them.
    """
    inner = _inner(n, primes, size)
    # the limit test grows with p, so the largest prime decides it
    p = max(primes)
    if inner * (p + 4) ** 2 + 4 * p >= 4 * _EXACT:
        raise ArithmeticError(f"a modulus is too large for exact products of inner dimension {inner}")
    if math.prod(primes) <= 2 * bound:
        raise ArithmeticError(f"moduli do not determine a trace whose deviation is bounded by {bound}")
    if math.prod(primes[:size]) <= 4 * entry:
        raise ArithmeticError(f"ladder moduli do not determine entries bounded by {entry} "
                              f"and smaller deviations bounded by {2 * entry}")
    if _extension_bits(primes, size) is None:
        raise ArithmeticError(f"base extension from {size} moduli would not be exact")


def _plan(n, bounds, indices, operands, top, formed, per_block):
    """(primes, size, prefixes): every prime-sizing decision of one run.

    ``bounds`` is the run's :func:`_bounds`; ``indices`` and ``operands``
    hold each target's trace indices and sorted finish operands, ``top``
    is the target with the largest operand, ``formed`` the number of
    indices the ladder forms, and ``per_block`` the primes of one block.
    The primes are those of :func:`_moduli` for the largest deviation
    bound of any target, largest first.  prefixes[i] is target i's own
    prefix of them, the fewest whose product exceeds twice its largest
    deviation bound (:func:`_prefix`), so the prefixes are nested.

    The ladder runs on primes[:size]: the fewest whose product exceeds
    4*entry, rounded up to whole blocks, where ``entry`` bounds the top
    operands' entries and half of every other target's deviation bound,
    so every prefix but the top target's lies inside the share.  It runs
    on the whole set instead if that leaves nothing to extend to, if the
    base extension's wrap sum would not be exact (:func:`_extension_bits`),
    or if the share is longer than ``most``, where extending would cost
    more than it saves.  The primes lie below the limit for the run's
    largest inner dimension (:func:`_inner`), which the share sets in
    turn: starting from n, the dimension rises to that share plus one
    until it holds.  It only rises, and each rise shrinks the primes, so
    it settles: after at most three rises for n from 3 to 8192 and k up
    to 24,472.  A share that settles on the whole set extends nothing, so
    its inner dimension is n again, and the set is sized anew below the
    limit for n: fewer, wider primes.  :func:`_certify` checks the plan.
    """
    deviations = [bounds(max(own))[1] for own in indices]
    bound = max(deviations)
    # the share determines the top operand's entries and, with a product
    # above 4 ceil(B/2) >= 2 B, every other target's deviations within B
    entry = max([bounds(operands[top][-1])[0]] +
                [-(-b // 2) for i, b in enumerate(deviations) if i != top])
    # the rule charges extending one prime from r 2 r n(n+1)/2 multiply-adds
    # per operand: the one dgemm of the digits and the wrap count takes
    # (r + 1) n(n+1)/2, and the elementwise passes around it cost about as
    # much again; a laddered prime costs n**3 per index formed.  ``formed``
    # also counts the indices the exact prefix forms once per run, not per
    # prime.  That overcount is kept on purpose until ROADMAP item 6 fits a
    # cost model: counting only the per-prime steps would run the
    # benchmark's h20 (n = 20, q = 3) at 2^-11 on all 326 of its primes
    # instead of 200 of 349, and g24 (n = 24, q = 2) at 2^-12 on all 422
    # instead of 252 of 453, each within 6% of the time either way
    most = formed * n**2 // ((n + 1) * len(operands[top]))
    inner = n
    while True:
        primes = _moduli(inner, bound)
        size = min(len(primes), -(-_prefix(primes, 2 * entry) // per_block) * per_block)
        if size > most or _extension_bits(primes, size) is None:
            size = len(primes)
        if size == len(primes) and inner > n:
            primes = _moduli(n, bound)
            size = len(primes)
        if _inner(n, primes, size) <= inner:
            break
        inner = _inner(n, primes, size)
    _certify(n, bound, primes, entry, size)
    return primes, size, [_prefix(primes, b) for b in deviations]


def _squares(y):
    """sum(y**2), exactly, for a float64 array of integers of modulus below 2**53.

    Each entry splits as hi 2**26 + lo with |hi| <= 2**27 and
    0 <= lo < 2**26, and over chunks of 256 entries every sum of hi**2,
    hi lo or lo**2 stays below 2**63.
    """
    v = np.zeros(-(-y.size // 256) * 256, dtype=np.int64)
    v[:y.size] = y.ravel()
    v = v.reshape(-1, 256)
    hi, lo = v >> 26, v & (2**26 - 1)
    return sum(sum(np.einsum("ij,ij->i", x, z).tolist()) << shift
               for x, z, shift in ((hi, hi, 52), (hi, lo, 27), (lo, lo, 0)))


def _bounds(n, q, h, y):
    """bounds(t) = (entry, deviation) at every index t, from y = M(h), exact.

    Let s_t = (q**t + 1) // n and Y(t) = M(t) - s_t J, J all ones.  The
    nontrivial eigenvalues of M(t), those off the all-ones vector, are
    q**(t/2) T(t, x) for x = lam / sqrt(q), and Y(t) has them and
    q**t + 1 - n s_t, in [0, n).  Their squares sum to at most
    sum(Y(h)**2), so S = max(1, ceil(sum(Y(h)**2) / q**h)) >= T(h, x)**2.
    Where |x| > 2, x = z + 1/z with real |z| > 1, |T(t, x)| <= |z|**t + 1
    and |z|**h <= |T(h, x)|, so for every t, max(2, |T(t, x)|) <=
    S**(t/2h) + 1.  With the spectral bound q**t + 1 (see "Bounds" above),
    every nontrivial eigenvalue has modulus at most
    e(t) = min(q**t + 1, q**(t/2) (S**(t/2h) + 1)), rounded up here.  So
    the deviation trace M(t) - q**t - 1, their sum, is at most (n-1) e(t)
    in modulus.  Y(t) is Y'(t) + (q**t + 1 - n s_t) J/n, Y'(t) symmetric
    with the nontrivial eigenvalues and 0, so each entry is an integer
    below e(t) + 1 in modulus: at most e(t).  All in integers:
    q**(t/2) S**(t/2h) = (q**h S)**(t/2h) <= (u/2**24)**t, u the least
    integer with u**(2h) >= q**h S 2**(48h), which overshoots by a factor
    below (1 + 2**-24)**t; the power's upper bound kept to 64 bits
    (:func:`_power_bounds`) adds a factor below exp(t 2**-62), and the
    final rounding up less than 1.  For q = 1 the first bound is already
    the least, 2.
    """
    s = (q**h + 1) // n
    # sum(Y(h)**2) = sum(M(h)**2) - 2 s sum(M(h)) + s**2 n**2, and every
    # row of M(h) sums to q**h + 1
    squares = _squares(y) - 2 * s * n * (q**h + 1) + s * s * n * n
    ratio = max(1, -(-squares // q**h))  # S
    u, f = None, 24
    if q > 1:
        d, target = 2 * h, q**h * ratio << 2 * f * h
        lo, hi = 1 << (target.bit_length() - 1) // d, 1 << -(-target.bit_length() // d)
        while lo < hi:  # the least u with u**d >= target
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if mid**d >= target else (mid + 1, hi)
        u = lo

    @functools.cache
    def bounds(t):
        e = q**t + 1
        if u is not None:
            # ceil(q**(t/2)), then the cheaper of the two
            root = q ** (t // 2) if t % 2 == 0 else math.isqrt(e - 2) + 1
            _, power, shift = _power_bounds(u, t, 64)
            shift -= f * t
            power = power << shift if shift >= 0 else -(-power >> -shift)
            e = min(e, power + root)
        return e, (n - 1) * e

    return bounds


def _reduce(x, p, inv, out=None):
    """x mod p, as x - p rint(x (1/p)), for odd p, into ``out``; returns it.

    ``inv`` is fl(1/p), and ``out`` an array of the broadcast shape that
    shares no memory with x, or None for a new one; x is left as it is,
    so a dead buffer takes the result and no third buffer is needed.  With
    u = 2**-53, fl(x fl(1/p)) lies within |x/p| (2u + u**2) of x/p.  For
    |x| < 2**53 that is below (2/p)(1 + 2**-54), so the result r has
    |r| <= (p+3)/2, and p rint(...) = x - r is exact while
    |x| + (p+3)/2 <= 2**53.  For |x| <= 2**51 - 2 it is below 1/(2p),
    and x/p, p odd, lies at least 1/(2p) from every half-integer, so r is
    exactly balanced: |r| <= (p-1)/2.
    """
    t = np.multiply(x, inv, out=out)
    np.rint(t, out=t)
    t *= p
    return np.subtract(x, t, out=t)


def _scan(x, m):
    """Running products down the rows of x modulo m, in O(log len(x)) steps.

    x holds int64 residues below m, with m < 2**31 broadcast along the
    rows, so every product is below 2**62.
    """
    x = x.copy()
    d = 1
    while d < len(x):
        x[d:] = x[d:] * x[:-d] % m
        d *= 2
    return x


def _extender(primes, size, width):
    """Base extension from the ladder's primes[:size] to primes[size:].

    Returns extend(chunk): chunk is a
    (len(primes), m) float64 array, m <= ``width``, whose first size rows
    hold residues, of modulus at most (p+3)/2 (:func:`_reduce`), of m
    integers x with |x| < P/4, P = prod(primes[:size]); extend writes
    their residues modulo each extension prime e, of modulus at most
    (e+3)/2, into the rows below.  It raises LadderInvariantError if some
    x breaks that bound so far that the wrap count's fractional part
    leaves its window.  Needs _extension_bits(primes, size) to be s, not
    None; every ladder prime p below the limit for m = 4, which keeps the
    digits' products within 2**51 - 2 (:func:`_inner`); and
    r p e/4 + (r/2 + 1) e/2 < 2**53 for r = size and the largest ladder
    and extension primes p and e, which the limit for m = r + 1 ensures
    (see "Base extension").

    The constants: the cofactors P/p_i modulo each extension prime e come
    from running products of p_i mod e taken from either end, in
    O(log size) vectorised int64 steps (:func:`_scan`), and P mod e is
    the last running product; (P/p_i)**-1 mod p_i comes from P itself.
    All of them are balanced, of modulus at most half their prime.
    """
    s = _extension_bits(primes, size)
    ladder = np.array(primes[:size], dtype=np.int64)
    others = np.array(primes[size:], dtype=np.int64)
    modulus = math.prod(primes[:size])
    inv = [(pow(modulus // p, -1, p) + p // 2) % p - p // 2 for p in primes[:size]]
    # P/p_i mod e, from running products of p_i mod e from either end
    factors = ladder[:, None] % others
    prefix, suffix = _scan(factors, others), _scan(factors[::-1], others)[::-1]
    cofactor = np.ones_like(factors)
    cofactor[1:] = prefix[:-1]
    cofactor[:-1] = cofactor[:-1] * suffix[1:] % others
    # the balanced constants, P/p_i mod e for the digits and -(P mod e) for
    # the wrap count
    basis = (np.vstack((cofactor, -prefix[-1])) + others // 2) % others - others // 2
    basis = np.ascontiguousarray(basis.T, dtype=np.float64)
    fraction = ((1 << s) // ladder).astype(np.float64)  # floor(2**s / p_i)
    # one column per prime, broadcast along the chunk
    inv, lp, ep = (np.array(column, dtype=np.float64)[:, None] for column in (inv, ladder, others))
    linv, einv = 1.0 / lp, 1.0 / ep
    digits = np.empty((size + 1, width))  # y, then alpha in the last row
    # the digits' and the extended residues' values before they are reduced
    raw = np.empty((max(size, len(others)), width))
    one, half = 2.0**s, 2.0 ** (s - 1)
    # |x|/P < 1/4 and a truncation below 2**(s-4) keep the fractional part
    # of the wrap sum plus a half strictly inside (3 * 2**(s-4), 13 * 2**(s-4))
    low, high = 3 * 2.0 ** (s - 4), 13 * 2.0 ** (s - 4)

    def extend(chunk):
        m = chunk.shape[1]
        y = digits[:, :m]
        np.multiply(chunk[:size], inv, out=raw[:size, :m])
        _reduce(raw[:size, :m], lp, linv, y[:size])
        t = fraction @ y[:size] + half
        np.floor(t * (1.0 / one), out=y[size])
        t -= y[size] * one
        if ((t <= low) | (t >= high)).any():
            raise LadderInvariantError(
                "an operand entry lies outside the bound its moduli were sized for"
            )
        z = raw[:len(others), :m]
        np.matmul(basis, y, out=z)
        _reduce(z, ep, einv, chunk[size:])

    return extend


def _contract(x, y, w, p, inv):
    """Per prime, an integer congruent to sum_g w_g (row g of x * y) mod p.

    x, y are (primes, g * n) residues of modulus at most (p+3)/2
    (:func:`_reduce`) in g rows of n entries, and w the g row weights.
    Each row of n products sums to at most n ((p+3)/2)**2, within 2**53
    by the prime limit (m >= n), one reduction leaves every row sum
    within (p+3)/2, and only then are they weighted, so the weighted sum
    stays within max(w) g (p+3)/2.
    """
    g = len(w)
    rows = np.einsum("igc,igc->ig", x.reshape(len(x), g, -1), y.reshape(len(y), g, -1))
    return _reduce(rows, p, inv) @ w


def _crt_basis(primes):
    """Per prime p_i, (p_0 p_1 ... p_(i-1))**-1 mod p_i: Garner's constants.

    They serve every prefix of ``primes`` at once (:func:`_crt`).
    """
    inverses, modulus = [], 1
    for p in primes:
        inverses.append(pow(modulus, -1, p))
        modulus *= p
    return inverses


def _crt(rows, primes, basis):
    """Per row of residues modulo a prefix of ``primes``, the integer in
    (-Q/2, Q/2] congruent to each, Q the product of that prefix.

    A row's length is its prefix's.  Garner's mixed-radix recurrence
    x += Q_i ((r_i - x) Q_i**-1 mod p_i), Q_i = p_0 ... p_(i-1), keeps x
    in [0, Q_(i+1)); ``basis`` is _crt_basis(primes), built once for all
    rows and prefixes.
    """
    out = []
    for residues in rows:
        total, modulus = 0, 1
        for r, p, inverse in zip(residues, primes, basis):
            total += modulus * ((r - total % p) * inverse % p)
            modulus *= p
        out.append(total - modulus if 2 * total > modulus else total)
    return out


def _scalar(t, q):
    """What forming M(t) subtracts, times A for odd t and I for even t."""
    return (2 - t % 2) * q ** (t // 2)


def _step(x, y, out, t, edges, c):
    """out = x @ y, less the scalar correction of index t, on stacks of n x n matrices.

    x and y hold M((t+1)//2) and M(t//2) (exact, or residues, one matrix
    per prime); the correction is c A for odd t (A's ones at ``edges``,
    flat row-major indices) and c I for even t, with c one value per
    matrix of the stack.
    """
    np.matmul(x, y, out=out)
    flat = out.reshape(len(out), -1)
    flat[:, edges if t % 2 else slice(None, None, out.shape[-1] + 1)] -= c[:, None]


def _levels(operands):
    """The levels from M(1) up to the finish operands, bottom up.

    ``operands`` is [j, j+1] or [j], sorted.  Each level is (lo, width,
    steps): it holds M(lo), ..., M(lo + width - 1) in slots 0, 1, and
    each step (slot, t, x, y) forms M(t) into ``slot`` from slots x and y
    (M((t+1)//2) and M(t//2)) of the level below.  The first level reads
    M(1) = A in slot 0, and a level with lo = 1 keeps it there; every
    other slot is formed.  The steps, in order, are the entries of
    ladder_indices(j + j') between its first and its last, j' the last
    operand.
    """
    lo, width = operands[0], len(operands)
    chain = []
    while lo > 1:
        chain.append((lo, width))
        # M(2h) and M(2h+1) read M(h) and M(h+1); M(2h) alone reads M(h)
        lo, width = lo // 2, 2 if width == 2 or lo % 2 else 1
    if width == 2:
        chain.append((1, 2))
    chain.append((1, 1))
    chain.reverse()
    return [(lo, width, [(slot, t, (t + 1) // 2 - below, t // 2 - below)
                         for slot, t in enumerate(range(lo, lo + width)) if t > 1])
            for (below, _), (lo, width) in zip(chain, chain[1:])]


def _pair_below(levels, j):
    """a of the highest level of ``levels`` that holds a pair M(a), M(a+1) with a <= j."""
    return max(lo for lo, width, _ in levels if width == 2 and lo <= j)


def _exact_levels(levels, q):
    """(exact, rest): the parts of ``levels`` formed exactly and on residues.

    Index t, from M((t+1)//2) = M(x) and M(t//2) = M(y), is formed on
    one float64 matrix while (q**x + 1)(q**y + 1) + 2 q**y < 2**53, which
    keeps every value of the product and of its correction an exact
    integer (see "Exact prefix" above).  The rule holds for the leading
    indices and fails for the rest, so a level it cuts forms its exact
    member (slot 0) in ``exact``, as a level of width 1, and the other in
    ``rest``.
    """
    def formed_exactly(t):
        # the product exceeds q**t >= 2**(t floor(log2 q)), so past 53 such
        # bits the rule fails before any power is formed; below them every
        # power has at most about 106 bits
        if t * (q.bit_length() - 1) >= 53:
            return False
        x, y = (t + 1) // 2, t // 2
        return (q**x + 1) * (q**y + 1) + 2 * q**y < _EXACT

    exact, rest = [], []
    for lo, width, steps in levels:
        take = sum(formed_exactly(t) for _, t, _, _ in steps)
        if take:
            exact.append((lo, width if take == len(steps) else take, steps[:take]))
        if take < len(steps):
            rest.append((lo, width, steps[take:]))
    return exact, rest


def _climb(cur, nxt, levels, edges, scalars, primes, references):
    """Form each of ``levels`` in turn, yielding (lo, width, cur, nxt) after each.

    cur and nxt are (2, P, n, n) buffers of two slots, each a stack of
    one exact matrix (``primes`` None, P = 1) or of residues modulo each
    of ``primes``.  cur holds the level the first one reads; any slot a
    level does not form (M(1) = A, or the exact member of a level the
    exact rule cut) is already in place in nxt.  Each level forms its
    steps into nxt (:func:`_step`, with the step's scalar, scalars[t],
    exact or reduced modulo each of ``primes``).  Exact, nxt becomes cur;
    on residues, one call reduces every slot of nxt into cur, whose level
    is dead by then.  Either way the yielded cur holds the level, in
    slots 0 to width - 1, until the next level is formed.  Every slot of
    every level is compared with ``references`` (index -> the sweep's
    matrix) when given.
    """
    if primes is not None:
        p = np.array(primes, dtype=np.float64)[:, None, None]
        inv = 1.0 / p
    # one row per step: its scalar, exact (below 2**53 by the exact rule)
    # or modulo each prime
    rows = iter(np.array([[scalars[t] % m for m in primes] if primes else [scalars[t]]
                          for _, _, steps in levels for _, t, _, _ in steps], dtype=np.float64))
    for lo, width, steps in levels:
        for slot, t, x, y in steps:
            _step(cur[x], cur[y], nxt[slot], t, edges, next(rows))
        if primes is None:
            cur, nxt = nxt, cur
        else:
            _reduce(nxt[:width], p, inv, cur[:width])
        if references is not None:
            for slot in range(width):
                _check_state(lo + slot, cur[slot], references[lo + slot], primes)
        yield lo, width, cur, nxt


def _shift(pair, steps, neighbours, q, p, inv, out, raw):
    """(M(a + steps), M(a + steps + 1)) from pair = (M(a), M(a + 1)), on residues.

    Each step is the three-term recurrence M(t+1) = A M(t) - q M(t-1),
    with A M(t) summed from the q+1 neighbour rows of each row
    (``neighbours`` as in :func:`_sweep`): O(q n**2) additions per prime
    and no product.  The stacks hold residues of modulus at most (p+3)/2
    (:func:`_reduce`, ``p`` and ``inv`` as there), so the sum stays within
    (2q + 1)(p+3)/2, and one reduction per step writes it into out[0] and
    out[1] in turn; ``out`` may be ``pair`` itself, since M(t-1) is dead
    once the sum is formed.  ``raw`` is a spare buffer of one stack's shape.
    """
    below, here = pair
    for step in range(steps):
        np.take(here, neighbours[0], axis=1, out=raw)
        for rows in neighbours[1:]:
            raw += here[:, rows]
        raw -= q * below
        below, here = here, _reduce(raw, p, inv, out[step % 2])
    return below, here


def _finish(store, operands, finishes, primes, size, weights, triangles):
    """Per finish (x, y), per prime, an integer congruent to trace(X @ Y).

    ``store`` holds int32 triangles modulo primes[:size], shaped (size,
    slots, rows of n entries): slot s holds Y(t) = M(t) - s_t J for
    t = operands[s], an operand of the top target (see :func:`_bounds`),
    and X and Y are the matrices of slots x and y.
    ``weights`` is each row's contraction weight.  Groups of rows, about
    _BLOCK_ENTRIES residues per slot with every prime's, run in turn:
    every slot's group is copied into the top rows of one buffer with a
    row per prime, reused from group to group, and one call extends them
    all into the rows below (:func:`_extender`); the residues are checked
    against ``triangles``, the sweep's padded triangles stacked like
    ``store``'s slots, when given, and contracted once per finish, from
    the slots' column slices.  Returns one float64 array of integers
    below 2**51 per finish.
    """
    p = np.array(primes, dtype=np.float64)[:, None]
    inv = 1.0 / p
    rows, count = len(weights), store.shape[1]
    n = store.shape[2] // rows
    group = max(1, _BLOCK_ENTRIES // (len(primes) * n))
    extend = _extender(primes, size, count * group * n)
    extension = np.array(primes[size:], dtype=np.int64)[:, None, None]
    buffer = np.empty((len(primes), count * group * n))
    totals = [np.zeros(len(primes)) for _ in finishes]
    for start in range(0, rows, group):
        w = weights[start:start + group]
        m = len(w) * n
        cols = slice(start * n, start * n + m)
        chunk = buffer[:, :count * m]
        slots = chunk.reshape(len(primes), count, m)
        slots[:size] = store[:, :, cols]
        extend(chunk)
        if triangles is not None:
            wrong = slots[size:] % extension != triangles[:, cols] % extension
            bad = np.argwhere(wrong.any(axis=2).T)
            if bad.size:
                raise LadderInvariantError(f"extended residue mismatch in M({operands[bad[0, 0]]}) "
                                           f"modulo {primes[size + bad[0, 1]]}")
        for total, (x, y) in zip(totals, finishes):
            total += _contract(slots[:, x], slots[:, y], w, p, inv)
    return totals


def _drive(graph, targets, counter, checked):
    """Run one ladder for every target; returns their traces, target by target.

    A target is a list of finishes on two operands M(j), M(j+1) or one,
    M(j).  Each finish is an index pair (x, y) with x - y in {0, 1} and
    gives trace(M(x + y)) = trace(M(x) M(y)) - q**y trace(M(x - y)),
    where trace(M(0)) = 2n and trace(M(1)) = trace(A) = 0, since a
    validated graph has no loops.  The ladder climbs the levels of
    :func:`_levels` up to the operands of the top target, the one with
    the largest operand.  The leading levels, as far as
    :func:`_exact_levels` allows, are formed exactly, once, and each
    prime block forms the rest from their residues; one level loop
    (:func:`_climb`) runs both, from one table of scalars.  Every other
    target attaches to the highest level that holds a pair M(a), M(a+1)
    with a <= j (every level of a top pair does), and :func:`_shift`
    takes that pair j - a steps up, in each prime block; a pair on an
    exact level is kept once and reduced in each block.  For the table's
    eps = 2^-1 .. 2^-10, whose indices about double from one to the
    next, j - a is at most 4.

    The bounds come from :func:`_bounds`, read off the highest exact
    matrix once the exact levels are formed: every entry of
    Y(t) = M(t) - s_t J is at most e(t), and the deviation
    trace M(t) - q**t - 1 at most (n - 1) e(t).  :func:`_plan` alone sizes
    the primes from them, once: the list, largest first, the ladder's
    share of it and each target's own prefix, the fewest primes whose
    product exceeds twice its own largest bound.  The ladder runs, block
    by block, on the share, so every target but the top one is contracted
    in the blocks that hold its prefix, and no block beyond them serves
    it.  So is the top one when the ladder runs on every prime; otherwise
    its operands, as Y(t) and only they, are stored, and the finish
    extends them to the other primes and contracts the top's traces
    modulo all of them.  The known part of each trace (see "Finish"
    above) and q**index + 1 come off before one CRT per deviation, over
    its own prefix.  Each rebuilt deviation must lie within its own bound.

    A run is refused with ArithmeticError in one of two places.  If even
    all primes below the limit for n could not determine the least
    deviation bound any graph can have, 2 (n - 1) q**(k/2), it is refused
    before it forms any power of q or any exact level.  Otherwise it forms
    its exact levels, which the bounds read, and is refused before any
    prime block climbs if the planned primes could not make every step
    exact or could not determine every deviation and operand entry
    (:func:`_plan` calls :func:`_certify`).  Products are counted on
    ``counter`` here alone, once per formed index, however many prime
    blocks form it, and once per finish; a shift's steps are additions
    and count nothing.  With ``checked``, every matrix the run forms,
    reduces from an exact level, shifts, extends or traces is compared
    with one sweep's.
    """
    q, n = graph.q, graph.n
    indices = [[x + y for x, y in finishes] for finishes in targets]
    k = max(map(max, indices))
    # the primes below L multiply to less than 4**L (Erdős) <= 2**(k floor(log2 q) / 2),
    # at most q**(k/2), below half any deviation bound (_bounds); and no
    # run's limit is above the one for inner dimension n
    if k * (q.bit_length() - 1) >= 4 * (_prime_limit(n) + 1):
        raise ArithmeticError("moduli do not determine a trace whose deviation is bounded by "
                              f"2 * ({n} - 1) * {q}**({k}/2)")
    operands = [sorted({t for finish in finishes for t in finish}) for finishes in targets]
    top = max(range(len(targets)), key=lambda i: operands[i][-1])
    levels = _levels(operands[top])
    exact, rest = _exact_levels(levels, q)
    built = [t for _, _, steps in levels for _, t, _, _ in steps]
    # the level each target reads, as (lo, width): the top one its own,
    # every other one the highest pair at or below its least operand
    bases = [(ops[0], len(ops)) if i == top else (_pair_below(levels, ops[0]), 2)
             for i, ops in enumerate(operands)]
    a = graph.adjacency.astype(np.float64)
    per_block = max(1, _BLOCK_ENTRIES // (n * n))
    # the operands' upper triangles, diagonal first, zero-padded to whole
    # rows of n entries: row 0 weighs 1 in a trace and the others 2
    upper = np.arange(n)
    flat = np.concatenate((upper * (n + 1), np.flatnonzero(upper[:, None] < upper)))
    width = n * ((n + 2) // 2)
    weights = np.full(width // n, 2.0)
    weights[0] = 1.0
    edges = np.flatnonzero(a)
    # neighbours[c, u] is the c-th neighbour of row u, as in _sweep
    neighbours = (edges % n).reshape(n, q + 1).T
    wanted = [1, *built, *(t for own in indices for t in own)]
    for (lo, _), ops in zip(bases, operands):
        wanted += range(lo, ops[0] + len(ops))
    references = _references(graph, wanted) if checked else None
    scalars = {t: _scalar(t, q) for t in built}
    attached = {}
    for i, base in enumerate(bases):
        attached.setdefault(base, []).append(i)
    # two buffers of two slots, M(1) = A in slot 0 of both; the exact
    # levels some target reads are kept, M(1) alone as a level of width 1
    state = np.empty((2, 2, 1, n, n))
    state[:, 0, 0] = a
    kept, cur, other = {}, state[0], state[1]
    climb = _climb(cur, other, exact, edges, scalars, None, references)
    for lo, filled, cur, other in chain([(1, 1, cur, other)], climb):
        for i in attached.get((lo, filled), ()):
            kept[i] = cur[:filled, 0].copy()
    # the primes are sized from the highest exact matrix, the climb's last
    bounds = _bounds(n, q, lo + filled - 1, cur[filled - 1, 0])
    primes, size, prefixes = _plan(n, bounds, indices, operands, top, len(built), per_block)
    # only the top target's prefix can pass the ladder's primes
    stored = operands[top] if size < len(primes) else []
    store = np.zeros((size, len(stored), width), dtype=np.int32)
    # a prime block starts from the residues of the last whole exact level
    # and, where the rule cut the next one, of its exact member, which
    # waits in the other buffer; held lists the slots each state fills
    held = [1, 1] + [filled for _, filled, _ in exact]
    starts = [(cur, held[-1])]
    if rest and exact and rest[0][0] == exact[-1][0]:
        starts = [(other, held[-2]), (cur, held[-1])]
    # s_t = (q**t + 1) // n for every operand index t, and its residues:
    # the run stores and contracts Y(t) = M(t) - s_t J (see _bounds)
    offsets = {t: (q**t + 1) // n for ops in operands for t in ops}
    residues = {t: np.array([s % p for p in primes], dtype=np.float64)[:, None]
                for t, s in offsets.items()}
    buffers = np.empty((2, 2 * per_block * n * n))
    moving, raw = np.empty((2, per_block, n, n)), np.empty((per_block, n, n))
    triangle = np.zeros((2, per_block, width))
    sums = [[np.zeros(prefixes[i]) for _ in finishes] for i, finishes in enumerate(targets)]

    def serve(i, pair, start, block, p, inv):
        """Store or contract target i's operands, read off ``pair``, the
        residues of its base level modulo ``block`` (None: a kept level)."""
        count = min(len(block), prefixes[i] - start)
        if count <= 0:
            return
        block, p, inv = block[:count], p[:count], inv[:count]
        lo, j = bases[i][0], operands[i][0]
        if pair is None:
            pair = _reduce(kept[i][:, None], p, inv, moving[:len(kept[i]), :count])
        else:
            pair = pair[:, :count]
        if j > lo:
            pair = _shift(pair, j - lo, neighbours, q, p, inv, moving[:, :count], raw[:count])
        members = pair[:len(operands[i])]
        if references is not None and (j > lo or i in kept):
            for slot, member in enumerate(members):
                _check_state(j + slot, member, references[j + slot], block)
        p, inv = p[:, :, 0], inv[:, :, 0]
        for slot, member in enumerate(members):
            taken = np.take(member.reshape(count, -1), flat, axis=1)
            taken -= residues[j + slot][start:start + count]
            _reduce(taken, p, inv, triangle[slot, :count, :len(flat)])
        if i == top and stored:
            store[start:start + count] = triangle[:len(stored), :count].transpose(1, 0, 2)
        else:
            for total, (x, y) in zip(sums[i], targets[i]):
                total[start:start + count] = _contract(
                    triangle[x - j, :count], triangle[y - j, :count], weights, p, inv)

    for start in range(0, size, per_block):
        block = primes[start:start + per_block]
        p = np.array(block, dtype=np.float64)[:, None, None]
        inv = 1.0 / p
        for i in kept:
            serve(i, None, start, block, p, inv)
        here, there = (b[:2 * len(block) * n * n].reshape(2, len(block), n, n) for b in buffers)
        if rest:
            for (source, filled), target in zip(starts, (here, there)):
                _reduce(source[:filled], p, inv, target[:filled])
        for lo, filled, level, _ in _climb(here, there, rest, edges, scalars, block, references):
            for i in attached.get((lo, filled), ()):
                serve(i, level[:filled], start, block, p, inv)
    for _ in [*built, *(finish for finishes in targets for finish in finishes)]:
        counter.bump()
    if stored:
        triangles = None if references is None else np.array(
            [np.pad(references[t].astype(object).ravel()[flat] - offsets[t], (0, width - len(flat)))
             for t in stored])
        finishes = [(x - stored[0], y - stored[0]) for x, y in targets[top]]
        sums[top] = _finish(store, stored, finishes, primes, size, weights, triangles)
    rows = []
    for finishes, totals in zip(targets, sums):
        for (x, y), total in zip(finishes, totals):
            # trace(M(x) M(y)) = trace(Y(x) Y(y)) + s_y n (q**x + 1)
            # + s_x n (q**y + 1) - s_x s_y n**2, less the finish's scalar
            # correction, less q**(x+y) + 1: the deviation at x + y
            sx, sy = offsets[x], offsets[y]
            fix = (sy * n * (q**x + 1) + sx * n * (q**y + 1) - sx * sy * n * n
                   - (n * _scalar(2 * x, q) if x == y else 0) - q ** (x + y) - 1)
            rows.append([(int(t) + fix % p) % p for t, p in zip(total.tolist(), primes)])
    deviations = iter(_crt(rows, primes, _crt_basis(primes)))
    out = []
    for own in indices:
        out.append([])
        for index in own:
            deviation = next(deviations)
            limit = bounds(index)[1]
            if abs(deviation) > limit:
                raise LadderInvariantError(
                    f"deviation {deviation} at index {index} exceeds its bound {limit}")
            trace = deviation + q**index + 1
            expect = trace if references is None else _exact_trace(references[index])
            if trace != expect:
                raise LadderInvariantError(f"final trace {trace} at index {index}, expected {expect}")
            out[-1].append(trace)
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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:  # M(1) = A; no step
        return int(graph.adjacency.trace())
    [[trace]] = _drive(graph, [[((k + 1) // 2, k // 2)]], counter, checked)
    return trace


def _run_ladder_pairs(graph, ks, counter, checked=False):
    """[trace_k, trace_k+2] for each even k >= 2 of ``ks``, from shared ladders.

    With j = k/2, the schedule for the odd index k+1 = 2j+1 forms the
    half pair M(j), M(j+1) for its last step.  Instead of that step, two
    trace finishes square them: M(2j) = M(j)**2 - 2 q**j I and
    M(2j+2) = M(j+1)**2 - 2 q**(j+1) I.  One ladder climbs to the largest
    k's pair, and a smaller k reads its own pair off that ladder's levels
    (see :func:`_drive`), j - a three-term steps above the level M(a),
    M(a+1), while j - a is below len(ladder_indices(k + 1)), the products
    a ladder of its own would count: a step costs about as much as a
    product at small n and less at large n.  The table's ks, whose
    j - a is at most 4, all share one ladder; a k too far above every
    level climbs its own, shared in turn by the smaller ks near it.
    Each ladder, for its largest k, K, counts len(ladder_indices(K + 1))
    products plus two finishes for each other distinct k it serves, uses
    one prime set sized for the deviation at index K+2, each deviation's
    CRT on its own prefix, and in checked mode compares every formed and shifted matrix
    and every trace with one sweep to K+2.
    """
    for k in ks:
        if k < 2 or k % 2:
            raise ValueError(f"k must be even and >= 2, got {k}")
    ladders = []
    for j in sorted({k // 2 for k in ks}, reverse=True):
        for halves in ladders:
            steps = j - _pair_below(_levels([halves[0], halves[0] + 1]), j)
            if steps < len(ladder_indices(2 * j + 1)):
                halves.append(j)
                break
        else:
            ladders.append([j])
    found = {}
    for halves in ladders:
        halves.sort()
        found.update(zip(halves, _drive(graph, [[(j, j), (j + 1, j + 1)] for j in halves],
                                        counter, checked)))
    return [found[k // 2] for k in ks]


def _run_ladder_pair(graph, k, counter, checked=False):
    """Traces of the scaled Chebyshev matrices for indices k and k+2, one ladder.

    k must be even and at least 2; the one-k case of
    :func:`_run_ladder_pairs`.  Returns [trace_k, trace_k+2] and counts
    exactly len(ladder_indices(k + 1)) products: one per formed index,
    exact or on residues, and one per finish.
    """
    [pair] = _run_ladder_pairs(graph, [k], counter, checked)
    return pair


def _references(graph, indices):
    """M(t) for each t in ``indices``, read off one sweep."""
    wanted = set(indices)
    sweep = zip(range(max(wanted) + 1), _sweep(graph.adjacency, graph.q))
    return {t: m for t, m in sweep if t in wanted}


def _check_state(index, state, expect, primes):
    """Raise unless ``state`` holds M(index) = ``expect``.

    ``state`` is a stack of one exact matrix (``primes`` None) or of its
    residues modulo each of ``primes``.
    """
    if primes is None and not np.array_equal(state.astype(np.int64), expect[None]):
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
    [pair] = _slack_pairs(graph, [k])
    return pair


def _slack_pairs(graph, ks):
    """(slack at k, slack at k+2) for each even k of ``ks``, from one ladder."""
    traces = _run_ladder_pairs(graph, ks, MultCounter())
    return [(_slack_from_trace(graph, k, trace), _slack_from_trace(graph, k + 2, trace_next))
            for k, (trace, trace_next) in zip(ks, traces)]


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
