"""Decision procedure: is the normalized nontrivial spectral radius <= 2 + eps?

The test needs only two exact slack values.  For a target accuracy eps,
pick the even index k = 2*ceil(log(4n-7) / (2*log(1+eps))); one ladder,
the one for the odd index k+1, yields the slacks at k and at k+2.  If
the slack at k or at k+2 is nonnegative, the radius is certified to be
at most 1 + (4n-7)**(1/k) <= 2 + eps.  If both are negative, the ratio
of the two slacks yields the estimate sqrt(r) + sqrt(1/r), which
converges to the radius as k grows; the verdict then compares that
estimate against 2 + eps.

The estimate can mislead when eps is large (k too small for the ratio to
have settled), so every report that carries an estimate also carries
caveat_flag=True.

A longer nonnegativity scan gives one-sided certificates: any negative
slack proves the radius exceeds 2, while an all-nonnegative prefix is
evidence, not proof, that the graph is Ramanujan-quality.  Its two-sided
sibling checks the deviation bound |count_k - expected_k| <= 2(n-1) q**(k/2)
at every k <= k_max.  Both read the exact traces of one three-term sweep,
one step per k, and stop at the first failure.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .exact import rational_text
from .graphs import RegularGraph
from .ladder import SlackValue, _slack_pairs, chebyshev_sweep, expansion_slacks

_POWER_OF_TWO = re.compile(r"^2\^(-?\d+)$")
# the exponent of a decimal string, as Fraction reads it
_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)$")
# parse_epsilon refuses a 2^j or ...e+j string with |j| above this before it
# forms any power.  Every eps below 2**-64 is too small for any ladder, and
# every eps above 2**64 gives the least index, so no answer needs a larger j.
_MAX_EXPONENT = 10_000
# required_even_index refuses a larger t: no ladder could run at such an
# index, and below it the float guess (good to about 2**-50 relative) leaves
# the exact search a few dozen comparisons at most
_MAX_HALF_INDEX = 2**62


def parse_epsilon(value):
    """Accept eps as Fraction, float, decimal string, fraction string, or '2^-j'."""
    if isinstance(value, Fraction):
        eps = value
    elif isinstance(value, int):
        eps = Fraction(value)
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"epsilon must be a finite number, got {value}")
        eps = Fraction(value)
    elif isinstance(value, str):
        text = value.strip()
        power = _POWER_OF_TWO.match(text)
        exponent = power or _DECIMAL_EXPONENT.search(text)
        if exponent:
            digits = exponent.group(1).lstrip("+-").replace("_", "").lstrip("0")
            if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or "0") > _MAX_EXPONENT:
                raise ValueError(
                    f"epsilon's exponent is out of range: 2^j and e+j take |j| <= {_MAX_EXPONENT}"
                )
        if power:
            eps = Fraction(2) ** int(power.group(1))
        else:
            try:
                eps = Fraction(text)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"cannot parse epsilon: {value!r}") from None
    else:
        raise TypeError(f"cannot parse epsilon from {type(value).__name__}")
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {rational_text(eps)}")
    return eps


def _truncate(lo, hi, shift, bits):
    # drop low bits from both bounds: lo rounds down, hi rounds up
    d = max(0, hi.bit_length() - bits)
    return lo >> d, -(-hi >> d), shift + d


def _power_bounds(x, e, bits):
    """(lo, hi, s) with lo * 2**s <= x**e <= hi * 2**s, for integers x >= 1, e >= 0.

    Square-and-multiply on lower and upper bounds kept to about ``bits``
    bits; once ``bits`` covers x**e, lo == hi == x**e and s == 0.
    """
    lo = hi = 1
    shift = 0
    base_lo = base_hi = x
    base_shift = 0
    while True:
        if e & 1:
            lo, hi, shift = _truncate(lo * base_lo, hi * base_hi, shift + base_shift, bits)
        e >>= 1
        if not e:
            return lo, hi, shift
        base_lo, base_hi, base_shift = _truncate(
            base_lo * base_lo, base_hi * base_hi, 2 * base_shift, bits
        )


def _at_least(num, den, e, a):
    """Whether num**e >= a * den**e, from integer bounds on both powers.

    Bounds of 64 bits settle it unless the two sides nearly agree; each
    retry doubles the bits, and once the bits cover the powers the bounds
    are the powers themselves, so the answer is always exact.
    """
    bits = 64
    while True:
        n_lo, n_hi, n_shift = _power_bounds(num, e, bits)
        d_lo, d_hi, d_shift = _power_bounds(den, e, bits)
        low = min(n_shift, d_shift)
        if n_lo << (n_shift - low) >= a * d_hi << (d_shift - low):
            return True
        if n_hi << (n_shift - low) < a * d_lo << (d_shift - low):
            return False
        bits *= 2


def required_even_index(n, epsilon):
    """k = 2*ceil(log(4n-7) / (2*log(1+eps))), exactly.

    That is k = 2t for the least integer t >= 0 with (1+eps)**(2t) >= 4n-7.
    A float logarithm guesses t; integer comparisons of num**(2t) with
    (4n-7) * den**(2t), where 1+eps = num/den, then bracket and bisect
    to the least t that passes, so the result does not depend on rounding.
    """
    a = 4 * n - 7
    if a < 1:
        raise ValueError(f"graph too small: 4n-7 = {a} < 1")
    eps = parse_epsilon(epsilon)
    num, den = (1 + eps).numerator, (1 + eps).denominator

    def reaches(t):
        return t >= 0 and _at_least(num, den, 2 * t, a)

    try:
        rate = math.log1p(eps)
    except OverflowError:  # eps beyond the float range: t is 0 or 1
        rate = math.inf
    ratio = math.log(a) / (2 * rate) if rate > 0 else math.inf
    if ratio > _MAX_HALF_INDEX:
        raise ValueError(f"epsilon {rational_text(eps)} is too small: the index would exceed 2**63")
    guess = math.ceil(ratio)
    # gallop to a bracket, reaches(high) and not reaches(low), then bisect
    low, high, step = guess - 1, guess, 1
    while not reaches(high):
        low, high, step = high, high + step, 2 * step
    step = 1
    while reaches(low):
        low, high, step = low - step, low, 2 * step
    while high - low > 1:
        mid = (low + high) // 2
        if reaches(mid):
            high = mid
        else:
            low = mid
    return 2 * high


def slack_ratio_estimate(first, second):
    """sqrt(r) + sqrt(1/r) for r = second/first, both slacks negative.

    The ratio is exact; only the square root rounds, at 60 fractional
    bits, so the result is symmetric in its arguments and reproducible.
    """
    r = Fraction(second) / Fraction(first)
    if r <= 0:
        raise ValueError("slack ratio must be positive (both values negative)")
    a, b = r.numerator, r.denominator
    # sqrt(r) + sqrt(1/r) == (a+b)/sqrt(a*b)
    root = math.isqrt((a * b) << 120)
    return float(Fraction((a + b) << 60, root))


def _estimate_at_most(first, second, bound):
    """Exact test of (a+b)/sqrt(ab) <= bound for the slack ratio a/b."""
    r = Fraction(second) / Fraction(first)
    a, b = r.numerator, r.denominator
    return (a + b) ** 2 <= bound**2 * a * b


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one bounded-radius decision.

    estimate is present only when both slack values are negative; it then
    always comes with caveat_flag=True because a large epsilon can make
    the estimate unreliable.
    """

    epsilon: Fraction
    k: int
    k_next: int
    slack: SlackValue
    slack_next: SlackValue
    within_bound: bool
    estimate: float | None
    caveat_flag: bool


def _decide(slack, slack_next, eps):
    """Verdict and estimate from the two slack values; pure and exact."""
    if slack.sign() >= 0 or slack_next.sign() >= 0:
        return True, None, False
    first = slack.as_fraction()
    second = slack_next.as_fraction()
    estimate = slack_ratio_estimate(first, second)
    within = _estimate_at_most(first, second, 2 + eps)
    return within, estimate, True


def estimate_expansion(graph, epsilon):
    """Decide whether the normalized nontrivial spectral radius is <= 2 + eps.

    Runs one ladder, which yields the slacks at the derived even k and at
    k+2, and decides from exact sign tests; the only floating point in
    the report is the final estimate.  The one-eps case of
    :func:`estimate_expansions`.
    """
    [report] = estimate_expansions(graph, [epsilon])
    return report


def estimate_expansions(graph, epsilons):
    """[estimate_expansion(graph, e) for e in epsilons], from shared ladders.

    Every eps's k is derived first.  One ladder climbs to the largest k's
    half pair, and each smaller k reads its own pair off that ladder's
    levels, a few three-term steps above one of them, with its traces
    rebuilt from its own prefix of the one prime set.  A k too far above
    every level climbs a ladder of its own (ladder._run_ladder_pairs);
    the table's eps = 2^-1 .. 2^-10 share one.  Reports come in input
    order; equal ks share one pair.  A str or bytes ``epsilons`` is
    refused: it would be read one character at a time.
    """
    if not isinstance(graph, RegularGraph):
        raise TypeError("expected a validated RegularGraph")
    if isinstance(epsilons, (str, bytes)):
        raise TypeError("epsilons must be a collection of eps values, not one string")
    eps = [parse_epsilon(epsilon) for epsilon in epsilons]
    ks = [required_even_index(graph.n, e) for e in eps]
    reports = []
    for e, k, (slack, slack_next) in zip(eps, ks, _slack_pairs(graph, ks)):
        within, estimate, caveat = _decide(slack, slack_next, e)
        reports.append(EstimateReport(
            epsilon=e,
            k=k,
            k_next=k + 2,
            slack=slack,
            slack_next=slack_next,
            within_bound=within,
            estimate=estimate,
            caveat_flag=caveat,
        ))
    return reports


def convergent_estimates(graph, k_max):
    """Ratio estimates along even indices (j, j+2) for j = 2, 4, ..., k_max.

    Entries where either slack is nonnegative are inapplicable and carry
    None; when the radius exceeds 2, the tail of the applicable entries
    converges to it.  Returns a list of (j, estimate-or-None).
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    top = k_max + (k_max % 2)
    slacks = {s.k: s for s in expansion_slacks(graph, top + 2)}
    out = []
    for j in range(2, top + 2, 2):
        s, s2 = slacks[j], slacks[j + 2]
        if s.sign() < 0 and s2.sign() < 0:
            out.append((j, slack_ratio_estimate(s.as_fraction(), s2.as_fraction())))
        else:
            out.append((j, None))
    return out


@dataclass(frozen=True)
class ScanReport:
    """First negative slack found in 1..k_max, if any.

    A hit certifies that the normalized nontrivial spectral radius
    exceeds 2.  No hit up to a finite k_max is one-sided evidence only.
    """

    k_max: int
    first_negative_k: int | None

    @property
    def all_nonneg(self):
        return self.first_negative_k is None


def _violations(graph, k_max):
    """Yield (k, dev) for each k <= k_max whose deviation breaks its bound.

    The deviation is dev = trace M(k) - q**k - 1, and the bound
    |dev| <= 2(n-1) q**(k/2) breaks exactly when dev**2 > 4(n-1)**2 q**k,
    so no sqrt(q) is needed.  The slack at k is
    2(n-1) - dev / q**(k/2), negative exactly when a positive dev breaks
    the bound.  The traces come from one sweep, one step per k.
    """
    q = graph.q
    margin = 4 * (graph.n - 1) ** 2
    for k, trace in zip(range(1, k_max + 1), chebyshev_sweep(graph)):
        dev = trace - q**k - 1
        if dev * dev > margin * q**k:
            yield k, dev


def ramanujan_scan(graph, k_max):
    """Scan slack signs for k = 1..k_max; stop at the first negative."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return ScanReport(k_max, next((k for k, dev in _violations(graph, k_max) if dev > 0), None))


def geodesic_bounds_hold(graph, k_max):
    """Whether |count_k - expected_k| <= 2(n-1) * q**(k/2) for every k <= k_max.

    expected_k is q**k + 1, plus n(q-1) when k is even, and count_k is
    trace M(k), plus the same n(q-1) when k is even, so the deviation is
    trace M(k) - q**k - 1 at every k (:func:`_violations`).  Comparisons
    are exact.

    Holding for every k >= 1 is equivalent to the normalized nontrivial
    spectral radius being at most 2; a finite k_max only certifies the
    negative direction (any violation proves the radius exceeds 2).
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return next(_violations(graph, k_max), None) is None
