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
evidence, not proof, that the graph is Ramanujan-quality.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from mpmath import mp

from .graphs import RegularGraph
from .ladder import SlackValue, expansion_slack_pair, expansion_slacks

_POWER_OF_TWO = re.compile(r"^2\^(-?\d+)$")


def parse_epsilon(value):
    """Accept eps as Fraction, float, decimal string, fraction string, or '2^-j'."""
    if isinstance(value, Fraction):
        eps = value
    elif isinstance(value, int):
        eps = Fraction(value)
    elif isinstance(value, float):
        eps = Fraction(value)
    elif isinstance(value, str):
        m = _POWER_OF_TWO.match(value.strip())
        if m:
            eps = Fraction(2) ** int(m.group(1))
        else:
            try:
                eps = Fraction(value.strip())
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"cannot parse epsilon: {value!r}") from None
    else:
        raise TypeError(f"cannot parse epsilon from {type(value).__name__}")
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    return eps


def required_even_index(n, epsilon):
    """k = 2*ceil(log(4n-7) / (2*log(1+eps))), reproducibly.

    Evaluated at 60 decimal digits; if the ratio lands within 1e-9 of an
    integer the evaluation is redone at 240 digits before taking the
    ceiling, so the result does not depend on floating-point luck.
    """
    a = 4 * n - 7
    if a < 1:
        raise ValueError(f"graph too small: 4n-7 = {a} < 1")
    eps = parse_epsilon(epsilon)
    num, den = (1 + eps).numerator, (1 + eps).denominator

    def _ratio(dps):
        with mp.workdps(dps):
            x = mp.log(a) / (2 * (mp.log(num) - mp.log(den)))
            near = abs(x - mp.nint(x)) < mp.mpf("1e-9")
            return int(mp.ceil(x)), near

    t, near_integer = _ratio(60)
    if near_integer:
        t, _ = _ratio(240)
    return 2 * t


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
    root = isqrt((a * b) << 120)
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
    the report is the final estimate.
    """
    if not isinstance(graph, RegularGraph):
        raise TypeError("expected a validated RegularGraph")
    eps = parse_epsilon(epsilon)
    k = required_even_index(graph.n, eps)
    k_next = k + 2
    slack, slack_next = expansion_slack_pair(graph, k)
    within, estimate, caveat = _decide(slack, slack_next, eps)
    return EstimateReport(
        epsilon=eps,
        k=k,
        k_next=k_next,
        slack=slack,
        slack_next=slack_next,
        within_bound=within,
        estimate=estimate,
        caveat_flag=caveat,
    )


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


def ramanujan_scan(graph, k_max):
    """Scan slack signs for k = 1..k_max; stop at the first negative."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    for slack in expansion_slacks(graph, k_max):
        if slack.sign() < 0:
            return ScanReport(k_max, slack.k)
    return ScanReport(k_max, None)
