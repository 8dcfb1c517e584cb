import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specgap as sg
from specgap.estimator import _decide, _estimate_at_most
from specgap.exact import Quadratic, rational_text
from specgap.ladder import SlackValue, expansion_slacks

from brute import required_even_indices


def test_parse_epsilon_forms():
    assert sg.parse_epsilon("2^-4") == Fraction(1, 16)
    assert sg.parse_epsilon("0.0625") == Fraction(1, 16)
    assert sg.parse_epsilon("1/16") == Fraction(1, 16)
    assert sg.parse_epsilon(0.0625) == Fraction(1, 16)
    assert sg.parse_epsilon(Fraction(3, 7)) == Fraction(3, 7)
    assert sg.parse_epsilon("2^0") == 1


@pytest.mark.parametrize("bad", ["abc", "0", "-0.5", "2^x", 0, -1, None])
def test_parse_epsilon_rejects(bad):
    with pytest.raises((ValueError, TypeError)):
        sg.parse_epsilon(bad)


def _exact_required_k(n, eps):
    # independent ceiling: smallest t with (1+eps)**(2t) >= 4n-7
    a = 4 * n - 7
    b2 = (1 + eps) ** 2
    t, val = 0, Fraction(1)
    while val < a:
        val *= b2
        t += 1
    return 2 * t


def test_required_index_frozen_values():
    assert sg.required_even_index(6, Fraction(1, 2)) == 8
    assert sg.required_even_index(6, Fraction(1, 16)) == 48
    assert sg.required_even_index(8, Fraction(1, 2)) == 8


def test_required_index_matches_exact_ceiling():
    for n in (6, 8, 12, 20):
        for j in range(1, 11):
            eps = Fraction(1, 2**j)
            assert sg.required_even_index(n, eps) == _exact_required_k(n, eps), (n, j)


def test_required_index_is_the_least_passing_index_down_to_2_pow_minus_14():
    # the defining inequalities, checked exactly; _exact_required_k's
    # loop would take too long at these sizes
    for n in (3, 6, 20, 150, 1000, 4096):
        a = 4 * n - 7
        for j in range(0, 15):
            eps = Fraction(1, 2**j)
            k = sg.required_even_index(n, eps)
            b2 = (1 + eps) ** 2
            assert k % 2 == 0 and k >= 2
            assert b2 ** (k // 2) >= a > b2 ** (k // 2 - 1), (n, j)
            assert abs(k / 2 - math.log(a) / (2 * math.log1p(eps))) < 1, (n, j)


@pytest.mark.parametrize("eps", [Fraction(1, 2**j) for j in range(1, 15)]
                         + [Fraction(1, 3), Fraction(1, 10), Fraction(3, 1000), Fraction(1)])
def test_required_index_equals_a_walk_up_every_index(eps):
    # dyadic eps take the power-of-two bound for 2**j; 1/3 and 1 take it
    # for the numerators 4 and 2
    ns = range(3, 301)
    assert [sg.required_even_index(n, eps) for n in ns] == required_even_indices(ns, eps)


def test_required_index_on_exact_powers_and_odd_epsilons():
    # (1+eps)**(2t) == 4n-7 exactly: 9**1 == 4*4-7 and 9**2 == 4*22-7
    assert sg.required_even_index(4, Fraction(2)) == 2
    assert sg.required_even_index(22, 2) == 4
    for n in (3, 9, 60):
        for eps in (Fraction(1, 3), Fraction(5, 7), Fraction(10, 11), 0.1, "0.01", "1e400"):
            assert sg.required_even_index(n, eps) == _exact_required_k(n, sg.parse_epsilon(eps))


def test_required_index_refuses_an_epsilon_past_any_ladder():
    with pytest.raises(ValueError, match="too small"):
        sg.required_even_index(6, "1e-30")
    with pytest.raises(ValueError, match="too small"):
        sg.required_even_index(6, Fraction(1, 10**400))


def test_too_small_renders_epsilon_past_the_int_text_limit():
    # the denominator has 5001 digits, more than str(int) renders
    with pytest.raises(ValueError, match="too small") as exc:
        sg.required_even_index(6, Fraction(1, 10**5000))
    assert rational_text(Fraction(1, 10**5000)) in str(exc.value)


def test_parse_epsilon_bounds_the_exponent():
    assert sg.parse_epsilon("2^-10000") == Fraction(1, 2**10000)
    assert sg.parse_epsilon("1e-10_000") == Fraction(1, 10**10000)
    assert sg.parse_epsilon(" 1E+0010000 ") == 10**10000
    for text in ("2^-10001", "2^10001", "1e10001", "1.5e-10001", "3e1_0001", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="epsilon's exponent is out of range"):
            sg.parse_epsilon(text)


def test_required_index_rejects_tiny_graphs():
    with pytest.raises(ValueError):
        sg.required_even_index(1, Fraction(1, 2))


# ---- the decision procedure ----


def test_estimate_utility_large_epsilon():
    rep = sg.estimate_expansion(sg.named_graph("utility"), "2^-1")
    assert rep.k == 8 and rep.k_next == 10
    assert rep.within_bound is True
    assert rep.caveat_flag is True
    assert abs(rep.estimate - 2.000001238) < 1e-6


def test_estimate_utility_small_epsilon():
    rep = sg.estimate_expansion(sg.named_graph("utility"), "2^-4")
    assert rep.within_bound is False
    assert abs(rep.estimate - 2.121320196) < 1e-6


def test_estimate_cube_nonnegative_slack_branch():
    rep = sg.estimate_expansion(sg.named_graph("cube"), "2^-1")
    assert rep.within_bound is True
    assert rep.estimate is None
    assert rep.caveat_flag is False
    assert rep.slack.as_fraction() == Fraction(153, 16)


@pytest.mark.parametrize("name,eps,k", [("utility", 2, 4), ("cube", 1, 6)])
def test_a_nonnegative_slack_at_k_plus_2_alone_certifies(name, eps, k):
    rep = sg.estimate_expansion(sg.named_graph(name), eps)
    assert rep.k == k
    assert rep.slack.sign() < 0 <= rep.slack_next.sign()
    assert rep.within_bound is True
    assert rep.estimate is None
    assert rep.caveat_flag is False


def test_estimate_chvatal_always_true():
    g = sg.named_graph("chvatal")
    for j in (1, 5, 10):
        rep = sg.estimate_expansion(g, f"2^-{j}")
        assert rep.within_bound is True and rep.estimate is None


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_epsilon_is_refused_by_name(bad):
    g = sg.named_graph("utility")
    with pytest.raises(ValueError, match="^epsilon must be a finite number"):
        sg.parse_epsilon(bad)
    with pytest.raises(ValueError, match="^epsilon must be a finite number"):
        sg.estimate_expansion(g, bad)


def test_estimate_epsilon_validation():
    g = sg.named_graph("utility")
    with pytest.raises(ValueError):
        sg.estimate_expansion(g, "-0.5")
    with pytest.raises(ValueError):
        sg.estimate_expansion(g, 0)


@pytest.mark.parametrize("epsilons", ["25", b"25"])
def test_estimates_refuse_one_string_of_epsilons(epsilons):
    # a string is not read as its characters, eps = 2 and eps = 5
    g = sg.named_graph("petersen")
    with pytest.raises(TypeError, match="collection of eps values"):
        sg.estimate_expansions(g, epsilons)
    assert sg.estimate_expansions(g, ["25"]) == [sg.estimate_expansion(g, "25")]


def test_reports_are_deterministic():
    g = sg.named_graph("cube")
    a = sg.estimate_expansion(g, "2^-3")
    b = sg.estimate_expansion(g, "2^-3")
    assert a == b


def test_report_repr_has_no_length_limit():
    # at k = 36774 the slack's rational has about 11,000 digits
    report = sg.estimate_expansion(sg.random_regular(24, 2, seed=1), "2^-13")
    text = repr(report)
    assert text.startswith("EstimateReport(") and "k=36774" in text
    assert f"value=Quadratic({rational_text(report.slack.value.rational)})" in text
    assert len(text) > 2 * 4300


def test_concurrent_runs_agree():
    from concurrent.futures import ThreadPoolExecutor

    g = sg.named_graph("utility")
    with ThreadPoolExecutor(max_workers=6) as pool:
        reports = list(pool.map(lambda _: sg.estimate_expansion(g, "2^-4"), range(12)))
    assert all(r == reports[0] for r in reports)


def test_ratio_estimate_symmetry_and_floor():
    a, b = Fraction(-141, 8), Fraction(-283, 16)
    assert sg.slack_ratio_estimate(a, b) == sg.slack_ratio_estimate(b, a)
    assert sg.slack_ratio_estimate(a, a) == 2.0


@settings(max_examples=100, deadline=None)
@given(
    st.fractions(min_value=Fraction(-10**6), max_value=Fraction(-1), max_denominator=999),
    st.fractions(min_value=Fraction(-10**6), max_value=Fraction(-1), max_denominator=999),
)
def test_ratio_estimate_at_least_two(x, y):
    est = sg.slack_ratio_estimate(x, y)
    assert est >= 2.0
    assert est == sg.slack_ratio_estimate(y, x)


def test_exact_threshold_comparison_agrees_with_floats():
    x, y = Fraction(-1000, 7), Fraction(-4000, 7)
    est = sg.slack_ratio_estimate(x, y)
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 20)):
        assert _estimate_at_most(x, y, 2 + eps) == (est <= float(2 + eps))


def test_decide_zero_slack_edge_case():
    # a zero slack takes the nonnegative branch: true, no estimate
    zero = SlackValue(8, Quadratic(0, 0, 2))
    neg = SlackValue(10, Quadratic(Fraction(-5), 0, 2))
    within, estimate, caveat = _decide(zero, neg, Fraction(1, 2))
    assert within is True and estimate is None and caveat is False


# ---- limit sequence ----


def test_limit_sequence_utility_tail():
    seq = sg.convergent_estimates(sg.named_graph("utility"), 40)
    assert seq[0] == (2, None)  # slack at 2 is positive
    values = dict(seq)
    mu = 3 * math.sqrt(2) / 2
    assert abs(values[40] - mu) < 1e-4
    # envelope shrinks: the error at 40 is far below the error at 30
    assert abs(values[40] - mu) < abs(values[30] - mu)


def test_limit_sequence_cube_tail():
    values = dict(sg.convergent_estimates(sg.named_graph("cube"), 40))
    mu = 3 * math.sqrt(2) / 2
    assert abs(values[40] - mu) < 1e-4


def test_limit_sequence_inapplicable_for_ramanujan_graphs():
    for name in ("chvatal", "complete(4)", "cycle(5)"):
        seq = sg.convergent_estimates(sg.named_graph(name), 30)
        assert all(v is None for _, v in seq), name


def test_limit_sequence_rejects_bad_kmax():
    with pytest.raises(ValueError):
        sg.convergent_estimates(sg.named_graph("cube"), 1)


# ---- sign scans ----


def test_scan_utility_first_negative_at_4():
    rep = sg.ramanujan_scan(sg.named_graph("utility"), 20)
    assert rep.first_negative_k == 4
    assert rep.all_nonneg is False


def test_scan_ramanujan_examples_stay_nonnegative():
    for name in ("chvatal", "complete(4)"):
        rep = sg.ramanujan_scan(sg.named_graph(name), 50)
        assert rep.all_nonneg, name


def test_scan_agrees_with_spectral_radius(corpus):
    for g in corpus:
        mu = sg.spectral_summary(g).mu
        if abs(mu - 2) < 1e-6:
            continue
        assert sg.ramanujan_scan(g, 50).all_nonneg == (mu < 2), g.source


# a 3-regular graph on 20 vertices (mu about 2.01) whose first broken
# deviation bound, at k = 37, is a negative deviation: its slack stays
# nonnegative there, and the first negative slack is at k = 38
_LATE_EDGES = [
    (0, 1), (0, 9), (0, 13), (1, 3), (1, 5), (2, 7), (2, 12), (2, 16), (3, 14), (3, 18),
    (4, 8), (4, 18), (4, 19), (5, 13), (5, 17), (6, 7), (6, 10), (6, 12), (7, 15), (8, 10),
    (8, 11), (9, 15), (9, 16), (10, 17), (11, 13), (11, 14), (12, 18), (14, 16), (15, 19),
    (17, 19),
]


def test_scan_stops_at_the_first_negative_slack(corpus):
    # the scan and the bound test read one deviation test; the scan's
    # answer is the first k whose exact slack value is negative
    rows = [[0] * 20 for _ in range(20)]
    for u, v in _LATE_EDGES:
        rows[u][v] = rows[v][u] = 1
    late = sg.validate(rows, source="late")
    for g in [*corpus, late]:
        slacks = list(expansion_slacks(g, 60))
        for k_max in (1, 2, 5, 20, 37, 38, 60):
            first = next((s.k for s in slacks[:k_max] if s.sign() < 0), None)
            assert sg.ramanujan_scan(g, k_max).first_negative_k == first, (g.source, k_max)
    assert sg.geodesic_bounds_hold(late, 36) and not sg.geodesic_bounds_hold(late, 37)
    assert sg.ramanujan_scan(late, 37).all_nonneg
    assert sg.ramanujan_scan(late, 60).first_negative_k == 38


def test_scan_rejects_bad_kmax():
    with pytest.raises(ValueError):
        sg.ramanujan_scan(sg.named_graph("cube"), 0)


def test_soundness_of_true_verdicts(corpus):
    # whenever the nonnegative-slack branch fires at even k, the radius
    # is at most 1 + (4n-7)**(1/k), which is at most 2 + eps
    for g in corpus:
        mu = sg.spectral_summary(g).mu
        for j in range(1, 11):
            eps = Fraction(1, 2**j)
            rep = sg.estimate_expansion(g, eps)
            if rep.estimate is None:  # nonnegative branch
                k = rep.k if rep.slack.sign() >= 0 else rep.k_next
                bound = 1 + (4 * g.n - 7) ** (1 / k)
                assert bound <= float(2 + eps) + 1e-12
                assert mu <= bound + 1e-9, (g.source, j)
