import decimal
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import specgap as sg
from specgap import MultCounter, Quadratic, named_graph
from specgap.exact import _power_bounds, rational_text

from brute import count_walks, naive_edge_matrix, naive_mat_mul


def test_k33_square_has_degree_on_diagonal():
    a = named_graph("utility").adjacency.astype(object)
    sq = a @ a
    for i in range(6):
        assert sq[i, i] == 3


def test_k33_cube_matches_walk_enumeration():
    g = named_graph("utility")
    rows = g.adjacency.tolist()
    a = g.adjacency.astype(object)
    cube = a @ a @ a
    for i in range(6):
        for j in range(6):
            assert cube[i, j] == count_walks(rows, i, j, 3)
    # frozen from the enumeration: cross-part entries 9, same-part 0, trace 0
    assert cube[0, 3] == 9
    assert cube[0, 1] == 0
    assert cube.trace() == 0


def test_trace_basics():
    assert np.identity(5, dtype=object).trace() == 5
    assert named_graph("utility").adjacency.astype(object).trace() == 0


def test_w4_trace_is_72():
    # explicit 18x18 directed edge matrix, multiplied naively
    w = naive_edge_matrix(named_graph("utility").edges())
    assert len(w) == 18
    w4 = naive_mat_mul(naive_mat_mul(w, w), naive_mat_mul(w, w))
    assert sum(w4[i][i] for i in range(18)) == 72


def test_big_entries_survive_the_fast_path_cutoff():
    # object arrays, as the edge-matrix oracle multiplies, stay exact past int64
    big = 2**80
    m = np.array([[big, 1], [0, big]], dtype=object)
    sq = m @ m
    assert sq[0, 0] == big * big
    assert sq[0, 1] == 2 * big


def test_counter_is_thread_safe():
    c = MultCounter()

    def work():
        for _ in range(2000):
            c.bump()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work) for _ in range(8)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert c.count == 8 * 2000


# ---- quadratic numbers ----


def test_sign_zero_and_rational():
    assert Quadratic(0, 0, 2).sign() == 0
    assert Quadratic(-3, 0, 5).sign() == -1
    assert Quadratic(Fraction(1, 7), 0, 3).sign() == 1


def test_sign_mixed_terms():
    # -7 + 5*sqrt(2) > 0 because 5^2 * 2 = 50 > 49 = 7^2
    assert Quadratic(-7, 5, 2).sign() == 1
    assert Quadratic(7, -5, 2).sign() == -1
    assert Quadratic(-8, 5, 2).sign() == -1  # 64 > 50


def test_sign_perfect_square_radicand():
    assert Quadratic(-2, 1, 4).sign() == 0
    assert Quadratic(-2, 1, 5).sign() == 1
    assert Quadratic(1, -1, 1).sign() == 0


def test_decimal_rendering():
    assert str(Quadratic(0, 1, 2).decimal(10)) == "1.414213562"
    assert str(Quadratic(Fraction(57, 4)).decimal(10)) == "14.25"
    assert str(Quadratic(Fraction(-9, 4)).decimal(10)) == "-2.25"
    assert str(Quadratic(2, 0, 3).decimal(2)) == "2"
    assert str(Quadratic(Fraction(31, 2)).decimal(10)) == "15.5"


def test_decimal_strips_long_zero_runs_fast():
    # 12345/8192 is exact in 14 digits; the other 59,986 are zeros
    started = time.perf_counter()
    assert str(Quadratic(Fraction(12345, 8192)).decimal(60000)) == "1.5069580078125"
    assert time.perf_counter() - started < 0.5
    assert str(Quadratic(Fraction(3, 1000)).decimal(5000)) == "0.003"
    # zeros left of the point stay
    assert str(Quadratic(1200).decimal(4000)) == "1200"
    assert str(Quadratic(Fraction(12001, 10)).decimal(9)) == "1200.1"


def test_decimal_tie_rounds_half_even():
    assert str(Quadratic(Fraction(25, 10)).decimal(1)) == "2"
    assert str(Quadratic(Fraction(35, 10)).decimal(1)) == "4"


def test_float_conversion():
    assert Quadratic(0, 1, 2).to_float() == math.sqrt(2)
    assert float(Quadratic(Fraction(-9, 4))) == -2.25


def test_floor():
    assert Quadratic(0, 1, 2).floor() == 1
    assert Quadratic(0, 10**6, 2).floor() == 1414213
    assert Quadratic(0, -1, 2).floor() == -2
    assert Quadratic(Fraction(7, 2)).floor() == 3
    assert Quadratic(3, 0, 2).floor() == 3
    assert Quadratic(Fraction(-1, 3), Fraction(1, 2), 4).floor() == 0
    assert Quadratic(Fraction(1, 3), Fraction(-1, 2), 4).floor() == -1
    assert Quadratic(0, -1, 9).floor() == -3


# perfect squares among the radicands, both signs, any numerator size
_radicand = st.one_of(st.integers(1, 10**6), st.integers(1, 10**4).map(lambda x: x * x))


@settings(max_examples=300, deadline=None)
@given(st.fractions(max_denominator=10**9), st.fractions(max_denominator=10**9), _radicand)
def test_floor_is_the_largest_integer_at_or_below(a, b, r):
    w = Quadratic(a, b, r)
    f = w.floor()
    assert isinstance(f, int)
    assert Quadratic(a - f, b, r).sign() >= 0 > Quadratic(a - f - 1, b, r).sign()


def test_equality_of_values_in_different_forms():
    assert Quadratic(Fraction(2, 4), Fraction(6, 3), 2) == Quadratic(Fraction(1, 2), 2, 2)
    assert Quadratic(Fraction(3, 1)) == Quadratic(3)
    assert Quadratic(1, Fraction(1, 3), 5) != Quadratic(1, Fraction(1, 2), 5)
    # a perfect-square radicand: -2 + sqrt(4) is zero
    assert Quadratic(-2, 1, 4) == Quadratic(0, 0, 7)
    assert Quadratic(-2, 1, 4) == 0


def test_equality_with_int_and_fraction_operands():
    assert Quadratic(5, 0, 3) == 5
    assert 5 == Quadratic(5, 0, 3)
    assert Quadratic(Fraction(7, 2), 0, 2) == Fraction(7, 2)
    assert Fraction(7, 2) == Quadratic(Fraction(7, 2), 0, 2)
    assert Quadratic(5, 1, 3) != 5
    assert Quadratic(5, 0, 3) != Fraction(11, 2)
    assert Quadratic(5) != "5"


def test_equality_across_radicands():
    # no sqrt part: the radicand does not matter
    assert Quadratic(Fraction(3, 4), 0, 2) == Quadratic(Fraction(3, 4), 0, 3)
    # nonzero sqrt parts over different radicands never compare equal, and never raise
    assert Quadratic(1, 1, 2) != Quadratic(1, 1, 3)
    assert not Quadratic(0, 2, 2) == Quadratic(0, 1, 8)
    assert Quadratic(1, 1, 2) != Quadratic(1, 0, 3)


def test_hash_of_a_rational_value_is_its_hash():
    for x in (0, 7, -3, Fraction(5, 8), Fraction(-22, 7)):
        assert hash(Quadratic(x)) == hash(x)
        assert hash(Quadratic(x, 0, 5)) == hash(x)
    assert len({Quadratic(2), Quadratic(Fraction(4, 2), 0, 3), 2}) == 1


def test_text_and_digits_have_no_length_limit():
    # 5,071 digits, past the default limit of 4,300 on str(int)
    big = 7**6000
    num = str(decimal.Decimal(big))
    assert len(num) == 5071 and int(decimal.Decimal(num)) == big
    w = Quadratic(Fraction(big, 3), -big, 2)
    assert str(w) == f"{num}/3 - {num}*sqrt(2)"
    assert repr(w) == f"Quadratic({num}/3 + -{num}*sqrt(2))"
    assert rational_text(-big) == "-" + num
    assert rational_text(Fraction(1, big)) == "1/" + num
    ten = 10**5000
    got = Quadratic(Fraction(ten, 3), -ten, 2).decimal(12)
    assert str(got) == str(Quadratic(Fraction(1, 3), -1, 2).decimal(12).scaleb(5000))


_rat = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


@settings(max_examples=120, deadline=None)
@given(_rat, _rat, st.sampled_from([1, 2, 3, 4, 5, 7]))
def test_sign_agrees_with_50_digit_decimal(a, b, q):
    x = Quadratic(a, b, q)
    d = x.decimal(50)
    if abs(d) > 1e-40:
        assert x.sign() == (1 if d > 0 else -1)
    else:
        assert x.sign() == 0 or abs(d) <= 1e-40


# decimal(10) of every corpus slack at k = 1..24, frozen
_SLACK_DECIMALS = {
    "utility": (
        "12.12132034", "15.5", "13.18198052", "-2.25", "15.83363094", "9.875",
        "21.40209685", "-14.0625", "32.67161117", "-14.03125", "55.27693108",
        "-62.015625", "100.5207165", "-110.0078125", "191.0248603", "-254.0039062",
        "372.0414341", "-494.0019531", "734.078725", "-1022.000977", "1458.155378",
        "-2030.000488", "2906.309721", "-4094.000244",
    ),
    "cube": (
        "16.12132034", "20.5", "17.18198052", "8.25", "19.83363094", "-0.875",
        "25.40209685", "9.5625", "36.67161117", "-28.71875", "59.27693108",
        "-45.609375", "104.5207165", "-109.9296875", "195.0248603", "-252.5273438",
        "376.0414341", "-486.2949219", "738.078725", "-1017.038086", "1462.155378",
        "-2035.151855", "2910.309721", "-4073.236084",
    ),
    "chvatal": (
        "24.30940108", "33.33333333", "27.38860251", "18.66666667", "9.426594138",
        "26.81481481", "24.48046782", "26.7654321", "22.71277811", "13.25102881",
        "22.63674845", "23.44032922", "27.6040199", "21.40100594", "17.80464084",
        "18.07895138", "24.33404032", "32.73911497", "15.82059511", "14.07387085",
        "21.60878357", "34.28910453", "25.56634144", "5.334928995",
    ),
    "complete(4)": (
        "8.121320344", "10.5", "0.6966991411", "5.25", "11.83363094", "2.625",
        "2.552854442", "11.8125", "5.337087393", "0.65625", "10.44151447", "8.203125",
        "0.0006409033704", "8.0390625", "10.55752418", "0.73828125", "5.163072833",
        "11.85351562", "2.697866575", "2.481445312", "11.7901273", "5.424316406",
        "0.616942468", "10.38208008",
    ),
    "cycle(5)": (
        "10", "10", "10", "10", "0", "10", "10", "10", "10", "0", "10", "10", "10",
        "10", "0", "10", "10", "10", "10", "0", "10", "10", "10", "10",
    ),
    "petersen": (
        "20.12132034", "25.5", "21.18198052", "24.75", "2.620427509", "12.375",
        "29.40209685", "19.6875", "24.7617086", "9.09375", "4.940621635", "29.671875",
        "22.34207758", "21.3984375", "16.06098062", "1.23046875", "25.05173286",
        "27.75585938", "17.84670146", "20.13574219", "2.692933576", "17.04052734",
        "32.6286168", "17.3034668",
    ),
    "random(n=8, q=1, seed=11)": (
        "16", "16", "16", "16", "16", "16", "16", "0", "16", "16", "16", "16", "16",
        "16", "16", "0", "16", "16", "16", "16", "16", "16", "16", "0",
    ),
    "random(n=10, q=2, seed=3)": (
        "20.12132034", "25.5", "16.93933983", "12.75", "23.83363094", "21.375",
        "17.02772818", "13.6875", "25.82236877", "17.84375", "11.7465244", "13.921875",
        "16.59683498", "20.9609375", "21.29799022", "15.48046875", "20.16827665",
        "20.86523438", "16.06236169", "21.18261719", "16.74115658", "18.02880859",
        "14.68163903", "14.0456543",
    ),
    "random(n=12, q=2, seed=5)": (
        "24.12132034", "30.5", "25.18198052", "25.25", "18.99479618", "18.125",
        "17.31541757", "24.8125", "24.78423295", "24.71875", "22.55242717", "19.765625",
        "15.71337877", "26.8359375", "26.08243681", "16.55078125", "21.82046117",
        "24.43554688", "22.0041432", "20.61621094", "29.50817581", "12.36181641",
        "18.80869728", "29.40258789",
    ),
    "random(n=14, q=3, seed=2)": (
        "28.30940108", "38.66666667", "27.9245009", "25.77777778", "26.25660012",
        "21.85185185", "20.09819725", "28.34567901", "30.81838002", "28.2962963",
        "24.1277695", "27.50342936", "20.9788742", "25.99176955", "24.62460224",
        "30.02834934", "27.28088866", "26.38114109", "27.32875919", "17.449779",
        "29.66039425", "27.64797597", "24.82103176", "27.21551781",
    ),
    "random(n=9, q=3, seed=4)": (
        "18.30940108", "25.33333333", "13.30569874", "17.33333333", "14.97359952",
        "11.92592593", "17.2830006", "17.5308642", "16.79831148", "15.95061728",
        "16.63674845", "14.70781893", "13.57338652", "18.41975309", "15.73759206",
        "15.77503429", "18.86061615", "13.90479094", "14.47530016", "16.25761656",
        "16.99912132", "15.99618396", "13.22676843", "22.33261265",
    ),
    "random(n=14, q=1, seed=9)": (
        "28", "28", "28", "28", "28", "28", "28", "28", "28", "28", "28", "28", "28",
        "0", "28", "28", "28", "28", "28", "28", "28", "28", "28", "28",
    ),
}


def test_slack_decimals_are_frozen(corpus):
    for g in corpus:
        got = tuple(str(sg.expansion_slack(g, k).value.decimal(10)) for k in range(1, 25))
        assert got == _SLACK_DECIMALS[g.source], g.source


def test_power_bounds_of_a_power_of_two_are_exact():
    # x = 2**b, b = 0 being x = 1, at every bit budget: the power itself
    for b in range(41):
        for e in (0, 1, 2, 3, 7, 64, 1001, 65536, 99_999, 10**5):
            power = 1 << (b * e)
            for bits in (1, 64, 4096):
                lo, hi, shift = _power_bounds(2**b, e, bits)
                assert lo << shift == hi << shift == power, (b, e, bits)
