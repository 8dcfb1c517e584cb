import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap import IntMatrix, MultCounter, Quadratic, matrix_power, named_graph

from brute import count_walks, naive_edge_matrix, naive_mat_mul


def test_identity_product_counts():
    c = MultCounter()
    i3 = IntMatrix.identity(3, c)
    assert (i3 @ i3) == i3
    assert c.count == 1


def test_k33_square_has_degree_on_diagonal():
    a = IntMatrix(named_graph("utility").adjacency.astype(object))
    sq = a @ a
    for i in range(6):
        assert sq.data[i, i] == 3


def test_k33_cube_matches_walk_enumeration():
    g = named_graph("utility")
    rows = g.adjacency.tolist()
    a = IntMatrix(g.adjacency.astype(object))
    cube = a @ a @ a
    for i in range(6):
        for j in range(6):
            assert cube.data[i, j] == count_walks(rows, i, j, 3)
    # frozen from the enumeration: cross-part entries 9, same-part 0, trace 0
    assert cube.data[0, 3] == 9
    assert cube.data[0, 1] == 0
    assert cube.trace() == 0


def test_trace_basics():
    assert IntMatrix.identity(5).trace() == 5
    assert IntMatrix(named_graph("utility").adjacency.astype(object)).trace() == 0


def test_w4_trace_is_72():
    # explicit 18x18 directed edge matrix, multiplied naively
    w = naive_edge_matrix(named_graph("utility").edges())
    assert len(w) == 18
    w4 = naive_mat_mul(naive_mat_mul(w, w), naive_mat_mul(w, w))
    assert sum(w4[i][i] for i in range(18)) == 72
    # and through the counted matrix layer
    m = IntMatrix.from_rows(w)
    p = ((m @ m) @ m) @ m
    assert p.trace() == 72


def test_order_mismatch_raises():
    with pytest.raises(ValueError, match="order mismatch"):
        IntMatrix.identity(2) @ IntMatrix.identity(3)


def test_from_rows_rejects_non_integers():
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1, 0.5], [0, 1]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]])


def test_entries_are_immutable():
    m = IntMatrix.identity(2)
    with pytest.raises(ValueError):
        m.data[0, 0] = 5


_small = st.integers(min_value=-9, max_value=9)


def _mat3(draw_rows):
    return IntMatrix.from_rows(draw_rows)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(_small, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(_small, min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.lists(_small, min_size=3, max_size=3), min_size=3, max_size=3),
)
def test_mat_mul_associative_and_distributive(a, b, c):
    x, y, z = _mat3(a), _mat3(b), _mat3(c)
    assert (x @ y) @ z == x @ (y @ z)
    assert x @ IntMatrix(y.data + z.data) == IntMatrix((x @ y).data + (x @ z).data)


def test_power_counter_bound():
    a = IntMatrix(named_graph("complete(4)").adjacency.astype(object))
    for k in range(1, 65):
        c = MultCounter()
        matrix_power(a.with_counter(c), k)
        assert c.count <= 2 * (k.bit_length() - 1)


def test_big_entries_survive_the_fast_path_cutoff():
    big = 2**80
    m = IntMatrix.from_rows([[big, 1], [0, big]])
    sq = m @ m
    assert sq.data[0, 0] == big * big
    assert sq.data[0, 1] == 2 * big


def test_counter_is_thread_safe():
    c = MultCounter()
    a = IntMatrix(named_graph("utility").adjacency.astype(object)).with_counter(c)

    def work(_):
        for _ in range(25):
            _ = a @ a

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(work, range(8)))
    assert c.count == 8 * 25


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


def test_quadratic_arithmetic():
    a = Quadratic(1, 1, 2)
    b = Quadratic(1, -1, 2)
    assert a * b == Quadratic(-1, 0, 2)
    assert a + b == Quadratic(2, 0, 2)
    inv = a.inverse()
    assert (a * inv).sign() == (Quadratic(1, 0, 2)).sign()
    assert a * inv == 1
    with pytest.raises(ValueError):
        Quadratic(1, 1, 2) + Quadratic(1, 1, 3)


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
