import math
from fractions import Fraction

import numpy as np
import pytest

import specgap as sg
from specgap.cli import main
from specgap.oracle import exact_slack_from_integer_spectrum

from brute import naive_edge_matrix


@pytest.mark.parametrize(
    "name,order,rowsum",
    [("utility", 18, 2), ("cycle(4)", 8, 1), ("chvatal", 48, 3)],
)
def test_edge_matrix_shape_and_row_sums(name, order, rowsum):
    g = sg.named_graph(name)
    w = sg.directed_edge_matrix(g)
    assert w.shape == (order, order)
    assert w.dtype == object and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 5
    for i in range(order):
        assert sum(w[i, j] for j in range(order)) == rowsum


def test_edge_matrix_matches_definition(corpus):
    for g in corpus:
        w = sg.directed_edge_matrix(g)
        naive = naive_edge_matrix(g.edges())
        assert w.tolist() == naive, g.source
        assert {type(x) for x in w.flat} == {int}, g.source


def test_edge_matrix_refuses_a_large_order():
    g = sg.named_graph("cycle(1025)")  # m = 2050 oriented edges
    with pytest.raises(ValueError, match="2050 oriented edges exceeds the oracle's limit of 1024"):
        sg.directed_edge_matrix(g)
    with pytest.raises(ValueError, match="2050 oriented edges"):
        sg.geodesic_count_trace(g, 3)
    w = sg.directed_edge_matrix(sg.named_graph("cycle(512)"))  # m = 1024, at the limit
    assert w.shape == (1024, 1024)


def test_trace_counts_on_the_4_cycle():
    g = sg.named_graph("cycle(4)")
    for k in range(1, 13):
        assert sg.geodesic_count_trace(g, k) == (8 if k % 4 == 0 else 0)


def test_trace_count_utility_4():
    assert sg.geodesic_count_trace(sg.named_graph("utility"), 4) == 72


def test_trace_count_length_one(corpus):
    for g in corpus:
        assert sg.geodesic_count_trace(g, 1) == 0


# ---- scalar recurrences ----


def test_chebyshev_base_cases():
    assert sg.chebyshev_scalar(0, 123) == 2
    assert sg.chebyshev_scalar(1, 5) == 5


def test_chebyshev_at_fixed_point():
    for k in range(101):
        assert sg.chebyshev_scalar(k, 2) == 2


def test_chebyshev_at_3_over_sqrt2():
    val = sg.chebyshev_scalar(4, 3 / math.sqrt(2))
    assert abs(val - 4.25) < 1e-12
    assert sg.chebyshev_even_from_square(4, Fraction(9, 2)) == Fraction(17, 4)


def test_chebyshev_split_identity():
    # T(k, y + 1/y) = y**k + y**(-k), exact on rationals
    y = Fraction(3, 2)
    for k in range(12):
        assert sg.chebyshev_scalar(k, y + 1 / y) == y**k + y**-k


def test_chebyshev_even_matches_general():
    x = Fraction(7, 3)
    for k in range(0, 21, 2):
        assert sg.chebyshev_even_from_square(k, x * x) == sg.chebyshev_scalar(k, x)
    for k in (-2, 1, 3, 41):
        with pytest.raises(ValueError):
            sg.chebyshev_even_from_square(k, x * x)


# ---- eigensolver ----


def test_spectrum_utility():
    vals = sg.adjacency_spectrum(sg.named_graph("utility")).values
    expected = [3, 0, 0, 0, 0, -3]
    assert all(abs(a - b) < 1e-9 for a, b in zip(vals, expected))


def test_spectrum_cube():
    vals = sg.adjacency_spectrum(sg.named_graph("cube")).values
    expected = [3, 1, 1, 1, -1, -1, -1, -3]
    assert all(abs(a - b) < 1e-9 for a, b in zip(vals, expected))


def test_spectrum_chvatal_contains_quadratic_pair():
    vals = sg.adjacency_spectrum(sg.named_graph("chvatal")).values
    hi = (-1 + math.sqrt(17)) / 2
    lo = (-1 - math.sqrt(17)) / 2
    assert min(abs(v - hi) for v in vals) < 1e-8
    assert min(abs(v - lo) for v in vals) < 1e-8


def test_spectrum_invariants(corpus):
    for g in corpus:
        spec = sg.adjacency_spectrum(g)
        assert abs(spec[0] - (g.q + 1)) < 1e-9
        assert abs(sum(spec.values)) < 1e-9
        assert abs(sum(v * v for v in spec.values) - g.n * (g.q + 1)) < 1e-8


def test_spectrum_is_bit_identical_to_eigvalsh_on_the_edges(corpus):
    for g in corpus:
        a = np.zeros((g.n, g.n))
        for u, v in g.edges():
            a[u, v] = a[v, u] = 1.0
        assert sg.adjacency_spectrum(g).values == tuple(np.linalg.eigvalsh(a)[::-1].tolist())


def test_lapack_failure_is_an_eigensolver_error(monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(sg.EigensolverError):
        sg.adjacency_spectrum(sg.named_graph("utility"))
    assert main(["oracle", "--name", "utility"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


# ---- spectral summary ----


def test_summary_utility():
    s = sg.spectral_summary(sg.named_graph("utility"))
    assert abs(s.mu - 3 * math.sqrt(2) / 2) < 1e-9
    assert abs(s.mu - 2.121320343) < 1e-8
    assert abs(s.spectral_gap - 0.0) < 1e-9
    # bipartite: the -3 eigenvalue is trivial, everything else is 0
    assert s.is_ramanujan


def test_summary_chvatal():
    s = sg.spectral_summary(sg.named_graph("chvatal"))
    assert abs(s.mu - math.sqrt(3)) < 1e-9
    assert s.is_ramanujan


def test_summary_of_a_given_spectrum():
    g = sg.named_graph("petersen")
    spectrum = sg.adjacency_spectrum(g)
    assert sg.spectral_summary(g, spectrum) == sg.spectral_summary(g)
    # the summary reads the spectrum it is given
    shifted = sg.Spectrum((3.0, 2.5) + spectrum.values[2:])
    assert abs(sg.spectral_summary(g, shifted).nontrivial_radius - 2.5) < 1e-12


def test_summary_k4():
    s = sg.spectral_summary(sg.named_graph("complete(4)"))
    assert abs(s.mu - 1 / math.sqrt(2)) < 1e-9
    assert s.is_ramanujan


def test_slack_spectral_examples():
    u = sg.named_graph("utility")
    assert abs(sg.expansion_slack_spectral(u, 4) - (-2.25)) < 1e-9
    assert abs(sg.expansion_slack_spectral(u, 2) - 15.5) < 1e-9
    cube = sg.named_graph("cube")
    assert abs(sg.expansion_slack_spectral(cube, 8) - 9.5625) < 1e-9


def test_exact_slack_recomputation_matches_float_route():
    g = sg.named_graph("cube")
    eigs = [3, 1, 1, 1, -1, -1, -1, -3]
    for k in (2, 6, 10):
        exact = exact_slack_from_integer_spectrum(g.n, g.q, eigs, k)
        assert abs(float(exact) - sg.expansion_slack_spectral(g, k)) < 1e-9


# ---- count-deviation bounds ----


def test_bounds_chvatal_hold():
    assert sg.geodesic_bounds_hold(sg.named_graph("chvatal"), 20)


def test_bounds_utility_fail_at_4():
    g = sg.named_graph("utility")
    assert not sg.geodesic_bounds_hold(g, 20)
    assert sg.geodesic_bounds_hold(g, 3)  # first violation is k = 4


def test_bounds_4_cycle_degenerate_case():
    # q = 1: counts are 0 or 8 and the even bound |N - 2| <= 2(n-1) is tight
    assert sg.geodesic_bounds_hold(sg.named_graph("cycle(4)"), 20)


def test_bounds_follow_mu(corpus):
    for g in corpus:
        mu = sg.spectral_summary(g).mu
        if abs(mu - 2) < 1e-6:
            continue
        assert sg.geodesic_bounds_hold(g, 40) == (mu < 2), g.source
