"""Differential tests: three independent routes to the same exact traces.

The Chebyshev ladder (O(log k) products on residues modulo word-size
primes, trace-only finish, one CRT for the trace; or one ladder for k+1
finished with the two squares that give the traces at k and k+2), the
three-term sweep
(neighbour-row sums, int64 then Python ints) and trace(W**k) on the
directed edge matrix must agree on every geodesic-cycle count; where the
spectrum is integral, the slack must also equal the scalar recomputation
from the eigenvalues.
"""

import math
import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import specgap as sg
from specgap import ladder
from specgap.estimator import EstimateReport, _decide, required_even_index
from specgap.exact import MultCounter
from specgap.graphs import GraphGenerationError
from specgap.ladder import (
    _crt, _moduli, _primes_between, _reduce, _run_ladder, _run_ladder_pair, _sweep,
    chebyshev_sweep, expansion_slacks, geodesic_counts,
)
from specgap.oracle import exact_slack_from_integer_spectrum

K_MAX = 24


def random_bipartite(m, d, seed):
    """Connected d-regular bipartite graph on 2m vertices: d disjoint matchings."""
    rng = random.Random(seed)
    for _ in range(500):
        rows = [[0] * (2 * m) for _ in range(2 * m)]
        ok = True
        for _ in range(d):
            perm = list(range(m))
            rng.shuffle(perm)
            for u, v in enumerate(perm):
                if rows[u][m + v]:
                    ok = False
                rows[u][m + v] = rows[m + v][u] = 1
        if ok:
            try:
                return sg.validate(rows, source=f"bipartite(m={m}, d={d}, seed={seed})")
            except sg.GraphValidationError:
                pass
    raise GraphGenerationError(f"no connected bipartite graph (m={m}, d={d})")


@st.composite
def regular_graphs(draw):
    kind = draw(st.sampled_from(["cycle", "pairing", "bipartite"]))
    seed = draw(st.integers(0, 10_000))
    if kind == "cycle":
        return sg.named_graph(f"cycle({draw(st.integers(3, 12))})")
    if kind == "bipartite":
        m = draw(st.integers(2, 5))
        d = draw(st.integers(2, min(m, 3)))
        try:
            return random_bipartite(m, d, seed)
        except GraphGenerationError:
            assume(False)
    q = draw(st.integers(1, 3))
    n = draw(st.integers(q + 2, 10))
    assume(n * (q + 1) % 2 == 0)
    try:
        return sg.random_regular(n, q, seed)
    except GraphGenerationError:
        assume(False)


def _ladder_trace(g, k):
    count = sg.geodesic_count(g, k)
    return count - g.n * (g.q - 1) if k % 2 == 0 else count


def _sweep_traces(g, k_max):
    return list(islice(chebyshev_sweep(g), k_max))


@settings(max_examples=30, deadline=None)
@given(regular_graphs())
def test_ladder_sweep_and_edge_matrix_agree(g):
    sweep_counts = list(geodesic_counts(g, K_MAX))
    sweep_slacks = list(expansion_slacks(g, K_MAX))
    for k in range(1, K_MAX + 1):
        count = sg.geodesic_count(g, k)
        assert count == sweep_counts[k - 1] == sg.geodesic_count_trace(g, k), (g.source, k)
        assert sg.expansion_slack(g, k).value == sweep_slacks[k - 1].value, (g.source, k)


@settings(max_examples=15, deadline=None)
@given(regular_graphs(), st.integers(60, 90))
def test_ladder_and_sweep_agree_past_the_int64_switch(g, k_max):
    # q >= 2 pushes both routes onto Python ints well before k_max
    traces = _sweep_traces(g, k_max)
    for k in range(1, k_max + 1):
        assert _ladder_trace(g, k) == traces[k - 1], (g.source, k)


def _bipartite_complete(m):
    rows = [[int((u < m) != (v < m)) for v in range(2 * m)] for u in range(2 * m)]
    return sg.validate(rows, source=f"K({m},{m})")


INTEGRAL_SPECTRA = [
    ("utility", [3, 0, 0, 0, 0, -3]),
    ("cube", [3, 1, 1, 1, -1, -1, -1, -3]),
    ("petersen", [3] + [1] * 5 + [-2] * 4),
    ("complete(5)", [4] + [-1] * 4),
    ("cycle(3)", [2, -1, -1]),
    ("cycle(4)", [2, 0, 0, -2]),
    ("cycle(6)", [2, 1, 1, -1, -1, -2]),
    ("K(4,4)", [4] + [0] * 6 + [-4]),
]


@pytest.mark.parametrize("name,eigs", INTEGRAL_SPECTRA, ids=[n for n, _ in INTEGRAL_SPECTRA])
def test_slack_equals_integer_spectrum_recomputation(name, eigs):
    g = _bipartite_complete(4) if name == "K(4,4)" else sg.named_graph(name)
    sweep = list(expansion_slacks(g, K_MAX))
    for k in range(2, K_MAX + 1, 2):
        expected = exact_slack_from_integer_spectrum(g.n, g.q, eigs, k)
        assert sg.expansion_slack(g, k).as_fraction() == expected, (name, k)
        assert sweep[k - 1].as_fraction() == expected, (name, k)


# the sweep leaves int64 for Python ints before each of these k, and the
# ladder's trace there needs several primes
BOUNDARY_CASES = [("petersen", 131), ("utility", 125), ("chvatal", 83), ("complete(5)", 81)]


@pytest.mark.parametrize("name,k", BOUNDARY_CASES, ids=[n for n, _ in BOUNDARY_CASES])
def test_int64_boundary(name, k):
    g = sg.named_graph(name)
    assert len(_moduli(g.n, g.n * (g.q**k + 1))) > 1
    trace = _ladder_trace(g, k)

    dtypes = [m.dtype for m in islice(_sweep(g.adjacency.data, g.q), k + 1)]
    switch = dtypes.index(np.dtype(object))
    assert all(d == np.int64 for d in dtypes[:switch]) and set(dtypes[switch:]) == {np.dtype(object)}

    traces = _sweep_traces(g, k)
    assert trace == traces[k - 1]
    # the oracle at the ladder's k and on both sides of the sweep's switch
    for j in (switch - 1, switch, k):
        count = sg.geodesic_count_trace(g, j)
        expected = count - g.n * (g.q - 1) if j % 2 == 0 else count
        assert traces[j - 1] == expected, (name, j)
    assert _ladder_trace(g, switch) == traces[switch - 1]


# ---- the residue ladder's moduli and CRT ----


def _naive_primes(lo, hi):
    return [m for m in range(max(lo, 2), hi) if all(m % d for d in range(2, math.isqrt(m) + 1))]


@pytest.mark.parametrize("lo,hi", [(2, 3), (2, 400), (4, 5), (25, 50), (9_000, 11_000), (2**20, 2**20 + 3000)])
def test_primes_between_matches_trial_division(lo, hi):
    assert _primes_between(lo, hi) == _naive_primes(lo, hi)


@pytest.mark.parametrize("n", [3, 20, 150, 2048, 4096])
def test_moduli_are_exact_and_determine_the_trace(n):
    for q in (1, 2, 3, 7):
        for k in [1, 2, 3, *range(250, 5001, 250)]:
            bound = n * (q**k + 1)
            primes = _moduli(n, bound)
            assert primes == sorted(set(primes), reverse=True)
            # every accumulation of a step is an exact float64 integer
            assert all(n * (2 * p) ** 2 + p < 2**53 for p in primes)
            # the fewest moduli that pin down a trace in [-bound, bound]
            assert math.prod(primes) > 2 * bound >= math.prod(primes[:-1])
            # pairwise coprime, as the CRT needs
            assert all(math.gcd(p, math.prod(primes[:i])) == 1 for i, p in enumerate(primes))


def test_reduction_is_exact_at_the_accumulation_bound():
    for n in (3, 150, 4096):
        p = _moduli(n, 1)[0]
        top = n * (2 * p) ** 2 + p  # exclusive bound on what a step accumulates
        values = [0, 1, -1, p - 1, p, -p, 2 * p, top - 1, -(top - 1), top // 3, -top // 7 + 5]
        x = np.array(values, dtype=np.float64)
        assert x.tolist() == values  # exactly representable
        r = _reduce(x.copy(), p, 1.0 / p)
        for v, got in zip(values, r.tolist()):
            assert got == int(got) and -p <= got < 2 * p, (n, v, got)
            assert (v - int(got)) % p == 0, (n, v, got)


def test_crt_lifts_into_the_symmetric_range():
    primes = _moduli(20, 2**100)
    half = math.prod(primes) // 2
    for value in (0, 1, -1, 2**100, -(2**100), half, -half + 1):
        assert _crt([value % p for p in primes], primes) == value


def test_a_modulus_set_one_prime_short_raises(monkeypatch):
    g = sg.named_graph("petersen")
    honest = ladder._moduli
    assert len(honest(g.n, g.n * (g.q**131 + 1))) > 1
    monkeypatch.setattr(ladder, "_moduli", lambda n, bound: honest(n, bound)[:-1])
    with pytest.raises(ArithmeticError, match="do not determine"):
        _run_ladder(g, 131, MultCounter())
    # a modulus above the exactness limit is refused as well
    monkeypatch.setattr(ladder, "_moduli", lambda n, bound: [2**26 + 15] + honest(n, bound))
    with pytest.raises(ArithmeticError, match="too large"):
        _run_ladder(g, 131, MultCounter())


@st.composite
def multi_block_cases(draw):
    """Pairing-model graphs and k whose moduli fill more than one prime block."""
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(48, 64))
    assume(n * (q + 1) % 2 == 0)
    try:
        g = sg.random_regular(n, q, draw(st.integers(0, 10_000)))
    except GraphGenerationError:
        assume(False)
    return g, draw(st.integers(200, 260))


@settings(max_examples=8, deadline=None)
@given(multi_block_cases())
def test_ladder_spans_prime_blocks(case):
    g, k = case
    assert len(_moduli(g.n, g.n * (g.q**k + 1))) > ladder._BLOCK_ENTRIES // g.n**2
    traces = _sweep_traces(g, k)
    for j in (1, 2, 3, k - 1, k):
        counter = MultCounter()
        trace, _ = _run_ladder(g, j, counter)
        assert trace == traces[j - 1], (g.source, j)
        assert counter.count == len(sg.ladder_indices(j)) - 1


@settings(max_examples=15, deadline=None)
@given(regular_graphs(), st.integers(1, 60))
def test_one_prime_per_block_agrees_with_the_oracle(g, k):
    # blocks of one prime each, so a trace that needs several primes runs
    # several blocks
    traces = _sweep_traces(g, k)
    expected = traces[k - 1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ladder, "_BLOCK_ENTRIES", 1)
        counter = MultCounter()
        trace, _ = _run_ladder(g, k, counter, checked=True)
    assert trace == expected == _ladder_trace(g, k), (g.source, k)
    count = sg.geodesic_count_trace(g, k)
    assert expected == (count - g.n * (g.q - 1) if k % 2 == 0 else count), (g.source, k)
    assert counter.count == len(sg.ladder_indices(k)) - 1


# ---- one ladder for the pair of traces at k and k+2 ----


def _pair_traces(g, k, checked=False):
    counter = MultCounter()
    out = _run_ladder_pair(g, k, counter, checked=checked)
    assert counter.count == len(sg.ladder_indices(k + 1)), (g.source, k)
    assert [e for _, e in out] == [k // 2, k // 2 + 1]
    return [trace for trace, _ in out]


@settings(max_examples=25, deadline=None)
@given(regular_graphs(), st.integers(1, 40))
def test_pair_traces_equal_the_sweep(g, half):
    k = 2 * half
    traces = _sweep_traces(g, k + 2)
    assert _pair_traces(g, k) == [traces[k - 1], traces[k + 1]], (g.source, k)
    # k = 2: the schedule for 3 is [3, 2, 1], so the finish squares M(1) and M(2)
    assert _pair_traces(g, 2) == traces[1:4:2], g.source
    slacks = list(expansion_slacks(g, k + 2))
    pair = sg.expansion_slack_pair(g, k, checked=True)
    assert [s.value for s in pair] == [slacks[k - 1].value, slacks[k + 1].value]


@settings(max_examples=15, deadline=None)
@given(regular_graphs(), st.integers(1, 40))
def test_pair_spans_one_prime_blocks(g, half):
    k = 2 * half
    traces = _sweep_traces(g, k + 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ladder, "_BLOCK_ENTRIES", 1)
        pair = _pair_traces(g, k, checked=True)
    assert pair == [traces[k - 1], traces[k + 1]], (g.source, k)


@settings(max_examples=4, deadline=None)
@given(multi_block_cases())
def test_pair_spans_prime_blocks(case):
    g, k = case
    k -= k % 2
    assert len(_moduli(g.n, g.n * (g.q ** (k + 2) + 1))) > ladder._BLOCK_ENTRIES // g.n**2
    traces = _sweep_traces(g, k + 2)
    assert _pair_traces(g, k) == [traces[k - 1], traces[k + 1]], (g.source, k)


def _table_graphs():
    return [sg.named_graph(name) for name in ("chvatal", "petersen", "utility")] + [
        sg.random_regular(24, 2, seed=1), sg.random_regular(20, 3, seed=1)]


def test_estimate_equals_two_single_ladders():
    for g in _table_graphs():
        for i in range(1, 11):
            eps = Fraction(1, 2**i)
            k = required_even_index(g.n, eps)
            slack, slack_next = sg.expansion_slack(g, k), sg.expansion_slack(g, k + 2)
            within, estimate, caveat = _decide(slack, slack_next, eps)
            expected = EstimateReport(eps, k, k + 2, slack, slack_next, within, estimate, caveat)
            assert sg.estimate_expansion(g, eps) == expected, (g.source, i)


def test_estimate_runs_one_ladder(monkeypatch):
    counters = []

    class Recording(MultCounter):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            counters.append(self)

    monkeypatch.setattr(ladder, "MultCounter", Recording)
    for g in _table_graphs():
        for eps in ("2^-3", "2^-8"):
            counters.clear()
            k = sg.estimate_expansion(g, eps).k
            assert len(counters) == 1, (g.source, eps)
            two = len(sg.ladder_indices(k)) + len(sg.ladder_indices(k + 2)) - 2
            assert counters[0].count == len(sg.ladder_indices(k + 1)) < two, (g.source, eps)
