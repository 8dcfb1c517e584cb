"""Differential tests: three independent routes to the same exact traces.

The Chebyshev ladder (O(log k) products on residues modulo word-size
primes, trace-only finish, one CRT for the trace; or one ladder for k+1
finished with the two squares that give the traces at k and k+2), the
plain three-term sweep
(neighbour-row sums, int64 then Python ints; the reference for the
half-index traces of chebyshev_sweep) and trace(W**k) on the
directed edge matrix must agree on every geodesic-cycle count; where the
spectrum is integral, the slack must also equal the scalar recomputation
from the eigenvalues.
"""

import inspect
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
from specgap.exact import MultCounter, _power_bounds
from specgap.graphs import GraphGenerationError
from specgap.ladder import (
    LadderInvariantError, _certify, _crt, _crt_basis, _exact_trace, _extender, _extension_bits,
    _inner, _levels, _moduli, _plan, _prefix, _prime_limit, _primes_between, _reduce, _references,
    _run_ladder, _run_ladder_pairs, _scalar, _sweep, chebyshev_sweep,
    expansion_slacks,
)
from specgap.oracle import exact_slack_from_integer_spectrum

from brute import moduli_by_prime, plan_by_prime

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
    """trace M(1) .. M(k_max) off the plain three-term recurrence, not chebyshev_sweep."""
    return [_exact_trace(m) for m in islice(_sweep(g.adjacency, g.q), 1, k_max + 1)]


@settings(max_examples=30, deadline=None)
@given(regular_graphs())
def test_ladder_sweep_and_edge_matrix_agree(g):
    sweep_traces = _sweep_traces(g, K_MAX)
    sweep_slacks = list(expansion_slacks(g, K_MAX))
    for k in range(1, K_MAX + 1):
        assert _ladder_trace(g, k) == sweep_traces[k - 1], (g.source, k)
        assert sg.geodesic_count(g, k) == sg.geodesic_count_trace(g, k), (g.source, k)
        assert sg.expansion_slack(g, k).value == sweep_slacks[k - 1].value, (g.source, k)


@settings(max_examples=15, deadline=None)
@given(regular_graphs(), st.integers(60, 90))
def test_ladder_and_sweep_agree_past_the_int64_switch(g, k_max):
    # q >= 2 pushes both routes onto Python ints well before k_max
    traces = _sweep_traces(g, k_max)
    for k in range(1, k_max + 1):
        assert _ladder_trace(g, k) == traces[k - 1], (g.source, k)


def test_bounds_scan_equals_the_bound_on_edge_matrix_counts(corpus):
    # the two-sided bound |N - expected| <= 2(n-1) q**(k/2), squared, on
    # trace(W**k) counts, against the sweep-based scan at every k_max
    for g in corpus:
        n, q = g.n, g.q
        holds = []
        for k in range(1, K_MAX + 1):
            expected = q**k + 1 + (0 if k % 2 else n * (q - 1))
            dev = sg.geodesic_count_trace(g, k) - expected
            holds.append(dev * dev <= 4 * (n - 1) ** 2 * q**k)
        for k_max in range(1, K_MAX + 1):
            assert sg.geodesic_bounds_hold(g, k_max) == all(holds[:k_max]), (g.source, k_max)


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

    dtypes = [m.dtype for m in islice(_sweep(g.adjacency, g.q), k + 1)]
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
    assert _primes_between(lo, hi).tolist() == _naive_primes(lo, hi)


def test_moduli_at_one_order_share_one_window():
    # the sieve's cache is keyed on fixed-width windows, never on the bound
    _primes_between.cache_clear()
    for k in range(1, 400):
        _moduli(20, 20 * (3**k + 1))
    assert _primes_between.cache_info().currsize == 1
    assert not _primes_between(2, 400).flags.writeable


def _under_limit(m, p):
    """m (p/2 + 2)**2 + p < 2**53: exact products of inner dimension m on residues modulo p."""
    return m * (p + 4) ** 2 + 4 * p < 2**55


# so many formed indices that the cost rule never keeps a share from extending
UNCAPPED = 10**9


def _trivial_bounds(n, q):
    """Bounds as _bounds gives them, sized by the trivial eigenvalue q**t + 1."""
    return lambda t: (q**t + 1, n * (q**t + 1))


def _single_plan(n, q, k, finish, per_block, formed=UNCAPPED):
    """_plan for one target of index k with one finish, sized by q**t + 1."""
    return _plan(n, _trivial_bounds(n, q), [[k]], [sorted(set(finish))], 0, formed, per_block)


def test_a_product_equal_to_twice_the_bound_is_not_enough():
    assert _prefix([3, 2, 5, 7], 3) == 3  # 3 * 2 = 2 * 3
    assert _prefix([3, 2, 5, 7], 2) == 2 and _prefix([3, 2, 5, 7], 0) == 0
    primes = _moduli(20, 2**100)
    for size in range(1, len(primes)):
        product = math.prod(primes[:size])
        assert _prefix(primes, Fraction(product, 2)) == size + 1
        assert _prefix(primes, Fraction(product - 1, 2)) == size


def test_when_no_prefix_suffices_every_prime_is_returned_and_refused(monkeypatch):
    monkeypatch.setattr(ladder, "_prime_limit", lambda m: 50)
    below = _naive_primes(2, 51)[::-1]
    bound = math.prod(below)
    assert _prefix(below, bound) == len(below)
    primes = _moduli(10, bound)
    assert primes == below
    with pytest.raises(ArithmeticError, match="moduli do not determine a trace"):
        _certify(10, bound, primes, 1, len(primes))


def test_a_bound_met_at_a_windows_last_prime_matches_a_wider_window(monkeypatch):
    monkeypatch.setattr(ladder, "_WINDOW", 200)
    top = _prime_limit(20) + 1
    window = _primes_between(top - 200, top).tolist()[::-1]
    # only the window's last prime lifts the product above twice the bound
    bound = (math.prod(window[:-1]) + 1) // 2
    assert _prefix(window, bound) == len(window)
    narrow = _moduli(20, bound)
    monkeypatch.setattr(ladder, "_WINDOW", 2**16)
    assert narrow == _moduli(20, bound) == window
    # one prime further needs the wider window, which both reach
    monkeypatch.setattr(ladder, "_WINDOW", 200)
    deeper = _moduli(20, (math.prod(window) + 1) // 2)
    assert len(deeper) == len(window) + 1 and deeper[:-1] == window


@pytest.mark.parametrize("n", [3, 20, 150, 2048, 4096])
def test_moduli_are_exact_and_determine_the_trace(n):
    for q in (1, 2, 3, 7):
        for k in [1, 2, 3, *range(250, 5001, 250)]:
            bound = n * (q**k + 1)
            entry = q ** ((k + 1) // 2) + 1
            for per_block in (1, max(1, 2**14 // n**2)):
                primes, size, [prefix] = _single_plan(n, q, k, ((k + 1) // 2, k // 2), per_block)
                assert prefix == len(primes)
                assert primes == sorted(set(primes), reverse=True)
                # every accumulation of a step and of a contraction row (inner
                # dimension n) and of the extension's dgemm (r + 1 rows) is an
                # exact float64 integer; the primes are the largest that are
                inner = n if size == len(primes) else max(n, size + 1, 4)
                assert all(_under_limit(inner, p) for p in primes)
                assert primes == _moduli(inner, bound)
                # the fewest moduli that pin down a trace in [-bound, bound]
                assert math.prod(primes) > 2 * bound >= math.prod(primes[:-1])
                # pairwise coprime, as the CRT needs
                assert all(math.gcd(p, math.prod(primes[:i])) == 1 for i, p in enumerate(primes))
                # the ladder's prefix: the fewest primes, in whole blocks, that
                # pin down every operand entry with the extension's margin
                _certify(n, bound, primes, entry, size)
                fewest = next(i for i in range(1, len(primes) + 1)
                              if math.prod(primes[:i]) > 4 * entry)
                assert math.prod(primes[:fewest - 1]) <= 4 * entry
                assert size == len(primes) or size == -(-fewest // per_block) * per_block
                if size < len(primes):
                    s = _extension_bits(primes, size)
                    assert 2**s >= 8 * sum(primes[:size]) > 2 ** (s - 1)
                    p, e = max(primes[:size]), max(primes[size:])
                    # the wrap sum, the digits' products and the dgemm
                    assert (size + 1) * 2 ** (s - 1) <= 2**53
                    assert (p + 3) * (p - 1) // 4 <= 2**51 - 2
                    assert size * p * e + (2 * size + 4) * e < 2**55


def test_the_prime_limit_reaches_a_fixed_point_under_both_bounds(monkeypatch):
    honest, calls = ladder._moduli, []

    def spy(m, bound):
        calls.append(m)
        return honest(m, bound)

    monkeypatch.setattr(ladder, "_moduli", spy)
    cases = [(n, q, k) for n in (3, 4, 8, 24, 100, 300, 8192) for q in (2, 3, 7)
             for k in (2, 50, 500, 1534, 5000, 24472)]
    rises = set()
    for n, q, k in cases:
        calls.clear()
        per_block = max(1, 2**14 // n**2)
        primes, size, _ = _plan(n, _trivial_bounds(n, q), [[k, k + 2]], [[k // 2, k // 2 + 1]], 0,
                                UNCAPPED, per_block)
        # every prime is under the ladder's bound and, when it extends from
        # r primes, under the extension's (r + 1) and its digits' (4) too
        assert all(_under_limit(n, p) for p in primes), (n, q, k)
        if size < len(primes):
            assert all(_under_limit(size + 1, p) and _under_limit(4, p) for p in primes), (n, q, k)
        # a fixed point: the inner dimension the prefix sets is the one the
        # primes were chosen for, reached by rises only
        assert calls[-1] == _inner(n, primes, size) and calls == sorted(set(calls)), (n, q, k)
        assert calls[0] == n and _prime_limit(calls[-1]) <= _prime_limit(n)
        rises.add(len(calls) - 1)
    assert rises == {0, 1, 2, 3}


def test_wider_primes_cut_the_deep_estimates_moduli(monkeypatch):
    # (trace primes, ladder primes) of the benchmark's deep estimates and of
    # the tables' worst row, sized by the nontrivial spectrum (_bounds);
    # sized by q**t + 1 they were (58, 32), (64, 32), (10, 5), (24, 12) and
    # (293, 160), and a floored reduction needed (63, 32), (70, 35),
    # (10, 5), (26, 16) and (299, 160)
    seen = []
    honest = ladder._certify

    def spy(n, bound, primes, entry, size):
        seen.append((len(primes), size))
        return honest(n, bound, primes, entry, size)

    monkeypatch.setattr(ladder, "_certify", spy)
    for (n, q, eps), counts in zip(
        [(60, 2, "2^-8"), (100, 2, "2^-8"), (150, 2, "2^-5"), (60, 3, "2^-6"), (20, 3, "2^-10")],
        [(34, 20), (38, 19), (6, 3), (14, 8), (176, 120)],
    ):
        seen.clear()
        sg.estimate_expansion(sg.random_regular(n, q, seed=1), eps)
        assert seen == [counts], (n, q, eps)


def test_reduction_is_exact_at_the_accumulation_bound():
    for m in (3, 150, 4096):
        p = _moduli(m, 1)[0]
        assert _under_limit(m, p) and p <= _prime_limit(m) < p + 100
        # an integer floor of m (p/2 + 2)**2 + p: what a step, a contraction
        # row or the extension's dgemm accumulates stays within it
        top = (m * (p + 4) ** 2 + 4 * p) // 4
        # the reduction's own product p rint(x/p) = x - r stays exact
        assert top + (p + 3) // 2 <= 2**53
        half = (p - 1) // 2
        values = [0, 1, -1, p - 1, p, -p, 2 * p, top - 1, -(top - 1), top, -top, top // 3,
                  -top // 7 + 5]
        # next to odd multiples of p/2, where x/p rounds either way
        values += [s * (j * p + half + d) for j in (0, 1, 2**20, top // p - 1)
                   for s in (1, -1) for d in (0, 1)]
        x = np.array(values, dtype=np.float64)
        assert x.tolist() == values  # exactly representable
        r = _reduce(x.copy(), p, 1.0 / p)
        for v, got in zip(values, r.tolist()):
            assert got == int(got) and abs(got) <= (p + 3) / 2, (m, v, got)
            assert (v - int(got)) % p == 0, (m, v, got)


@pytest.mark.parametrize("name", ["cycle(5)", "petersen", "complete(5)", "complete(8)"])
def test_each_index_is_its_operands_product_less_its_scalar(name):
    # M(t) = M((t+1)//2) M(t//2) - _scalar(t, q) (A for odd t, I for even
    # t), on the sweep's exact matrices, for q = 1, 2, 3 and 7
    g = sg.named_graph(name)
    m = _references(g, range(81))
    a, eye = m[1].astype(object), np.eye(g.n, dtype=object)
    for t in range(2, 81):
        product = m[(t + 1) // 2].astype(object) @ m[t // 2].astype(object)
        assert np.array_equal(product - _scalar(t, g.q) * (a if t % 2 else eye), m[t]), (name, t)
    assert [_scalar(t, 2) for t in range(1, 7)] == [1, 4, 2, 8, 4, 16]


def _plan_cases(n, q):
    """(indices, operands, top) of one k, of one pair and of the ten-eps table at n."""
    ks = [required_even_index(n, eps) for eps in TABLE]
    cases = [([[k]], [sorted({(k + 1) // 2, k // 2})], 0) for k in (9, 10, ks[-1] + 1)]
    cases += [([[k, k + 2]], [[k // 2, k // 2 + 1]], 0) for k in (10, ks[-1])]
    cases.append(([[k, k + 2] for k in ks], [[k // 2, k // 2 + 1] for k in ks], len(ks) - 1))
    return cases


def test_every_plan_equals_the_prime_by_prime_plan():
    # the plan bisects running products; the reference multiplies prime by
    # prime, as the ladder once did, on the same sieve and limits
    for n in (3, 10, 12, 20, 24, 60, 100, 150):
        for q in (1, 2, 3):
            half = lambda t, n=n, q=q: (min(q**t + 1, 3 * math.isqrt(q**t) + 1),
                                        (n - 1) * min(q**t + 1, 3 * math.isqrt(q**t) + 1))
            for bounds in (_trivial_bounds(n, q), half):
                for indices, operands, top in _plan_cases(n, q):
                    for per_block in (1, 4):
                        for formed in (5, UNCAPPED):
                            args = (n, bounds, indices, operands, top, formed, per_block)
                            assert _plan(*args) == plan_by_prime(ladder, *args), (n, q, indices, per_block)
    # a bound whose prefix product is exactly twice it needs one prime more,
    # for the list, the share and every prefix
    n, window = 100, _moduli(100, 2**2000)
    exact = {12: Fraction(math.prod(window[:7]), 2), 42: Fraction(math.prod(window[:20]), 2),
             21: Fraction(math.prod(window[:9]), 4)}
    bounds = lambda t: (exact.get(t, 1), exact.get(t, 1))
    for per_block in (1, 4):
        args = (n, bounds, [[10, 12], [40, 42]], [[5, 6], [20, 21]], 1, UNCAPPED, per_block)
        primes, size, prefixes = _plan(*args)
        assert (primes, size, prefixes) == plan_by_prime(ladder, *args)
        assert primes == window[:21] and prefixes == [8, 21]
        assert size == -(-10 // per_block) * per_block
    for bound in (exact[12], exact[42], math.prod(window[:3]), 0, 1):
        assert _moduli(n, bound) == moduli_by_prime(ladder, n, bound)


def test_crt_lifts_into_the_symmetric_range():
    primes = _moduli(20, 2**100)
    half = math.prod(primes) // 2
    for value in (0, 1, -1, 2**100, -(2**100), half, -half + 1):
        assert _crt([[value % p for p in primes]], primes, _crt_basis(primes)) == [value]


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
    monkeypatch.setattr(ladder, "_moduli", honest)
    # a ladder prefix one prime short of the operands' entries is refused
    monkeypatch.setattr(ladder, "_certify", _short_share(ladder._certify, []))
    with pytest.raises(ArithmeticError, match="ladder moduli do not determine entries"):
        _run_ladder(g, 131, MultCounter())


def _short_share(honest, shorts):
    """_certify, handed a ladder share one prime short of the fewest primes
    above 4*entry; records (primes, share) on ``shorts``."""

    def certify(n, bound, primes, entry, size):
        shorts.append((primes, _prefix(primes, 2 * entry) - 1))
        return honest(n, bound, primes, entry, shorts[-1][1])

    return certify


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
        trace = _run_ladder(g, j, counter)
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
        trace = _run_ladder(g, k, counter, checked=True)
    assert trace == expected == _ladder_trace(g, k), (g.source, k)
    count = sg.geodesic_count_trace(g, k)
    assert expected == (count - g.n * (g.q - 1) if k % 2 == 0 else count), (g.source, k)
    assert counter.count == len(sg.ladder_indices(k)) - 1


# ---- one ladder for the pair of traces at k and k+2 ----


def _pair_traces(g, k, checked=False):
    counter = MultCounter()
    out = _run_ladder_pairs(g, [k], counter, checked)[0]
    assert counter.count == len(sg.ladder_indices(k + 1)), (g.source, k)
    return out


@settings(max_examples=25, deadline=None)
@given(regular_graphs(), st.integers(1, 40))
def test_pair_traces_equal_the_sweep(g, half):
    k = 2 * half
    traces = _sweep_traces(g, k + 2)
    assert _pair_traces(g, k) == [traces[k - 1], traces[k + 1]], (g.source, k)
    # k = 2: the schedule for 3 is [3, 2, 1], so the finish squares M(1) and M(2)
    assert _pair_traces(g, 2) == traces[1:4:2], g.source
    assert _pair_traces(g, k, checked=True) == [traces[k - 1], traces[k + 1]], (g.source, k)
    slacks = list(expansion_slacks(g, k + 2))
    pair = sg.expansion_slack_pair(g, k)
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


def _spy_bounds(monkeypatch):
    """The bounds function of each run, as :func:`ladder._bounds` returns it, in run order."""
    honest, runs = ladder._bounds, []

    def spy(*args):
        runs.append(honest(*args))
        return runs[-1]

    monkeypatch.setattr(ladder, "_bounds", spy)
    return runs


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


# ---- one ladder for many pairs: every eps of a table off the largest k's ladder ----


TABLE = [Fraction(1, 2**i) for i in range(1, 11)]
EPSILON_LISTS = {
    "table": TABLE,
    "unsorted": ["2^-7", "1/4", "2^-10", "0.5", Fraction(1, 32)],
    "duplicates": ["2^-3", "2^-6", Fraction(1, 8), "2^-6", "0.015625"],
    "single": ["2^-8"],
}


@settings(max_examples=25, deadline=None)
@given(regular_graphs(), st.sampled_from(sorted(EPSILON_LISTS)))
def test_estimates_equal_one_estimate_per_epsilon(g, shape):
    # q = 1 cycles run wholly in the exact prefix, and bipartite graphs
    # have -(q+1) in their spectrum
    epsilons = EPSILON_LISTS[shape]
    expected = [sg.estimate_expansion(g, eps) for eps in epsilons]
    assert sg.estimate_expansions(g, epsilons) == expected, (g.source, shape)


def test_no_epsilon_runs_no_ladder(monkeypatch):
    drives = []
    monkeypatch.setattr(ladder, "_drive", lambda *args: drives.append(args))
    assert sg.estimate_expansions(sg.named_graph("petersen"), []) == [] and drives == []


def test_a_table_plans_once_and_counts_each_index_and_finish_once(monkeypatch):
    counters, plans = [], []

    class Recording(MultCounter):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            counters.append(self)

    honest = ladder._plan

    def spy(*args):
        plans.append(args)
        return honest(*args)

    monkeypatch.setattr(ladder, "MultCounter", Recording)
    monkeypatch.setattr(ladder, "_plan", spy)
    for g in _table_graphs():
        counters.clear()
        plans.clear()
        ks = {report.k for report in sg.estimate_expansions(g, TABLE)}
        assert len(counters) == 1 and len(plans) == 1, g.source
        # the largest k's ladder, then two finishes for every other k; the
        # shifts' products with A count nothing
        expected = len(sg.ladder_indices(max(ks) + 1)) + 2 * (len(ks) - 1)
        assert counters[0].count == expected, g.source


def test_table_targets_sit_at_most_four_steps_above_the_ladders_levels():
    # each smaller k = 2j of the table reads its pair off the highest
    # level M(a), M(a+1) of the largest k's ladder with a <= j, j - a
    # steps up
    distances = {}
    for n in [*range(4, 200), 250, 300, 500, 1000, 2000, 5000]:
        halves = [required_even_index(n, eps) // 2 for eps in TABLE]
        top = max(halves)
        assert len(set(halves)) == len(halves), n
        for j in halves:
            if j != top:
                delta = _shift_steps(top, j)
                assert delta < len(sg.ladder_indices(2 * j + 1)), (n, j)
                distances[delta] = distances.get(delta, 0) + 1
    assert distances == {0: 1, 1: 220, 2: 1118, 3: 471, 4: 8}


def _shift_steps(top, j):
    """j - a for the highest level M(a), M(a+1) of the pair ladder for top with a <= j."""
    pairs = [lo for lo, width, _ in _levels([top, top + 1]) if width == 2]
    return j - max(lo for lo in pairs if lo <= j)


@settings(max_examples=20, deadline=None)
@given(regular_graphs(), st.lists(st.integers(1, 60), min_size=1, max_size=6), st.booleans())
def test_pairs_off_shared_ladders_equal_the_sweep(g, halves, one_prime_blocks):
    # any list of even k, duplicates included; a k shares a larger one's
    # ladder while its shift is shorter than its own schedule, and checked
    # mode reads every reference of a ladder off one sweep
    ks = [2 * half for half in halves]
    traces = _sweep_traces(g, max(ks) + 2)
    sweeps, drives = [], []
    with pytest.MonkeyPatch.context() as mp:
        if one_prime_blocks:
            mp.setattr(ladder, "_BLOCK_ENTRIES", 1)
        honest, drive = ladder._sweep, ladder._drive
        mp.setattr(ladder, "_sweep", lambda *args: sweeps.append(args) or honest(*args))
        mp.setattr(ladder, "_drive", lambda *args: drives.append(args[1]) or drive(*args))
        counter = MultCounter()
        pairs = _run_ladder_pairs(g, ks, counter, checked=True)
    assert pairs == [[traces[k - 1], traces[k + 1]] for k in ks], (g.source, ks)
    assert len(sweeps) == len(drives) and drives
    expected = 0
    served = []
    for targets in drives:
        tops = [x for (x, _), _ in targets]
        top = max(tops)
        assert all(_shift_steps(top, j) < len(sg.ladder_indices(2 * j + 1)) for j in tops), tops
        expected += len(sg.ladder_indices(2 * top + 1)) + 2 * (len(targets) - 1)
        served += tops
    assert sorted(served) == sorted({k // 2 for k in ks})
    assert counter.count == expected


def test_a_k_far_above_every_level_climbs_its_own_ladder(monkeypatch):
    # g60 at eps 2^-8 and 1/250: k = 1366 would read M(683) 333 steps
    # above the level M(350), M(351) of k = 1400's ladder, against 21
    # products of a ladder of its own, so it climbs its own
    g = sg.random_regular(60, 2, seed=1)
    ks = [required_even_index(g.n, eps) for eps in ("2^-8", "1/250")]
    assert ks == [1400, 1366]
    assert _shift_steps(700, 683) == 333 and len(sg.ladder_indices(1367)) == 21
    drives = []
    honest = ladder._drive
    monkeypatch.setattr(ladder, "_drive", lambda *args: drives.append(args[1]) or honest(*args))
    reports = sg.estimate_expansions(g, ["2^-8", "1/250"])
    assert reports == [sg.estimate_expansion(g, "2^-8"), sg.estimate_expansion(g, "1/250")]
    assert drives[:2] == [[[(700, 700), (701, 701)]], [[(683, 683), (684, 684)]]]


def test_each_trace_is_rebuilt_from_its_own_prefix(monkeypatch):
    # one descending list of primes, the largest k's; each k's two
    # deviations are rebuilt from the fewest leading primes whose product
    # exceeds twice its own deviation bound at k + 2 (_bounds)
    seen = []
    honest = ladder._crt

    def spy(rows, primes, basis):
        seen.append((rows, primes))
        return honest(rows, primes, basis)

    monkeypatch.setattr(ladder, "_crt", spy)
    runs = _spy_bounds(monkeypatch)
    for g in _table_graphs():
        seen.clear()
        runs.clear()
        ks = sorted({report.k for report in sg.estimate_expansions(g, TABLE)})
        [(rows, primes)], [bounds] = seen, runs
        assert primes == sorted(set(primes), reverse=True) and len(rows) == 2 * len(ks)
        for k, first, second in zip(ks, rows[::2], rows[1::2]):
            bound = bounds(k + 2)[1]
            fewest = next(i for i in range(1, len(primes) + 1) if math.prod(primes[:i]) > 2 * bound)
            assert len(first) == len(second) == fewest, (g.source, k)
        assert len(rows[-1]) == len(primes), g.source


def test_each_targets_prefix_is_the_fewest_primes_above_twice_its_bound(monkeypatch):
    # the plan's prefixes, one per eps of the table, read by the one
    # prefix rule off the one list of primes
    plans = _plans(monkeypatch)
    for g in _table_graphs():
        plans.clear()
        sg.estimate_expansions(g, TABLE)
        [((_, bounds, indices, *_), (primes, _, prefixes))] = plans
        assert len(prefixes) == len(indices) == len(TABLE), g.source
        for own, prefix in zip(indices, prefixes):
            bound = bounds(max(own))[1]
            assert math.prod(primes[:prefix]) > 2 * bound >= math.prod(primes[:prefix - 1]), g.source


def test_checked_mode_covers_the_shifted_operands(monkeypatch):
    # petersen's table: k = 10 reads M(5), M(6) two steps above the exact
    # level M(3), M(4), k = 1792 reads the level M(896), M(897) itself, and
    # every other smaller k reads its pair one step above a level; corrupt
    # the upper member of every shifted pair
    g = sg.named_graph("petersen")
    ks = [required_even_index(g.n, eps) for eps in TABLE]
    assert ks[0] == 10
    honest, checks, plans = ladder._check_state, [], []
    honest_plan = ladder._plan

    def recorded(index, state, expect, primes):
        checks.append((index, tuple(primes or ())))
        return honest(index, state, expect, primes)

    monkeypatch.setattr(ladder, "_check_state", recorded)
    monkeypatch.setattr(ladder, "_plan", lambda *args: plans.append(honest_plan(*args)) or plans[-1])
    runs = _spy_bounds(monkeypatch)
    truth = _run_ladder_pairs(g, ks, MultCounter(), checked=True)
    # each smaller k's shifted operands, the ones no level holds, are
    # compared modulo every prime of its prefix, once
    [(primes, _, _)], [bounds] = plans, runs
    formed = set(sg.ladder_indices(ks[-1] + 1))
    shifted = 0
    for k in ks[:-1]:
        fewest = next(i for i in range(1, len(primes) + 1)
                      if math.prod(primes[:i]) > 2 * bounds(k + 2)[1])
        for index in {k // 2, k // 2 + 1} - formed:
            compared = [p for t, block in checks if t == index for p in block]
            assert compared == primes[:fewest], (k, index)
            shifted += 1
    assert shifted == 9
    monkeypatch.undo()
    honest_shift = ladder._shift

    def corrupted(pair, steps, *args):
        shifted = honest_shift(pair, steps, *args)
        shifted[1, 0, 0, 1] += 1  # in M(j + 1)
        return shifted

    monkeypatch.setattr(ladder, "_shift", corrupted)
    with pytest.raises(LadderInvariantError, match="exceeds its bound"):
        _run_ladder_pairs(g, ks, MultCounter())
    with pytest.raises(LadderInvariantError, match="register mismatch at index 6 modulo "):
        _run_ladder_pairs(g, ks, MultCounter(), checked=True)
    monkeypatch.undo()
    assert _run_ladder_pairs(g, ks, MultCounter()) == truth


@pytest.mark.parametrize("name", ["cycle(6)", "petersen", "complete(9)"])
def test_a_shift_reduces_only_where_its_values_would_pass_the_cap(name):
    # random residues of a pair taken up by the three-term recurrence, for
    # q = 1, 2 and 7: congruent to it on integers modulo each prime, every
    # value within the cap; a table's shift of up to 4 steps never reduces
    g = sg.named_graph(name)
    a, q = g.adjacency.astype(np.float64), g.q
    primes = _moduli(g.n, 2**200)[:3]
    half = (primes[0] + 3) // 2
    cap = (2**53 - half) // (2 * q + 1)
    p = np.array(primes, dtype=np.float64)[:, None, None]
    rng = np.random.default_rng(q)
    pair = rng.integers(-half, half + 1, size=(2, len(primes), g.n, g.n)).astype(np.float64)
    for steps in (1, 2, 3, 4, 5, 12, 40):
        out, raw = np.empty_like(pair), np.empty_like(pair[0])
        got = ladder._shift(pair.copy(), steps, a, q, p, 1.0 / p, out, raw, half)
        below, here = pair.astype(np.int64).astype(object)
        adjacency = g.adjacency.astype(object)
        for _ in range(steps):
            below, here = here, adjacency @ here - q * below
        assert np.abs(got).max() <= cap, (name, steps)
        for value, expect in zip(got, (below, here)):
            assert not ((value.astype(np.int64).astype(object) - expect) % p.astype(np.int64)).any()
        if steps <= 4 and q <= 2:
            assert np.abs(got[1]).max() > half, (name, steps)


def test_only_the_top_targets_operands_are_stored(monkeypatch):
    # the table of one random q = 3, n = 21 graph runs its ladder on 111 of
    # 174 primes (185 of 298 sized by q**t + 1), sized for the deviations
    # at k = 2228 (2^-9) as well as for the top operands: only Y(2226) and
    # Y(2227) are stored and extended, every other k is contracted in the
    # prime blocks
    g = sg.random_regular(21, 3, seed=1)
    ks = [required_even_index(g.n, eps) for eps in TABLE]
    assert ks[-2:] == [2228, 4452]
    honest, stored, plans = ladder._finish, [], []
    honest_plan = ladder._plan

    def spy(store, operands, *args):
        stored.append(list(operands))
        return honest(store, operands, *args)

    def plan(*args):
        primes, size, prefixes = honest_plan(*args)
        plans.append((len(primes), size))
        return primes, size, prefixes

    monkeypatch.setattr(ladder, "_finish", spy)
    monkeypatch.setattr(ladder, "_plan", plan)
    truth = _run_ladder_pairs(g, ks, MultCounter())
    assert stored == [[2226, 2227]] and plans == [(174, 111)]
    assert _run_ladder_pairs(g, ks, MultCounter(), checked=True) == truth
    assert stored == [[2226, 2227]] * 2
    assert sg.estimate_expansions(g, TABLE) == [sg.estimate_expansion(g, eps) for eps in TABLE]


class _Planned(Exception):
    """Raised once a ladder has planned its primes, before it climbs."""


def _ladder_plans(monkeypatch, g, ks):
    """(size, prefixes) of each ladder _run_ladder_pairs plans for ks, none climbed.

    prefixes holds each target's prefix, the top target's last.
    """
    plans = []
    honest_plan, honest_drive = ladder._plan, ladder._drive

    def plan(*args):
        _, size, prefixes = honest_plan(*args)
        plans.append((size, prefixes))
        raise _Planned

    def drive(graph, targets, counter, checked):
        with pytest.raises(_Planned):
            honest_drive(graph, targets, counter, checked)
        return [[0, 0] for _ in targets]

    monkeypatch.setattr(ladder, "_plan", plan)
    monkeypatch.setattr(ladder, "_drive", drive)
    _run_ladder_pairs(g, ks, MultCounter())
    monkeypatch.undo()
    return plans


def test_every_smaller_targets_prefix_lies_inside_the_ladders_primes(monkeypatch):
    # the table and the pair 2^-11, 2^-12 at q = 1..4 and n <= 60: the
    # ladder's share covers every target's prefix but the top one's, so
    # no other target is ever stored
    for q in (1, 2, 3, 4):
        for n in range(q + 2, 61):
            if n * (q + 1) % 2:
                continue
            g = sg.random_regular(n, q, seed=1)
            for epsilons in (TABLE, ["2^-11", "2^-12"]):
                ks = [required_even_index(n, eps) for eps in epsilons]
                for size, prefixes in _ladder_plans(monkeypatch, g, ks):
                    assert max(prefixes[:-1], default=0) <= size, (n, q, epsilons[-1])


def test_a_ladder_share_one_prime_short_of_a_smaller_target_raises(monkeypatch):
    # the table of a q = 3, n = 20 graph: a share one prime short of the
    # prefix of k = 2200, 88 of the plan's 176 primes, still determines the
    # top operands' entries, at most e(2199) (_bounds), yet _certify refuses it
    # (at n = 21 the top operands need as many primes as k = 2228 does).
    # The plan reads its bounds off the exact prefix, so the run has formed
    # its exact levels, but it climbs no prime block and forms no product
    # on residues
    g = sg.random_regular(20, 3, seed=1)
    ks = [required_even_index(g.n, eps) for eps in TABLE]
    assert ks[-2:] == [2200, 4396]
    shorts, exact = [], []
    honest_climb = ladder._climb

    def climb(*args):
        arguments = inspect.signature(honest_climb).bind(*args).arguments
        if arguments["primes"] is not None:
            raise AssertionError("a refused run climbed a prime block")
        exact.append(len(arguments["levels"]))
        return honest_climb(*args)

    monkeypatch.setattr(ladder, "_certify", _short_share(ladder._certify, shorts))
    monkeypatch.setattr(ladder, "_climb", climb)
    runs = _spy_bounds(monkeypatch)
    with pytest.raises(ArithmeticError, match="ladder moduli do not determine"):
        _run_ladder_pairs(g, ks, MultCounter())
    assert exact and exact[0] > 0
    # _certify saw the one plan, and refused its share cut one prime short
    [(primes, size)] = shorts
    assert (len(primes), size) == (176, 88)
    assert math.prod(primes[:size]) > 4 * runs[-1](2199)[0]


# ---- base extension from the ladder's primes to the trace's ----


def _extension_case(n, q, t):
    """Primes for traces of index 2t at order n, and the ladder's prefix for entries of index t."""
    primes, size, _ = _single_plan(n, q, 2 * t, (t, t), 1)
    return primes, size, q**t + 1


def _extend(primes, size, values):
    """The residues modulo primes[size:] that base extension gives for ``values``.

    Each ladder residue is the representative of largest modulus within
    (p+3)/2, the most a reduction leaves (:func:`_reduce`).
    """
    extend = _extender(primes, size, len(values))
    chunk = np.zeros((len(primes), len(values)))
    for i, p in enumerate(primes[:size]):
        for j, v in enumerate(values):
            r = (v + p // 2) % p - p // 2
            chunk[i, j] = r + p if r <= -(p - 3) // 2 else r - p if r >= (p - 3) // 2 else r
    assert (np.abs(chunk[:size]) <= (np.array(primes[:size])[:, None] + 3) // 2).all()
    extend(chunk)
    extension = np.array(primes[size:], dtype=np.float64)[:, None]
    assert np.abs(chunk[size:]).max() <= (extension.max() + 3) / 2
    return (chunk[size:] % extension).astype(np.int64)


@pytest.mark.parametrize("n", [3, 150, 4096])
def test_extension_is_exact_across_the_entry_bound(n):
    rng = random.Random(n)
    for q, t in ((2, 200), (3, 90), (7, 40)):
        primes, size, bound = _extension_case(n, q, t)
        assert 1 < size < len(primes)
        values = [-bound, -bound + 1, -1, 0, 1, bound - 1, bound]
        values += [rng.randint(-bound, bound) for _ in range(40)]
        z = _extend(primes, size, values)
        for row, e in zip(z.tolist(), primes[size:]):
            assert row == [v % e for v in values], (n, q, t, e)


def _worst_signs(primes, size, e):
    """Digits at +-(p_i - 1)/2, signed like each constant P/p_i mod e, balanced;
    for an odd count, the one with the smallest constant is 0, so that
    their sum over p_i lies near an integer."""
    modulus = math.prod(primes[:size])
    constants = [(modulus // p % e + e // 2) % e - e // 2 for p in primes[:size]]
    signs = [1 if c >= 0 else -1 for c in constants]
    if size % 2:
        signs[min(range(size), key=lambda i: abs(constants[i]))] = 0
    return signs


def _from_digits(primes, size, signs):
    """x = sum_i y_i P/p_i - alpha P for the digits y_i = signs_i (p_i - 1)/2."""
    modulus = math.prod(primes[:size])
    total = sum(s * (p - 1) // 2 * (modulus // p) for s, p in zip(signs, primes[:size]))
    alpha = (2 * total + modulus) // (2 * modulus)  # the nearest integer to total / P
    x = total - alpha * modulus
    assert 4 * abs(x) < modulus
    return x, alpha


def test_extension_is_exact_at_the_wrap_sum_bound():
    # the largest ladder prefix whose wrap sum (r + 1) 2**(s-1) stays within
    # 2**53, on the largest primes whose digits balance exactly (below
    # 2**26); small extension primes keep the dgemm, r p e/4, exact there,
    # since its own bound binds long before the wrap sum's on primes of the
    # limit (see the dgemm case below)
    ladder_primes = [int(p) for p in _primes_between(2**26 - 2**18, 2**26)[::-1]]
    assert _under_limit(4, ladder_primes[0])
    low, high = 1, len(ladder_primes) - 1
    assert _extension_bits(ladder_primes, low) is not None
    assert _extension_bits(ladder_primes, high) is None
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if _extension_bits(ladder_primes, mid) is not None else (low, mid)
    size = low
    small = [4093, 4091, 4079]
    primes = ladder_primes[:size] + small
    s = _extension_bits(primes, size)
    assert (size + 1) * 2 ** (s - 1) <= 2**53
    assert _extension_bits(ladder_primes[:size + 1] + small, size + 1) is None
    assert 4 * size * primes[0] * max(small) <= 2**53
    limit = (math.prod(primes[:size]) - 1) // 4  # the largest |x| < P/4
    rng = random.Random(7)
    # every value costs size big-integer residues, so only a few
    values = [-limit, -1, 0, 1, limit, rng.randint(-limit, limit)]
    # and the worst signs: every digit at +-(p-1)/2 against the largest
    # extension prime's constants, and all digits of one sign, which puts
    # the wrap count at either extreme, about +-size/2
    signs = _worst_signs(primes, size, max(small))
    extremes = [_from_digits(primes, size, sg_) for sg_ in
                (signs, [1] * (size - size % 2), [-1] * (size - size % 2))]
    assert extremes[1][1] >= size // 2 - 1 and extremes[2][1] <= -(size // 2) + 1
    values += [x for x, _ in extremes]
    z = _extend(primes, size, values)
    for row, e in zip(z.tolist(), primes[size:]):
        assert row == [v % e for v in values]


def test_extension_is_exact_at_the_dgemm_bound():
    # the dgemm of r balanced digits and the wrap count with the balanced
    # constants sums to below r p e/4 + (r/2 + 1) e/2, which the prime
    # limit for inner dimension r + 1 keeps below 2**53; at that limit,
    # with the signs that make it largest, the extension is still exact
    for size in (3, 40, 400):
        primes = _moduli(size + 1, 2**100_000)[:size + 3]
        p, e = primes[0], primes[size]
        assert all(_under_limit(size + 1, x) for x in primes)
        # the largest prime the limit allows
        assert p == _primes_between(p, _prime_limit(size + 1) + 1)[-1]
        assert size * p * e + (2 * size + 4) * e < 2**55
        values = []
        for row in range(3):
            signs = _worst_signs(primes, size, primes[size + row])
            values += [x for x, _ in (_from_digits(primes, size, signs),
                                      _from_digits(primes, size, [-s for s in signs]))]
        for one in (1, -1):  # the wrap count at either extreme
            x, alpha = _from_digits(primes, size, [one] * (size - size % 2) + [0] * (size % 2))
            assert abs(alpha) >= size // 2 - 1
            values.append(x)
        z = _extend(primes, size, values)
        for row, e in zip(z.tolist(), primes[size:]):
            assert row == [v % e for v in values], size


def test_wrap_guard_raises_outside_the_bound():
    primes, size, _ = _extension_case(150, 2, 200)
    modulus = math.prod(primes[:size])
    for x in (modulus // 2, -(modulus // 2), 3 * modulus // 8 + 1, -(3 * modulus // 8) - 1):
        with pytest.raises(LadderInvariantError, match="outside the bound"):
            _extend(primes, size, [0, 1, x])
    # just inside |x| < P/4 the extension is still exact
    values = [0, 1, modulus // 4 - 1, -(modulus // 4) + 1]
    z = _extend(primes, size, values)
    for row, e in zip(z.tolist(), primes[size:]):
        assert row == [v % e for v in values]


def test_canonical_reduction_is_exact_at_its_bound():
    # within 2**51 - 2 the reduction leaves the balanced representative,
    # in [-(p-1)/2, (p-1)/2], as the extension's digits need
    for m in (3, 150, 4096):
        p = _moduli(m, 1)[0]
        half = (p - 1) // 2
        top = 2**51 - 2
        values = [0, 1, -1, p - 1, p, -p, 2 * p - 1, -2 * p, top, -top, top - top % p,
                  min(p * p - 1, top), min((p + 3) * (p - 1) // 4, top)]
        # multiples of p, where a plain floor(x * (1/p)) can land one low
        values += [s * j * p + d for j in range(1, 65) for s in (1, -1) for d in (-1, 0, 1)]
        # next to odd multiples of p/2, where x/p rounds either way
        values += [s * (j * p + half + d) for j in (0, 1, 2**20, top // p - 1)
                   for s in (1, -1) for d in (0, 1)]
        x = np.array(values, dtype=np.float64)
        assert x.tolist() == values
        r = _reduce(x.copy(), p, 1.0 / p)
        assert r.tolist() == [(v + half) % p - half for v in values], m


def test_contraction_is_exact_at_the_accumulation_bound():
    # rows of n products of residues of modulus up to (p+3)/2, the most a
    # reduction leaves, at the largest prime the limit allows for inner
    # dimension n; the diagonal row weighs 1 and the others 2
    rng = random.Random(5)
    for n in (3, 150, 4096):
        p = _moduli(n, 1)[0]
        top = (p + 3) // 2
        g = 3
        x = np.full((2, g * n), float(top))
        y = np.full((2, g * n), float(top))
        y[1, ::2] = -top  # mixed signs in the second prime's rows
        x[1] = [rng.choice((top, -top, top - 1, -(top - 1))) for _ in range(g * n)]
        w = np.array([1.0, 2.0, 2.0])
        primes = np.array([[p], [p]], dtype=np.float64)
        got = ladder._contract(x, y, w, primes, 1.0 / primes)
        for row in range(2):
            xs, ys = [int(v) for v in x[row]], [int(v) for v in y[row]]
            expect = sum(int(w[r]) * sum(a * b for a, b in zip(xs[r * n:(r + 1) * n], ys[r * n:(r + 1) * n]))
                         for r in range(g))
            assert got[row] == int(got[row]) and (int(got[row]) - expect) % p == 0, (n, row)


@settings(max_examples=20, deadline=None)
@given(regular_graphs(), st.integers(1, 70), st.booleans())
def test_extended_ladders_equal_the_sweep(g, k, one_prime_blocks):
    # one-prime blocks make the ladder's prefix short of the trace's set
    # whenever q > 1 and k is large enough; checked mode compares every
    # extended residue with the sweep as well
    traces = _sweep_traces(g, 2 * k + 2)
    with pytest.MonkeyPatch.context() as mp:
        if one_prime_blocks:
            mp.setattr(ladder, "_BLOCK_ENTRIES", 1)
        trace = _run_ladder(g, k, MultCounter(), checked=True)
        pair = _pair_traces(g, 2 * k, checked=True)
    assert trace == traces[k - 1], (g.source, k)
    assert pair == [traces[2 * k - 1], traces[2 * k + 1]], (g.source, k)


@pytest.mark.parametrize("name", ["utility", "cube", "petersen", "cycle(7)"])
def test_extension_sets_empty_and_not(name, monkeypatch):
    # bipartite (utility, cube), odd girth (petersen) and q = 1 (a cycle,
    # whose entries never need a second prime); blocks of one prime
    g = sg.named_graph(name)
    monkeypatch.setattr(ladder, "_BLOCK_ENTRIES", 1)
    honest, calls = ladder._extender, []

    def spy(*args):
        calls.append(1)
        return honest(*args)

    monkeypatch.setattr(ladder, "_extender", spy)
    traces = _sweep_traces(g, 124)
    extended = set()
    for k in (2, 6, 20, 60, 100, 122):
        calls.clear()
        assert _pair_traces(g, k, checked=True) == [traces[k - 1], traces[k + 1]], (name, k)
        extended.add(bool(calls))
        for j in (k - 1, k):
            assert _run_ladder(g, j, MultCounter(), checked=True) == traces[j - 1], (name, j)
    assert extended == ({False} if g.q == 1 else {False, True}), name


def _ladder_runs(monkeypatch, g, eps):
    """(blocks, extensions) one estimate runs: _climb calls with primes, _extender calls."""
    counts = {"_climb": 0, "_extender": 0}
    for name in counts:
        honest = getattr(ladder, name)

        def counted(*args, name=name, honest=honest):
            if name != "_climb" or inspect.signature(honest).bind(*args).arguments["primes"] is not None:
                counts[name] += 1
            return honest(*args)

        monkeypatch.setattr(ladder, name, counted)
    sg.estimate_expansion(g, eps)
    monkeypatch.undo()
    return counts["_climb"], counts["_extender"]


def test_extension_halves_the_deep_estimates(monkeypatch):
    # the benchmark's estimate-deep requests: about half the blocks of the
    # whole prime set (9, 38, 6, 4), then one extension each; sized by
    # q**t + 1 they ran (8, 32, 5, 3) blocks of (15, 64, 10, 6)
    for (n, q, eps), blocks in zip(
        [(60, 2, "2^-8"), (100, 2, "2^-8"), (150, 2, "2^-5"), (60, 3, "2^-6")], [5, 19, 3, 2]
    ):
        assert _ladder_runs(monkeypatch, sg.random_regular(n, q, seed=1), eps) == (blocks, 1)


def test_extension_is_skipped_where_it_would_cost_more(monkeypatch):
    # chvatal at eps 2^-12: 519 primes in blocks of 113 and 25 steps; one
    # prime extended from the 339 of three blocks would take about
    # 2 * 339 * 78 multiply-adds per operand, one laddered prime 25 * 12**3
    # (sized by q**t + 1: 939 primes, 9 blocks, against 565 of five)
    g = sg.named_graph("chvatal")
    assert _ladder_runs(monkeypatch, g, "2^-12") == (5, 0)


# ---- exact prefix: the leading indices, formed once in float64 ----


def _per_prime_steps(monkeypatch):
    """The list of the indices each prime block's _climb call forms, as calls run."""
    honest, rests = ladder._climb, []

    def spy(*args):
        arguments = inspect.signature(honest).bind(*args).arguments
        if arguments["primes"] is not None:
            rests.append([t for _, _, steps in arguments["levels"] for _, t, _, _ in steps])
        return honest(*args)

    monkeypatch.setattr(ladder, "_climb", spy)
    return rests


@pytest.mark.parametrize("q", range(1, 8))
def test_exact_split_is_the_leading_indices_that_pass_the_bound(q):
    # index t is formed exactly while (q**x + 1)(q**y + 1) + 2 q**y < 2**53,
    # x = (t+1)//2 and y = t//2; the exact levels form the leading ones and
    # the rest form the others, and a level the rule cuts is in both: its
    # first slot in the exact part, as a level of width 1
    cuts = 0
    for k in range(2, 301):
        for operands in ([k // 2, (k + 1) // 2], [k // 2, k // 2 + 1]):
            levels = _levels(sorted(set(operands)))
            built = [t for _, _, steps in levels for _, t, _, _ in steps]
            passes = [(q ** ((t + 1) // 2) + 1) * (q ** (t // 2) + 1) + 2 * q ** (t // 2) < 2**53
                      for t in built]
            leading = passes.index(False) if False in passes else len(passes)
            exact, rest = ladder._exact_levels(levels, q)
            assert [t for _, _, steps in exact for _, t, _, _ in steps] == built[:leading], (q, k)
            assert [t for _, _, steps in rest for _, t, _, _ in steps] == built[leading:], (q, k)
            assert len(exact) + len(rest) - len(levels) in (0, 1), (q, k)
            if exact and rest and exact[-1][0] == rest[0][0]:
                (lo, width, steps), cut = exact[-1], rest[0]
                assert width == len(steps) == 1 and cut[1] == 2 and [s[1] for s in cut[2]] == [lo + 1]
                assert levels[len(exact) - 1] == (lo, 2, steps + cut[2]), (q, k)
                cuts += 1
            else:
                assert exact + rest == levels, (q, k)
            if q == 1:
                assert leading == len(built) and rest == [], k
    # from q = 2 on, some schedule below 300 cuts a level
    assert (cuts > 0) == (q > 1), q


@pytest.mark.parametrize("name", ["cycle(7)", "petersen", "complete(5)", "complete(6)", "complete(7)",
                                  "random(64, 3)"])
def test_ladder_and_pair_equal_the_sweep_to_257(name, monkeypatch):
    # q = 1..5; for q = 1 every entry is at most 2, so no index is formed
    # modulo a prime
    g = sg.random_regular(64, 3, seed=1) if name == "random(64, 3)" else sg.named_graph(name)
    rests = _per_prime_steps(monkeypatch)
    traces = _sweep_traces(g, 259)
    for k in range(1, 258):
        counter = MultCounter()
        assert _run_ladder(g, k, counter) == traces[k - 1], (name, k)
        assert counter.count == len(sg.ladder_indices(k)) - 1, (name, k)
        if k % 2 == 0:
            assert _pair_traces(g, k) == [traces[k - 1], traces[k + 1]], (name, k)
    assert any(rests) == (g.q > 1), name


@pytest.mark.parametrize("name,k,last_exact,first_per_prime", [
    ("utility", 105, 52, 53),  # q = 2: (2**27 + 1)(2**26 + 1) passes 2**53
    ("petersen", 105, 52, 53),
    ("complete(5)", 67, 33, 34),  # q = 3: (3**17 + 1)**2 passes 2**53
])
def test_checked_mode_straddles_the_exact_switch(name, k, last_exact, first_per_prime, monkeypatch):
    g = sg.named_graph(name)
    built = sg.ladder_indices(k)[-2:0:-1]
    assert built[-2:] == [last_exact, first_per_prime]
    rests = _per_prime_steps(monkeypatch)
    traces = _sweep_traces(g, k + 1)
    assert _run_ladder(g, k, MultCounter(), checked=True) == traces[k - 1]
    # the pair at k - 1 runs the same schedule
    assert _pair_traces(g, k - 1, checked=True) == [traces[k - 2], traces[k]]
    assert rests and all(rest == [first_per_prime] for rest in rests)


def test_prefix_takes_the_deep_estimates_leading_steps(monkeypatch):
    # the benchmark's estimate-deep requests formed (19, 19, 13, 15)
    # indices in every prime block; the exact prefix forms the leading
    # (11, 11, 10, 9) of them once
    for (n, q, eps), steps in zip(
        [(60, 2, "2^-8"), (100, 2, "2^-8"), (150, 2, "2^-5"), (60, 3, "2^-6")], [8, 8, 3, 6]
    ):
        rests = _per_prime_steps(monkeypatch)
        sg.estimate_expansion(sg.random_regular(n, q, seed=1), eps)
        monkeypatch.undo()
        assert rests and {len(rest) for rest in rests} == {steps}, (n, q, eps)


# ---- one level loop: two slots per level, exact or on residues ----


def test_levels_form_the_schedule():
    # the levels' steps, in order, are the schedule's formed indices, and
    # each reads slots the level below holds
    for k in range(2, 3000):
        for operands, top in (([(k + 1) // 2, k // 2], k), ([k // 2, k // 2 + 1], k + 1)):
            if top != k and k % 2:
                continue
            levels = _levels(sorted(set(operands)))
            built = [t for _, _, steps in levels for _, t, _, _ in steps]
            assert built == sg.ladder_indices(top)[-2:0:-1], (k, top)
            below = 1
            for lo, width, steps in levels:
                assert 0 < width <= 2 and [lo + slot for slot, *_ in steps] == [
                    t for _, t, _, _ in steps]
                assert all(x < below and y < below for _, _, x, y in steps), (k, lo)
                below = width
            assert (levels[-1][:2] if levels else (1, 1)) == (min(operands), len(set(operands)))


def _level_runs(monkeypatch):
    """The levels (lo, width, formed indices) each prime block's _climb call runs."""
    honest, runs = ladder._climb, []

    def spy(*args):
        arguments = inspect.signature(honest).bind(*args).arguments
        if arguments["primes"] is not None:
            runs.append([(lo, width, [t for _, t, _, _ in steps])
                         for lo, width, steps in arguments["levels"]])
        return honest(*args)

    monkeypatch.setattr(ladder, "_climb", spy)
    return runs


def test_checked_levels_equal_the_sweep_where_the_split_cuts_a_level(monkeypatch):
    # n = 150, q = 2, k = 208: the pair's schedule forms M(52) exactly and
    # M(53), beside it on the same level, modulo each prime
    g = sg.random_regular(150, 2, seed=1)
    runs = _level_runs(monkeypatch)
    traces = _sweep_traces(g, 210)
    assert _pair_traces(g, 208, checked=True) == [traces[207], traces[209]]
    assert runs and all(run == [(52, 2, [53]), (104, 2, [104, 105])] for run in runs)
    runs.clear()
    assert _run_ladder(g, 208, MultCounter(), checked=True) == traces[207]
    # the single run at 208 squares its way up from M(13): no level is cut,
    # and only its top is formed modulo the primes
    assert runs and all(run == [(104, 1, [104])] for run in runs)


@pytest.mark.parametrize("k", [192, 384])
def test_checked_square_only_tops_equal_the_sweep(k, monkeypatch):
    # an even single k ends in levels that hold one matrix, each the square
    # of the one below: 192 = 3 * 2**6 and 384 = 3 * 2**7
    g = sg.named_graph("petersen")
    runs = _level_runs(monkeypatch)
    traces = _sweep_traces(g, k)
    counter = MultCounter()
    assert _run_ladder(g, k, counter, checked=True) == traces[k - 1]
    assert counter.count == len(sg.ladder_indices(k)) - 1
    assert runs and all(width == 1 for run in runs for _, width, _ in run)
    assert runs[0][-1][0] == k // 2


@pytest.mark.parametrize("name", ["cycle(9)", "utility", "bipartite", "complete(8)"])
def test_checked_levels_equal_the_sweep_for_q_1_bipartite_and_q_7(name, monkeypatch):
    # q = 1 runs wholly exact; utility and a random bipartite graph have
    # -(q+1) in their spectrum; complete(8) has q = 7
    g = random_bipartite(6, 3, 2) if name == "bipartite" else sg.named_graph(name)
    runs = _level_runs(monkeypatch)
    traces = _sweep_traces(g, 202)
    for k in (2, 3, 11, 40, 77, 131, 200):
        runs.clear()
        assert _run_ladder(g, k, MultCounter(), checked=True) == traces[k - 1], (name, k)
        if k % 2 == 0:
            assert _pair_traces(g, k, checked=True) == [traces[k - 1], traces[k + 1]], (name, k)
    # at k = 200 every block of a q = 1 run starts from the exact state and
    # forms nothing; the others form their top levels on residues
    assert runs and all((run == []) == (g.q == 1) for run in runs), name


# ---- primes sized by the nontrivial spectrum ----


def _complete_bipartite(d):
    """K(d, d): d-regular, with -d = -(q+1) in its spectrum."""
    return sg.validate([[int((u < d) != (v < d)) for v in range(2 * d)] for u in range(2 * d)],
                       source=f"K({d}, {d})")


def _joined(g):
    """Two copies of g, one edge cut in each and the ends joined across.

    Still (q+1)-regular, with an eigenvalue near q + 1: the nontrivial
    spectrum's largest term, q**(t/2) T(t, x) with |x| > 2, outgrows
    every other, so a bound read off a lower index than it claims falls
    short.
    """
    n = g.n
    a = np.zeros((2 * n, 2 * n), dtype=np.int64)
    a[:n, :n] = a[n:, n:] = g.adjacency
    u, v = map(int, np.argwhere(g.adjacency)[0])
    a[u, v] = a[v, u] = a[n + u, n + v] = a[n + v, n + u] = 0
    a[u, n + v] = a[n + v, u] = a[v, n + u] = a[n + u, v] = 1
    return sg.validate(a, source=f"joined({g.source})")


@st.composite
def spectral_graphs(draw):
    """q = 1..7, bipartite graphs with -(q+1) in their spectrum, and joined pairs."""
    kind = draw(st.sampled_from(["random", "complete", "bipartite", "joined"]))
    if kind == "complete":
        return sg.named_graph(f"complete({draw(st.integers(3, 9))})")
    if kind == "bipartite":
        return _complete_bipartite(draw(st.integers(2, 6)))
    q = draw(st.integers(1, 7) if kind == "random" else st.integers(2, 3))
    n = draw(st.integers(q + 2, 14 if kind == "random" else 8))
    assume(n * (q + 1) % 2 == 0)
    try:
        g = sg.random_regular(n, q, draw(st.integers(0, 10_000)))
    except GraphGenerationError:
        assume(False)
    return _joined(g) if kind == "joined" else g


@settings(max_examples=30, deadline=None)
@given(spectral_graphs(), st.integers(1, 90), st.booleans())
def test_runs_sized_by_the_nontrivial_spectrum_equal_the_sweep(g, half, one_prime_blocks):
    # checked mode compares every matrix, stored and extended residue and
    # trace with the sweep's; blocks of one prime make the ladder extend
    traces = _sweep_traces(g, 2 * half + 2)
    with pytest.MonkeyPatch.context() as mp:
        if one_prime_blocks:
            mp.setattr(ladder, "_BLOCK_ENTRIES", 1)
        assert _run_ladder(g, 2 * half + 1, MultCounter(), checked=True) == traces[2 * half], g.source
        pair = _pair_traces(g, 2 * half, checked=True)
    assert pair == [traces[2 * half - 1], traces[2 * half + 1]], (g.source, half)


@pytest.mark.parametrize("n,k", [(100, 120), (150, 120), (300, 80)])
def test_scale_cells_sized_by_the_nontrivial_spectrum_equal_the_sweep(n, k):
    # the ROADMAP's scale graphs, at a k past the exact prefix: the top
    # operands' primes follow S**(t/2h), far below q**t + 1
    g = sg.random_regular(n, 2, seed=1)
    traces = _sweep_traces(g, k + 2)
    assert _pair_traces(g, k, checked=True) == [traces[k - 1], traces[k + 1]]


@pytest.mark.parametrize("name", ["utility", "petersen", "complete(8)", "cycle(7)", "K(5, 5)", "joined"])
def test_bounds_hold_on_the_sweeps_matrices(name):
    # every entry of Y(t) = M(t) - s_t J within entry(t) <= q**t + 1, and
    # every deviation trace M(t) - q**t - 1 within (n - 1) entry(t), with S
    # read off each exact-size M(h)
    g = {"K(5, 5)": _complete_bipartite(5), "joined": _joined(sg.random_regular(10, 2, seed=3))}.get(
        name) or sg.named_graph(name)
    n, q = g.n, g.q
    m = _references(g, range(121))
    for h in (1, 2, 5, 17):
        bounds = ladder._bounds(n, q, h, m[h].astype(np.float64))
        for t in range(1, 121):
            entry, deviation = bounds(t)
            assert entry <= q**t + 1 and deviation == (n - 1) * entry, (name, h, t)
            y = m[t].astype(object) - (q**t + 1) // n
            assert max(abs(v) for v in y.ravel().tolist()) <= entry, (name, h, t)
            assert abs(sum(m[t].diagonal().tolist()) - q**t - 1) <= deviation, (name, h, t)


# ---- the half-index sweep ----


@settings(max_examples=20, deadline=None)
@given(spectral_graphs())
def test_the_half_index_sweep_equals_the_plain_recurrence(g):
    # K = 140 takes every q >= 2 past the int64 dot, n (q**x + 1)(q**y + 1)
    # >= 2**63, which q = 2 crosses by k = 62, and past the int64 matrices,
    # which q = 2 leaves at an index of 65 to 68
    assert list(islice(chebyshev_sweep(g), 140)) == _sweep_traces(g, 140), g.source


def test_the_half_index_sweep_equals_the_plain_recurrence_at_n_120():
    g = sg.random_regular(120, 2, seed=1)
    # the dot leaves int64 at k = 57, the matrices by M(70)
    dtypes = [m.dtype for m in islice(_sweep(g.adjacency, g.q), 71)]
    assert dtypes[-1] == object and 120 * (2**29 + 1) * (2**28 + 1) >= 2**63
    assert list(islice(chebyshev_sweep(g), 140)) == _sweep_traces(g, 140)


def test_the_half_index_sweep_pulls_at_most_half_the_matrices(monkeypatch):
    # trace M(k) reads M(ceil(k/2)), so k traces pull M(0) .. M(ceil(k/2))
    g = sg.named_graph("petersen")
    honest, pulled = ladder._sweep, []

    def spy(*args):
        for m in honest(*args):
            pulled.append(m)
            yield m

    monkeypatch.setattr(ladder, "_sweep", spy)
    for k in range(1, 14):
        pulled.clear()
        traces = list(islice(chebyshev_sweep(g), k))
        assert len(pulled) <= -(-k // 2) + 1, k
        assert traces == _sweep_traces(g, k), k


# ---- the table path: block constants, shifts and fixes ----


@pytest.mark.parametrize("n,q", [(90, 2), (91, 3)])
def test_checked_tables_on_both_sides_of_the_one_prime_block(n, q, monkeypatch):
    # blocks of 2**14 // n**2 primes: two at n = 90, whose constants are
    # built at the (2, n, n) shape, one at n = 91, which keeps the
    # (1, 1, 1) scalar.  Checked mode compares every level, shifted pair
    # and trace with the sweep's; its sweep to the whole table's k + 2
    # (6014 at n = 90) takes over 25 s, so the checked table stops at
    # 2^-7, whose every smaller k still shifts and reads its own prefix
    g = sg.random_regular(n, q, seed=1)
    honest, shapes = ladder._constants, set()

    def spy(block, width):
        p, inv = honest(block, width)
        shapes.add(p.shape)
        return p, inv

    monkeypatch.setattr(ladder, "_constants", spy)
    ks = [required_even_index(n, eps) for eps in TABLE[:7]]
    traces = _run_ladder_pairs(g, ks, MultCounter(), checked=True)
    assert (2, n, n) in shapes if n == 90 else shapes == {(1, 1, 1)}
    assert traces == _run_ladder_pairs(g, ks, MultCounter())
    monkeypatch.undo()
    assert sg.estimate_expansions(g, TABLE) == [sg.estimate_expansion(g, eps) for eps in TABLE]


@pytest.mark.parametrize("name", ["cycle(7)", "complete(5)"])
def test_checked_tables_fix_each_trace(name):
    # each finish's fix is formed modulo each prime from s_t's residues,
    # with q**t = n s_t + ((q**t + 1) mod n) - 1: for q = 1, and for
    # complete(5) (q = 3), where n divides q**t + 1 at every t = 2 mod 4,
    # so the identity's - 1 acts alone there
    g = sg.named_graph(name)
    ks = [required_even_index(g.n, eps) for eps in TABLE]
    operands = {t for k in ks for t in (k // 2, k // 2 + 1)}
    assert any((g.q**t + 1) % g.n == 0 for t in operands) == (g.q > 1)
    assert _run_ladder_pairs(g, ks, MultCounter(), checked=True) == _run_ladder_pairs(
        g, ks, MultCounter())


def test_squares_and_powers_are_exact_upper_bounds():
    rng = random.Random(11)
    values = [0, 1, -1, 2**53 - 1, -(2**53 - 1), 2**26, -(2**26) - 1]
    values += [rng.randint(-(2**53 - 1), 2**53 - 1) for _ in range(1001)]
    y = np.array(values, dtype=np.float64)
    assert ladder._squares(y) == sum(v * v for v in values)
    assert ladder._squares(y.reshape(-1, 7)[:, :5]) == sum(
        v * v for row in np.array(values).reshape(-1, 7)[:, :5].tolist() for v in row)
    for u, f, t in [(2**24, 24, 5), (3 * 2**23, 24, 1), (3 * 2**23, 24, 1001), (2**24 + 1, 24, 10**5),
                    (12345678901, 24, 777)]:
        # the power _bounds rounds up: (u / 2**f)**t, bracketed to 64 bits
        lo, hi, shift = _power_bounds(u, t, 64)
        exact = Fraction(u, 2**f) ** t
        below, above = (Fraction(x << shift, 2 ** (f * t)) for x in (lo, hi))
        assert below <= exact <= above < exact * (1 + Fraction(t, 2**61)), (u, t)


def _plans(monkeypatch):
    """(arguments, (primes, size, prefixes)) of each _plan call, as runs make them."""
    honest, plans = ladder._plan, []

    def spy(*args):
        plans.append((args, honest(*args)))
        return plans[-1][1]

    monkeypatch.setattr(ladder, "_plan", spy)
    return plans


@pytest.mark.parametrize("prefix", ["exact", "M(1) alone"])
def test_the_plan_never_takes_more_primes_than_the_trace_bound(monkeypatch, prefix):
    # bipartite graphs (utility, the cube, K(q+1, q+1)) have -(q+1) in
    # their spectrum, and a run whose exact prefix were M(1) alone would
    # read S off A (only k = 2 has no level, since M(2) is always exact):
    # the min in _bounds keeps both at q**t + 1, and no plan takes more
    # primes, or a larger ladder share, than sizing by q**t + 1 did
    plans, graph = _plans(monkeypatch), []
    if prefix != "exact":
        honest = ladder._bounds
        monkeypatch.setattr(ladder, "_bounds", lambda n, q, h, y: honest(
            n, q, 1, graph[-1].adjacency.astype(np.float64)))
    graphs = [sg.named_graph("utility"), sg.named_graph("cube"), sg.named_graph("cycle(4)"),
              *map(_complete_bipartite, (4, 5)), sg.named_graph("petersen"),
              sg.random_regular(20, 3, seed=1)]
    for g in graphs:
        graph.append(g)
        n, q = g.n, g.q
        traces = _sweep_traces(g, 122)
        plans.clear()
        assert _run_ladder(g, 2, MultCounter(), checked=True) == traces[1]
        for k in (2, 10, 40, 60, 100, 120):
            assert _pair_traces(g, k, checked=True) == [traces[k - 1], traces[k + 1]], (g.source, k)
        # (the largest index, the top operand) of the single run at 2 and the pairs
        runs = [(2, 1)] + [(k + 2, k // 2 + 1) for k in (2, 10, 40, 60, 100, 120)]
        assert len(plans) == len(runs), g.source
        for (index, top), ((_, _, indices, operands, *rest), (primes, size, _)) in zip(runs, plans):
            assert max(map(max, indices)) == index and operands[0][-1] == top
            old, old_size, _ = _plan(n, _trivial_bounds(n, q), indices, operands, *rest)
            assert len(primes) <= len(old) and size <= old_size, (g.source, index, prefix)


def test_a_whole_set_plan_runs_on_primes_below_the_limit_for_n():
    # the pair eps 2^-11, 2^-12 on random_regular(58, 3, seed=1), sized by
    # q**t + 1: the first plan extends 720 of 1432 primes, but at inner
    # dimension 721 the share passes the cost rule's most = 769, so the
    # ladder runs on every prime, which needs inner dimension n alone:
    # 1432 primes below the limit for n = 58, not 1547 below the one for 721
    n, q = 58, 3
    k11, k12 = (required_even_index(n, eps) for eps in ("2^-11", "2^-12"))
    bound = n * (q ** (k12 + 2) + 1)
    entry = max(q ** (k12 // 2 + 1) + 1, -(-n * (q ** (k11 + 2) + 1) // 2))
    indices = [[k11, k11 + 2], [k12, k12 + 2]]
    operands = [[k11 // 2, k11 // 2 + 1], [k12 // 2, k12 // 2 + 1]]
    # the levels up to M(k12/2 + 1) form every entry of its schedule but k12 + 1 and 1
    formed = len(sg.ladder_indices(k12 + 1)) - 2
    assert formed * n**2 // ((n + 1) * 2) == 769
    primes, size, prefixes = _plan(n, _trivial_bounds(n, q), indices, operands, 1, formed, 4)
    assert size == len(primes) == prefixes[1] == 1432
    assert primes == _moduli(n, bound) and max(primes) <= _prime_limit(n)
    _certify(n, bound, primes, entry, size)
    # with no cost rule the ladder extends, at a raised inner dimension
    primes, size, _ = _plan(n, _trivial_bounds(n, q), indices, operands, 1, UNCAPPED, 4)
    assert size < len(primes) and primes == _moduli(_inner(n, primes, size), bound) != _moduli(n, bound)
