import inspect
import math
import time
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

import specgap as sg
from specgap import ladder
from specgap.ladder import (
    LadderInvariantError, _check_state, _moduli, _prime_limit, _primes_between, _references,
    _run_ladder, _run_ladder_pair,
)
from specgap.exact import MultCounter, Quadratic

from brute import brute_geodesic_cycles


# ---- halving schedule ----


@pytest.mark.parametrize(
    "k,expected",
    [
        (1, [1]),
        (2, [2, 1]),
        (3, [3, 2, 1]),
        (5, [5, 3, 2, 2, 1]),
        (6, [6, 3, 2, 1]),
        (8, [8, 4, 2, 1]),
        (9, [9, 5, 4, 3, 2, 2, 1]),
    ],
)
def test_schedule_hand_traces(k, expected):
    assert sg.ladder_indices(k) == expected


def test_schedule_rejects_bad_k():
    with pytest.raises(ValueError):
        sg.ladder_indices(0)


def _schedule_structure_ok(k):
    ladder = sg.ladder_indices(k)
    length = len(ladder)
    if ladder[0] != k or ladder[-1] != 1:
        return False
    for i in range(length):
        v = ladder[i]
        if v <= 1:
            continue
        if v % 2 == 0:
            half = v // 2
            if not (
                (i + 1 < length and ladder[i + 1] == half)
                or (i + 2 < length and ladder[i + 2] == half)
            ):
                return False
        else:
            hi, lo = (v + 1) // 2, (v - 1) // 2
            near = i + 2 < length and ladder[i + 1] == hi and ladder[i + 2] == lo
            far = i + 3 < length and ladder[i + 2] == hi and ladder[i + 3] == lo
            if not (near or far):
                return False
    low_bit = (k & -k).bit_length() - 1
    return length == 2 * (k.bit_length() - 1) - low_bit + 1


def _schedules_ok(ks, schedules):
    """_schedule_structure_ok for each k in ks, vectorised over its schedule."""
    ks = np.asarray(ks, dtype=np.int64)
    lens = np.fromiter(map(len, schedules), dtype=np.int64, count=len(schedules))
    flat = np.fromiter(chain.from_iterable(schedules), dtype=np.int64, count=int(lens.sum()))
    ends = np.cumsum(lens)
    owner = np.repeat(np.arange(len(ks)), lens)
    # entries after each position within its own schedule, and the next three
    left = ends[owner] - np.arange(flat.size) - 1
    after = [np.concatenate([flat[d:], np.zeros(d, dtype=np.int64)]) for d in (1, 2, 3)]
    half, hi, lo = flat // 2, (flat + 1) // 2, (flat - 1) // 2
    halved = ((left >= 1) & (after[0] == half)) | ((left >= 2) & (after[1] == half))
    paired = ((left >= 2) & (after[0] == hi) & (after[1] == lo)) | (
        (left >= 3) & (after[1] == hi) & (after[2] == lo))
    entry_ok = (flat <= 1) | np.where(flat % 2 == 0, halved, paired)
    ok = (lens > 0) & (np.bincount(owner[~entry_ok], minlength=len(ks)) == 0)
    first, last = np.minimum(ends - lens, flat.size - 1), np.maximum(ends - 1, 0)
    ok &= (flat[first] == ks) & (flat[last] == 1)
    bits = np.frexp(ks.astype(np.float64))[1]  # bit_length, exact below 2**53
    low_bit = np.frexp((ks & -ks).astype(np.float64))[1] - 1
    return ok & (lens == 2 * (bits - 1) - low_bit + 1)


def test_schedule_structure_small_range():
    ks = range(1, 10_001)
    assert all(_schedule_structure_ok(k) for k in ks)
    assert _schedules_ok(ks, [sg.ladder_indices(k) for k in ks]).all()


def test_vectorised_structure_check_flags_broken_schedules():
    broken = {
        12: [12, 6, 3, 2, 2],          # does not end at 1
        9: [9, 5, 4, 3, 2, 1],         # 4 is never halved
        11: [11, 6, 4, 3, 2, 2, 1],    # 11 lacks its half pair (6, 5)
        6: [6, 3, 2, 1, 1],            # one entry too many for the length formula
        7: [8, 4, 2, 1],               # does not start at k
        5: [],
    }
    ks = [1, *broken, 13]
    schedules = [[1], *broken.values(), sg.ladder_indices(13)]
    assert _schedules_ok(ks, schedules).tolist() == [True] + [False] * len(broken) + [True]
    assert [_schedule_structure_ok(k) for k in (1, 13)] == [True, True]


def test_schedule_structure_to_one_million():
    # halving structure and the length formula, in chunks of the k range
    step = 20_000
    for lo in range(10_001, 1_000_001, step):
        ks = range(lo, min(lo + step, 1_000_001))
        ok = _schedules_ok(ks, list(map(sg.ladder_indices, ks)))
        assert ok.all(), [k for k, good in zip(ks, ok) if not good][:10]


# ---- geodesic counts ----


def test_count_examples_utility():
    g = sg.named_graph("utility")
    assert sg.geodesic_count(g, 3) == 0
    assert sg.geodesic_count(g, 4) == 72
    assert sg.geodesic_count(g, 2) == 0


def test_count_length_one_is_zero(corpus):
    for g in corpus:
        assert sg.geodesic_count(g, 1) == 0


def test_count_matches_brute_enumeration():
    for name in ["utility", "complete(4)", "cycle(4)", "cycle(5)"]:
        g = sg.named_graph(name)
        for k in range(1, 9):
            assert sg.geodesic_count(g, k) == brute_geodesic_cycles(g, k), (name, k)


def test_count_matches_trace_oracle(corpus):
    for g in corpus:
        for k in range(1, 13):
            assert sg.geodesic_count(g, k) == sg.geodesic_count_trace(g, k)


@pytest.mark.parametrize("k", [0, -1, -4])
def test_single_index_ladders_refuse_indices_below_one(k):
    # the schedule and the edge-matrix oracle refuse them with this message
    g = sg.named_graph("petersen")
    for run in (sg.geodesic_count, sg.expansion_slack, sg.ladder_mult_count):
        with pytest.raises(ValueError, match=rf"^k must be >= 1, got {k}$"):
            run(g, k)


def test_bipartite_odd_counts_vanish():
    for name in ["utility", "cube", "cycle(4)"]:
        g = sg.named_graph(name)
        for k in range(1, 16, 2):
            assert sg.geodesic_count(g, k) == 0, (name, k)


# ---- exact slack values ----


def test_slack_examples():
    u = sg.named_graph("utility")
    assert sg.expansion_slack(u, 2).as_fraction() == Fraction(31, 2)
    assert sg.expansion_slack(u, 4).as_fraction() == Fraction(-9, 4)
    cube = sg.named_graph("cube")
    assert sg.expansion_slack(cube, 8).as_fraction() == Fraction(153, 16)


def test_slack_odd_k_lives_in_the_quadratic_field():
    u = sg.named_graph("utility")
    s = sg.expansion_slack(u, 1)
    # count is 0, so the value is 10 + (1 + 1/2) * sqrt(2)
    assert s.value == Quadratic(10, Fraction(3, 2), 2)
    assert s.sign() == 1
    with pytest.raises(ValueError):
        s.as_fraction()


def test_slack_even_k_denominator_clears():
    # q**(k/2) * slack must be an integer for even k
    for name in ["utility", "chvatal", "petersen"]:
        g = sg.named_graph(name)
        for k in range(2, 17, 2):
            val = sg.expansion_slack(g, k).as_fraction() * g.q ** (k // 2)
            assert val.denominator == 1, (name, k)


def test_slack_agrees_with_spectral_route(corpus):
    for g in corpus:
        for k in range(1, 25):
            exact_val = sg.expansion_slack(g, k).to_float()
            spectral = sg.expansion_slack_spectral(g, k)
            assert abs(exact_val - spectral) < 1e-9, (g.source, k)


def test_slack_exact_against_integer_spectra():
    # utility and cube have integer eigenvalues, so the slack can be
    # recomputed exactly through the scalar recurrence
    cases = {
        "utility": [3, 0, 0, 0, 0, -3],
        "cube": [3, 1, 1, 1, -1, -1, -1, -3],
    }
    for name, eigs in cases.items():
        g = sg.named_graph(name)
        for k in range(2, 25, 2):
            expected = sg.oracle.exact_slack_from_integer_spectrum(g.n, g.q, eigs, k)
            assert sg.expansion_slack(g, k).as_fraction() == expected, (name, k)


# ---- multiplication counting ----


@pytest.mark.parametrize("k,count", [(1, 0), (6, 3), (8, 3)])
def test_mult_count_examples(k, count):
    g = sg.named_graph("utility")
    assert sg.ladder_mult_count(g, k) == count


def test_mult_count_formula():
    g = sg.named_graph("cycle(5)")
    for k in range(1, 201):
        low_bit = (k & -k).bit_length() - 1
        expected = 2 * (k.bit_length() - 1) - low_bit
        assert sg.ladder_mult_count(g, k) == expected
        assert expected == len(sg.ladder_indices(k)) - 1


# ---- indices no prime set can determine ----


def test_hopeless_indices_are_refused_before_any_power(monkeypatch):
    g = sg.named_graph("petersen")
    honest, calls = ladder._moduli, []
    honest_climb, climbs = ladder._climb, []

    def spy(n, bound):
        calls.append(bound)
        return honest(n, bound)

    def climb(*args):
        climbs.append(1)
        return honest_climb(*args)

    monkeypatch.setattr(ladder, "_moduli", spy)
    monkeypatch.setattr(ladder, "_climb", climb)
    # with a prime limit of 50, every prime up to 50 multiplies to less than
    # 4**51 = 2**102, and every deviation bound at index k is at least
    # q**(k/2) (_bounds), so q = 2 refuses k >= 204 before it forms any
    # power or any exact level; k = 203 forms its exact levels, the plan
    # reads its bounds off them and reaches _moduli, and _certify refuses
    # it in the same words, before any prime block climbs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ladder, "_prime_limit", lambda n: 50)
        for run, k, reached in [(_run_ladder, 203, True), (_run_ladder, 204, False),
                                (_run_ladder_pair, 200, True), (_run_ladder_pair, 202, False),
                                (_run_ladder, 10**13, False), (_run_ladder_pair, 10**13, False)]:
            calls.clear()
            climbs.clear()
            with pytest.raises(ArithmeticError, match="moduli do not determine a trace"):
                run(g, k, MultCounter())
            assert bool(calls) == bool(climbs) == reached, (run.__name__, k)
            assert len(climbs) <= 1, (run.__name__, k)
    # petersen (n = 10, q = 2) at its own limit: the least refused k is
    # 4 (limit + 1), and it returns at once
    assert 4 * (_prime_limit(g.n) + 1) == 240_095_956
    calls.clear()
    climbs.clear()
    started = time.perf_counter()
    least = r"2 \* \(10 - 1\) \* 2\*\*\(240095956/2\)$"  # 2 (n - 1) q**(k/2)
    with pytest.raises(ArithmeticError, match="deviation is bounded by " + least):
        _run_ladder(g, 240_095_956, MultCounter())
    assert time.perf_counter() - started < 0.5 and calls == climbs == []


def test_refused_indices_are_ones_certify_refuses():
    # at the largest order, and at the least k refused for q = 2 or 3
    # (floor(log2 q) = 1), every prime below the limit multiplies to at
    # most twice the least deviation bound, 2 (n - 1) q**(k/2) (_bounds),
    # so the refusal only says early what _certify would say after the powers
    n = sg.graphs.MAX_VERTICES
    top = _prime_limit(n) + 1
    values = _primes_between(2, top).tolist()
    while len(values) > 1:  # a product tree: one pass of halving per level
        values = [math.prod(values[i:i + 2]) for i in range(0, len(values), 2)]
    assert values[0] <= 2 * 2 * (n - 1) * 2 ** (2 * top)  # q**(k/2) at k = 4 top


# ---- checked mode ----


def test_checked_mode_passes_on_real_runs():
    for name in ["utility", "chvatal", "cycle(5)"]:
        g = sg.named_graph(name)
        for k in (1, 2, 3, 7, 12):
            assert _run_ladder(g, k, MultCounter(), checked=True) == _run_ladder(g, k, MultCounter())


@pytest.mark.parametrize("name", ["utility", "petersen", "cycle(5)"])
def test_checked_mode_runs_one_sweep(name, monkeypatch):
    g = sg.named_graph(name)
    honest, calls = ladder._sweep, []

    def spy(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(ladder, "_sweep", spy)
    for k in (2, 3, 12, 61, 106):
        for run in (_run_ladder, _run_ladder_pair):
            if run is _run_ladder_pair and k % 2:
                continue
            calls.clear()
            run(g, k, MultCounter())
            assert calls == [], (name, k)
            run(g, k, MultCounter(), checked=True)
            assert len(calls) == 1, (name, k)


def test_checked_mode_does_not_change_mult_count():
    g = sg.named_graph("utility")
    c = MultCounter()
    _run_ladder(g, 12, c, checked=True)
    assert c.count == len(sg.ladder_indices(12)) - 1


def test_checked_mode_detects_corrupt_state():
    g = sg.named_graph("chvatal")
    primes = _moduli(g.n, g.n * (g.q**60 + 1))
    assert len(primes) > 1
    a = g.adjacency.astype(np.float64)
    stack = np.repeat(a[None], len(primes), axis=0)  # residues of M(1) = A
    expect = _references(g, [1, 2])
    with pytest.raises(LadderInvariantError, match="register"):
        _check_state(2, stack, expect[2], primes)
    _check_state(1, stack, expect[1], primes)
    # residues are compared modulo each prime, not as representatives
    stack[0, 0, 1] += primes[0]
    _check_state(1, stack, expect[1], primes)
    stack[-1, 2, 3] += 1
    with pytest.raises(LadderInvariantError, match=f"register mismatch at index 1 modulo {primes[-1]}"):
        _check_state(1, stack, expect[1], primes)


def test_checked_mode_covers_the_trace_only_finish(monkeypatch):
    # k = 12 finishes with trace(M(6) @ M(6)); corrupt one residue of the
    # left operand in the contraction
    g = sg.named_graph("utility")
    honest = ladder._contract

    def corrupted(x, y, w, p, inv):
        bad = x.copy()
        bad[0, 0] = (bad[0, 0] + 1) % p[0, 0]
        return honest(bad, y, w, p, inv)

    monkeypatch.setattr(ladder, "_contract", corrupted)
    wrong = _run_ladder(g, 12, MultCounter())
    assert wrong != sg.geodesic_count_trace(g, 12) - g.n * (g.q - 1)
    with pytest.raises(LadderInvariantError, match="final trace"):
        _run_ladder(g, 12, MultCounter(), checked=True)


def test_pair_needs_an_even_index():
    g = sg.named_graph("utility")
    for k in (0, 1, 3):
        with pytest.raises(ValueError, match="even"):
            _run_ladder_pair(g, k, MultCounter())


# k = 10 runs the schedule for 11, [11, 6, 5, 3, 2, 2, 1], without its last
# step, and finishes with the squares of M(5) (trace at 10) and of M(6)
# (trace at 12).  Corrupt one entry of either half before the finish:
# in the register, where checked mode compares it with the sweep, or in
# the operand of its finish, where checked mode compares the trace.
PAIR_FINISHES = [(0, 5), (1, 6)]


def _pair(g, checked=False, k=10):
    return _run_ladder_pair(g, k, MultCounter(), checked=checked)


def _corrupt_step(monkeypatch, index):
    """Add 1 to one entry of M(index) as _step forms it, in the first
    matrix of its stack: the exact matrix, or one prime's residues."""
    honest = ladder._step

    def corrupted(x, y, out, t, edges, c):
        honest(x, y, out, t, edges, c)
        if t == index:
            out[0, 0, 0] += 1

    monkeypatch.setattr(ladder, "_step", corrupted)


@pytest.mark.parametrize("which,index", PAIR_FINISHES)
def test_checked_mode_covers_both_pair_registers(monkeypatch, which, index):
    # for q = 2 every index up to 52 is formed in the exact prefix, so
    # M(5) and M(6) are exact matrices here
    g = sg.named_graph("utility")
    truth = _pair(g)
    _corrupt_step(monkeypatch, index)
    wrong = _pair(g)
    assert wrong[which] != truth[which] and wrong[1 - which] == truth[1 - which]
    with pytest.raises(LadderInvariantError,
                       match=f"register mismatch at index {index} in the exact prefix"):
        _pair(g, checked=True)


@pytest.mark.parametrize("index", [53, 54])
def test_checked_mode_covers_both_per_prime_registers(monkeypatch, index):
    # k = 106 runs the schedule for 107, whose last two formed indices 53
    # and 54 are the first that q = 2 forms modulo each prime
    g = sg.named_graph("utility")
    assert sg.ladder_indices(107)[-2:0:-1] == [2, 3, 4, 6, 7, 13, 14, 26, 27, 53, 54]
    honest, rests = ladder._climb, []

    def spy(*args):
        arguments = inspect.signature(honest).bind(*args).arguments
        if arguments["primes"] is not None:
            rests.append([t for _, _, steps in arguments["levels"] for _, t, _, _ in steps])
        return honest(*args)

    monkeypatch.setattr(ladder, "_climb", spy)
    truth = _pair(g, k=106)
    assert rests and all(rest == [53, 54] for rest in rests)
    _corrupt_step(monkeypatch, index)
    # one wrong residue sends the rebuilt trace far outside its bound
    with pytest.raises(LadderInvariantError, match=f"at index {2 * index} exceeds its bound"):
        _pair(g, k=106)
    with pytest.raises(LadderInvariantError, match=f"register mismatch at index {index} modulo "):
        _pair(g, checked=True, k=106)
    monkeypatch.undo()
    assert _pair(g, checked=True, k=106) == truth


@pytest.mark.parametrize("which,index", PAIR_FINISHES)
def test_checked_mode_covers_both_squaring_finishes(monkeypatch, which, index):
    g = sg.named_graph("utility")
    truth = _pair(g)
    honest = ladder._contract
    calls = []

    def corrupted(x, y, w, p, inv):
        calls.append(1)
        if (len(calls) - 1) % 2 == which:  # finishes run M(5)**2, then M(6)**2
            x = x.copy()
            x[0, 0] = (x[0, 0] + 1) % p[0, 0]
            y = x
        return honest(x, y, w, p, inv)

    monkeypatch.setattr(ladder, "_contract", corrupted)
    wrong = _pair(g)
    assert wrong[which] != truth[which] and wrong[1 - which] == truth[1 - which]
    with pytest.raises(LadderInvariantError, match=f"final trace .* at index {2 * index},"):
        _pair(g, checked=True)


@pytest.mark.parametrize("index", [30, 31])
def test_checked_mode_covers_the_extended_residues(monkeypatch, index):
    # k = 60 on blocks of one prime: the ladder runs on 2 primes and the
    # finish extends M(30) and M(31) to a third one, both in one call per
    # chunk, M(30)'s columns first; corrupt one extended residue of either
    # operand
    g = sg.named_graph("utility")
    monkeypatch.setattr(ladder, "_BLOCK_ENTRIES", 1)
    primes = _moduli(g.n, g.n * (g.q**62 + 1))
    # the fewest primes above 4 e(31), the ladder's share on blocks of one prime
    size = ladder._prefix(primes, 2 * (g.q**31 + 1))
    assert 0 < size < len(primes)
    honest = ladder._extender

    def corrupting(primes, size, width):
        extend = honest(primes, size, width)

        def corrupted(chunk):
            extend(chunk)
            chunk[size, (index - 30) * chunk.shape[1] // 2] += 1

        return corrupted

    truth = _run_ladder_pair(g, 60, MultCounter())
    sweep = ladder.chebyshev_sweep(g)
    traces = [next(sweep) for _ in range(62)]
    assert truth == [traces[59], traces[61]]
    monkeypatch.setattr(ladder, "_extender", corrupting)
    # the corrupt residue sends the rebuilt trace far outside its bound
    with pytest.raises(LadderInvariantError, match="exceeds its bound"):
        _run_ladder_pair(g, 60, MultCounter())
    with pytest.raises(LadderInvariantError, match=rf"extended residue mismatch in M\({index}\) "):
        _run_ladder_pair(g, 60, MultCounter(), checked=True)


@pytest.mark.parametrize("rows_per_chunk", [1, 3])
def test_one_extension_per_chunk_covers_every_operand(monkeypatch, rows_per_chunk):
    # the pair at k = 60 on utility runs its ladder on 2 primes and extends
    # Y(30) and Y(31), Y(t) = M(t) - s_t J (ladder._bounds), to a third; the
    # finish reads the 4 rows of 6 entries that hold each operand's
    # triangle in chunks of rows_per_chunk rows, and each chunk is one
    # extend call whose columns hold Y(30)'s rows, then Y(31)'s, every
    # residue of them right modulo every prime; utility is bipartite, so
    # its deviation bound at 62 is (n - 1)(q**62 + 1)
    g = sg.named_graph("utility")
    n = g.n
    primes = _moduli(n, (n - 1) * (g.q**62 + 1))
    assert len(primes) == 3
    monkeypatch.setattr(ladder, "_BLOCK_ENTRIES", rows_per_chunk * len(primes) * n)
    honest, chunks, plans = ladder._extender, [], []

    def spy(primes, size, width):
        plans.append((primes, size))
        extend = honest(primes, size, width)

        def recorded(chunk):
            extend(chunk)
            chunks.append(chunk.copy())

        return recorded

    monkeypatch.setattr(ladder, "_extender", spy)
    truth = _run_ladder_pair(g, 60, MultCounter(), checked=True)
    sweep = ladder.chebyshev_sweep(g)
    traces = [next(sweep) for _ in range(62)]
    assert truth == [traces[59], traces[61]]
    assert plans == [(primes, 2)]
    rows = (n + 2) // 2
    assert len(chunks) == -(-rows // rows_per_chunk)
    # each operand's triangle, diagonal first, zero-padded to whole rows
    upper = np.arange(n)
    flat = np.concatenate((upper * (n + 1), np.flatnonzero(upper[:, None] < upper)))
    references = _references(g, [30, 31])
    triangles = [np.pad(references[t].astype(object).ravel()[flat] - (g.q**t + 1) // n,
                        (0, rows * n - len(flat))) for t in (30, 31)]
    start = 0
    for chunk in chunks:
        assert chunk.shape[0] == len(primes) and chunk.shape[1] % (2 * n) == 0
        m = chunk.shape[1] // 2
        expect = np.concatenate([tri[start:start + m] for tri in triangles])
        for residues, p in zip(chunk, primes):
            assert np.array_equal(residues.astype(np.int64) % p, expect % p), (start, p)
        start += m
    assert start == rows * n
