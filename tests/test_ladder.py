from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

import specgap as sg
from specgap import ladder
from specgap.ladder import (
    LadderInvariantError, _check_state, _moduli, _run_ladder, _run_ladder_pair,
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


# ---- checked mode ----


def test_checked_mode_passes_on_real_runs():
    for name in ["utility", "chvatal", "cycle(5)"]:
        g = sg.named_graph(name)
        for k in (1, 2, 3, 7, 12):
            assert sg.geodesic_count(g, k, checked=True) == sg.geodesic_count(g, k)
            assert sg.expansion_slack(g, k, checked=True).value == sg.expansion_slack(g, k).value


def test_checked_mode_does_not_change_mult_count():
    g = sg.named_graph("utility")
    c = MultCounter()
    _run_ladder(g, 12, c, checked=True)
    assert c.count == len(sg.ladder_indices(12)) - 1


def test_checked_mode_detects_corrupt_state():
    g = sg.named_graph("chvatal")
    primes = _moduli(g.n, g.n * (g.q**60 + 1))
    assert len(primes) > 1
    a = g.adjacency.data.astype(np.float64)
    stack = np.repeat(a[None], len(primes), axis=0)  # residues of M(1) = A
    with pytest.raises(LadderInvariantError, match="exponent"):
        _check_state(4, stack, 1, a, g.q, primes)
    with pytest.raises(LadderInvariantError, match="register"):
        _check_state(2, stack, 1, a, g.q, primes)
    _check_state(1, stack, 0, a, g.q, primes)
    # residues are compared modulo each prime, not as representatives
    stack[0, 0, 1] += primes[0]
    _check_state(1, stack, 0, a, g.q, primes)
    stack[-1, 2, 3] += 1
    with pytest.raises(LadderInvariantError, match=f"register mismatch at index 1 modulo {primes[-1]}"):
        _check_state(1, stack, 0, a, g.q, primes)


def test_checked_mode_covers_the_trace_only_finish(monkeypatch):
    # k = 12 finishes with trace(M(6) @ M(6)); corrupt one residue of the
    # last operand
    g = sg.named_graph("utility")
    honest = ladder._trace_residues

    def corrupted(x, y, p, inv):
        bad = x.copy()
        bad[0, 0, 0] += 1
        return honest(bad, y, p, inv)

    monkeypatch.setattr(ladder, "_trace_residues", corrupted)
    wrong, _ = _run_ladder(g, 12, MultCounter())
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
# (trace at 12).  Corrupt one residue of either half before the finish:
# in the register, where checked mode compares it with the sweep, or in
# the operand of its finish, where checked mode compares the trace.
PAIR_FINISHES = [(0, 5), (1, 6)]


def _pair(g, checked=False):
    return [trace for trace, _ in _run_ladder_pair(g, 10, MultCounter(), checked=checked)]


@pytest.mark.parametrize("which,index", PAIR_FINISHES)
def test_checked_mode_covers_both_pair_registers(monkeypatch, which, index):
    g = sg.named_graph("utility")
    truth = _pair(g)
    steps = len(sg.ladder_indices(11)) - 2
    honest = ladder._reduce
    made = []

    def corrupted(x, p, inv):
        out = honest(x, p, inv)
        if out.ndim == 3:  # a step's matrix stack, not the finish's row sums
            made.append(1)
            # the block's last two steps build M(5), then M(6)
            if len(made) % steps == (steps - 1 + which) % steps:
                out[0, 0, 0] += 1
        return out

    monkeypatch.setattr(ladder, "_reduce", corrupted)
    wrong = _pair(g)
    assert wrong[which] != truth[which] and wrong[1 - which] == truth[1 - which]
    with pytest.raises(LadderInvariantError, match=f"register mismatch at index {index} "):
        _pair(g, checked=True)


@pytest.mark.parametrize("which,index", PAIR_FINISHES)
def test_checked_mode_covers_both_squaring_finishes(monkeypatch, which, index):
    g = sg.named_graph("utility")
    truth = _pair(g)
    honest = ladder._trace_residues
    calls = []

    def corrupted(x, y, p, inv):
        calls.append(1)
        if (len(calls) - 1) % 2 == which:  # finishes run M(5)**2, then M(6)**2
            x = x.copy()
            x[0, 0, 0] += 1
            y = x
        return honest(x, y, p, inv)

    monkeypatch.setattr(ladder, "_trace_residues", corrupted)
    wrong = _pair(g)
    assert wrong[which] != truth[which] and wrong[1 - which] == truth[1 - which]
    with pytest.raises(LadderInvariantError, match=f"final trace .* at index {2 * index},"):
        _pair(g, checked=True)
