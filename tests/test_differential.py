"""Differential tests: three independent routes to the same exact traces.

The Chebyshev ladder (O(log k) products, trace-only finish, symmetric
big-integer fill), the three-term sweep (neighbour-row sums, int64 then
Python ints) and trace(W**k) on the directed edge matrix must agree on
every geodesic-cycle count; where the spectrum is integral, the slack
must also equal the scalar recomputation from the eigenvalues.
"""

import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import specgap as sg
from specgap import exact
from specgap.graphs import GraphGenerationError
from specgap.ladder import _sweep, chebyshev_sweep, expansion_slacks, geodesic_counts
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


# each ladder's largest formed product has its bound in [2**62, 2**63),
# with an earlier product in [2**61, 2**62): both paths, right at the cutoff
BOUNDARY_CASES = [("petersen", 131), ("utility", 125), ("chvatal", 83), ("complete(5)", 81)]


@pytest.mark.parametrize("name,k", BOUNDARY_CASES, ids=[n for n, _ in BOUNDARY_CASES])
def test_int64_boundary(monkeypatch, name, k):
    g = sg.named_graph(name)
    paths = []
    kernel, fill = exact._kernels.matmul_int64, exact._symmetric_product
    monkeypatch.setattr(exact._kernels, "matmul_int64",
                        lambda x, y: paths.append(("int64", x.shape[0] * int(abs(x).max()) * int(abs(y).max())))
                        or kernel(x, y))
    monkeypatch.setattr(exact, "_symmetric_product",
                        lambda x, y: paths.append(("fill", x.shape[0] * exact._max_abs(x) * exact._max_abs(y)))
                        or fill(x, y))
    trace = _ladder_trace(g, k)
    monkeypatch.undo()

    assert [p for p, _ in paths].count("fill") >= 1
    assert all(b < 2**62 for p, b in paths if p == "int64")
    assert all(2**62 <= b < 2**63 for p, b in paths if p == "fill")
    assert max(b for p, b in paths if p == "int64") >= 2**61

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
