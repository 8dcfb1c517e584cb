import hashlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import specgap as sg
from specgap import graphs
from specgap.graphs import GraphValidationError

from brute import first_asymmetric_pair, parse_edge_list_by_line, reachable_by_sets
from conftest import RANDOM_SPECS


def _reason(excinfo):
    return excinfo.value.reason


def test_validate_utility():
    rows = [[0] * 6 for _ in range(6)]
    for u in range(3):
        for v in range(3, 6):
            rows[u][v] = rows[v][u] = 1
    g = sg.validate(rows)
    assert (g.n, g.q) == (6, 2)


def test_validate_accepts_numpy_and_own_adjacency():
    g = sg.named_graph("cube")
    assert (g.n, g.q) == (8, 2)
    again = sg.validate(np.array(g.adjacency.tolist()))
    assert again == g
    assert sg.validate(g.adjacency) == g


def test_adjacency_is_read_only_int8():
    g = sg.named_graph("petersen")
    assert g.adjacency.dtype == np.int8
    assert g.adjacency.flags.c_contiguous and not g.adjacency.flags.writeable
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 0
    # validate copies: the caller's array stays writable and unshared
    rows = np.array(g.adjacency, dtype=np.int64)
    h = sg.validate(rows)
    rows[0, 1] = 0
    assert h == g and rows.flags.writeable


def test_path_graph_is_irregular():
    rows = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    with pytest.raises(GraphValidationError) as e:
        sg.validate(rows)
    assert _reason(e) == "irregular"


def _two_triangles():
    rows = [[0] * 6 for _ in range(6)]
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        rows[a][b] = rows[b][a] = 1
    return rows


_REASON_CASES = [
    ([[0, 1], [1, 0]], "degree-too-small"),
    ([[1]], "too-few-vertices"),
    ([[0, 1, 1], [1, 0, 1], [0, 1, 0]], "not-symmetric"),
    ([[1, 1, 0], [1, 0, 1], [0, 1, 1]], "nonzero-diagonal"),
    ([[0, 2, 0], [2, 0, 0], [0, 0, 0]], "not-binary"),
    ([[0, 1], [1, 0], [0, 0]], "not-square"),
    ([[0, 1, 0], [1, 0, 1], [0, 1, 0]], "irregular"),
    (_two_triangles(), "disconnected"),
]

# a Python bool is not binary, though numpy would read it as 1
_TRUE_TRIANGLE = [[0, True, True], [True, 0, True], [True, True, 0]]


@pytest.mark.parametrize("rows,reason", _REASON_CASES + [(_TRUE_TRIANGLE, "not-binary")])
def test_validation_reasons(rows, reason):
    with pytest.raises(GraphValidationError) as e:
        sg.validate(rows)
    assert _reason(e) == reason


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64, bool])
@pytest.mark.parametrize("rows,reason", _REASON_CASES)
def test_validation_reasons_numpy(rows, reason, dtype):
    # a bool array is never binary, whatever its shape allows
    if dtype is bool and reason not in ("not-square", "too-few-vertices"):
        reason = "not-binary"
    with pytest.raises(GraphValidationError) as e:
        sg.validate(np.array(rows, dtype=dtype))
    assert _reason(e) == reason


def test_validation_accepts_float_entries():
    g = sg.named_graph("utility")
    assert sg.validate(np.array(g.adjacency, dtype=np.float64)) == g
    assert sg.validate([[float(v) for v in r] for r in g.adjacency.tolist()]) == g


@pytest.mark.parametrize(
    "candidate,message",
    [
        ([[0, 1, 1], [1, 0, -1], [1, 2, 0]], "entry (1,2) is -1, expected 0 or 1"),
        (np.array([[0, 1, 1], [1, 0, 3], [1, 2, 0]], dtype=np.int8), "entry (1,2) is 3, expected 0 or 1"),
        (np.array([[0, 1, 1], [1, 0, 1], [1, 0.5, 0]]), "entry (2,1) is 0.5, expected 0 or 1"),
        (np.ones((3, 3), dtype=bool), "entry (0,0) is True, expected 0 or 1"),
        ([[0, 1, 1], [1, 0, 1], [1, True, 0]], "entry (2,1) is True, expected 0 or 1"),
        (np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 0]]),
         "entries (1,2) and (2,1) differ"),
        (np.array([[0, 1, 1, 1], [1, 0, 1, 0], [1, 1, 0, 1], [1, 0, 1, 0]], dtype=np.int8),
         "vertex 1 has degree 2, vertex 0 has degree 3"),
    ],
)
def test_validation_names_first_offender(candidate, message):
    with pytest.raises(GraphValidationError) as e:
        sg.validate(candidate)
    assert str(e.value) == message


def test_disconnected_rejected():
    with pytest.raises(GraphValidationError) as e:
        sg.validate(_two_triangles())
    assert _reason(e) == "disconnected"


def _random_upper(draw, n):
    """A random symmetric zero-diagonal 0/1 int8 matrix on n vertices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.02, 0.05, 0.1, 0.3, 0.6]))
    a = np.triu(rng.random((n, n)) < density, 1)
    return (a | a.T).astype(np.int8), rng


@st.composite
def _symmetric_matrices(draw):
    """Symmetric zero-diagonal 0/1 matrices on 2-40 vertices: random ones,
    unions of components, bipartite ones, a lone path, vertex 0 isolated."""
    n = draw(st.integers(2, 40))
    a, rng = _random_upper(draw, n)
    kind = draw(st.sampled_from(["random", "components", "bipartite", "path", "isolated"]))
    if kind == "components":
        label = rng.integers(0, draw(st.integers(1, 4)), n)
        a *= label[:, None] == label
        for part in range(label.max() + 1):  # maybe a path through each component
            members = np.flatnonzero(label == part)
            if draw(st.booleans()):
                a[members[:-1], members[1:]] = a[members[1:], members[:-1]] = 1
    elif kind == "bipartite":
        side = rng.integers(0, 2, n)
        a *= side[:, None] != side
    elif kind == "path":
        a[:] = 0
        walk = rng.permutation(n)[:draw(st.integers(2, n))]
        a[walk[:-1], walk[1:]] = a[walk[1:], walk[:-1]] = 1
    elif kind == "isolated":
        a[0, :] = a[:, 0] = 0
    return a


@settings(max_examples=300, deadline=None)
@given(_symmetric_matrices())
def test_the_frontier_search_matches_a_set_based_search(a):
    assert graphs._is_connected(a) is reachable_by_sets(a.tolist())


@st.composite
def _asymmetric_matrices(draw):
    """Zero-diagonal 0/1 matrices on 2-30 vertices that are not symmetric:
    random ones, or symmetric ones with one to three entries flipped."""
    n = draw(st.integers(2, 30))
    a, rng = _random_upper(draw, n)
    if draw(st.booleans()):
        a = (rng.random((n, n)) < 0.5).astype(np.int8)
        np.fill_diagonal(a, 0)
    else:
        for _ in range(draw(st.integers(1, 3))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
            j += j >= i  # off the diagonal
            a[i, j] ^= 1
    assume(first_asymmetric_pair(a.tolist()) is not None)
    return a


@settings(max_examples=300, deadline=None)
@given(_asymmetric_matrices())
def test_validation_names_the_first_asymmetric_pair(a):
    i, j = first_asymmetric_pair(a.tolist())
    for candidate in (a, a.tolist()):
        with pytest.raises(GraphValidationError) as e:
            sg.validate(candidate)
        assert _reason(e) == "not-symmetric"
        assert str(e.value) == f"entries ({i},{j}) and ({j},{i}) differ"


def test_dense_validation_is_fast_and_small():
    # complete(2048): every row is one frontier row, and no table of
    # neighbours or triangle mask is made
    n = 2048
    a = np.ones((n, n), dtype=np.int8)
    np.fill_diagonal(a, 0)
    started = time.perf_counter()
    g = sg.validate(a)
    assert time.perf_counter() - started < 1.0
    assert (g.n, g.q) == (n, n - 2)
    del g
    # tracemalloc slows allocation down, so memory is measured on a second run
    tracemalloc.start()
    try:
        sg.validate(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def _cycle_edges(k, offset=0):
    return [(offset + i, offset + i + 1) for i in range(k - 1)] + [(offset, offset + k - 1)]


def test_deep_bfs_long_cycle_is_connected():
    g = sg.named_graph("cycle(2000)")
    assert (g.n, g.q) == (2000, 1)
    assert g.neighbors(1000) == [999, 1001]


def test_deep_bfs_two_long_cycles_are_disconnected():
    a = np.zeros((2000, 2000), dtype=np.int8)
    u, v = np.array(_cycle_edges(1000) + _cycle_edges(1000, 1000)).T
    a[u, v] = a[v, u] = 1
    with pytest.raises(GraphValidationError) as e:
        sg.validate(a)
    assert _reason(e) == "disconnected"


def test_disconnected_edge_list_rejected():
    edges = sorted(_cycle_edges(300) + _cycle_edges(300, 300))
    text = "".join(f"{u} {v}\n" for u, v in edges)
    with pytest.raises(GraphValidationError) as e:
        sg.parse_edge_list(text)
    assert _reason(e) == "disconnected"


@pytest.mark.parametrize(
    "name,n,q",
    [
        ("utility", 6, 2),
        ("cube", 8, 2),
        ("chvatal", 12, 3),
        ("petersen", 10, 2),
        ("complete(4)", 4, 2),
        ("cycle(5)", 5, 1),
    ],
)
def test_named_graphs(name, n, q):
    g = sg.named_graph(name)
    assert (g.n, g.q) == (n, q)


def test_unknown_name():
    with pytest.raises(ValueError, match="unknown graph name"):
        sg.named_graph("moebius-kantor")


def test_corpus_structural_invariants(corpus):
    for g in corpus:
        data = g.adjacency
        for i in range(g.n):
            assert data[i, i] == 0
            assert sum(data[i, j] for j in range(g.n)) == g.degree
            for j in range(g.n):
                assert data[i, j] == data[j, i]
        # reachability is rechecked by validate(); re-validate round trip
        assert sg.validate(data.tolist()) == g


def test_random_regular_validates():
    g = sg.random_regular(6, 2, seed=1)
    assert (g.n, g.q) == (6, 2)


def test_random_regular_deterministic():
    a = sg.random_regular(12, 2, seed=42)
    b = sg.random_regular(12, 2, seed=42)
    assert a == b
    c = sg.random_regular(12, 2, seed=43)
    assert a != c or a.edges() == c.edges()


# SHA-256 of write_edge_list(random_regular(n, q, seed)), frozen from the
# list-based generator; the frozen-seed corpus relies on these graphs
_PINNED_DIGESTS = {
    (8, 1, 11): "3f6df0a3cb4d2be4059a6c8c69ae64c729f70c38ce7c6e1e2f274da30faed4fa",
    (10, 2, 3): "5f27be367d3ec42150faba5bb11d88a6375bbf07f43204ed509dfdb2813eb2b7",
    (12, 2, 5): "9d31a0e468e549938fc733da0abed405f5c1025a977c8ced6536e40a7fbe4e2c",
    (14, 3, 2): "80b6ef87a99288586651abbb280f577b1a30ad393b58677140574e78ecf2f5c4",
    (9, 3, 4): "19aacad48b2ea48a4f59e8e7dea3d62394bc5317b747142341d4eae995f21537",
    (14, 1, 9): "2b3dc04f23a851935c849ca81a32f14e421c621446c298dbcbd80a28495b5a06",
    (60, 2, 1): "9651eb8bf07dc2a0f8ad0c400d87b26da319035f3b8c77da804c0bedc6b5ebe0",
    (100, 2, 7): "3a10d1cfe199d12543f2ae6a518fd8f3fe443c56325bb94e51b02bdad1fe7c4a",
    (50, 4, 3): "fcd90dea211b81fb1cbe8c41d07dc88f3ffa260594e53d3458c56cbe779749c7",
}


def test_pinned_digests_cover_the_corpus():
    assert set(RANDOM_SPECS) <= set(_PINNED_DIGESTS)


@pytest.mark.parametrize("spec", list(_PINNED_DIGESTS), ids=str)
def test_random_regular_is_pinned(spec):
    text = sg.write_edge_list(sg.random_regular(*spec))
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_DIGESTS[spec]


def test_random_regular_parity_error():
    with pytest.raises(ValueError, match="odd"):
        sg.random_regular(5, 2, seed=1)


def test_random_regular_too_small():
    with pytest.raises(ValueError, match="n >= q"):
        sg.random_regular(3, 2, seed=1)


def test_random_2_regular_on_4_vertices_is_the_4_cycle():
    # the only connected 2-regular graph on 4 vertices
    g = sg.random_regular(4, 1, seed=7)
    assert g.n == 4 and g.degree == 2
    assert len(g.edges()) == 4
    assert sg.geodesic_count_trace(g, 4) == 8


def test_edge_list_round_trip(corpus):
    for g in corpus:
        assert sg.parse_edge_list(sg.write_edge_list(g)) == g


def test_edge_list_comments_and_blanks():
    text = "# utility graph\n\n0 3\n0 4\n0 5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n"
    assert sg.parse_edge_list(text) == sg.named_graph("utility")


def test_cube_writes_12_lines():
    text = sg.write_edge_list(sg.named_graph("cube"))
    assert len(text.strip().splitlines()) == 12


@pytest.mark.parametrize(
    "text,match",
    [
        ("0 0\n", "self-loop"),
        ("0 1\n0 1\n", "duplicate"),
        ("0 1 2\n", "expected"),
        ("3 1\n", "u < v"),
        ("a b\n", "integers"),
        ("", "no edges"),
        ("-1 2\n", "negative"),
    ],
)
def test_edge_list_errors(text, match):
    with pytest.raises(ValueError, match=match):
        sg.parse_edge_list(text)


# tokens int() reads as Python reads them, and some it refuses
_TOKENS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["+1", "1_0", "0_3", "-1", "-0", "+0", "٣", "a", "1.5", "0x1", "1__0",
                     str(2**64), str(-(2**70)), str(10**30)]),
)
_SPACE = st.sampled_from([" ", "\t", "  ", " \t"])


@st.composite
def _edge_list_texts(draw):
    """Edge lists of a named graph, maybe rewritten token by token, with
    comments, blank lines, stray lines, CRLF and tabs mixed in."""
    name = draw(st.sampled_from(["utility", "petersen", "cube", "complete(4)"]))
    edges = sg.named_graph(name).edges()
    lines = []
    for u, v in edges:
        tokens = [str(u), str(v)]
        if draw(st.integers(0, 9)) == 0:  # another spelling of the same index
            side = draw(st.integers(0, 1))
            tokens[side] = draw(st.sampled_from(["+{}", "0_{}"])).format(tokens[side])
        lines.append(draw(_SPACE).join(tokens))
    stray = st.one_of(
        st.builds("#{}".format, st.text(alphabet="ab #1", max_size=6)),
        _SPACE.map(lambda space: space * 2),
        st.just(""),
        st.lists(_TOKENS, min_size=1, max_size=3).map(" ".join),
        st.tuples(_TOKENS, _TOKENS).map(" ".join),
        st.sampled_from(edges).map(lambda e: f"{e[1]} {e[0]}"),  # u > v
        st.sampled_from(edges).map(lambda e: f"{e[0]}\t{e[1]}"),  # a duplicate
        st.sampled_from(edges).map(lambda e: f"{e[0]} {e[0]}"),  # a loop
    )
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_SPACE) * draw(st.integers(0, 1))
                     + draw(stray))
    if draw(st.booleans()):
        lines = lines[:draw(st.integers(0, len(lines)))]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(build):
    """The graph a build returns, or its error's type and text."""
    try:
        g = build()
    except ValueError as error:
        return type(error), str(error)
    return g.n, g.q, g.adjacency.tolist(), g.source


@settings(max_examples=300, deadline=None)
@given(_edge_list_texts())
def test_the_edge_list_reader_matches_the_per_line_reference(text):
    try:
        n, edges = parse_edge_list_by_line(text)
    except ValueError as error:
        expected = (ValueError, str(error))
    else:
        expected = _outcome(lambda: graphs._from_edges(n, edges, source="edge-list"))
    assert _outcome(lambda: sg.parse_edge_list(text)) == expected


def test_sparse_vertex_ids_fail_before_allocation(monkeypatch):
    # 10**6 vertices would need a 10**12-cell matrix; two edges cannot
    # make them all degree >= 2, so the parser must refuse up front
    def no_allocation(*args, **kwargs):
        raise AssertionError("_from_edges must not run")

    monkeypatch.setattr(graphs, "_from_edges", no_allocation)
    with pytest.raises(ValueError, match="1000001 vertices"):
        sg.parse_edge_list(f"0 1\n1 {10**6}\n")


def test_parsed_graph_still_validated():
    # K4 minus an edge parses but is irregular
    with pytest.raises(GraphValidationError):
        sg.parse_edge_list("0 1\n0 2\n1 2\n1 3\n2 3\n")


# ---- the vertex cap ----


def test_vertex_cap_refuses_a_long_cycle_edge_list_at_once():
    n = 10**5
    text = "".join(f"{i} {i + 1}\n" for i in range(n - 1)) + f"0 {n - 1}\n"
    message = f"{n} vertices exceed the limit of {graphs.MAX_VERTICES}"
    started = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        sg.parse_edge_list(text)
    assert time.perf_counter() - started < 1.0
    # tracemalloc slows allocation down, so memory is measured on a second run
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            sg.parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_vertex_cap_holds_on_every_construction(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("no n x n array may be made")

    big = graphs.MAX_VERTICES + 2
    with monkeypatch.context() as m:
        m.setattr(graphs.np, "zeros", no_allocation)
        for build in (
            lambda: sg.named_graph(f"cycle({big})"),
            lambda: sg.named_graph(f"complete({big})"),
            lambda: sg.random_regular(big, 2, seed=1),
            lambda: graphs._from_edges(big, [(0, 1)], "test"),
        ):
            with pytest.raises(GraphValidationError) as info:
                build()
            assert info.value.reason == "too-many-vertices"
    # validate refuses before any n x n mask, for arrays and for lists
    for candidate in (np.broadcast_to(np.int8(0), (big, big)), [[0] * 3] * big):
        with pytest.raises(GraphValidationError) as info:
            sg.validate(candidate)
        assert info.value.reason == "too-many-vertices"


def test_vertex_cap_admits_its_limit():
    # building cycle(MAX_VERTICES) would take a few hundred MiB of masks
    graphs._check_order(graphs.MAX_VERTICES)
    with pytest.raises(GraphValidationError, match="exceed the limit"):
        graphs._check_order(graphs.MAX_VERTICES + 1)


def test_vertex_cap_is_one_cli_error_line(capsys):
    from specgap import cli

    name = f"cycle({graphs.MAX_VERTICES + 1})"
    assert cli.main(["estimate", "--name", name, "--epsilon", "1/2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "exceed the limit" in err and err.strip().count("\n") == 0
