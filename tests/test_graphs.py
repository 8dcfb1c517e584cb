import numpy as np
import pytest

import specgap as sg
from specgap import graphs
from specgap.graphs import GraphValidationError


def _reason(excinfo):
    return excinfo.value.reason


def test_validate_utility():
    rows = [[0] * 6 for _ in range(6)]
    for u in range(3):
        for v in range(3, 6):
            rows[u][v] = rows[v][u] = 1
    g = sg.validate(rows)
    assert (g.n, g.q) == (6, 2)


def test_validate_accepts_numpy_and_intmatrix():
    g = sg.named_graph("cube")
    assert (g.n, g.q) == (8, 2)
    again = sg.validate(np.array(g.adjacency.data.tolist()))
    assert again == g
    assert sg.validate(g.adjacency) == g


def test_path_graph_is_irregular():
    rows = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    with pytest.raises(GraphValidationError) as e:
        sg.validate(rows)
    assert _reason(e) == "irregular"


@pytest.mark.parametrize(
    "rows,reason",
    [
        ([[0, 1], [1, 0]], "degree-too-small"),
        ([[1]], "too-few-vertices"),
        ([[0, 1, 1], [1, 0, 1], [0, 1, 0]], "not-symmetric"),
        ([[1, 1, 0], [1, 0, 1], [0, 1, 1]], "nonzero-diagonal"),
        ([[0, 2, 0], [2, 0, 0], [0, 0, 0]], "not-binary"),
        ([[0, 1], [1, 0], [0, 0]], "not-square"),
    ],
)
def test_validation_reasons(rows, reason):
    with pytest.raises(GraphValidationError) as e:
        sg.validate(rows)
    assert _reason(e) == reason


def test_disconnected_rejected():
    # two disjoint triangles
    rows = [[0] * 6 for _ in range(6)]
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        rows[a][b] = rows[b][a] = 1
    with pytest.raises(GraphValidationError) as e:
        sg.validate(rows)
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
        data = g.adjacency.data
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
