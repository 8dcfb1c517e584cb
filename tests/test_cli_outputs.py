"""Every command's stdout, stderr and exit code, pinned on two small graphs.

Each command runs in text and under --json.  Exact fields (counts, slack
rationals and decimals, verdicts, ks, edges) must match by value; the
float fields (estimates, eigenvalues, mu, the spectral gap) come from
doubles and LAPACK, and match to 1e-9.  In the text, a float field is
written in braces; the elapsed time, the one field that varies from run
to run, is checked for its form alone.
"""

import json
import re

import pytest

from specgap import cli
from specgap.cli import main

SUMMARY = {
    "utility": {"n": 6, "q": 2, "degree": 3, "source": "utility"},
    "petersen": {"n": 10, "q": 2, "degree": 3, "source": "petersen"},
}


def _slack(k, rational, sqrt_coeff, decimal):
    return {"k": k, "rational": rational, "sqrt_coeff": sqrt_coeff, "radicand": 2,
            "decimal": decimal}


def _rows(flags, estimates):
    return {"rows": [{"epsilon": f"2^-{i}", "within_bound": flag, "estimate": est}
                     for i, flag, est in zip(range(1, 11), flags, estimates)]}


def _table_lines(flags, estimates):
    head = ["epsilon  radius<=2+eps  estimate"]
    return head + [f"{f'2^-{i}':<9}{str(flag).lower():<15}"
                   + ("nil" if est is None else f"{{{est}}}")
                   for i, flag, est in zip(range(1, 11), flags, estimates)]


UTILITY_TABLE = ([True] * 3 + [False] * 7,
                 [2.000001237, 2.177626551, 2.122056029, 2.121320196] + [2.121320344] * 6)
UTILITY_TABLE_JSON = ([True] * 3 + [False] * 7,
                      [2.0000012373171128, 2.1776265508854054, 2.122056028717334,
                       2.12132019604567] + [2.1213203435596424] * 6)
PETERSEN_TABLE = ([True] * 10, [None] * 10)

UTILITY_EDGES = ["0 3", "0 4", "0 5", "1 3", "1 4", "1 5", "2 3", "2 4", "2 5"]
PETERSEN_EDGES = ["0 1", "0 4", "0 5", "1 2", "1 6", "2 3", "2 7", "3 4", "3 8", "4 9",
                  "5 7", "5 8", "6 8", "6 9", "7 9"]

# (graph, argv after the source): (text lines before the time, JSON results)
CASES = {
    ("utility", "ngc -k 6"): (
        ["geodesic cycles of length 6: 72"],
        {"k": 6, "count": 72},
    ),
    ("utility", "ngc -k 6 --oracle"): (
        ["geodesic cycles of length 6: 72", "edge-matrix trace oracle: 72", "MATCH"],
        {"k": 6, "count": 72, "trace_oracle": 72, "match": True},
    ),
    ("utility", "hseq -k 1..4"): (
        ["k=1: 10 + 3/2*sqrt(2) (12.12132034)", "k=2: 31/2 (15.5)",
         "k=3: 10 + 9/4*sqrt(2) (13.18198052)", "k=4: -9/4 (-2.25)"],
        {"slacks": [_slack(1, "10", "3/2", "12.12132034"), _slack(2, "31/2", "0", "15.5"),
                    _slack(3, "10", "9/4", "13.18198052"), _slack(4, "-9/4", "0", "-2.25")]},
    ),
    ("utility", "estimate --epsilon 2^-3"): (
        ["epsilon = 1/8 ; ladder indices k = 26, 28", "radius <= 2 + epsilon: true",
         "estimate of normalized radius: {2.122056029}",
         "caveat: estimates from large epsilon can be unreliable"],
        {"epsilon": "1/8", "k": 26, "k_next": 28,
         "slack": _slack(26, "-66961409/8192", "0", "-8174.000122"),
         "slack_next": _slack(28, "-268402689/16384", "0", "-16382.00006"),
         "within_bound": True, "estimate": 2.122056028717334, "caveat": True},
    ),
    ("utility", "table"): (_table_lines(*UTILITY_TABLE), _rows(*UTILITY_TABLE_JSON)),
    ("utility", "oracle --kmax 12"): (
        ["eigenvalues: {3}, {0}, {0}, {0}, {0}, {-3}",
         "normalized nontrivial radius: {2.121320344}", "spectral gap: {0}",
         "ramanujan: true", "count-deviation bounds hold for k <= 12: false"],
        {"eigenvalues": [3.0, 0.0, 0.0, 0.0, 0.0, -3.0], "mu": 2.121320343559643,
         "spectral_gap": 0.0, "is_ramanujan": True, "bounds_hold_up_to": 12,
         "bounds_hold": False},
    ),
    ("utility", "gen"): (UTILITY_EDGES, {"n": 6, "q": 2, "edges": 9, "output": None}),
    ("petersen", "ngc -k 6"): (
        ["geodesic cycles of length 6: 120"],
        {"k": 6, "count": 120},
    ),
    ("petersen", "ngc -k 6 --oracle"): (
        ["geodesic cycles of length 6: 120", "edge-matrix trace oracle: 120", "MATCH"],
        {"k": 6, "count": 120, "trace_oracle": 120, "match": True},
    ),
    ("petersen", "hseq -k 1..4"): (
        ["k=1: 18 + 3/2*sqrt(2) (20.12132034)", "k=2: 51/2 (25.5)",
         "k=3: 18 + 9/4*sqrt(2) (21.18198052)", "k=4: 99/4 (24.75)"],
        {"slacks": [_slack(1, "18", "3/2", "20.12132034"), _slack(2, "51/2", "0", "25.5"),
                    _slack(3, "18", "9/4", "21.18198052"), _slack(4, "99/4", "0", "24.75")]},
    ),
    ("petersen", "estimate --epsilon 2^-3"): (
        ["epsilon = 1/8 ; ladder indices k = 30, 32", "radius <= 2 + epsilon: true",
         "estimate: nil (nonnegative slack certifies the bound)"],
        {"epsilon": "1/8", "k": 30, "k_next": 32,
         "slack": _slack(30, "539379/32768", "0", "16.46054077"),
         "slack_next": _slack(32, "302715/65536", "0", "4.619064331"),
         "within_bound": True, "estimate": None, "caveat": False},
    ),
    ("petersen", "table"): (_table_lines(*PETERSEN_TABLE), _rows(*PETERSEN_TABLE)),
    ("petersen", "oracle --kmax 12"): (
        ["eigenvalues: {3}, {1}, {1}, {1}, {1}, {1}, {-2}, {-2}, {-2}, {-2}",
         "normalized nontrivial radius: {1.414213562}", "spectral gap: {1}",
         "ramanujan: true", "count-deviation bounds hold for k <= 12: true"],
        {"eigenvalues": [3.0] + [1.0] * 5 + [-2.0] * 4, "mu": 1.4142135623730958,
         "spectral_gap": 1.0, "is_ramanujan": True, "bounds_hold_up_to": 12,
         "bounds_hold": True},
    ),
    ("petersen", "gen"): (PETERSEN_EDGES, {"n": 10, "q": 2, "edges": 15, "output": None}),
}

FLOAT = re.compile(r"\{([^}]*)\}")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _same(actual, expected, where="results"):
    """Exact equality, type included, except that floats match to 1e-9."""
    if isinstance(expected, float):
        assert isinstance(actual, float), where
        assert actual == pytest.approx(expected, abs=1e-9), where
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for key in expected:
            _same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _same(a, e, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, where


def _same_line(actual, expected):
    """``expected`` verbatim, but for its braced float fields, which match to 1e-9."""
    parts = FLOAT.split(expected)
    pattern = "".join(re.escape(part) if i % 2 == 0 else r"(\S+?)"
                      for i, part in enumerate(parts))
    match = re.fullmatch(pattern, actual)
    assert match, (actual, expected)
    for value, want in zip(match.groups(), parts[1::2]):
        assert float(value) == pytest.approx(float(want), abs=1e-9), (actual, expected)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("graph,command", list(CASES))
def test_every_command_prints_its_pinned_output(capsys, graph, command, as_json):
    lines, results = CASES[graph, command]
    argv = command.split() + ["--name", graph] + (["--json"] if as_json else [])
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    if as_json:
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
        assert list(payload) == ["command", "graph", "results", "elapsed_seconds"]
        assert payload["command"] == command.split()[0]
        assert payload["graph"] == SUMMARY[graph]
        _same(payload["results"], results)
        assert isinstance(payload["elapsed_seconds"], float) and payload["elapsed_seconds"] >= 0
    else:
        *shown, elapsed = out.splitlines()
        assert out.endswith("\n") and len(shown) == len(lines)
        for actual, expected in zip(shown, lines):
            _same_line(actual, expected)
        assert re.fullmatch(r"\[\d+\.\d{3}s\]", elapsed)


@pytest.mark.parametrize("graph", list(SUMMARY))
def test_gen_writes_its_pinned_edge_list(capsys, tmp_path, graph):
    path = tmp_path / f"{graph}.edges"
    edges = {"utility": UTILITY_EDGES, "petersen": PETERSEN_EDGES}[graph]
    code, out, err = _run(capsys, ["gen", "--name", graph, "-o", str(path)])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"wrote {len(edges)} edges to {path}"
    assert path.read_text() == "\n".join(edges) + "\n"
    code, out, err = _run(capsys, ["gen", "--name", graph, "-o", str(path), "--json"])
    assert (code, err) == (0, "")
    _same(json.loads(out)["results"], {"n": SUMMARY[graph]["n"], "q": 2, "edges": len(edges),
                                       "output": str(path)})


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_an_oracle_mismatch_prints_it_and_exits_3(capsys, monkeypatch, as_json):
    monkeypatch.setattr(cli, "geodesic_count_trace", lambda graph, k: 73)
    argv = ["ngc", "--name", "utility", "-k", "6", "--oracle"] + (["--json"] if as_json else [])
    code, out, err = _run(capsys, argv)
    assert (code, err) == (3, "")
    if as_json:
        _same(json.loads(out)["results"], {"k": 6, "count": 72, "trace_oracle": 73,
                                           "match": False})
    else:
        assert out.splitlines()[:3] == ["geodesic cycles of length 6: 72",
                                        "edge-matrix trace oracle: 73", "MISMATCH"]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_a_missing_file_is_one_error_line(capsys, tmp_path, as_json):
    path = tmp_path / "absent.edges"
    argv = ["ngc", "--file", str(path), "-k", "2"] + (["--json"] if as_json else [])
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
