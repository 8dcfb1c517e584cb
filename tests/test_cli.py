import json

import numpy as np
import pytest

import specgap as sg
from specgap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_ngc_named(capsys):
    code, out, _ = run(capsys, "ngc", "--name", "utility", "-k", "4")
    assert code == 0
    assert "72" in out


def test_ngc_k1(capsys):
    payload = run_json(capsys, "ngc", "--name", "utility", "-k", "1")
    assert payload["results"]["count"] == 0
    assert payload["graph"] == {"n": 6, "q": 2, "degree": 3, "source": "utility"}


def test_ngc_oracle_flag(capsys, tmp_path):
    path = tmp_path / "k33.edges"
    path.write_text(sg.write_edge_list(sg.named_graph("utility")))
    payload = run_json(capsys, "ngc", "--file", str(path), "-k", "4", "--oracle")
    res = payload["results"]
    assert res["count"] == 72 and res["trace_oracle"] == 72 and res["match"] is True


def test_hseq_single(capsys):
    code, out, _ = run(capsys, "hseq", "--name", "utility", "-k", "4")
    assert code == 0
    assert "-9/4" in out and "-2.25" in out


def test_hseq_range(capsys):
    payload = run_json(capsys, "hseq", "--name", "utility", "-k", "2..6")
    rows = payload["results"]["slacks"]
    assert [r["k"] for r in rows] == [2, 3, 4, 5, 6]
    assert rows[0]["rational"] == "31/2"
    assert rows[2]["rational"] == "-9/4"
    assert rows[1]["sqrt_coeff"] == "9/4" and rows[1]["radicand"] == 2


def test_hseq_chvatal_nonnegative(capsys):
    payload = run_json(capsys, "hseq", "--name", "chvatal", "-k", "1..20")
    for row in payload["results"]["slacks"]:
        assert not row["decimal"].startswith("-")


def test_estimate_decimal_epsilon(capsys):
    payload = run_json(capsys, "estimate", "--name", "utility", "--epsilon", "0.0625")
    res = payload["results"]
    assert res["within_bound"] is False
    assert abs(res["estimate"] - 2.121320196) < 1e-5
    assert res["k"] == 48 and res["caveat"] is True


def test_estimate_power_literal_matches_decimal(capsys):
    a = run_json(capsys, "estimate", "--name", "utility", "--epsilon", "2^-4")
    b = run_json(capsys, "estimate", "--name", "utility", "--epsilon", "0.0625")
    assert a["results"] == b["results"]


def test_estimate_chvatal(capsys):
    code, out, _ = run(capsys, "estimate", "--name", "chvatal", "--epsilon", "0.5")
    assert code == 0
    assert "true" in out and "nil" in out


def test_estimate_cube(capsys):
    payload = run_json(capsys, "estimate", "--name", "cube", "--epsilon", "0.25")
    res = payload["results"]
    assert res["within_bound"] is True
    assert abs(res["estimate"] - 2.108316962) < 1e-5


def test_text_and_json_carry_the_same_numbers(capsys):
    code, text, _ = run(capsys, "estimate", "--name", "cube", "--epsilon", "0.25",
                        "--precision", "10")
    assert code == 0
    payload = run_json(capsys, "estimate", "--name", "cube", "--epsilon", "0.25")
    shown = next(l for l in text.splitlines() if l.startswith("estimate"))
    assert float(shown.split()[-1]) == pytest.approx(payload["results"]["estimate"], abs=1e-9)


def test_table_utility(capsys):
    payload = run_json(capsys, "table", "--name", "utility")
    rows = payload["results"]["rows"]
    assert [r["within_bound"] for r in rows] == [True] * 3 + [False] * 7
    assert abs(rows[3]["estimate"] - 2.121320196) < 1e-5


def test_table_chvatal_all_nil(capsys):
    code, out, _ = run(capsys, "table", "--name", "chvatal")
    assert code == 0
    body = [l for l in out.splitlines() if l.startswith("2^-")]
    assert len(body) == 10
    assert all("true" in l and "nil" in l for l in body)


def test_oracle_command(capsys):
    payload = run_json(capsys, "oracle", "--name", "utility")
    res = payload["results"]
    assert abs(res["mu"] - 2.121320343) < 1e-8
    assert res["bounds_hold"] is False
    eigs = res["eigenvalues"]
    assert abs(eigs[0] - 3) < 1e-9 and abs(eigs[-1] + 3) < 1e-9
    assert set(res) == {"eigenvalues", "mu", "spectral_gap", "is_ramanujan",
                        "bounds_hold_up_to", "bounds_hold"}


def test_oracle_solves_the_spectrum_once(capsys, monkeypatch):
    honest = np.linalg.eigvalsh
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return honest(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for name in ("petersen", "utility"):
        before = len(calls)
        run_json(capsys, "oracle", "--name", name)
        assert len(calls) - before == 1, name


def test_oracle_degenerate_cycle(capsys):
    payload = run_json(capsys, "oracle", "--name", "cycle(4)", "--kmax", "12")
    res = payload["results"]
    assert res["bounds_hold"] is True
    assert abs(res["mu"] - 2.0) < 1e-9


def test_gen_named_file(capsys, tmp_path):
    path = tmp_path / "chv.edges"
    code, _, _ = run(capsys, "gen", "--name", "chvatal", "-o", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 24
    assert sg.parse_edge_list(path.read_text()) == sg.named_graph("chvatal")


def test_gen_random_round_trip(capsys, tmp_path):
    path = tmp_path / "r.edges"
    code, _, _ = run(capsys, "gen", "--random", "10", "2", "--seed", "3", "-o", str(path))
    assert code == 0
    g = sg.parse_edge_list(path.read_text())
    assert (g.n, g.q) == (10, 2)


def test_gen_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--name", "cube")
    assert code == 0
    assert len([l for l in out.splitlines() if l and l[0].isdigit()]) == 12


def test_gen_parity_error(capsys):
    code, _, err = run(capsys, "gen", "--random", "5", "2")
    assert code == 1
    assert err.startswith("error:") and err.strip().count("\n") == 0


def test_unknown_name_is_one_line_error(capsys):
    code, _, err = run(capsys, "estimate", "--name", "nope", "--epsilon", "0.5")
    assert code == 1
    assert err.startswith("error:") and "unknown graph name" in err


def test_missing_file_error(capsys):
    code, _, err = run(capsys, "ngc", "--file", "/no/such/file", "-k", "2")
    assert code == 1
    assert err.startswith("error:")


def test_bad_epsilon_error(capsys):
    code, _, err = run(capsys, "estimate", "--name", "cube", "--epsilon", "zero")
    assert code == 1
    assert "epsilon" in err


def test_invalid_k_range(capsys):
    code, _, err = run(capsys, "hseq", "--name", "cube", "-k", "6..2")
    assert code == 1
    assert err.startswith("error:")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "specgap" in capsys.readouterr().out
