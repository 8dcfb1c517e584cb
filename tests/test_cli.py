import decimal
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import specgap as sg
from specgap import cli, ladder
from specgap.cli import main
from specgap.exact import Quadratic

# the directory that holds the specgap package
SRC = Path(sg.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def spy(monkeypatch, module, name):
    """Record each call of module.name, which still runs."""
    calls = []
    honest = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_ngc_named(capsys):
    code, out, _ = run(capsys, "ngc", "--name", "utility", "-k", "4")
    assert code == 0
    assert "72" in out


def test_ngc_k1(capsys):
    payload = run_json(capsys, "ngc", "--name", "utility", "-k", "1")
    assert payload["results"]["count"] == 0
    assert payload["graph"] == {"n": 6, "q": 2, "degree": 3, "source": "utility"}


@pytest.mark.parametrize("k", ["0", "-4"])
def test_ngc_refuses_lengths_below_one(capsys, k):
    code, out, err = run(capsys, "ngc", "--name", "petersen", "-k", k)
    assert code == 1 and out == ""
    assert err == f"error: k must be >= 1, got {k}\n"


def test_ngc_oracle_flag(capsys, tmp_path):
    path = tmp_path / "k33.edges"
    path.write_text(sg.write_edge_list(sg.named_graph("utility")))
    payload = run_json(capsys, "ngc", "--file", str(path), "-k", "4", "--oracle")
    res = payload["results"]
    assert res["count"] == 72 and res["trace_oracle"] == 72 and res["match"] is True


def test_ngc_oracle_refuses_a_large_edge_matrix(capsys):
    code, out, err = run(capsys, "ngc", "--name", "cycle(1025)", "-k", "3", "--oracle")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "2050 oriented edges" in err


def test_ngc_oracle_refuses_before_it_counts(capsys, monkeypatch):
    counts = []
    monkeypatch.setattr(cli, "geodesic_count", lambda graph, k: counts.append(k))
    started = time.perf_counter()
    code, out, err = run(capsys, "ngc", "--name", "cycle(2000)", "-k", "3000", "--oracle")
    assert time.perf_counter() - started < 0.5
    assert code == 1 and out == "" and counts == []
    assert err == "error: the edge matrix of 4000 oriented edges exceeds the oracle's limit of 1024\n"


def test_ngc_prints_counts_past_the_int_text_limit(capsys):
    # the count has about 9,000 digits; str(int) stops at 4,300
    code, out, err = run(capsys, "ngc", "--name", "petersen", "-k", "30000")
    assert code == 0 and err == ""
    head = out.splitlines()[0]
    assert head.startswith("geodesic cycles of length 30000: ")
    count = int(decimal.Decimal(head.rsplit(" ", 1)[1]))
    assert count == sg.geodesic_count(sg.named_graph("petersen"), 30000)
    assert count.bit_length() > 4300 * 3


def test_ngc_json_refuses_a_count_past_the_int_text_limit(capsys, monkeypatch):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter renders ints of any length")
    calls = []

    def stub(graph, k):
        calls.append(k)
        return 0

    def refused(k):
        calls.clear()
        monkeypatch.setattr(cli, "geodesic_count", stub)
        code, out, err = run(capsys, "ngc", "--name", "petersen", "-k", str(k), "--json")
        monkeypatch.undo()
        if code == 0:
            return False
        assert code == 1 and out == "" and len(err.splitlines()) == 1, err
        assert err.startswith("error: ") and f"the {limit} JSON can render" in err
        assert calls == []
        return True

    # refused before any work; the first refused k, by bisection
    lo, hi = 1, 10 * limit
    assert refused(hi) and not refused(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if refused(mid) else (mid, hi)
    # the longest count JSON still takes renders, and is within two digits
    # of the limit
    payload = run_json(capsys, "ngc", "--name", "petersen", "-k", str(lo))
    digits = len(str(payload["results"]["count"]))
    assert limit - 2 <= digits <= limit


def test_ngc_json_without_an_int_text_limit_takes_any_count():
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "specgap.cli", "ngc", "--name", "petersen", "-k", "30000", "--json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    digits = re.search(r'"count": (\d+)', done.stdout).group(1)
    assert len(digits) > 9000


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


def test_hseq_prints_slacks_past_the_int_text_limit(capsys):
    # the slack's rational has about 9,000 digits; str(int) stops at 4,300
    payload = run_json(capsys, "hseq", "--name", "petersen", "-k", "30000")
    (row,) = payload["results"]["slacks"]
    assert row["decimal"] == "18.12405638" and row["sqrt_coeff"] == "0"
    num, den = (int(decimal.Decimal(part)) for part in row["rational"].split("/"))
    value = sg.expansion_slack(sg.named_graph("petersen"), 30000).value
    assert Fraction(num, den) == value.rational and num.bit_length() > 4300 * 3
    code, out, err = run(capsys, "hseq", "--name", "petersen", "-k", "30000")
    assert code == 0 and err == ""
    assert out.startswith("k=30000: ") and out.splitlines()[0].endswith(" (18.12405638)")


def test_hseq_ranges_past_one_read_one_sweep(capsys, monkeypatch, tmp_path):
    path = tmp_path / "g120.edges"
    path.write_text(sg.write_edge_list(sg.random_regular(120, 2, seed=1)))
    full = run_json(capsys, "hseq", "--file", str(path), "-k", "1..50")["results"]["slacks"]
    drives = spy(monkeypatch, ladder, "_drive")
    for lo in (2, 26):
        rows = run_json(capsys, "hseq", "--file", str(path), "-k", f"{lo}..50")["results"]["slacks"]
        assert rows == full[lo - 1:], lo
    assert drives == []


def test_hseq_narrow_ranges_far_from_one_run_one_ladder_per_k(capsys, monkeypatch):
    sweeps = spy(monkeypatch, ladder, "_sweep")
    drives = spy(monkeypatch, ladder, "_drive")
    rows = run_json(capsys, "hseq", "--name", "petersen", "-k", "300..301")["results"]["slacks"]
    assert [r["k"] for r in rows] == [300, 301]
    assert sweeps == [] and len(drives) == 2


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


@pytest.mark.parametrize("argv", [
    ["hseq", "-k", "3"], ["estimate", "--epsilon", "2^-12"], ["table"], ["oracle"],
])
def test_precision_below_one_is_refused_while_parsing(capsys, monkeypatch, argv):
    loads = []
    monkeypatch.setattr(cli, "_load_graph", loads.append)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--name", "petersen", "--precision", "0"])
    assert exc.value.code == 2 and loads == []
    assert capsys.readouterr().err.endswith("argument --precision: digits must be >= 1, got 0\n")


@pytest.mark.parametrize("argv", [
    ["hseq", "-k", "3"], ["estimate", "--epsilon", "2^-12"], ["table"], ["oracle"],
])
def test_precision_above_the_limit_is_refused_while_parsing(capsys, monkeypatch, argv):
    loads = []
    monkeypatch.setattr(cli, "_load_graph", loads.append)
    too_many = cli._MAX_DIGITS + 1
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--name", "petersen", "--precision", str(too_many)])
    assert exc.value.code == 2 and loads == []
    assert capsys.readouterr().err.endswith(
        f"argument --precision: digits must be at most {cli._MAX_DIGITS}, got {too_many}\n")


def test_text_estimate_renders_no_decimal(capsys, monkeypatch):
    # the slack decimals appear only in the JSON payload
    calls = spy(monkeypatch, Quadratic, "decimal")
    code, out, _ = run(capsys, "estimate", "--name", "utility", "--epsilon", "2^-3",
                       "--precision", str(cli._MAX_DIGITS))
    assert code == 0 and "radius <= 2 + epsilon" in out and calls == []
    run_json(capsys, "estimate", "--name", "utility", "--epsilon", "2^-3")
    assert len(calls) == 2


def test_precision_sets_the_digits_of_each_decimal(capsys):
    (row,) = run_json(capsys, "hseq", "--name", "utility", "-k", "3",
                      "--precision", "3")["results"]["slacks"]
    assert row["decimal"] == "13.2"
    # the parser is built once; a default is not carried over from the last call
    (row,) = run_json(capsys, "hseq", "--name", "utility", "-k", "3")["results"]["slacks"]
    assert row["decimal"] == "13.18198052"
    assert cli.build_parser() is cli.build_parser()


def test_float_fields_print_at_most_17_significant_digits(capsys):
    # past 17 digits a double prints its binary expansion, not digits of
    # the value; the exact slack decimals keep every digit asked for
    code, out, _ = run(capsys, "estimate", "--name", "utility", "--epsilon", "2^-4",
                       "--precision", "60")
    assert code == 0
    shown = next(l for l in out.splitlines() if l.startswith("estimate")).split()[-1]
    assert shown == "2.1213201960456698" and float(shown) == 2.1213201960456698
    code, out, _ = run(capsys, "oracle", "--name", "petersen", "--precision", "40")
    assert code == 0
    shown = out.splitlines()[0].split(": ")[1].split(", ")
    eigenvalues = run_json(capsys, "oracle", "--name", "petersen")["results"]["eigenvalues"]
    # each value round-trips to its double, in at most 17 significant digits
    assert [float(v) for v in shown] == eigenvalues
    assert all(len(re.sub(r"[-.]|e.*", "", v).lstrip("0")) <= 17 for v in shown)
    (row,) = run_json(capsys, "hseq", "--name", "utility", "-k", "3",
                      "--precision", "60")["results"]["slacks"]
    assert len(row["decimal"].replace(".", "")) == 60


@pytest.mark.parametrize("argv", [
    ["ngc", "--name", "petersen", "-k", "3"], ["gen", "--name", "petersen"],
])
def test_commands_without_decimals_take_json_but_no_precision(capsys, argv):
    assert run_json(capsys, *argv)["command"] == argv[0]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--precision", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --precision 4\n")


def test_table_utility(capsys):
    payload = run_json(capsys, "table", "--name", "utility")
    rows = payload["results"]["rows"]
    assert [r["within_bound"] for r in rows] == [True] * 3 + [False] * 7
    assert abs(rows[3]["estimate"] - 2.121320196) < 1e-5


def test_table_runs_one_ladder(capsys, monkeypatch):
    # every eps of the sweep reads its traces off the largest k's ladder
    plans = spy(monkeypatch, ladder, "_plan")
    counters = spy(monkeypatch, ladder, "MultCounter")
    drives = spy(monkeypatch, ladder, "_drive")
    rows = run_json(capsys, "table", "--name", "petersen")["results"]["rows"]
    assert len(rows) == 10
    assert len(plans) == len(counters) == len(drives) == 1


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


def test_undetermined_trace_is_one_line_error(capsys, monkeypatch):
    from specgap import ladder

    honest = ladder._moduli
    monkeypatch.setattr(ladder, "_moduli", lambda n, bound: honest(n, bound)[:-1])
    code, out, err = run(capsys, "estimate", "--name", "petersen", "--epsilon", "2^-8")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "do not determine" in err


@pytest.mark.parametrize("argv,index", [
    # estimate takes k = 3,844,450,720,442; its pair is sized for k + 2
    (["estimate", "--name", "petersen", "--epsilon", "2^-40"], 3_844_450_720_444),
    (["ngc", "--name", "petersen", "-k", "10000000000000"], 10_000_000_000_000),
    # the oracle's size check comes first, but not its matrix power
    (["ngc", "--name", "petersen", "-k", "10000000000000", "--oracle"], 10_000_000_000_000),
])
def test_hopeless_index_is_refused_at_once(capsys, argv, index):
    # no primes below petersen's limit determine a trace at that index, so
    # the ladder refuses before it forms any power of q
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 0.5
    assert code == 1 and out == ""
    assert err == f"error: moduli do not determine a trace bounded by 10 * (2**{index} + 1)\n"


@pytest.mark.parametrize("epsilon", [
    "2^-99999999999", "1e-10000000", "2^-10000000", "2^100000000", "1e99999999999",
])
def test_huge_epsilon_exponents_fail_at_once(capsys, epsilon):
    # refused before any power of 2 or 10 is formed
    started = time.perf_counter()
    code, out, err = run(capsys, "estimate", "--name", "petersen", "--epsilon", epsilon)
    assert time.perf_counter() - started < 0.5
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "epsilon" in err


def test_invalid_k_range(capsys):
    code, _, err = run(capsys, "hseq", "--name", "cube", "-k", "6..2")
    assert code == 1
    assert err.startswith("error:")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "specgap" in capsys.readouterr().out
