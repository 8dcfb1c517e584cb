"""Self-test of the benchmark itself: run with ``python3 perfbench/run.py --self-test``.

1. Corrupted outputs (a trace off by one, a flipped verdict, a moved
   eigenvalue, a wrong scan result, a raised exception) must count as
   failed requests.
2. Smoke runs on tiny inputs, untraced and traced, must be correct and
   emit exactly the metric names listed in BENCHMARK.json.
3. The exact counts of a traced run must repeat between two runs.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import run
from check import Oracle
from graphgen import make_inputs
from tracer import COUNT_METRICS
from workloads import NAMES, Request


def _corrupt_cli(out, edit):
    code, text = out
    payload = json.loads(text)
    edit(payload["results"])
    return code, json.dumps(payload)


def _trace_plus_one(slack, q):
    """Shift a reported slack so that the trace behind it grows by one."""
    k, e = slack["k"], slack["k"] // 2
    if k % 2 == 0:
        slack["rational"] = str(Fraction(slack["rational"]) - Fraction(1, q**e))
    else:
        slack["sqrt_coeff"] = str(Fraction(slack["sqrt_coeff"]) - Fraction(1, q ** (e + 1)))


def _corruptions(q):
    flip = {None: 3}
    return {
        "estimate": [lambda r: _trace_plus_one(r["slack"], q),
                     lambda r: _trace_plus_one(r["slack_next"], q)],
        "table": [lambda r: r["rows"][0].update(within_bound=not r["rows"][0]["within_bound"])],
        "hseq": [lambda r: _trace_plus_one(r["slacks"][1], q),
                 lambda r: _trace_plus_one(r["slacks"][4], q)],
        "oracle": [lambda r: r["eigenvalues"].__setitem__(1, r["eigenvalues"][1] + 1e-6),
                   lambda r: r.update(bounds_hold=not r["bounds_hold"]),
                   lambda r: r.update(mu=r["mu"] * (1 + 1e-6))],
        "scan": [lambda r: r.update(first_negative_k=flip.get(r["first_negative_k"]))],
    }


def check_corruptions(failures):
    workdir = run.WORK / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        graphs = {g.label: g for g in make_inputs(["utility", ("g12", 12, 2)], 1, workdir)}
        cases = [("estimate", "g12", "2^-3"), ("table", "utility", None),
                 ("hseq", "g12", 8), ("oracle", "g12", 8), ("scan", "g12", 8)]
        for kind, label, arg in cases:
            g = graphs[label]
            req = Request(kind, g, arg, Oracle(g))
            out = req.run()
            if run._check([(req, out)])[0] != 0:
                failures.append(f"{req!r}: correct output counted as failed")
            for i, edit in enumerate(_corruptions(g.q)[kind]):
                if kind == "scan":
                    bad = dict(out)
                    edit(bad)
                else:
                    bad = _corrupt_cli(out, edit)
                if run._check([(req, bad)])[0] != 1:
                    failures.append(f"{req!r}: corruption {i} not counted as failed")
            if run._check([(req, RuntimeError("boom"))])[0] != 1:
                failures.append(f"{req!r}: exception not counted as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _smoke(name, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=run.ROOT, check=True, timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_smoke(failures):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in NAMES:
        counts = []
        for trace in (0, 1, 1):
            result = _smoke(name, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{name} trace={trace}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{name} trace={trace}: {result['correct']}, "
                                f"{result['failed']}/{result['attempted']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{name} trace={trace}: metrics {sorted(got)} "
                                f"!= {sorted(expected[trace])}")
            if trace:
                counts.append({k: result["metrics"][k]["value"] for k in COUNT_METRICS})
        if counts[0] != counts[1]:
            failures.append(f"{name}: exact counts differ between runs {counts}")


def self_test():
    failures = []
    check_corruptions(failures)
    check_smoke(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0
