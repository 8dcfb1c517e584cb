#!/usr/bin/env python3
"""Benchmark of the specgap program: two workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the program is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload estimate-deep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py                  # every workload, one after another
    python3 perfbench/run.py --self-test

Load is a closed loop: one client in one process, each request sent when
the previous one returned.  ``--seed`` fixes the generated input graphs.
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it prints the per-layer metrics of a traced run instead.
Every output is checked against an independent route after the timed
region.  Human-readable lines come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 8
# one client, one process: native libraries get no extra threads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
TAIL_MIN_SAMPLES = 100

END_TO_END = {
    "setup_s": "s", "requests_per_s": "1/s", "request_p50_s": "s",
    "request_tail_s": "s", "peak_rss_mib": "MiB",
}


def _environment(specgap):
    import importlib.util

    import numpy

    kernels = getattr(specgap, "_kernels", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernels.backend() if hasattr(kernels, "backend") else None,
        **{v: os.environ.get(v) for v in THREAD_VARS},
    }


def _setup_runs(paths, repeats):
    """Wall times of fresh interpreters that import specgap and load the inputs."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), *map(str, paths)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def _tail(round_latencies):
    """(value, definition) of the request tail.

    The highest percentile with 10 samples beyond it, once there are
    enough samples for that to be at least p90.  With fewer samples, the
    median over rounds of each round's slowest request.
    """
    xs = sorted(t for lat in round_latencies for t in lat)
    n = len(xs)
    if n < TAIL_MIN_SAMPLES:
        return (statistics.median(max(lat) for lat in round_latencies),
                f"median over {len(round_latencies)} rounds of the slowest request "
                f"({n} samples)")
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f}, 10 of {n} samples beyond"


def _round(requests, tracer=None):
    latencies, outputs = [], []
    start = time.perf_counter()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = req.run()
            else:
                with tracer.span(req.root):
                    out = req.run()
        except Exception as exc:  # a failed request is counted, the run goes on
            out = exc
        latencies.append(time.perf_counter() - t0)
        outputs.append((req, out))
    return latencies, outputs, time.perf_counter() - start


def _check(outputs):
    failed, errors = 0, []
    for req, out in outputs:
        if isinstance(out, Exception):
            errs = [f"raised {type(out).__name__}: {out}"]
        else:
            try:
                errs = req.check(out)
            except Exception as exc:
                errs = [f"check raised {type(exc).__name__}: {exc}"]
        if errs:
            failed += 1
            errors.append(f"{req!r}: {'; '.join(errs[:3])}")
    return failed, errors


def _peak_rss_mib():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _untraced(requests, seconds, probe_paths):
    # set-up probes are split around the loop, so that they sample the
    # machine at two times rather than one; the very first start also
    # writes bytecode caches and is dropped
    setup = _setup_runs(probe_paths, SETUP_REPEATS // 2 + 1)[1:]
    rounds, outputs, walls = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        lat, out, wall = _round(requests)
        rounds.append(lat)
        outputs += out
        walls.append(wall)
    rss = _peak_rss_mib()
    setup += _setup_runs(probe_paths, SETUP_REPEATS - len(setup))
    latencies = [t for lat in rounds for t in lat]
    tail, tail_definition = _tail(rounds)
    metrics = {
        "setup_s": statistics.median(setup),
        "requests_per_s": len(requests) / statistics.median(walls),
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": tail,
        "peak_rss_mib": rss,
    }
    by_request = {}
    for (req, _), t in zip(outputs, latencies):
        by_request.setdefault(repr(req), []).append(t)
    info = {"rounds": len(rounds), "requests": len(latencies), "round_s": walls,
            "request_tail": tail_definition,
            "setup_runs_s": setup,
            "request_median_s": {k: statistics.median(v) for k, v in by_request.items()}}
    return metrics, info, outputs


def _traced(requests, seconds, spans_path):
    """Alternate untraced and traced rounds; per-layer figures come from the
    traced ones, and the pairing keeps machine drift out of the overhead."""
    from tracer import COUNT_METRICS, Tracer, round_metrics

    tracer = Tracer()
    outputs, untraced, rounds, walls, request_s, errors = [], [], [], [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if len(untraced) <= len(rounds):
            _, out, wall = _round(requests)
            outputs += out
            untraced.append(wall)
            continue
        first_span, first_counter = len(tracer.spans), len(tracer.counters)
        with tracer.installed():
            lat, out, wall = _round(requests, tracer)
        outputs += out
        walls.append(wall)
        request_s.append(sum(lat))
        spans = tracer.spans[first_span:]
        products = sum(c.count for c in tracer.counters[first_counter:])
        rounds.append((round_metrics(spans, products), spans))
    metrics = {}
    first = rounds[0][0]
    for key in first:
        values = [m[key] for m, _ in rounds]
        if key in COUNT_METRICS:
            if len(set(values)) != 1:
                errors.append(f"count {key} differs between rounds: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.mean(values)
    layer_s = [sum(s.end - s.start - s.child_s for s in spans
                   if s.name != "trace.bookkeeping") for _, spans in rounds]
    metrics["trace.overhead_frac"] = statistics.median(walls) / statistics.median(untraced) - 1.0
    metrics["trace.coverage_frac"] = sum(layer_s) / sum(request_s)
    metrics["trace.round_s"] = statistics.median(walls)
    _write_spans(tracer.spans, spans_path)
    info = {"traced_round_s": walls, "untraced_round_s": untraced}
    return metrics, info, outputs, errors


def _write_spans(spans, path):
    index = {id(s): i for i, s in enumerate(spans)}
    rows = [[s.name, s.start, s.end, index.get(id(s.parent)), s.request, s.attrs]
            for s in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "request", "attrs"],
                   "spans": rows}, fh)


def _unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("bits_max"):
        return "bits"
    if name.endswith("limb_mults"):
        return "count-computed"
    return "count"


def run_workload(name, seed, seconds, trace, tiny=False):
    import shutil

    import specgap
    from check import Oracle
    from graphgen import make_inputs
    from workloads import WARMUP_GRAPH, Request, spec, warmup_requests

    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        graph_specs, request_specs = spec(name, tiny)
        graphs = {g.label: g for g in make_inputs(
            [WARMUP_GRAPH, *graph_specs], seed, workdir)}
        oracles = {label: Oracle(g) for label, g in graphs.items()}
        requests = [Request(kind, graphs[label], (rest or [None])[0], oracles[label])
                    for kind, label, *rest in request_specs]
        warm = graphs[WARMUP_GRAPH]
        _round(warmup_requests(warm, oracles[WARMUP_GRAPH]))

        if trace:
            metrics, info, outputs, errors = _traced(
                requests, seconds, OUT / f"spans-{name}-seed{seed}.json")
        else:
            metrics, info, outputs = _untraced(
                requests, seconds, [g.path for g in graphs.values()])
            errors = []
        failed, check_errors = _check(outputs)
        errors += check_errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outputs)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "load": "closed loop, 1 client, 1 process",
        "inputs": {g.label: {"n": g.n, "q": g.q, "sha256": g.sha256}
                   for g in graphs.values()},
        "environment": _environment(specgap),
        **info,
        "error_rate": failed / attempted,
        "errors": errors[:20],
    }
    print(json.dumps(report, indent=1))
    for key, value in metrics.items():
        print(f"{name:14s} {key:34s} {value:>16.6g} {_unit(key)}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }


def run_all(seed, seconds, trace):
    """Every workload in its own fresh interpreter, one after another."""
    from workloads import NAMES

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={result['failed'] / result['attempted']:.4g}")
        for key, m in result["metrics"].items():
            print(f"  {key:34s} {m['value']:>16.6g} {m['unit']}")
            total["metrics"][f"{name}.{key}"] = m
    return total


def main(argv=None):
    from workloads import NAMES

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[*NAMES, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs (self-test smoke runs)")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "specgap" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'specgap'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import specgap

    if Path(specgap.__file__).resolve().parent != SRC / "specgap":
        print(f"error: imported specgap from {specgap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    sys.exit(main())
