"""Command-line front end.

Subcommands: ngc (geodesic-cycle count), hseq (exact slack sequence),
estimate (bounded-radius decision), table (estimate sweep over
eps = 2^-1 .. 2^-10), oracle (spectrum-based cross-checks), gen (write
edge-list files).  Every command accepts --json for machine-readable
output carrying the same numbers as the text rendering.
"""

import argparse
import json
import sys
import time

from . import __version__
from .estimator import estimate_expansion, parse_epsilon
from .graphs import (
    GraphGenerationError,
    GraphValidationError,
    named_graph,
    parse_edge_list,
    random_regular,
    write_edge_list,
)
from .ladder import expansion_slack, expansion_slacks, geodesic_count
from .oracle import (
    EigensolverError,
    adjacency_spectrum,
    geodesic_bounds_hold,
    geodesic_count_trace,
    spectral_summary,
)

_EPS_SWEEP = [f"2^-{i}" for i in range(1, 11)]


def _add_source(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--name", help="named graph (utility, cube, chvatal, petersen, complete(k), cycle(k))")
    src.add_argument("--file", help="edge-list file path")


def _add_common(p):
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--precision", type=int, default=10, metavar="N",
                   help="significant digits for decimal output (default 10)")


def _load_graph(args):
    if args.name:
        return named_graph(args.name)
    with open(args.file, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _fmt(value, precision):
    return format(value, f".{precision}g")


def _slack_payload(slack, precision):
    v = slack.value
    return {
        "k": slack.k,
        "rational": str(v.rational),
        "sqrt_coeff": str(v.coeff),
        "radicand": v.radicand,
        "decimal": str(v.decimal(precision)),
    }


def _slack_text(slack, precision):
    v = slack.value
    if v.coeff == 0:
        exact = str(v.rational)
    else:
        exact = str(v)
    return f"{exact} ({v.decimal(precision)})"


def _graph_summary(graph):
    return {"n": graph.n, "q": graph.q, "degree": graph.degree, "source": graph.source}


def _emit(args, command, graph, results, text_lines, started):
    elapsed = time.perf_counter() - started
    if args.json:
        payload = {
            "command": command,
            "graph": _graph_summary(graph) if graph is not None else None,
            "results": results,
            "elapsed_seconds": elapsed,
        }
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)
        print(f"[{elapsed:.3f}s]")


def _cmd_ngc(args):
    started = time.perf_counter()
    graph = _load_graph(args)
    count = geodesic_count(graph, args.k)
    results = {"k": args.k, "count": count}
    lines = [f"geodesic cycles of length {args.k}: {count}"]
    if args.oracle:
        check = geodesic_count_trace(graph, args.k)
        results["trace_oracle"] = check
        results["match"] = check == count
        lines.append(f"edge-matrix trace oracle: {check}")
        lines.append("MATCH" if check == count else "MISMATCH")
    _emit(args, "ngc", graph, results, lines, started)
    if args.oracle and results["match"] is False:
        return 3
    return 0


def _parse_k_range(spec):
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(spec)
    if lo < 1 or hi < lo:
        raise ValueError(f"bad k range: {spec!r}")
    return lo, hi


def _cmd_hseq(args):
    started = time.perf_counter()
    graph = _load_graph(args)
    lo, hi = _parse_k_range(args.k)
    if lo == 1 and hi > 1:
        # every k from 1 on: one sweep instead of one ladder per k
        rows = list(expansion_slacks(graph, hi))
    else:
        rows = [expansion_slack(graph, k) for k in range(lo, hi + 1)]
    results = {"slacks": [_slack_payload(s, args.precision) for s in rows]}
    lines = [f"k={s.k}: {_slack_text(s, args.precision)}" for s in rows]
    _emit(args, "hseq", graph, results, lines, started)
    return 0


def _report_payload(report, precision):
    return {
        "epsilon": str(report.epsilon),
        "k": report.k,
        "k_next": report.k_next,
        "slack": _slack_payload(report.slack, precision),
        "slack_next": _slack_payload(report.slack_next, precision),
        "within_bound": report.within_bound,
        "estimate": report.estimate,
        "caveat": report.caveat_flag,
    }


def _report_lines(report, precision):
    lines = [
        f"epsilon = {report.epsilon} ; ladder indices k = {report.k}, {report.k_next}",
        f"radius <= 2 + epsilon: {str(report.within_bound).lower()}",
    ]
    if report.estimate is None:
        lines.append("estimate: nil (nonnegative slack certifies the bound)")
    else:
        lines.append(f"estimate of normalized radius: {_fmt(report.estimate, precision)}")
        lines.append("caveat: estimates from large epsilon can be unreliable")
    return lines


def _cmd_estimate(args):
    started = time.perf_counter()
    graph = _load_graph(args)
    report = estimate_expansion(graph, args.epsilon)
    _emit(args, "estimate", graph, _report_payload(report, args.precision),
          _report_lines(report, args.precision), started)
    return 0


def _cmd_table(args):
    started = time.perf_counter()
    graph = _load_graph(args)
    rows = []
    for label in _EPS_SWEEP:
        report = estimate_expansion(graph, parse_epsilon(label))
        rows.append((label, report))
    results = {
        "rows": [
            {
                "epsilon": label,
                "within_bound": rep.within_bound,
                "estimate": rep.estimate,
            }
            for label, rep in rows
        ]
    }
    width = max(len("epsilon"), max(len(s) for s in _EPS_SWEEP)) + 2
    lines = [f"{'epsilon':<{width}}{'radius<=2+eps':<15}estimate"]
    for label, rep in rows:
        est = "nil" if rep.estimate is None else _fmt(rep.estimate, args.precision)
        lines.append(f"{label:<{width}}{str(rep.within_bound).lower():<15}{est}")
    _emit(args, "table", graph, results, lines, started)
    return 0


def _cmd_oracle(args):
    started = time.perf_counter()
    graph = _load_graph(args)
    spectrum = adjacency_spectrum(graph)
    summary = spectral_summary(graph, spectrum)
    bounds = geodesic_bounds_hold(graph, args.kmax)
    results = {
        "eigenvalues": list(spectrum.values),
        "mu": summary.mu,
        "spectral_gap": summary.spectral_gap,
        "is_ramanujan": summary.is_ramanujan,
        "bounds_hold_up_to": args.kmax,
        "bounds_hold": bounds,
    }
    p = args.precision
    lines = [
        "eigenvalues: " + ", ".join(_fmt(v, p) for v in spectrum.values),
        f"normalized nontrivial radius: {_fmt(summary.mu, p)}",
        f"spectral gap: {_fmt(summary.spectral_gap, p)}",
        f"ramanujan: {str(summary.is_ramanujan).lower()}",
        f"count-deviation bounds hold for k <= {args.kmax}: {str(bounds).lower()}",
    ]
    _emit(args, "oracle", graph, results, lines, started)
    return 0


def _cmd_gen(args):
    started = time.perf_counter()
    if args.name:
        graph = named_graph(args.name)
    else:
        n, q = args.random
        graph = random_regular(n, q, seed=args.seed)
    text = write_edge_list(graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        lines = [f"wrote {len(graph.edges())} edges to {args.output}"]
    else:
        lines = [text.rstrip("\n")]
    results = {"n": graph.n, "q": graph.q, "edges": len(graph.edges()),
               "output": args.output}
    _emit(args, "gen", graph, results, lines, started)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="specgap",
        description="Spectral-expansion certificates for regular graphs "
                    "from exact geodesic-cycle counts.",
    )
    parser.add_argument("--version", action="version", version=f"specgap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ngc", help="count geodesic cycles of one length")
    _add_source(p)
    _add_common(p)
    p.add_argument("-k", type=int, required=True, help="cycle length (k >= 1)")
    p.add_argument("--oracle", action="store_true",
                   help="also compute trace(W^k) on the directed edge matrix and compare")
    p.set_defaults(func=_cmd_ngc)

    p = sub.add_parser("hseq", help="exact slack values for one k or a range a..b")
    _add_source(p)
    _add_common(p)
    p.add_argument("-k", required=True, help="index or inclusive range, e.g. 4 or 2..6")
    p.set_defaults(func=_cmd_hseq)

    p = sub.add_parser("estimate", help="decide radius <= 2 + epsilon")
    _add_source(p)
    _add_common(p)
    p.add_argument("--epsilon", required=True,
                   help="tolerance; decimal (0.0625), fraction (1/16), or 2^-k")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("table", help="estimate sweep over eps = 2^-1 .. 2^-10")
    _add_source(p)
    _add_common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("oracle", help="eigenvalue-based cross checks")
    _add_source(p)
    _add_common(p)
    p.add_argument("--kmax", type=int, default=40,
                   help="check count-deviation bounds for k <= kmax (default 40)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate a graph and write its edge list")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--name", help="named graph")
    src.add_argument("--random", nargs=2, type=int, metavar=("N", "Q"),
                     help="random connected (Q+1)-regular graph on N vertices")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphValidationError, GraphGenerationError, EigensolverError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
