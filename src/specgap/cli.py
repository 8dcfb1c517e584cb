"""Command-line front end.

Subcommands: ngc (geodesic-cycle count), hseq (exact slack sequence),
estimate (bounded-radius decision), table (estimate sweep over
eps = 2^-1 .. 2^-10), oracle (spectrum-based cross-checks), gen (write
edge-list files).  Every command accepts --json for machine-readable
output carrying the same numbers as the text rendering; the four that
print decimals (hseq, estimate, table, oracle) also accept --precision.
Each command only computes: from the parsed arguments and the graph it
returns (results, text lines, exit code), and :func:`main` alone reads
the graph, times the request, prints and turns errors into one line.
"""

import argparse
import functools
import json
import math
import sys
import time

from . import __version__
from .estimator import estimate_expansion, estimate_expansions, geodesic_bounds_hold
from .exact import rational_text
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
    directed_edge_matrix,
    geodesic_count_trace,
    spectral_summary,
)

_EPS_SWEEP = [f"2^-{i}" for i in range(1, 11)]
# the most significant digits --precision takes; a decimal's cost grows about
# quadratically with its digits, and 10**9 digits would need a 415 MB power of ten
_MAX_DIGITS = 10_000


def _add_source(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--name", help="named graph (utility, cube, chvatal, petersen, complete(k), cycle(k))")
    src.add_argument("--file", help="edge-list file path")


def _digits(text):
    """The type of --precision: an int from 1 to _MAX_DIGITS, refused while parsing."""
    digits = int(text)
    if digits < 1:
        raise argparse.ArgumentTypeError(f"digits must be >= 1, got {digits}")
    if digits > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"digits must be at most {_MAX_DIGITS}, got {digits}")
    return digits


def _load_graph(args):
    """The graph of --name or --file."""
    if args.name:
        return named_graph(args.name)
    with open(args.file, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


# a double has at most 17 significant decimal digits; past them format
# prints its binary expansion, not digits of the value
_FLOAT_DIGITS = 17


def _fmt(value, precision):
    """A float-backed field (estimate, mu, gap, eigenvalue) in at most 17 digits."""
    return format(value, f".{min(precision, _FLOAT_DIGITS)}g")


def _slack_payload(slack, precision):
    v = slack.value
    return {
        "k": slack.k,
        "rational": rational_text(v.rational),
        "sqrt_coeff": rational_text(v.coeff),
        "radicand": v.radicand,
        "decimal": str(v.decimal(precision)),
    }


def _graph_summary(graph):
    return {"n": graph.n, "q": graph.q, "degree": graph.degree, "source": graph.source}


def _emit(args, graph, results, text_lines, started):
    elapsed = time.perf_counter() - started
    if args.json:
        payload = {
            "command": args.command,
            "graph": _graph_summary(graph),
            "results": results,
            "elapsed_seconds": elapsed,
        }
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)
        print(f"[{elapsed:.3f}s]")


def _refuse_long_count(graph, k):
    """Raise before any work if JSON could not render a length-k count.

    json.dumps writes an int through str, which refuses more than
    sys.get_int_max_str_digits() digits (0: no limit).  A count is at
    most n (q**k + q) <= 2n q**k in modulus, below 2**bits.
    """
    limit = sys.get_int_max_str_digits()
    bits = k * math.log2(graph.q) + (2 * graph.n).bit_length()
    digits = math.floor(bits * math.log10(2)) + 1
    if limit and digits > limit:
        raise ValueError(
            f"a geodesic count of length {k} may have up to {digits} digits, more than "
            f"the {limit} JSON can render (PYTHONINTMAXSTRDIGITS sets the limit); "
            "the text output has none"
        )


def _cmd_ngc(args, graph):
    if args.json:
        _refuse_long_count(graph, args.k)
    if args.oracle:
        directed_edge_matrix(graph)  # refuses past the oracle's limit, before the count
    count = geodesic_count(graph, args.k)
    results = {"k": args.k, "count": count}
    lines = [f"geodesic cycles of length {args.k}: {rational_text(count)}"]
    if args.oracle:
        check = geodesic_count_trace(graph, args.k)
        results["trace_oracle"] = check
        results["match"] = check == count
        lines.append(f"edge-matrix trace oracle: {rational_text(check)}")
        lines.append("MATCH" if check == count else "MISMATCH")
    return results, lines, 0 if results.get("match", True) else 3


def _parse_k_range(spec):
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(spec)
    if lo < 1 or hi < lo:
        raise ValueError(f"bad k range: {spec!r}")
    return lo, hi


def _cmd_hseq(args, graph):
    lo, hi = _parse_k_range(args.k)
    if lo - 1 <= hi - lo + 1:
        # one sweep, unless it would step past more indices than it returns
        rows = list(expansion_slacks(graph, hi))[lo - 1:]
    else:
        rows = [expansion_slack(graph, k) for k in range(lo, hi + 1)]
    slacks = [_slack_payload(s, args.precision) for s in rows]
    # the text reuses each payload's decimal, so every slack renders once
    lines = [f"k={s.k}: {s.value} ({p['decimal']})" for s, p in zip(rows, slacks)]
    return {"slacks": slacks}, lines, 0


def _report_payload(report, precision):
    return {
        "epsilon": rational_text(report.epsilon),
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
        f"epsilon = {rational_text(report.epsilon)} ; "
        f"ladder indices k = {report.k}, {report.k_next}",
        f"radius <= 2 + epsilon: {str(report.within_bound).lower()}",
    ]
    if report.estimate is None:
        lines.append("estimate: nil (nonnegative slack certifies the bound)")
    else:
        lines.append(f"estimate of normalized radius: {_fmt(report.estimate, precision)}")
        lines.append("caveat: estimates from large epsilon can be unreliable")
    return lines


def _cmd_estimate(args, graph):
    report = estimate_expansion(graph, args.epsilon)
    # the payload renders both slacks' decimals, which the text never prints
    results = _report_payload(report, args.precision) if args.json else None
    return results, _report_lines(report, args.precision), 0


def _cmd_table(args, graph):
    rows = list(zip(_EPS_SWEEP, estimate_expansions(graph, _EPS_SWEEP)))
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
    return results, lines, 0


def _cmd_oracle(args, graph):
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
    return results, lines, 0


def _generate(args):
    """The graph of gen's --name or --random."""
    if args.name:
        return named_graph(args.name)
    n, q = args.random
    return random_regular(n, q, seed=args.seed)


def _cmd_gen(args, graph):
    text = write_edge_list(graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        lines = [f"wrote {len(graph.edges())} edges to {args.output}"]
    else:
        lines = [text.rstrip("\n")]
    results = {"n": graph.n, "q": graph.q, "edges": len(graph.edges()),
               "output": args.output}
    return results, lines, 0


@functools.cache
def build_parser():
    """The argument parser, built once per process (main reuses it)."""
    parser = argparse.ArgumentParser(
        prog="specgap",
        description="Spectral-expansion certificates for regular graphs "
                    "from exact geodesic-cycle counts.",
    )
    parser.add_argument("--version", action="version", version=f"specgap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="emit JSON instead of text")
    decimals = argparse.ArgumentParser(add_help=False, parents=[output])
    decimals.add_argument("--precision", type=_digits, default=10, metavar="N",
                          help="significant digits for decimal output "
                               f"(default 10, at most {_MAX_DIGITS})")

    p = sub.add_parser("ngc", parents=[output], help="count geodesic cycles of one length")
    _add_source(p)
    p.add_argument("-k", type=int, required=True, help="cycle length (k >= 1)")
    p.add_argument("--oracle", action="store_true",
                   help="also compute trace(W^k) on the directed edge matrix and compare")
    p.set_defaults(func=_cmd_ngc)

    p = sub.add_parser("hseq", parents=[decimals],
                       help="exact slack values for one k or a range a..b")
    _add_source(p)
    p.add_argument("-k", required=True, help="index or inclusive range, e.g. 4 or 2..6")
    p.set_defaults(func=_cmd_hseq)

    p = sub.add_parser("estimate", parents=[decimals], help="decide radius <= 2 + epsilon")
    _add_source(p)
    p.add_argument("--epsilon", required=True,
                   help="tolerance; decimal (0.0625), fraction (1/16), or 2^-k")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("table", parents=[decimals], help="estimate sweep over eps = 2^-1 .. 2^-10")
    _add_source(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("oracle", parents=[decimals], help="eigenvalue-based cross checks")
    _add_source(p)
    p.add_argument("--kmax", type=int, default=40,
                   help="check count-deviation bounds for k <= kmax (default 40)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", parents=[output], help="generate a graph and write its edge list")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--name", help="named graph")
    src.add_argument("--random", nargs=2, type=int, metavar=("N", "Q"),
                     help="random connected (Q+1)-regular graph on N vertices")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen, source=_generate)

    return parser


def main(argv=None):
    """Run one command: read its graph, compute, print text or JSON; returns the exit code.

    The clock for the JSON's elapsed_seconds (and the text's last line)
    starts before the graph is read and stops once the command's results
    and lines are formed, just before they are printed.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        started = time.perf_counter()
        graph = getattr(args, "source", _load_graph)(args)
        results, lines, code = args.func(args, graph)
        _emit(args, graph, results, lines, started)
        return code
    except (GraphValidationError, GraphGenerationError, EigensolverError,
            ArithmeticError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
