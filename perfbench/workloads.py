"""The benchmark's workloads: which graphs to generate and which requests to send.

A round is one pass over a workload's requests, in order.  A run repeats
whole rounds, so every run sends the same mix.  Each request is an
in-process call into the program's public API: ``specgap.cli.main`` with
``--json`` (stdout captured), or a library function.  The tiny variants
exist only for the benchmark's self-test.
"""

import contextlib
import io

from check import check_estimate, check_hseq, check_oracle, check_scan, check_table

# Graph specs (a name, or label, n, q; labels also seed each graph's own
# RNG) and request specs (kind, graph label, argument).  Why each workload
# is here is recorded in BENCHMARK.json.  scan-oracle-table carries three
# request families (eps tables on small graphs, every-k scans, the oracle)
# in one round: on a shared machine whose speed drifts, a run has to last
# about 45 s to be steady, and the run budget allows two such workloads.
# Its round has an odd number of requests, so that the median falls
# inside one request's samples (the table on the q=3, n=20 graph).
_FULL = {
    "estimate-deep": (
        [("g60", 60, 2), ("g100", 100, 2), ("g150", 150, 2), ("h60", 60, 3)],
        [("estimate", "g60", "2^-8"), ("estimate", "g100", "2^-8"),
         ("estimate", "g150", "2^-5"), ("estimate", "h60", "2^-6")],
    ),
    "scan-oracle-table": (
        ["chvatal", "petersen", ("g24", 24, 2), ("h20", 20, 3), ("a120", 120, 2)],
        [("oracle", "a120", 40), ("scan", "a120", 50), ("hseq", "a120", 50),
         ("table", "g24"), ("table", "h20"), ("table", "chvatal"),
         ("table", "petersen")],
    ),
}

_TINY = {
    "estimate-deep": ([("g20", 20, 2), ("h12", 12, 3)],
                      [("estimate", "g20", "2^-4"), ("estimate", "h12", "2^-3")]),
    "scan-oracle-table": ([("a20", 20, 2)],
                          [("oracle", "a20", 10), ("scan", "a20", 12),
                           ("hseq", "a20", 12), ("table", "utility")]),
}

NAMES = tuple(_FULL)

# the program is warmed up on this graph before timing starts
WARMUP_GRAPH = "utility"


def spec(name, tiny=False):
    """(graph specs, request specs) of a workload."""
    return (_TINY if tiny else _FULL)[name]


def _cli(argv):
    from specgap import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Request:
    """One call into the program, and the independent check of its output.

    ``root`` names the layer the call enters, for the trace.
    """

    def __init__(self, kind, graph, arg, oracle):
        self.kind, self.graph, self.arg, self.oracle = kind, graph, arg, oracle
        self.root = "estimator" if kind == "scan" else "cli"
        self.loaded = None
        if kind == "scan":
            import specgap

            self.loaded = specgap.parse_edge_list(graph.path.read_text(encoding="utf-8"))
        path = str(graph.path)
        self.argv = {
            "estimate": ["estimate", "--file", path, "--epsilon", str(arg), "--json"],
            "table": ["table", "--file", path, "--json"],
            "hseq": ["hseq", "--file", path, "-k", f"1..{arg}", "--json"],
            "oracle": ["oracle", "--file", path, "--kmax", str(arg), "--json"],
            "scan": None,
        }[kind]

    def run(self):
        if self.argv is not None:
            return _cli(self.argv)
        import specgap

        report = specgap.ramanujan_scan(self.loaded, self.arg)
        return {"k_max": report.k_max, "first_negative_k": report.first_negative_k}

    def check(self, out):
        fn = {
            "estimate": check_estimate, "table": check_table, "hseq": check_hseq,
            "scan": check_scan, "oracle": check_oracle,
        }[self.kind]
        arg = self.graph.label if self.kind == "table" else self.arg
        return fn(self.oracle, out, arg)

    def __repr__(self):
        return f"{self.kind}({self.graph.label}, {self.arg})"


def warmup_requests(graph, oracle):
    """One small request of every kind, so lazy set-up finishes before timing."""
    return [Request(kind, graph, arg, oracle) for kind, arg in
            (("estimate", "2^-3"), ("table", None), ("hseq", 6), ("scan", 6),
             ("oracle", 6))]
