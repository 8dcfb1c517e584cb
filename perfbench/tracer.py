"""Span tracing from outside the program, for the per-layer metrics.

The tracer replaces public names of the program with wrappers that record
a span (name, start, end, parent, request) around each call.  Modules
import names directly, so each name is patched where its caller looks it
up, e.g. ``specgap.cli.estimate_expansion`` as well as
``specgap.estimator.expansion_slack``.  A name the program no longer has
is skipped, and the metrics it feeds read zero.  Spans stay in memory
until the run writes them out.

A layer's self time is its spans' durations minus the time their child
spans cover.  Per-layer figures are per round (one pass over the
workload's requests).
"""

import importlib
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name): the layer boundaries the tracer wraps
PATCHES = (
    ("specgap.cli", "parse_edge_list", "graphs.parse"),
    ("specgap.cli", "estimate_expansion", "estimator"),
    ("specgap.estimator", "required_even_index", "estimator.required_even_index"),
    ("specgap.estimator", "expansion_slack", "ladder"),
    ("specgap.cli", "expansion_slack", "ladder"),
    ("specgap.oracle", "geodesic_count", "ladder"),
    ("specgap.cli", "adjacency_spectrum", "oracle.spectrum"),
    ("specgap.oracle", "adjacency_spectrum", "oracle.spectrum"),
    ("specgap.cli", "spectral_summary", "oracle.summary"),
    ("specgap.cli", "geodesic_bounds_hold", "oracle.bounds"),
    ("specgap._kernels", "matmul_int64", "kernels.matmul_int64"),
    ("specgap._kernels", "jacobi_eigenvalues", "kernels.jacobi"),
    ("specgap.exact.Quadratic", "decimal", "exact.decimal"),
    ("specgap.exact.IntMatrix", "__matmul__", "exact.matmul"),
)

COUNT_METRICS = (
    "ladder.calls", "ladder.products", "exact.matmul_object_n",
    "exact.matmul_object_bits_max", "exact.matmul_object_limb_mults",
    "exact.matmul_int64_n", "oracle.spectrum_calls", "kernels.jacobi_sweeps",
)
TIME_METRICS = (
    "exact.matmul_object_s", "exact.matmul_int64_s", "kernels.matmul_int64_s",
    "exact.int64_convert_s", "exact.decimal_s", "ladder.self_s",
    "estimator.self_s", "estimator.required_even_index_s", "cli.self_s",
    "graphs.parse_s", "oracle.spectrum_s", "oracle.bounds_s", "oracle.self_s",
    "kernels.jacobi_s",
)


def _resolve(dotted):
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for name in parts[i:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


def _max_bits(data):
    return int(np.abs(data).max()).bit_length() if data.size else 0


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs", "child_s")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.attrs = {}
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = []
        self.request = None
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.request)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start

    @contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as s:
                out = fn(*args, **kwargs)
            if name == "kernels.jacobi":
                s.attrs["sweeps"] = int(out[1])
            elif name == "kernels.matmul_int64" and s.parent is not None:
                s.parent.attrs["int64"] = True
            elif name == "exact.matmul" and not s.attrs.get("int64"):
                tracer._record_operands(s, *args)
            return out

        return traced

    def _record_operands(self, span, a, b):
        # a span of its own, so that no layer is charged for the bookkeeping
        with self.span("trace.bookkeeping"):
            span.attrs["n"] = a.order
            span.attrs["bits"] = (_max_bits(a.data), _max_bits(b.data))

    @contextmanager
    def installed(self):
        """Patch every layer boundary the program still has; undo on exit."""
        undo = []
        try:
            for owner_name, attr, span_name in PATCHES:
                owner = _resolve(owner_name)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    continue
                setattr(owner, attr, self._wrap(fn, span_name))
                undo.append((owner, attr, fn))
            self._patch_counter(undo)
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    def _patch_counter(self, undo):
        import specgap.ladder as ladder

        base = getattr(ladder, "MultCounter", None)
        if base is None:
            return
        counters = self.counters

        class RecordingCounter(base):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                counters.append(self)

        ladder.MultCounter = RecordingCounter
        undo.append((ladder, "MultCounter", base))


def round_metrics(spans, products):
    """Per-layer figures for one round's spans; ``products`` is the MultCounter total."""
    m = {**dict.fromkeys(COUNT_METRICS, 0), **dict.fromkeys(TIME_METRICS, 0.0)}
    m["ladder.products"] = products
    for s in spans:
        dur = s.end - s.start
        own = dur - s.child_s
        name = s.name
        if name == "exact.matmul":
            if s.attrs.get("int64"):
                m["exact.matmul_int64_n"] += 1
                m["exact.matmul_int64_s"] += dur
                m["exact.int64_convert_s"] += own
            else:
                n = s.attrs.get("n", 0)
                ba, bb = s.attrs.get("bits", (0, 0))
                m["exact.matmul_object_n"] += 1
                m["exact.matmul_object_s"] += own
                m["exact.matmul_object_bits_max"] = max(m["exact.matmul_object_bits_max"], ba, bb)
                m["exact.matmul_object_limb_mults"] += n**3 * (-(-ba // 64)) * (-(-bb // 64))
        elif name == "kernels.matmul_int64":
            m["kernels.matmul_int64_s"] += dur
        elif name == "kernels.jacobi":
            m["kernels.jacobi_s"] += dur
            m["kernels.jacobi_sweeps"] += s.attrs.get("sweeps", 0)
        elif name == "ladder":
            m["ladder.calls"] += 1
            m["ladder.self_s"] += own
        elif name == "oracle.spectrum":
            m["oracle.spectrum_calls"] += 1
            m["oracle.spectrum_s"] += dur
            m["oracle.self_s"] += own
        elif name == "oracle.bounds":
            m["oracle.bounds_s"] += dur
            m["oracle.self_s"] += own
        elif name == "oracle.summary":
            m["oracle.self_s"] += own
        elif name == "cli":
            m["cli.self_s"] += own
        elif name == "estimator":
            m["estimator.self_s"] += own
        elif name == "estimator.required_even_index":
            m["estimator.required_even_index_s"] += dur
        elif name == "graphs.parse":
            m["graphs.parse_s"] += dur
        elif name == "exact.decimal":
            m["exact.decimal_s"] += own
    return m

