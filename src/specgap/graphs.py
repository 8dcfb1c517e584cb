"""Connected regular simple graphs: validation, named examples, generation, IO.

Every graph handled by this package is a connected (q+1)-regular simple
undirected graph on 2 <= n <= MAX_VERTICES vertices with q >= 1.
Construction always goes through :func:`validate`, so downstream code
can rely on those facts.  The adjacency is stored once, as a read-only
C-contiguous ``np.int8`` 0/1 array, and every check runs on it with
numpy.

Edge-list file format (UTF-8 text): lines starting with '#' are comments,
every data line is "u v" with 0 <= u < v, one undirected edge per line,
whitespace separated.  The vertex count is inferred as 1 + max index.
"""

import random
import re

import numpy as np

# the most vertices a graph may have: its dense adjacency and the ladder's
# residue stacks grow with n**2, so larger requests are refused up front
MAX_VERTICES = 2**13
# random_regular gives up after this many rejected pairings
_PAIRING_ATTEMPTS = 3000


class GraphValidationError(ValueError):
    """Raised when a candidate adjacency matrix is not a valid graph.

    ``reason`` is a stable machine-readable code, one of: not-square,
    not-binary, not-symmetric, nonzero-diagonal, irregular, disconnected,
    too-few-vertices, too-many-vertices, degree-too-small.
    """

    def __init__(self, reason, message):
        super().__init__(message)
        self.reason = reason


def _check_order(n):
    """Refuse a vertex count above MAX_VERTICES, before anything of size n**2 exists."""
    if n > MAX_VERTICES:
        raise GraphValidationError(
            "too-many-vertices", f"{n} vertices exceed the limit of {MAX_VERTICES}"
        )


class GraphGenerationError(RuntimeError):
    """Raised when the random generator exhausts its rejection budget."""


class RegularGraph:
    """Validated connected (q+1)-regular simple graph with a dense 0/1 adjacency.

    ``adjacency`` is a read-only C-contiguous ``np.int8`` array; cast it
    (say, ``astype(np.float64)``) before multiplying, as int8 products
    overflow.  Instances are immutable; build them with :func:`validate`,
    :func:`named_graph`, :func:`random_regular` or :func:`parse_edge_list`.
    """

    __slots__ = ("n", "q", "adjacency", "source")

    def __init__(self, n, q, adjacency, source="validated"):
        self.n = n
        self.q = q
        self.adjacency = adjacency
        self.source = source

    @property
    def degree(self):
        return self.q + 1

    def edges(self):
        """Sorted list of undirected edges (u, v) with u < v."""
        return list(map(tuple, np.argwhere(np.triu(self.adjacency)).tolist()))

    def neighbors(self, u):
        return np.flatnonzero(self.adjacency[u]).tolist()

    def __eq__(self, other):
        if not isinstance(other, RegularGraph):
            return NotImplemented
        return (self.n == other.n and self.q == other.q
                and np.array_equal(self.adjacency, other.adjacency))

    __hash__ = None

    def __repr__(self):
        return f"RegularGraph(n={self.n}, degree={self.degree}, source={self.source!r})"


def _is_connected(a):
    """Breadth-first search from vertex 0 of the symmetric 0/1 matrix ``a``:
    the next frontier is every vertex a frontier row reaches and none before."""
    seen = np.zeros(a.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = a[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def validate(candidate, source="validated"):
    """Check a square 0/1 matrix and wrap it as a :class:`RegularGraph`.

    Accepts a list of rows or a numpy array.
    An entry is binary iff it equals 0 or 1 and is not a bool, so bool
    arrays fail and 0.0/1.0 pass.  Errors name the first offending entry
    in row-major order.  The degree is the first row sum; q = degree - 1.
    The graph gets its own read-only int8 copy of the matrix.  More than
    MAX_VERTICES vertices are refused (too-many-vertices) before any
    n x n array is made.
    """
    if isinstance(candidate, np.ndarray):
        if candidate.ndim != 2 or candidate.shape[0] != candidate.shape[1]:
            raise GraphValidationError("not-square", "adjacency matrix must be square")
        n = candidate.shape[0]
        _check_order(n)
        rows = None if candidate.dtype.kind in "biufc" else candidate.tolist()
    else:
        rows = [list(r) for r in candidate]
        n = len(rows)
        _check_order(n)
        if any(len(r) != n for r in rows):
            raise GraphValidationError("not-square", "adjacency matrix must be square")
    if n < 2:
        raise GraphValidationError("too-few-vertices", f"need at least 2 vertices, got {n}")
    if rows is None:
        # a numpy bool is no more binary than a Python one
        bad = (candidate != 0) & (candidate != 1) | (candidate.dtype.kind == "b")
        ones = candidate == 1
    else:
        bad = np.array([[isinstance(v, bool) or v not in (0, 1) for v in r] for r in rows])
        ones = np.array([[v == 1 for v in r] for r in rows])
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        v = candidate[i, j].item() if rows is None else rows[i][j]
        raise GraphValidationError("not-binary", f"entry ({i},{j}) is {v!r}, expected 0 or 1")
    a = np.ascontiguousarray(ones, dtype=np.int8)
    loops = np.flatnonzero(a.diagonal())
    if loops.size:
        raise GraphValidationError("nonzero-diagonal", f"vertex {loops[0]} carries a self-loop")
    # a symmetric mask with a zero diagonal: its first hit lies above it
    asymmetric = a != a.T
    if asymmetric.any():
        i, j = divmod(int(asymmetric.argmax()), n)
        raise GraphValidationError("not-symmetric", f"entries ({i},{j}) and ({j},{i}) differ")
    degrees = a.sum(axis=1)
    degree = int(degrees[0])
    irregular = np.flatnonzero(degrees != degree)
    if irregular.size:
        i = irregular[0]
        raise GraphValidationError(
            "irregular", f"vertex {i} has degree {degrees[i]}, vertex 0 has degree {degree}"
        )
    q = degree - 1
    if q < 1:
        raise GraphValidationError(
            "degree-too-small", f"degree must be at least 2, got {degree}"
        )
    if not _is_connected(a):
        raise GraphValidationError("disconnected", "graph is not connected")
    a.flags.writeable = False
    return RegularGraph(n, q, a, source=source)


def _from_edges(n, edges, source):
    _check_order(n)
    a = np.zeros((n, n), dtype=np.int8)
    u, v = np.array(edges, dtype=np.intp).T
    a[u, v] = a[v, u] = 1
    return validate(a, source=source)


def _utility():
    # complete bipartite 3+3
    return _from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)], "utility")


def _cube():
    edges = [
        (u, u ^ (1 << b))
        for u in range(8)
        for b in range(3)
        if u < (u ^ (1 << b))
    ]
    return _from_edges(8, edges, "cube")


_CHVATAL_EDGES = [
    (0, 1), (0, 4), (0, 6), (0, 9),
    (1, 2), (1, 5), (1, 7),
    (2, 3), (2, 6), (2, 8),
    (3, 4), (3, 7), (3, 9),
    (4, 5), (4, 8),
    (5, 10), (5, 11),
    (6, 10), (6, 11),
    (7, 8), (7, 11),
    (8, 10),
    (9, 10), (9, 11),
]


def _petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return _from_edges(10, [(min(u, v), max(u, v)) for u, v in edges], "petersen")


def _complete(k):
    if k < 3:
        raise GraphValidationError(
            "degree-too-small", f"complete({k}) is not at least 2-regular"
        )
    _check_order(k)
    return _from_edges(k, [(u, v) for u in range(k) for v in range(u + 1, k)], f"complete({k})")


def _cycle(k):
    if k < 3:
        raise GraphValidationError("too-few-vertices", f"cycle({k}) needs k >= 3")
    _check_order(k)
    edges = [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
    return _from_edges(k, edges, f"cycle({k})")


_PARAMETRIC = re.compile(r"^(complete|cycle)\((\d+)\)$")


def named_graph(name):
    """A canonical graph by name.

    Known names: utility (complete bipartite 3+3), cube, chvatal, petersen,
    complete(k) for k >= 3, cycle(k) for k >= 3.
    """
    key = name.strip().lower()
    if key == "utility":
        return _utility()
    if key == "cube":
        return _cube()
    if key == "chvatal":
        return _from_edges(12, _CHVATAL_EDGES, "chvatal")
    if key == "petersen":
        return _petersen()
    m = _PARAMETRIC.match(key)
    if m:
        k = int(m.group(2))
        return _complete(k) if m.group(1) == "complete" else _cycle(k)
    raise ValueError(f"unknown graph name: {name!r}")


def random_regular(n, q, seed):
    """Random connected (q+1)-regular simple graph via the pairing model.

    Stubs are paired uniformly at random; pairings producing loops or
    repeated edges are rejected wholesale, as are disconnected results.
    Deterministic for a fixed seed.
    """
    d = q + 1
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if n < q + 2:
        raise ValueError(f"need n >= q+2 = {q + 2} for a simple {d}-regular graph, got n={n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*(q+1) = {n * d} is odd; no {d}-regular graph on {n} vertices")
    _check_order(n)
    rng = random.Random(seed)
    for _ in range(_PAIRING_ATTEMPTS):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        u, v = np.array(stubs).reshape(-1, 2).T
        a = np.zeros((n, n), dtype=np.int8)
        a[u, v] = a[v, u] = 1
        # a loop or a repeated edge leaves fewer than n*d cells set
        if np.count_nonzero(a) == n * d and _is_connected(a):
            return validate(a, source=f"random(n={n}, q={q}, seed={seed})")
    raise GraphGenerationError(
        f"no simple connected graph found in {_PAIRING_ATTEMPTS} pairing attempts (n={n}, q={q})"
    )


def parse_edge_list(text):
    """Parse the edge-list format into a validated graph.

    Lines are read one at a time.  An error names the first offending
    line and the first check it fails, in this order: two tokens,
    integers, no negative index, no self-loop, u < v, no duplicate of an
    earlier line.
    """
    edges = []
    seen = set()
    max_vertex = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: vertex indices must be integers: {raw!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex index: {raw!r}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop {u} {v} is not allowed")
        if u > v:
            raise ValueError(f"line {lineno}: expected u < v, got {raw!r}")
        if (u, v) in seen:
            raise ValueError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add((u, v))
        edges.append((u, v))
        max_vertex = max(max_vertex, v)
    if not edges:
        raise ValueError("no edges found")
    n = max_vertex + 1
    # every vertex has degree >= 2, so |E| = n(q+1)/2 >= n; checking this
    # first keeps a stray huge index from allocating an n x n matrix
    if n > len(edges):
        raise ValueError(
            f"vertex index {max_vertex} implies {n} vertices, but {len(edges)} "
            f"edges cannot give each of them degree >= 2"
        )
    return _from_edges(n, edges, source="edge-list")


def write_edge_list(graph):
    """Render a graph in the edge-list format; inverse of parse_edge_list.

    One "u v" line per edge, sorted.
    """
    return "".join(f"{u} {v}\n" for u, v in graph.edges())
