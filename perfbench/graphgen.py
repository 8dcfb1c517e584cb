"""Seeded graph inputs for the benchmark, independent of the program.

Random graphs come from a plain pairing (configuration) model with its
own ``random.Random``: stubs are shuffled and paired, and pairings with a
loop, a repeated edge or a disconnected result are redrawn.  The program's
own generator is deliberately not used, so the inputs stay byte-identical
when the program's generator changes.  Named graphs are written from
their textbook definitions.  Every input reaches the program only as an
edge-list file.
"""

import hashlib
import random
from collections import deque

MAX_PAIRING_ATTEMPTS = 100_000


def _connected(n, adj):
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == n


def pairing_graph(n, q, rng):
    """Edges (u, v), u < v, of a connected simple (q+1)-regular graph."""
    d = q + 1
    if (n * d) % 2 or n < d + 1:
        raise ValueError(f"no simple {d}-regular graph on {n} vertices")
    for _ in range(MAX_PAIRING_ATTEMPTS):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        adj = [set() for _ in range(n)]
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or v in adj[u]:
                break
            adj[u].add(v)
            adj[v].add(u)
        else:
            if _connected(n, adj):
                return sorted((u, v) for u in range(n) for v in adj[u] if u < v)
    raise RuntimeError(f"pairing model found no simple graph (n={n}, q={q})")


def _petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return edges


NAMED = {
    # complete bipartite K(3,3)
    "utility": lambda: [(u, v) for u in range(3) for v in range(3, 6)],
    "cube": lambda: [(u, u ^ (1 << b)) for u in range(8) for b in range(3)],
    "chvatal": lambda: [
        (0, 1), (0, 4), (0, 6), (0, 9), (1, 2), (1, 5), (1, 7), (2, 3),
        (2, 6), (2, 8), (3, 4), (3, 7), (3, 9), (4, 5), (4, 8), (5, 10),
        (5, 11), (6, 10), (6, 11), (7, 8), (7, 11), (8, 10), (9, 10), (9, 11),
    ],
    "petersen": _petersen,
}


def named_edges(name):
    return sorted({(min(u, v), max(u, v)) for u, v in NAMED[name]()})


def edge_list_text(edges):
    return "".join(f"{u} {v}\n" for u, v in edges)


class GraphInput:
    """One input graph: its edges, the file the program reads, and its hash."""

    def __init__(self, label, edges, path):
        self.label = label
        self.edges = edges
        self.n = 1 + max(v for _, v in edges)
        self.q = 2 * len(edges) // self.n - 1
        self.path = path
        text = edge_list_text(edges)
        path.write_text(text, encoding="utf-8")
        self.sha256 = hashlib.sha256(text.encode()).hexdigest()

    def neighbours(self):
        """n x (q+1) table of neighbour indices, rows sorted."""
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return [sorted(row) for row in adj]


def make_inputs(specs, seed, workdir):
    """Write one edge-list file per spec and return the GraphInput list.

    A spec is a named-graph name or a (label, n, q) triple.  Each random
    graph draws from its own RNG seeded by (seed, label), so adding or
    reordering specs leaves the other graphs unchanged.
    """
    out = []
    for spec in specs:
        if isinstance(spec, str):
            label, edges = spec, named_edges(spec)
        else:
            label, n, q = spec
            rng = random.Random(f"{seed}:{label}")
            edges = pairing_graph(n, q, rng)
        out.append(GraphInput(label, edges, workdir / f"{label}.edges"))
    return out
