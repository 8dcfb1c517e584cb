"""Brute-force oracles used only by the tests.

Deliberately naive and independent of the package internals: plain lists,
recursion, and enumeration.  Expected values frozen into the tests were
computed with these.  The prime-plan references take the ladder module
as an argument, for the sieve, the prime limit and the extension rule,
which they do not re-derive; their prefixes are their own, multiplied
prime by prime.
"""


def count_walks(rows, start, end, k):
    """Number of length-k walks start -> end by explicit enumeration."""
    if k == 0:
        return 1 if start == end else 0
    return sum(
        count_walks(rows, nxt, end, k - 1)
        for nxt in range(len(rows))
        if rows[start][nxt]
    )


def naive_mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def naive_edge_matrix(edges):
    """Directed edge matrix straight from the definition, on plain lists.

    ``edges`` is the sorted undirected edge list; oriented edge 2j is
    forward, 2j+1 backward, matching the package's indexing contract.
    """
    oriented = []
    for u, v in edges:
        oriented.append((u, v))
        oriented.append((v, u))
    m = len(oriented)
    w = [[0] * m for _ in range(m)]
    for e, (_, ev) in enumerate(oriented):
        for f, (fu, fv) in enumerate(oriented):
            if fu == ev and (fv, fu) != oriented[e]:
                w[e][f] = 1
    return w


def brute_geodesic_cycles(graph, k):
    """Count closed k-step oriented-edge walks that never backtrack,
    including across the wrap-around step.  Exponential; small k only."""
    oriented = []
    for u, v in graph.edges():
        oriented.append((u, v))
        oriented.append((v, u))
    total = 0

    def extend(first, prev, steps):
        nonlocal total
        if steps == k:
            if prev[1] == first[0] and first != (prev[1], prev[0]):
                total += 1
            return
        for e in oriented:
            if e[0] == prev[1] and e != (prev[1], prev[0]):
                extend(first, e, steps + 1)

    for e in oriented:
        extend(e, e, 1)
    return total


def parse_edge_list_by_line(text):
    """(n, edges) of an edge-list text, one line at a time, or ValueError.

    The reader's per-line loop before it was vectorised: the first
    offending line raises, with its message; a file with no line error
    gives the vertex count and the edges a graph is then built from.
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
    if n > len(edges):
        raise ValueError(
            f"vertex index {max_vertex} implies {n} vertices, but {len(edges)} "
            f"edges cannot give each of them degree >= 2"
        )
    return n, edges


def reachable_by_sets(rows):
    """Whether a set-based search from vertex 0 over the 0/1 rows reaches every vertex."""
    seen, todo = {0}, [0]
    while todo:
        u = todo.pop()
        for v, entry in enumerate(rows[u]):
            if entry and v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen) == len(rows)


def first_asymmetric_pair(rows):
    """The first (i, j), i < j, in row-major order with rows[i][j] != rows[j][i], or None."""
    n = len(rows)
    return next(((i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j] != rows[j][i]),
                None)


def prefix_by_prime(primes, bound):
    """The fewest leading primes whose product exceeds 2*bound (all if none do), multiplied one by one."""
    size, product, limit = 0, 1, 2 * bound
    for p in primes:
        if product > limit:
            break
        product *= int(p)
        size += 1
    return size


def moduli_by_prime(ladder, m, bound):
    """The ladder's prime list for inner dimension m and ``bound``, as it was
    found prime by prime: the sieve windows and the limit are the
    ladder's, each window is read by :func:`prefix_by_prime`."""
    top = ladder._prime_limit(m) + 1
    width = ladder._WINDOW
    while True:
        lo = max(2, top - width)
        window = ladder._primes_between(lo, top)[::-1]
        size = prefix_by_prime(window, bound)
        if size < len(window) or lo == 2:
            return window[:size].tolist()
        width *= 4


def plan_by_prime(ladder, n, bounds, indices, operands, top, formed, per_block):
    """(primes, size, prefixes) as the ladder's plan once made them, every
    prefix by :func:`prefix_by_prime` and every list by
    :func:`moduli_by_prime`; the extension rule and the inner dimension
    are the ladder's."""
    deviations = [bounds(max(own))[1] for own in indices]
    bound = max(deviations)
    entry = max([bounds(operands[top][-1])[0]] +
                [-(-b // 2) for i, b in enumerate(deviations) if i != top])
    most = formed * n**2 // ((n + 1) * len(operands[top]))
    inner = n
    while True:
        primes = moduli_by_prime(ladder, inner, bound)
        size = min(len(primes), -(-prefix_by_prime(primes, 2 * entry) // per_block) * per_block)
        if size > most or ladder._extension_bits(primes, size) is None:
            size = len(primes)
        if size == len(primes) and inner > n:
            primes = moduli_by_prime(ladder, n, bound)
            size = len(primes)
        if ladder._inner(n, primes, size) <= inner:
            break
        inner = ladder._inner(n, primes, size)
    return primes, size, [prefix_by_prime(primes, b) for b in deviations]


def required_even_indices(ns, eps):
    """2t for the least t with (1+eps)**(2t) >= 4n-7, for each n of the ascending ``ns``.

    One walk up t for all of them.  With 1+eps = a/b, the integers lo and
    hi bracket (a/b)**(2t) 2**256: each step multiplies both by a**2 and
    divides by b**2, rounding lo down and hi up.  A step the bracket
    cannot decide compares the exact powers a**(2t) and (4n-7) b**(2t).
    """
    a, b = (1 + eps).numerator, (1 + eps).denominator
    up, down, scale = a * a, b * b, 1 << 256
    lo = hi = scale
    t, out = 0, []
    for n in ns:
        target = 4 * n - 7
        while lo < target * scale and (hi < target * scale or a ** (2 * t) < target * b ** (2 * t)):
            lo, hi, t = lo * up // down, -(-hi * up // down), t + 1
        out.append(2 * t)
    return out
