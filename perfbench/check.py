"""Independent checks of the program's outputs.

Nothing here calls the program.  Ladder traces are recomputed with the
plain three-term recurrence M(j+1) = A M(j) - q M(j-1), M(0) = 2I,
M(1) = A, where A M is a sum of neighbour rows, carried modulo word-size
primes (exact through the Chinese remainder theorem when enough primes
cover the a-priori bound |trace M(k)| <= n (q^k + 1)).  Spectra come from
LAPACK ``numpy.linalg.eigvalsh``.  Named-graph tables are compared with
the reference rows of the acceptance suite.

Each checker returns a list of mismatch descriptions; empty means correct.
"""

import json
import math
from fractions import Fraction

import numpy as np

# primes just below 2^31: residues, sums of q+1 <= 4 of them, and q times
# a residue all stay far inside int64
PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549)
SPECTRAL_TOL = 1e-8

# eps = 2^-1 .. 2^-10 rows of `table` (verdict, estimate or None); the
# same figures as the README and tests/test_acceptance.py
REFERENCE_TABLES = {
    "utility": [
        (True, 2.000001238), (True, 2.177626550), (True, 2.122056029),
        (False, 2.121320196), (False, 2.121320343), (False, 2.121320344),
        (False, 2.121320343), (False, 2.121320343), (False, 2.121320344),
        (False, 2.121320344),
    ],
    "cube": [
        (True, None), (True, 2.108316962), (True, 2.121691087),
        (False, 2.121320390), (False, 2.121320343), (False, 2.121320343),
        (False, 2.121320343), (False, 2.121320343), (False, 2.121320343),
        (False, 2.121320345),
    ],
    "chvatal": [(True, None)] * 10,
}


def chebyshev_traces_mod(graph, kmax, primes):
    """traces[i][j] = trace M(j) mod primes[i] for j = 0..kmax."""
    nbrs = np.array(graph.neighbours(), dtype=np.intp)
    n, q = graph.n, graph.q
    mods = np.array(primes, dtype=np.int64)[:, None, None]
    prev = np.zeros((len(primes), n, n), dtype=np.int64)
    prev[:, np.arange(n), np.arange(n)] = 2
    cur = np.zeros_like(prev)
    for u in range(n):
        cur[:, u, nbrs[u]] = 1
    out = np.zeros((len(primes), kmax + 1), dtype=np.int64)
    out[:, 0] = 2 * n
    for j in range(1, kmax + 1):
        out[:, j] = cur.diagonal(axis1=1, axis2=2).sum(axis=1) % mods[:, 0, 0]
        if j == kmax:
            break
        prev, cur = cur, (cur[:, nbrs, :].sum(axis=2) - q * prev) % mods
    return [[int(t) for t in row] for row in out]


def exact_traces(graph, kmax):
    """trace M(j) for j = 0..kmax as exact integers (CRT over enough primes)."""
    bound = 2 * graph.n * (graph.q**kmax + 1)
    primes, modulus = [], 1
    for p in PRIMES:
        primes.append(p)
        modulus *= p
        if modulus > bound:
            break
    else:
        raise ValueError(f"k={kmax} needs more than {len(PRIMES)} primes")
    residues = chebyshev_traces_mod(graph, kmax, primes)
    out = []
    for j in range(kmax + 1):
        x = 0
        for p, row in zip(primes, residues):
            m = modulus // p
            x += row[j] * m * pow(m, -1, p)
        x %= modulus
        out.append(x - modulus if x > modulus // 2 else x)
    return out


def trace_from_slack(n, q, k, rational, coeff):
    """Invert the slack formula: the ladder trace behind a reported slack.

    Even k, e = k/2:     rat = 2(n-1) + q^e + (1 - t)/q^e.
    Odd k, e = (k-1)/2:  rat = 2(n-1), coeff = q^e + (1 - t)/q^(e+1).
    """
    rat, coeff = Fraction(rational), Fraction(coeff)
    e = k // 2
    if k % 2 == 0:
        if coeff != 0:
            raise ValueError(f"k={k}: even index with sqrt coefficient {coeff}")
        t = 1 - (rat - 2 * (n - 1) - q**e) * q**e
    else:
        if rat != 2 * (n - 1):
            raise ValueError(f"k={k}: rational part {rat} != 2(n-1)")
        t = 1 - (coeff - q**e) * q ** (e + 1)
    if t.denominator != 1:
        raise ValueError(f"k={k}: recovered trace {t} is not an integer")
    return int(t)


def slack_sign(n, q, k, t):
    """Exact sign of the slack at k given trace t of M(k)."""
    e = k // 2
    if k % 2 == 0:
        v = (2 * (n - 1) + q**e) * q**e + 1 - t
        return (v > 0) - (v < 0)
    c = q ** (2 * e + 1) + 1 - t  # slack = 2(n-1) + (c / q^(e+1)) sqrt(q)
    if c >= 0:
        return 1
    v = 4 * (n - 1) ** 2 * q ** (2 * e + 1) - c * c
    return (v > 0) - (v < 0)


class Oracle:
    """Per-graph reference data, computed once and cached."""

    def __init__(self, graph):
        self.graph = graph
        self._mod = {}
        self._exact = None
        a = np.zeros((graph.n, graph.n))
        for u, v in graph.edges:
            a[u, v] = a[v, u] = 1.0
        self.eigenvalues = sorted(np.linalg.eigvalsh(a).tolist(), reverse=True)
        self.mu = max(abs(x) for x in self.eigenvalues[1:]) / math.sqrt(graph.q)

    def traces_mod(self, kmax):
        if kmax not in self._mod:
            self._mod[kmax] = chebyshev_traces_mod(self.graph, kmax, PRIMES[:2])
        return self._mod[kmax]

    def exact(self, kmax):
        if self._exact is None or len(self._exact) <= kmax:
            self._exact = exact_traces(self.graph, kmax)
        return self._exact


def _cli_results(out, command, graph):
    code, text = out
    if code != 0:
        return None, [f"exit status {code}"]
    payload = json.loads(text)
    errors = []
    if payload.get("command") != command:
        errors.append(f"command {payload.get('command')!r}")
    g = payload.get("graph") or {}
    if (g.get("n"), g.get("q")) != (graph.n, graph.q):
        errors.append(f"graph n,q = {g.get('n')},{g.get('q')}")
    return payload["results"], errors


def _eps(label):
    return Fraction(1, 2 ** int(label.split("-")[1]))


def _verdict_errors(oracle, eps, within, estimate, where):
    """Certificate directions that must agree with the eigenvalues."""
    mu, errors = oracle.mu, []
    if within and mu > 2 + eps + SPECTRAL_TOL:
        errors.append(f"{where}: certified <= 2+eps but mu = {mu}")
    if estimate is not None and mu < 2 - SPECTRAL_TOL:
        errors.append(f"{where}: negative slacks but mu = {mu} < 2")
    if estimate is None and not within:
        errors.append(f"{where}: verdict false without an estimate")
    if mu < 2 - SPECTRAL_TOL and (not within or estimate is not None):
        errors.append(f"{where}: mu = {mu} < 2 needs (true, nil)")
    return errors


def check_estimate(oracle, out, eps_label):
    g = oracle.graph
    res, errors = _cli_results(out, "estimate", g)
    if res is None:
        return errors
    k, k_next = res["k"], res["k_next"]
    eps = _eps(eps_label)
    x = math.log(4 * g.n - 7) / (2 * math.log1p(float(eps)))
    if abs(x - round(x)) > 1e-6 and k != 2 * math.ceil(x):
        errors.append(f"k = {k}, expected {2 * math.ceil(x)}")
    if k_next != k + 2:
        errors.append(f"k_next = {k_next}")
    mod = oracle.traces_mod(k + 2)
    signs = []
    for key, kk in (("slack", k), ("slack_next", k_next)):
        s = res[key]
        if s["k"] != kk:
            errors.append(f"{key}.k = {s['k']}")
            continue
        t = trace_from_slack(g.n, g.q, kk, s["rational"], s["sqrt_coeff"])
        for p, row in zip(PRIMES, mod):
            if t % p != row[kk]:
                errors.append(f"trace at k={kk} wrong mod {p}")
        signs.append(slack_sign(g.n, g.q, kk, t))
    if res["estimate"] is not None and any(s >= 0 for s in signs):
        errors.append("estimate given although a slack is nonnegative")
    errors += _verdict_errors(oracle, eps, res["within_bound"], res["estimate"],
                              f"eps={eps_label}")
    return errors


def check_table(oracle, out, label):
    res, errors = _cli_results(out, "table", oracle.graph)
    if res is None:
        return errors
    rows = res["rows"]
    if [r["epsilon"] for r in rows] != [f"2^-{i}" for i in range(1, 11)]:
        return errors + ["epsilon column"]
    for r in rows:
        errors += _verdict_errors(oracle, _eps(r["epsilon"]), r["within_bound"],
                                  r["estimate"], r["epsilon"])
    for r, (want, est) in zip(rows, REFERENCE_TABLES.get(label, ())):
        got = r["estimate"]
        if r["within_bound"] != want or (got is None) != (est is None) or (
                est is not None and abs(got - est) > 1e-5):
            errors.append(f"{r['epsilon']}: ({r['within_bound']}, {got}) != reference")
    return errors


def check_hseq(oracle, out, kmax):
    g = oracle.graph
    res, errors = _cli_results(out, "hseq", g)
    if res is None:
        return errors
    exact = oracle.exact(kmax)
    slacks = res["slacks"]
    if [s["k"] for s in slacks] != list(range(1, kmax + 1)):
        return errors + ["k column"]
    for s in slacks:
        k = s["k"]
        if trace_from_slack(g.n, g.q, k, s["rational"], s["sqrt_coeff"]) != exact[k]:
            errors.append(f"trace at k={k}")
    return errors


def check_scan(oracle, report, kmax):
    g = oracle.graph
    exact = oracle.exact(kmax)
    want = next((k for k in range(1, kmax + 1)
                 if slack_sign(g.n, g.q, k, exact[k]) < 0), None)
    if report != {"k_max": kmax, "first_negative_k": want}:
        return [f"scan {report}, expected first negative {want}"]
    return []


def check_oracle(oracle, out, kmax):
    g = oracle.graph
    res, errors = _cli_results(out, "oracle", g)
    if res is None:
        return errors
    eig = res["eigenvalues"]
    if len(eig) != g.n or max(abs(a - b) for a, b in zip(eig, oracle.eigenvalues)) > SPECTRAL_TOL:
        errors.append("eigenvalues differ from eigvalsh")
    if abs(res["mu"] - oracle.mu) > SPECTRAL_TOL:
        errors.append(f"mu {res['mu']} != {oracle.mu}")
    radius = oracle.mu * math.sqrt(g.q)
    if abs(res["spectral_gap"] - (g.q + 1 - radius)) > SPECTRAL_TOL:
        errors.append(f"spectral gap {res['spectral_gap']}")
    inner = [abs(x) for x in oracle.eigenvalues if abs(x) < g.q + 1 - 1e-6]
    inner_max = max(inner, default=0.0)
    if abs(inner_max - 2 * math.sqrt(g.q)) > 1e-6 and (
            res["is_ramanujan"] != (inner_max <= 2 * math.sqrt(g.q))):
        errors.append(f"is_ramanujan {res['is_ramanujan']}")
    exact = oracle.exact(kmax)
    holds = True
    for k in range(1, kmax + 1):
        dev = exact[k] + (g.n * (g.q - 1) if k % 2 == 0 else 0) - g.q**k - 1
        holds = holds and dev * dev <= 4 * (g.n - 1) ** 2 * g.q**k
    if res["bounds_hold_up_to"] != kmax or res["bounds_hold"] != holds:
        errors.append(f"bounds_hold {res['bounds_hold']}, expected {holds}")
    return errors
