"""The Jacobi eigenvalue kernel, with a numba-jitted and a pure-numpy variant.

One kernel lives here: a cyclic Jacobi eigenvalue sweep for symmetric
float64 matrices, which the spectrum oracle uses.  The exact ladder does
not go through this module; its products are float64 BLAS products on
residues (see :mod:`specgap.ladder`).

The jitted variant is compiled whenever numba imports cleanly.  Setting
SPECGAP_DISABLE_NUMBA=1 in the environment forces the numpy fallback.
"""

import math
import os

import numpy as np

_flag = os.environ.get("SPECGAP_DISABLE_NUMBA", "").strip().lower()
_NUMBA_REQUESTED = _flag not in {"1", "true", "yes", "on"}


def _offdiag_norm(a):
    # computed directly from the off-diagonal entries; subtracting the
    # diagonal from the total would cancel catastrophically near convergence
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return math.sqrt((off * off).sum())


def _jacobi_core(a, tol, max_sweeps):
    """Cyclic Jacobi sweeps on a symmetric matrix; scalar loops (jit target).

    Returns (diagonal, sweeps) with sweeps = -1 when the off-diagonal
    Frobenius norm is still >= tol after max_sweeps full sweeps.
    """
    n = a.shape[0]
    off = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            off += a[i, j] * a[i, j]
    off = math.sqrt(2.0 * off)
    if off < tol:
        return np.diag(a).copy(), 0
    for sweep in range(1, max_sweeps + 1):
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for i in range(n):
                    rp = a[p, i]
                    rq = a[q, i]
                    a[p, i] = c * rp - s * rq
                    a[q, i] = s * rp + c * rq
                for i in range(n):
                    cp = a[i, p]
                    cq = a[i, q]
                    a[i, p] = c * cp - s * cq
                    a[i, q] = s * cp + c * cq
        off = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                off += a[i, j] * a[i, j]
        off = math.sqrt(2.0 * off)
        if off < tol:
            return np.diag(a).copy(), sweep
    return np.diag(a).copy(), -1


def jacobi_eigenvalues_numpy(a, tol, max_sweeps):
    """Pure-numpy twin of the Jacobi kernel (vectorized row/column updates)."""
    a = a.astype(np.float64, copy=True)
    n = a.shape[0]
    if _offdiag_norm(a) < tol:
        return np.diag(a).copy(), 0
    for sweep in range(1, max_sweeps + 1):
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                tau = (float(a[q, q]) - float(a[p, p])) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
        if _offdiag_norm(a) < tol:
            return np.diag(a).copy(), sweep
    return np.diag(a).copy(), -1


HAVE_NUMBA = False
jacobi_eigenvalues_numba = None

if _NUMBA_REQUESTED:
    try:
        from numba import njit
    except ImportError:
        pass
    else:
        HAVE_NUMBA = True

        def jacobi_eigenvalues_numba(a, tol, max_sweeps, _core=njit(cache=True)(_jacobi_core)):
            return _core(a.astype(np.float64, copy=True), tol, max_sweeps)


if HAVE_NUMBA:
    jacobi_eigenvalues = jacobi_eigenvalues_numba
else:
    jacobi_eigenvalues = jacobi_eigenvalues_numpy


def backend():
    """Name of the kernel backend selected at import time."""
    return "numba" if HAVE_NUMBA else "numpy"
