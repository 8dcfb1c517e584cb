import os
import subprocess
import sys

import numpy as np
import pytest

import specgap._kernels as kernels
import specgap as sg


def test_backend_reports_a_known_name():
    assert kernels.backend() in {"numba", "numpy"}


def _random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(n, n)).astype(np.float64)
    return (a + a.T) / 2


def test_numpy_jacobi_matches_numpy_eigvalsh():
    for n, seed in [(6, 0), (11, 1), (20, 2)]:
        a = _random_symmetric(n, seed)
        diag, sweeps = kernels.jacobi_eigenvalues_numpy(a.copy(), 1e-12, 100)
        assert sweeps >= 0
        mine = np.sort(diag)
        ref = np.sort(np.linalg.eigvalsh(a))
        assert np.max(np.abs(mine - ref)) < 1e-9


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba backend not active")
def test_numba_and_numpy_jacobi_agree():
    for n, seed in [(6, 3), (14, 4), (25, 5)]:
        a = _random_symmetric(n, seed)
        d1, _ = kernels.jacobi_eigenvalues_numba(a.copy(), 1e-12, 100)
        d2, _ = kernels.jacobi_eigenvalues_numpy(a.copy(), 1e-12, 100)
        assert np.max(np.abs(np.sort(d1) - np.sort(d2))) < 1e-10


def test_unconverged_flag():
    a = _random_symmetric(12, 7)
    _, sweeps = kernels.jacobi_eigenvalues_numpy(a, 1e-12, 0)
    assert sweeps == -1


def test_env_flag_selects_numpy_fallback():
    env = dict(os.environ, SPECGAP_DISABLE_NUMBA="1")
    code = (
        "import specgap._kernels as k\n"
        "import specgap as sg\n"
        "assert k.backend() == 'numpy'\n"
        "assert k.HAVE_NUMBA is False\n"
        "s = sg.adjacency_spectrum(sg.named_graph('utility'))\n"
        "assert abs(s[0] - 3) < 1e-9\n"
        "assert sg.geodesic_count(sg.named_graph('utility'), 4) == 72\n"
        "print('fallback-ok')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert "fallback-ok" in out.stdout


def test_spectra_identical_across_backends_for_the_package_surface():
    # the package-level answer must not depend on the backend choice
    env = dict(os.environ, SPECGAP_DISABLE_NUMBA="1")
    code = (
        "import specgap as sg\n"
        "print(repr(sg.adjacency_spectrum(sg.named_graph('chvatal')).values))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    fallback_values = eval(out.stdout.strip())
    here = sg.adjacency_spectrum(sg.named_graph("chvatal")).values
    assert max(abs(a - b) for a, b in zip(here, fallback_values)) < 1e-10
